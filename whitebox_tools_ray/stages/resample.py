"""Resample / Mosaic / AggregateRaster — grid-to-grid pixel transfer.

Reference semantics:
- Resample (image_analysis/resample.rs; methods ``nn|bilinear|cc``
  :68-71): for every DEST cell center, locate the source cell
  (world coords via the ±res/2 center convention) and interpolate.
- Mosaic (image_analysis/mosaic.rs): same per-dest-cell lookup over
  MULTIPLE source rasters; later sources win where they overlap
  (reference iterates source files in order).
- AggregateRaster (gis_analysis/aggregate_raster.rs): n×n block
  downsample (mean/min/max/sum) — a pure per-tile reshape reduce when
  the factor divides the tile size.

Ray-Data design: the DEST tile grid streams; each dest tile gathers the
source tiles it overlaps (a broadcast dict src_tile_id → bytes for
moderate scenes; the co-partitioned variant shuffles source tiles by
dest-tile key). Bilinear needs a 1-source-cell margin — handled by
reading up to 4 source tiles per dest corner.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import codecs
from ..kernels.grid import GridSpec
from ..sources.tiles import SceneSpec
from .bsp import combine_tile_layers, decode


def _gather_src(
    sx: np.ndarray, sy: np.ndarray, src_tiles: dict[int, np.ndarray], src_spec, default: float
) -> np.ndarray:
    """Values of source scene at world coords (vectorized tile gather)."""
    gs = src_spec.grid_spec()
    col = gs.col_from_x(sx)
    row = gs.row_from_y(sy)
    out = np.full(sx.shape, default, dtype=np.float64)
    ok = (row >= 0) & (row < gs.rows) & (col >= 0) & (col < gs.columns)
    tpx = src_spec.tile_px
    tr = row[ok] // tpx
    tc = col[ok] // tpx
    tid = tr * src_spec.tiles_x + tc
    vals = np.full(tid.shape, default, dtype=np.float64)
    for t in np.unique(tid):
        g = src_tiles.get(int(t))
        if g is None:
            continue
        m = tid == t
        vals[m] = g[row[ok][m] % tpx, col[ok][m] % tpx]
    out[ok] = vals
    return out


def _resample_tile_grid(tr: int, tc: int, src_tiles: dict, src_spec,
                        dest_gs: GridSpec, tpx: int, method: str) -> np.ndarray:
    """Resample ONE dest tile (tr, tc) from whatever source tiles are
    present in ``src_tiles`` (missing source tiles read as nodata) —
    shared by the broadcast actor and the co-partitioned group path.

    Reference arithmetic REPRODUCED VERBATIM (resample.rs; mosaic.rs
    carries the same loops):
    - ``nn``: floor cell lookup (raster/mod.rs:635-641).
    - ``bilinear`` (:395-457) and ``cc`` (:308-371) are NOT textbook
      kernels — both compute an inverse-distance-squared weighted mean
      over the 2x2 / 4x4 neighbourhood anchored at
      floor((north-y)/res), floor((x-west)/res) — EDGE-fraction
      coordinates, no half-cell center shift. Two reference quirks are
      kept deliberately: (a) the exact-hit test is ``(dx + dy) != 0``,
      which also zero-weights valid anti-diagonal neighbours where
      dx == -dy; (b) a neighbour that IS an exact hit gets no weight,
      and when any other neighbour carries weight the weighted mean
      OVERWRITES the exact value — the hit value only survives when
      every other neighbour is nodata. Per-neighbour nodata weights 0;
      cells with zero total weight and no hit are nodata."""
    gs = dest_gs
    rows = np.arange(tr * tpx, (tr + 1) * tpx)
    cols = np.arange(tc * tpx, (tc + 1) * tpx)
    y = gs.y_from_row(rows)
    x = gs.x_from_col(cols)
    gx, gy = np.meshgrid(x, y)
    nod = gs.nodata
    if method == "nn":
        return _gather_src(gx, gy, src_tiles, src_spec, nod)
    if method == "bilinear":
        shifts = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (sy, sx), resample.rs:406-407
    elif method == "cc":
        shifts = [(sy, sx) for sy in (-1, 0, 1, 2) for sx in (-1, 0, 1, 2)]
    else:
        raise ValueError(method)
    sgs = src_spec.grid_spec()
    row_src = (sgs.north - gy) / sgs.res_y
    col_src = (gx - sgs.west) / sgs.res_x
    o_r = np.floor(row_src)
    o_c = np.floor(col_src)
    num = np.zeros(gx.shape)
    den = np.zeros(gx.shape)
    hit_val = np.full(gx.shape, nod)
    has_hit = np.zeros(gx.shape, dtype=bool)
    for sy, sx in shifts:
        rn = o_r + sy
        cn = o_c + sx
        dy = rn - row_src
        dx = cn - col_src
        # world coords of the integer cell's center → _gather_src floors
        # back to exactly (rn, cn)
        xw = sgs.west + (cn + 0.5) * sgs.res_x
        yw = sgs.north - (rn + 0.5) * sgs.res_y
        v = _gather_src(xw, yw, src_tiles, src_spec, nod)
        valid = v != nod
        hit = (dx + dy) == 0.0
        w = np.where(valid & ~hit, 1.0 / np.where(hit, 1.0, dx * dx + dy * dy), 0.0)
        num += np.where(valid & ~hit, v * w, 0.0)
        den += w
        upd = hit & valid
        hit_val = np.where(upd, v, hit_val)  # later hits overwrite (loop order)
        has_hit |= upd
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0, num / np.where(den > 0, den, 1.0),
                       np.where(has_hit, hit_val, nod))
    return out


class _ResampleActor:
    def __init__(self, src_ref, src_spec, dest_gs: GridSpec, dest_tile_px: int, method: str,
                 out_fmt: str = "f32"):
        import ray

        self.src_tiles = ray.get(src_ref)
        self.src_spec = src_spec
        self.dest_gs = dest_gs
        self.tpx = dest_tile_px
        self.method = method
        self.out_fmt = out_fmt

    def _resample_tile(self, tr: int, tc: int) -> np.ndarray:
        return _resample_tile_grid(tr, tc, self.src_tiles, self.src_spec,
                                   self.dest_gs, self.tpx, self.method)

    def __call__(self, batch: pa.Table) -> pa.Table:
        tids = batch["tile_id"].to_numpy(zero_copy_only=False)
        tiles_x = int(np.ceil(self.dest_gs.columns / self.tpx))
        blobs = []
        trs, tcs = [], []
        for t in tids:
            tr, tc = int(t) // tiles_x, int(t) % tiles_x
            blobs.append(codecs.encode_tile(self._resample_tile(tr, tc), self.out_fmt))
            trs.append(tr)
            tcs.append(tc)
        return pa.table(
            {
                "tile_id": pa.array(tids, pa.int64()),
                "tile_row": pa.array(trs, pa.int32()),
                "tile_col": pa.array(tcs, pa.int32()),
                "bytes": pa.array(blobs, pa.binary()),
                "fmt": pa.array([self.out_fmt] * len(blobs), pa.string()),
            }
        )


def resample(src_table, src_spec, dest_gs: GridSpec, dest_tile_px: int = 64, method: str = "nn", concurrency=(1, 8), out_fmt: str = "f32"):
    """Resample a tiled scene onto ``dest_gs``. A ``pa.Table`` source
    broadcasts (decoded once per actor; dest tiles stream from
    ray.data.range) — the small-source fast path. A tile ``Dataset``
    source routes through the co-partitioned shuffle
    (``resample_shuffled``) instead: the 100-TB path, no broadcast."""
    import ray
    import ray.data as rd

    if not isinstance(src_table, pa.Table):
        return resample_shuffled(src_table, src_spec, dest_gs, dest_tile_px, method,
                                 out_fmt=out_fmt)

    src_tiles = {}
    tpd = src_table.to_pydict()
    for i in range(src_table.num_rows):
        tid = tpd["tile_row"][i] * src_spec.tiles_x + tpd["tile_col"][i]
        src_tiles[tid] = codecs.decode_tile(tpd["bytes"][i], tpd["fmt"][i])
    ref = ray.put(src_tiles)
    tiles_x = int(np.ceil(dest_gs.columns / dest_tile_px))
    tiles_y = int(np.ceil(dest_gs.rows / dest_tile_px))
    ds = rd.range(tiles_x * tiles_y).map_batches(
        lambda b: pa.table({"tile_id": pa.array(b["id"].to_numpy(zero_copy_only=False), pa.int64())}),
        batch_format="pyarrow",
    )
    return ds.map_batches(
        _ResampleActor,
        fn_constructor_args=(ref, src_spec, dest_gs, dest_tile_px, method, out_fmt),
        batch_format="pyarrow",
        batch_size=4,
        concurrency=concurrency,
    )


def aggregate_raster(tiles_ds, spec, factor: int, stat: str = "mean"):
    """AggregateRaster (gis_analysis/aggregate_raster.rs:272-297): n×n
    block downsample per tile (factor must divide tile_px — each output
    tile is tile_px/factor square). Blocks aggregate VALID cells only
    (the reference skips ``z != nodata`` per cell); a block with no
    valid cell is nodata."""
    if spec.tile_px % factor:
        raise ValueError("factor must divide tile_px")
    nod = spec.nodata

    def agg(batch: pa.Table) -> pa.Table:
        blobs = []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            h, w = g.shape
            b = g.reshape(h // factor, factor, w // factor, factor)
            v = b != nod
            n_valid = v.sum(axis=(1, 3))
            if stat == "mean":
                out = np.where(v, b, 0.0).sum(axis=(1, 3)) / np.maximum(n_valid, 1)
            elif stat == "min":
                out = np.where(v, b, np.inf).min(axis=(1, 3))
            elif stat == "max":
                out = np.where(v, b, -np.inf).max(axis=(1, 3))
            elif stat == "sum":
                out = np.where(v, b, 0.0).sum(axis=(1, 3))
            else:
                raise ValueError(stat)
            out = np.where(n_valid > 0, out, nod)
            blobs.append(codecs.encode_tile(out, "f32"))
        t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
        return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(["f32"] * t.num_rows))

    return tiles_ds.map_batches(agg, batch_format="pyarrow", batch_size=16)


def _route_tiles_to_dest(src_ds, src_spec, dest_gs: GridSpec, dest_tile_px: int,
                         layer: int, halo_cells: int = 2):
    """flat-map each SOURCE tile to every DEST tile whose footprint it
    intersects (padded by ``halo_cells`` source cells so bilinear/cubic
    corner lookups never miss a neighbour). One keyed shuffle routes the
    bytes; duplication is boundary-tiles only (O(perimeter))."""
    sgs = src_spec.grid_spec()
    stpx = src_spec.tile_px
    dtx = int(np.ceil(dest_gs.columns / dest_tile_px))
    dty = int(np.ceil(dest_gs.rows / dest_tile_px))
    pad_x = halo_cells * sgs.res_x
    pad_y = halo_cells * sgs.res_y
    dwx = dest_gs.res_x * dest_tile_px
    dwy = dest_gs.res_y * dest_tile_px

    def route(batch: pa.Table) -> pa.Table:
        dk, st, bs, fm = [], [], [], []
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            x0 = sgs.west + tc * stpx * sgs.res_x - pad_x
            x1 = sgs.west + (tc + 1) * stpx * sgs.res_x + pad_x
            y1 = sgs.north - tr * stpx * sgs.res_y + pad_y
            y0 = sgs.north - (tr + 1) * stpx * sgs.res_y - pad_y
            c0 = max(0, int(np.floor((x0 - dest_gs.west) / dwx)))
            c1 = min(dtx - 1, int(np.floor((x1 - dest_gs.west) / dwx)))
            r0 = max(0, int(np.floor((dest_gs.north - y1) / dwy)))
            r1 = min(dty - 1, int(np.floor((dest_gs.north - y0) / dwy)))
            if c1 < c0 or r1 < r0:
                continue
            b = batch["bytes"][i].as_py()
            f = batch["fmt"][i].as_py()
            stid = tr * src_spec.tiles_x + tc
            for dr in range(r0, r1 + 1):
                for dc in range(c0, c1 + 1):
                    dk.append(dr * dtx + dc)
                    st.append(stid)
                    bs.append(b)
                    fm.append(f)
        n = len(dk)
        return pa.table(
            {
                "dkey": pa.array(dk, pa.int64()),
                "__layer": pa.array([layer] * n, pa.int64()),
                "stid": pa.array(st, pa.int64()),
                "bytes": pa.array(bs, pa.binary()),
                "fmt": pa.array(fm, pa.string()),
            }
        )

    return src_ds.map_batches(route, batch_format="pyarrow")


def _dest_seed(dest_gs: GridSpec, dest_tile_px: int):
    """One marker row per dest tile (layer −1, no payload) so dest tiles
    covered by NO source still appear in the groupby output (as nodata)."""
    import ray.data as rd

    dtx = int(np.ceil(dest_gs.columns / dest_tile_px))
    dty = int(np.ceil(dest_gs.rows / dest_tile_px))

    def seed(batch) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        n = len(ids)
        return pa.table(
            {
                "dkey": pa.array(ids, pa.int64()),
                "__layer": pa.array(np.full(n, -1, dtype=np.int64)),
                "stid": pa.array(np.full(n, -1, dtype=np.int64)),
                "bytes": pa.array([b""] * n, pa.binary()),
                "fmt": pa.array(["f32"] * n, pa.string()),
            }
        )

    return rd.range(dtx * dty).map_batches(seed, batch_format="pyarrow")


def _mosaic_groups(layer_specs: list, dest_gs: GridSpec, dest_tile_px: int, method: str, routed,
                   out_fmt: str = "f32"):
    """groupby(dest tile) → per group, resample each present layer and
    keep the FIRST source with valid data per cell (mosaic.rs:362-370:
    the reference iterates sources in order and ``break``s on the first
    non-nodata value — earlier sources take priority)."""
    import pandas as pd

    dtx = int(np.ceil(dest_gs.columns / dest_tile_px))
    nod = dest_gs.nodata
    tpx = dest_tile_px

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        dkey = int(g["dkey"].iloc[0])
        tr, tc = dkey // dtx, dkey % dtx
        out = None
        for li, spec_i in enumerate(layer_specs):
            sel = g[g["__layer"] == li]
            if not len(sel):
                continue
            src_tiles = {
                int(s): codecs.decode_tile(bytes(b), f)
                for s, b, f in zip(sel["stid"], sel["bytes"], sel["fmt"])
            }
            gl = _resample_tile_grid(tr, tc, src_tiles, spec_i, dest_gs, tpx, method)
            out = gl if out is None else np.where(out != nod, out, gl)
        if out is None:
            out = np.full((tpx, tpx), nod)
        return pd.DataFrame(
            {
                "tile_id": [dkey],
                "tile_row": [tr],
                "tile_col": [tc],
                "bytes": [codecs.encode_tile(out, out_fmt)],
                "fmt": [out_fmt],
            }
        )

    return routed.groupby("dkey").map_groups(combine, batch_format="pandas")


def resample_shuffled(src_ds, src_spec, dest_gs: GridSpec, dest_tile_px: int = 64, method: str = "nn", out_fmt: str = "f32"):
    """Co-partitioned resample for sources too large to broadcast: source
    tiles shuffle once to the dest tiles they overlap, each dest tile
    resamples from its local gather. Same per-cell arithmetic as the
    broadcast path (`_resample_tile_grid`)."""
    routed = _route_tiles_to_dest(src_ds, src_spec, dest_gs, dest_tile_px, layer=0)
    return _mosaic_groups([src_spec], dest_gs, dest_tile_px, method,
                          routed.union(_dest_seed(dest_gs, dest_tile_px)),
                          out_fmt=out_fmt)


def mosaic(src_tables: list, dest_gs: GridSpec, dest_tile_px: int = 64, method: str = "nn"):
    """Mosaic (image_analysis/mosaic.rs:339-520): per dest cell, iterate
    sources IN ORDER and take the first non-nodata value (the reference
    ``break``s at the first valid source, :362-370).

    Fully distributed: each source (``pa.Table`` or tile ``Dataset``,
    paired with its SceneSpec) routes its tiles to the dest tiles they
    overlap, one ``groupby(dest_tile)`` zips all layers, and the group
    resamples + overlays in source order. No driver-side materialization;
    shuffle volume is O(source bytes × boundary duplication).

    Returns Dataset[tile_row, tile_col, bytes, fmt] on the dest grid."""
    import ray.data as rd

    routed = _dest_seed(dest_gs, dest_tile_px)
    specs = []
    for li, (src, spec) in enumerate(src_tables):
        ds = rd.from_arrow(src) if isinstance(src, pa.Table) else src
        routed = routed.union(_route_tiles_to_dest(ds, spec, dest_gs, dest_tile_px, layer=li))
        specs.append(spec)
    return _mosaic_groups(specs, dest_gs, dest_tile_px, method, routed)


def mosaic_with_feathering(
    src_tables: list[tuple[pa.Table, SceneSpec]],
    dest_gs: GridSpec,
    dest_tile_px: int = 64,
    method: str = "bilinear",
    concurrency=(1, 8),
):
    """MosaicWithFeathering (image_analysis/mosaic_with_feathering.rs):
    where source images overlap, blend with weights proportional to each
    source's distance-to-its-own-edge, so seams fade instead of cutting.

    Engine form: resample every source onto the destination grid (the
    existing per-tile gather; each resampled layer holds every dest
    tile), zip the resampled layers on the dest tile key
    (:func:`bsp.combine_tile_layers` over the dest tiling), then blend
    each tile's stack in source order, weighting each source by the
    distance from the sample point to its nearest extent edge in dest
    units (the reference computes the same from valid-data margins)."""
    nod = dest_gs.nodata
    tpx = dest_tile_px
    layers, extents = {}, []
    for k, (table, spec) in enumerate(src_tables):
        layers[f"layer{k}"] = resample(table, spec, dest_gs, tpx, method, concurrency=concurrency)
        sgs = spec.grid_spec()
        extents.append((
            sgs.west,
            sgs.north - sgs.rows * sgs.res_y,
            sgs.west + sgs.columns * sgs.res_x,
            sgs.north,
        ))
    dest_spec = SceneSpec(tiles_x=int(np.ceil(dest_gs.columns / tpx)),
                          tiles_y=int(np.ceil(dest_gs.rows / tpx)), tile_px=tpx)

    def blend(batch: pa.Table) -> pa.Table:
        trs = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcs = batch["tile_col"].to_numpy(zero_copy_only=False)
        blobs = []
        for i in range(batch.num_rows):
            tr, tc = int(trs[i]), int(tcs[i])
            y = dest_gs.y_from_row(np.arange(tr * tpx, (tr + 1) * tpx))
            x = dest_gs.x_from_col(np.arange(tc * tpx, (tc + 1) * tpx))
            gx, gy = np.meshgrid(x, y)
            num = np.zeros(gx.shape)
            den = np.zeros(gx.shape)
            for name, (w0, s0, e0, n0) in zip(layers, extents):
                v = decode(batch, name, i)
                # feather weight = distance to the source's nearest edge
                wgt = np.maximum(np.minimum.reduce([gx - w0, e0 - gx, gy - s0, n0 - gy]), 0.0)
                ok = (v != nod) & (wgt > 0)
                num += np.where(ok, v * wgt, 0.0)
                den += np.where(ok, wgt, 0.0)
            out = np.where(den > 0, num / np.where(den > 0, den, 1.0), nod)
            blobs.append(codecs.encode_tile(out, "f32"))
        return codecs.tile_table(trs, tcs, blobs, ["f32"] * len(blobs))

    return combine_tile_layers(dest_spec, **layers).map_batches(blend, batch_format="pyarrow")
