"""Hydro / stream closures — compositions over the existing engines.

Everything here composes machinery that already has a Dataset-native
scale shape: the terminal-resolution shards (``basins``), the
multi-direction drain (``flow2``), the exact EDT/allocation
(``distance``), the priority-flood fill (``fill``), the keyed tile zip
(``band_math.overlay_fn``), and the distinct-value prefix scan
(``stats3``). The driver only moves parameters and tiny tables.

- downslope_flowpath_length — DownslopeFlowpathLength
  (downslope_flowpath_length.rs): terminal-resolution ``acc`` mode.
- average_flowpath_slope — AverageFlowpathSlope
  (average_flowpath_slope.rs): (z − z_terminal)/L per cell.
- flow_length_diff — FlowLengthDiff (flow_length_diff.rs): max
  |L(cell) − L(neighbour that flows into cell)| − step, i.e. abrupt
  changes in downslope flowpath length (one focal pass on the L layer).
- longest_flowpath — LongestFlowpath (longest_flowpath.rs): per basin,
  the maximum head-cell flowpath length (zonal max over basin labels).
- elevation_above_stream_euclidean — ElevationAboveStreamEuclidean
  (elevation_above_stream_euclidean.rs): z − allocation(z of nearest
  stream cell) via the exact feature transform.
- fill_burn — FillBurn (fill_burn.rs): burn streams into the DEM, then
  priority-flood fill.
- raise_walls / burn_streams_at_roads — simple masked z adjustments
  through the tile zip.
- flatten_lakes — FlattenLakes (flatten_lakes.rs): per-lake min z
  (tiny zonal table) painted back.
- flood_order — FloodOrder (flood_order.rs): priority-flood pops cells
  in nondecreasing FILLED elevation, so the visit rank is the global
  rank of the filled surface (distinct-value prefix scan; ties ranked
  by value-block order rather than the reference's heap insertion
  order — documented).
- unnest_basins — UnnestBasins (unnest_basins.rs): pour points grouped
  into nesting levels; one watershed layer per level.
- hillslopes — Hillslopes (hillslopes.rs): subbasin label × 3 + side,
  side from the cross product of the stream direction at the terminal
  stream cell with the cell's offset (geometric left/right
  approximation of the reference's entry-direction rule, documented).
- extract_valleys — ExtractValleys (extract_valleys.rs J&R variant):
  cells with higher N+S or E+W neighbours (+ optional thinning).
- stream_slope_continuous — StreamSlopeContinuous: per stream cell,
  slope to its downstream neighbour.
- long_profile — LongProfile: per-link (distance-to-outlet, z) table.
- profile — Profile (profile.rs): z sampled along a polyline.
- slope_vs_elevation_plot — SlopeVsElevationPlot: 2-D histogram table.
- elev_relative_to_watershed_min_max — ElevRelativeToWatershedMinMax:
  per-basin min/max painted back, (z−min)/(max−min).
- stochastic_depression_analysis — StochasticDepressionAnalysis
  (stochastic_depression_analysis.rs): K seeded autocorrelated error
  fields, fill each, pdep = fraction of realizations where the cell
  filled.
- remove_off_terrain_objects — RemoveOffTerrainObjects: cells more than
  ``threshold`` above their opening take the opened surface.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs
from . import band_math
from .focal import DX8, DY8, _shifted, focal_op, f32_tiles


def _term_acc_ds(pointer_ds, spec, num_workers: int = 4, out_dir: str | None = None,
                 mode: str = "acc", tgt_ds=None):
    import ray
    import ray.data as rd

    from .basins import _ptr_only_rows, _run_terminal_resolution
    from .bsp import combine_tile_layers

    if tgt_ds is None:
        rows = _ptr_only_rows(pointer_ds, spec)
    else:
        combined = combine_tile_layers(spec, ptrl=pointer_ds, tgtl=tgt_ds)

        def adapt(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "tile_row": batch["tile_row"],
                    "tile_col": batch["tile_col"],
                    "ptr": batch["ptrl"],
                    "ptr_fmt": batch["ptrl_fmt"],
                    "tgt": batch["tgtl"],
                    "tgt_fmt": batch["tgtl_fmt"],
                }
            )

        rows = combined.map_batches(adapt, batch_format="pyarrow")
    out_dir = out_dir or tempfile.mkdtemp(prefix="termacc_", dir="/tmp")
    os.makedirs(out_dir, exist_ok=True)
    workers = _run_terminal_resolution(rows, spec, num_workers)
    ray.get([
        w.dump_mode.remote(os.path.join(out_dir, f"shard_{i}.parquet"), mode)
        for i, w in enumerate(workers)
    ])
    return rd.read_parquet(out_dir), workers


def downslope_flowpath_length(dem_ds, spec, num_workers: int = 4):
    from .flow import d8_pointer_masked

    ptr = d8_pointer_masked(dem_ds, spec)
    ds, _w = _term_acc_ds(ptr, spec, num_workers)
    return ds


def average_flowpath_slope(dem_ds, spec, num_workers: int = 4):
    """(z − z_terminal) / L — both layers from one terminal resolution."""
    from .terrain2 import elev_above_pit

    eap = elev_above_pit(dem_ds, spec, num_workers)
    length = downslope_flowpath_length(dem_ds, spec, num_workers)

    def fn(dz, ln):
        with np.errstate(all="ignore"):
            return np.where(ln > 0, dz / ln, 0.0)

    return band_math.overlay_fn(eap, length, spec, fn, out_fmt="f64")


def flow_length_diff(dem_ds, spec, num_workers: int = 4):
    """Focal max |L − L_inflow| − step over the 8-neighbourhood of the
    downslope-flowpath-length layer."""
    length = downslope_flowpath_length(dem_ds, spec, num_workers)

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        best = np.zeros(z.shape)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            step = spec_.res * (np.sqrt(2.0) if DY8[i] and DX8[i] else 1.0)
            d = np.abs(np.where(zi != nodata, zi, z) - z) - step
            best = np.maximum(best, np.where(zi != nodata, d, 0.0))
        return np.where(z != nodata, np.maximum(best, 0.0), nodata)

    return focal_op(length, spec, kernel, 1)


def longest_flowpath(dem_ds, spec, num_workers: int = 4):
    """Per-basin longest flowpath length — zonal max of head-cell L over
    the basin label (tiny table: one row per basin)."""
    from .basins import basins_ds
    from .bsp import combine_tile_layers
    from .flow import d8_pointer_masked, pointer_with_indegree

    ptr = d8_pointer_masked(dem_ds, spec)
    length, _ = _term_acc_ds(ptr, spec, num_workers)
    labels = basins_ds(ptr, spec, num_workers)
    ind = pointer_with_indegree(ptr, spec)

    def ind_only(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tile_row": batch["tile_row"],
                "tile_col": batch["tile_col"],
                "bytes": batch["ind"],
                "fmt": pa.array(["i8"] * batch.num_rows, pa.string()),
            }
        )

    head = ind.map_batches(ind_only, batch_format="pyarrow")
    combined = combine_tile_layers(spec, lab=labels, ln=length, ind=head)

    def partial(batch: pa.Table) -> pa.Table:
        frames = []
        for i in range(batch.num_rows):
            lab = codecs.decode_tile(batch["lab"][i].as_py(), batch["lab_fmt"][i].as_py())
            ln = codecs.decode_tile(batch["ln"][i].as_py(), batch["ln_fmt"][i].as_py())
            ig = codecs.decode_tile(batch["ind"][i].as_py(), "i8")
            m = (ig == 0) & (lab != spec.nodata)
            if m.any():
                df = pd.DataFrame({"basin": lab[m], "l": ln[m]})
                frames.append(df.groupby("basin", as_index=False)["l"].max())
        if not frames:
            return pa.table({"basin": pa.array([], pa.float64()), "l": pa.array([], pa.float64())})
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True), preserve_index=False)

    parts = combined.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("basin", as_index=False)["l"].max()
    return out.rename(columns={"l": "longest_flowpath"})


def elevation_above_stream_euclidean(dem_ds, streams_ds, spec):
    """z − value of the euclidean-nearest stream cell (stream z carried
    through the exact feature transform)."""
    from .distance import euclidean_allocation_ds

    # target grid: stream cells carry the DEM z (shifted +1 so z=0 cells
    # stay targets), others 0
    def mk_target(dem, stream):
        return np.where(stream > 0, dem + 1.0e4, 0.0)

    tgt = band_math.overlay_fn(dem_ds, streams_ds, spec, mk_target)
    alloc = euclidean_allocation_ds(tgt, spec)

    def fn(z, a):
        return z - (a - 1.0e4)

    return band_math.overlay_fn(dem_ds, alloc, spec, fn)


def fill_burn(dem_ds, streams_ds, spec, burn: float = 10.0, num_workers: int = 4):
    from .fill import fill_depressions_ds

    burned = band_math.overlay_fn(
        dem_ds, streams_ds, spec, lambda z, s: np.where(s > 0, z - burn, z)
    )
    return fill_depressions_ds(burned, spec, num_workers=num_workers)


def raise_walls(dem_ds, walls_ds, spec, height: float = 100.0):
    return band_math.overlay_fn(
        dem_ds, walls_ds, spec, lambda z, w: np.where(w > 0, z + height, z)
    )


def burn_streams_at_roads(dem_ds, streams_ds, roads_ds, spec, depth: float = 10.0):
    sr = band_math.overlay_fn(streams_ds, roads_ds, spec, lambda s, r: ((s > 0) & (r > 0)).astype(float))
    return band_math.overlay_fn(dem_ds, sr, spec, lambda z, m: np.where(m > 0, z - depth, z))


def flatten_lakes(dem_ds, lakes_ds, spec):
    """Per-lake min z (tiny zonal) painted onto lake cells."""
    from .bsp import combine_tile_layers

    combined = combine_tile_layers(spec, dem=dem_ds, lake=lakes_ds)

    def partial(batch: pa.Table) -> pa.Table:
        frames = []
        for i in range(batch.num_rows):
            z = codecs.decode_tile(batch["dem"][i].as_py(), batch["dem_fmt"][i].as_py())
            lk = codecs.decode_tile(batch["lake"][i].as_py(), batch["lake_fmt"][i].as_py())
            m = lk > 0
            if m.any():
                frames.append(pd.DataFrame({"lake": lk[m], "z": z[m]}).groupby("lake", as_index=False)["z"].min())
        if not frames:
            return pa.table({"lake": pa.array([], pa.float64()), "z": pa.array([], pa.float64())})
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True), preserve_index=False)

    mins = combined.map_batches(partial, batch_format="pyarrow").to_pandas()
    lut = dict(mins.groupby("lake")["z"].min())
    import ray

    ref = ray.put(lut)

    def paint(z, lk):
        m = ray.get(ref)
        out = z.copy()
        for k, v in m.items():
            out[lk == k] = v
        return out

    return band_math.overlay_fn(dem_ds, lakes_ds, spec, paint)


def flood_order(dem_ds, spec, num_workers: int = 4):
    """Rank of the FILLED surface (priority-flood pop order up to tie
    order) — fill, then a distinct-value prefix scan assigns each cell
    count(filled_z < v).

    Fully distributed: the distinct-value table (≈ all cells on a
    continuous DEM) never lands on the driver — cell values join their
    rank through a bucketed hash join on the exact value (both sides
    decode the same filled tiles, so float bits match), and tiles
    reassemble with a tile-key co-shuffle. Driver state is only the
    per-block offset meta inside ``distinct_value_scan``."""
    from .fill import fill_depressions_ds
    from .joins import hash_join_bucketed
    from .stats3 import distinct_value_scan

    filled = fill_depressions_ds(dem_ds, spec, num_workers=num_workers).materialize()
    tpx = spec.tile_px

    def widen(batch: pa.Table) -> pa.Table:
        vs = []
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            vs.append(g[g != spec.nodata].ravel())
        v = np.concatenate(vs) if vs else np.array([])
        return pa.table({"v": v, "c": np.ones(len(v))})

    wide = filled.map_batches(widen, batch_format="pyarrow")
    scanned, _totals = distinct_value_scan(wide, "v", ["c"])
    rank_tbl = scanned.map_batches(
        lambda b: pa.table({"rv": b["v"], "rank": b["off_c"]}),
        batch_format="pyarrow",
    )

    # per-cell rows (tkey, flat idx, value) for non-nodata cells
    def cell_rows(batch: pa.Table) -> pa.Table:
        tks, idxs, vals = [], [], []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            flat = g.ravel()
            m = np.nonzero(flat != spec.nodata)[0]
            tk = int(batch["tile_row"][i].as_py()) * spec.tiles_x + int(batch["tile_col"][i].as_py())
            tks.append(np.full(len(m), tk, dtype=np.int64))
            idxs.append(m.astype(np.int64))
            vals.append(flat[m])
        if not tks:
            return pa.table({"tkey": pa.array([], pa.int64()), "idx": pa.array([], pa.int64()),
                             "v": pa.array([], pa.float64())})
        return pa.table({"tkey": np.concatenate(tks), "idx": np.concatenate(idxs),
                         "v": np.concatenate(vals)})

    cells = filled.map_batches(cell_rows, batch_format="pyarrow")
    joined = hash_join_bucketed(cells, rank_tbl, key="v", right_key="rv", how="inner")
    ranked = joined.map_batches(
        lambda b: pa.table({"tkey": b["tkey"], "idx": b["idx"],
                            "rank": b["rank"].cast(pa.float64())}),
        batch_format="pyarrow",
    )

    # one blank row per tile so all-nodata tiles still emit
    def blanks(batch: pa.Table) -> pa.Table:
        tr = batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64)
        tc = batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(tr)
        return pa.table({"tkey": pa.array(tr * spec.tiles_x + tc, pa.int64()),
                         "idx": pa.array(np.full(n, -1), pa.int64()),
                         "rank": pa.array(np.zeros(n), pa.float64())})

    def paint(g: pd.DataFrame) -> pd.DataFrame:
        tk = int(g["tkey"].iloc[0])
        grid = np.full(tpx * tpx, spec.nodata)
        m = g[g["idx"] >= 0]
        grid[m["idx"].to_numpy(dtype=np.int64)] = m["rank"].to_numpy(dtype=np.float64)
        return codecs.tile_row_table(
            tk // spec.tiles_x, tk % spec.tiles_x,
            codecs.encode_tile(grid.reshape(tpx, tpx), "f32"), "f32"
        )

    return (
        ranked.union(filled.map_batches(blanks, batch_format="pyarrow"))
        .groupby("tkey")
        .map_groups(paint, batch_format="pandas")
    )


def unnest_basins(pointer_ds, spec, pour_points, num_workers: int = 4):
    """Pour points split into nesting levels: a point that lies inside
    another point's watershed goes to a deeper level; one watershed
    raster per level (list of Datasets)."""
    from .basins import watershed_ds

    gs = spec.grid_spec()
    remaining = list(pour_points)
    layers = []
    while remaining:
        # level = points whose watershed contains NO other remaining point
        ws = watershed_ds(pointer_ds, spec, remaining, num_workers)
        # look up each point's label in the full watershed raster
        label_at = {}
        pts = [(int(gs.row_from_y(np.float64(y))), int(gs.col_from_x(np.float64(x))), pid)
               for x, y, pid in remaining]
        for batch in ws.iter_batches(batch_format="pyarrow", batch_size=64):
            for i in range(batch.num_rows):
                tr = int(batch["tile_row"][i].as_py())
                tc = int(batch["tile_col"][i].as_py())
                g = None
                for r, c, pid in pts:
                    if r // spec.tile_px == tr and c // spec.tile_px == tc:
                        if g is None:
                            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
                        label_at[pid] = float(g[r % spec.tile_px, c % spec.tile_px])
        # pid is "contained" if its cell belongs to a DIFFERENT point's
        # watershed (its own pour cell is its own target → label == pid
        # for outermost points)
        level_pts = [p for p in remaining if label_at.get(p[2], p[2]) == p[2]]
        if not level_pts:
            level_pts = remaining
        layers.append(watershed_ds(pointer_ds, spec, level_pts, num_workers))
        remaining = [p for p in remaining if p not in level_pts]
    return layers


def hillslopes(pointer_ds, streams_link_ds, spec, num_workers: int = 4):
    """Subbasin label × 3 + side (1 left / 2 right / 0 stream cell).

    Side = sign of the cross product between the stream-cell flow
    direction and the vector from the stream cell to the contributing
    cell — a geometric left/right split of each link's subbasin
    (the reference uses the entry direction at the stream cell;
    hillslopes.rs)."""
    import ray
    from .bsp import combine_tile_layers

    # terminal gid against the stream targets + the link-id watershed
    gid_ds, workers = _term_acc_ds(pointer_ds, spec, num_workers, mode="term_gid",
                                   tgt_ds=streams_link_ds)
    from .flow2 import subbasins as subbasins_op

    sub = subbasins_op(pointer_ds, streams_link_ds, spec, num_workers)

    # stream-cell pointer directions (gid → dir) — collect the (small)
    # stream cell set
    combined = combine_tile_layers(spec, ptr=pointer_ds, lnk=streams_link_ds)
    W = spec.tiles_x * spec.tile_px

    def stream_dirs(batch: pa.Table) -> pa.Table:
        gids, dirs = [], []
        for i in range(batch.num_rows):
            p = codecs.decode_tile(batch["ptr"][i].as_py(), batch["ptr_fmt"][i].as_py() or "i8")
            lk = codecs.decode_tile(batch["lnk"][i].as_py(), batch["lnk_fmt"][i].as_py())
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            rr, cc = np.nonzero(lk > 0)
            for r, c in zip(rr, cc):
                gids.append((tr * spec.tile_px + r) * W + tc * spec.tile_px + c)
                dirs.append(int(p[r, c]))
        return pa.table({"gid": pa.array(gids, pa.int64()), "d": pa.array(dirs, pa.int8())})

    sd = combined.map_batches(stream_dirs, batch_format="pyarrow").to_pandas()
    dir_lut = dict(zip(sd["gid"], sd["d"]))
    ref = ray.put(dir_lut)

    zip3 = combine_tile_layers(spec, sub=sub, gid=gid_ds)

    def classify(batch: pa.Table) -> pa.Table:
        lut = ray.get(ref)
        outs = []
        for i in range(batch.num_rows):
            sb = codecs.decode_tile(batch["sub"][i].as_py(), batch["sub_fmt"][i].as_py())
            gg = codecs.decode_tile(batch["gid"][i].as_py(), batch["gid_fmt"][i].as_py())
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            out = np.where(sb != spec.nodata, sb * 3.0, spec.nodata)
            rr, cc = np.meshgrid(np.arange(sb.shape[0]), np.arange(sb.shape[1]), indexing="ij")
            gr = rr + tr * spec.tile_px
            gc = cc + tc * spec.tile_px
            flat_g = gg.astype(np.int64)
            tg_r = flat_g // W
            tg_c = flat_g % W
            own_gid = gr.astype(np.int64) * W + gc
            is_stream = own_gid == flat_g
            for r in range(sb.shape[0]):
                for c in range(sb.shape[1]):
                    if out[r, c] == spec.nodata or is_stream[r, c]:
                        continue
                    d = lut.get(int(flat_g[r, c]), -1)
                    if d < 0:
                        continue
                    sy, sx = int(DY8[d]), int(DX8[d])
                    vy = gr[r, c] - tg_r[r, c]
                    vx = gc[r, c] - tg_c[r, c]
                    cross = sx * vy - sy * vx
                    out[r, c] += 1.0 if cross > 0 else 2.0
            outs.append(out)
        return f32_tiles(batch, outs)

    _ = workers
    return zip3.map_batches(classify, batch_format="pyarrow")


def extract_valleys(dem_ds, spec, line_thin: bool = False):
    """J&R lower-quartile variant: higher N+S or E+W neighbours."""

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        north = _shifted(pad, halo, tpx, -1, 0)
        south = _shifted(pad, halo, tpx, 1, 0)
        east = _shifted(pad, halo, tpx, 0, 1)
        west = _shifted(pad, halo, tpx, 0, -1)
        ns = (north != nodata) & (south != nodata) & (north > z) & (south > z)
        ew = (east != nodata) & (west != nodata) & (east > z) & (west > z)
        return np.where(z != nodata, (ns | ew).astype(np.float64), nodata)

    out = focal_op(dem_ds, spec, kernel, 1)
    if line_thin:
        from .filters2 import line_thinning

        out = line_thinning(out, spec)
    return out


def stream_slope_continuous(dem_ds, streams_ds, spec):
    """Per stream cell: (z − z_downstream)/dist along the D8 direction."""
    from .flow import d8_pointer_masked

    ptr = d8_pointer_masked(dem_ds, spec)
    # simpler: focal pass over DEM computing z-drop along the own-cell
    # pointer (recomputed locally — pointer is a pure function of the pad)
    def kernel(pad, nodata, spec_):
        from .focal import d8_pointer_kernel

        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        p = d8_pointer_kernel(pad, nodata, spec_)
        out = np.zeros(z.shape)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            dist = spec_.res * (np.sqrt(2.0) if DY8[i] and DX8[i] else 1.0)
            m = p == i
            out[m] = (z[m] - zi[m]) / dist
        return np.where(z != nodata, out, nodata)

    slope = focal_op(dem_ds, spec, kernel, 1)
    return band_math.overlay_fn(slope, streams_ds, spec,
                                lambda s, st: np.where(st > 0, s, spec.nodata))


def long_profile(dem_ds, streams_link_ds, spec, num_workers: int = 4):
    """Per-link (distance-to-terminal, z) rows for stream cells."""
    from .bsp import combine_tile_layers
    from .flow import d8_pointer_masked

    ptr = d8_pointer_masked(dem_ds, spec)
    acc_ds, _ = _term_acc_ds(ptr, spec, num_workers)
    zipd = combine_tile_layers(spec, dem=dem_ds, lnk=streams_link_ds, dist=acc_ds)

    def rows(batch: pa.Table) -> pa.Table:
        out = {"link": [], "dist": [], "z": []}
        for i in range(batch.num_rows):
            z = codecs.decode_tile(batch["dem"][i].as_py(), batch["dem_fmt"][i].as_py())
            lk = codecs.decode_tile(batch["lnk"][i].as_py(), batch["lnk_fmt"][i].as_py())
            d = codecs.decode_tile(batch["dist"][i].as_py(), batch["dist_fmt"][i].as_py())
            m = lk > 0
            out["link"].extend(lk[m].tolist())
            out["dist"].extend(d[m].tolist())
            out["z"].extend(z[m].tolist())
        return pa.table(
            {
                "link": pa.array(out["link"], pa.float64()),
                "dist": pa.array(out["dist"], pa.float64()),
                "z": pa.array(out["z"], pa.float64()),
            }
        )

    return zipd.map_batches(rows, batch_format="pyarrow").sort(["link", "dist"])


def profile(dem_ds, spec, line: list[tuple[float, float]], n_samples: int = 100):
    """z along a polyline — one broadcast-probe pass."""
    import ray

    gs = spec.grid_spec()
    pts = []
    total = 0.0
    for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
        seg = np.hypot(x1 - x0, y1 - y0)
        for t in np.linspace(0, 1, max(int(n_samples / max(len(line) - 1, 1)), 2)):
            pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0), total + t * seg))
        total += seg
    probes = [
        (int(gs.row_from_y(np.float64(y))), int(gs.col_from_x(np.float64(x))), d)
        for x, y, d in pts
    ]
    ref = ray.put(probes)
    tpx = spec.tile_px

    def probe(batch: pa.Table) -> pa.Table:
        ps = ray.get(ref)
        out = {"dist": [], "z": []}
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            g = None
            for r, c, d in ps:
                if r // tpx == tr and c // tpx == tc:
                    if g is None:
                        g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
                    out["dist"].append(d)
                    out["z"].append(float(g[r % tpx, c % tpx]))
        return pa.table(
            {"dist": pa.array(out["dist"], pa.float64()), "z": pa.array(out["z"], pa.float64())}
        )

    return dem_ds.map_batches(probe, batch_format="pyarrow").sort("dist")


def slope_vs_elevation_plot(dem_ds, spec, z_bins: int = 32, s_bins: int = 32):
    """2-D histogram (z bin, slope bin, n) — slope layer zipped with the
    DEM, per-tile partial histograms summed."""
    from .focal import slope as slope_op
    from .stretch import _pixel_minmax

    sl = slope_op(dem_ds, spec)
    zlo, zhi = _pixel_minmax(dem_ds)
    zipd = band_math.overlay_fn(dem_ds, sl, spec, lambda z, s: np.floor(
        np.clip((z - zlo) / max(zhi - zlo, 1e-12), 0, 0.999999) * z_bins
    ) * 1000.0 + np.floor(np.clip(s / 90.0, 0, 0.999999) * s_bins))

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[int, int] = {}
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            v = g[g != spec.nodata].astype(np.int64)
            k, c = np.unique(v, return_counts=True)
            for kk, cc in zip(k, c):
                counts[int(kk)] = counts.get(int(kk), 0) + int(cc)
        return pa.table(
            {
                "key": pa.array(list(counts), pa.int64()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        zipd.map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    agg["z_bin"] = agg["key"] // 1000
    agg["slope_bin"] = agg["key"] % 1000
    return agg[["z_bin", "slope_bin", "n"]].sort_values(["z_bin", "slope_bin"]).reset_index(drop=True)


def elev_relative_to_watershed_min_max(dem_ds, spec, num_workers: int = 4):
    """(z − basin min)/(basin max − basin min); basin table is tiny."""
    from .basins import basins_ds
    from .bsp import combine_tile_layers
    from .flow import d8_pointer_masked
    import ray

    ptr = d8_pointer_masked(dem_ds, spec)
    labels = basins_ds(ptr, spec, num_workers)
    zipd = combine_tile_layers(spec, dem=dem_ds, lab=labels)

    def partial(batch: pa.Table) -> pa.Table:
        frames = []
        for i in range(batch.num_rows):
            z = codecs.decode_tile(batch["dem"][i].as_py(), batch["dem_fmt"][i].as_py())
            lb = codecs.decode_tile(batch["lab"][i].as_py(), batch["lab_fmt"][i].as_py())
            m = lb != spec.nodata
            if m.any():
                frames.append(
                    pd.DataFrame({"b": lb[m], "z": z[m]})
                    .groupby("b", as_index=False)
                    .agg(lo=("z", "min"), hi=("z", "max"))
                )
        if not frames:
            return pa.table({"b": pa.array([], pa.float64()), "lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64())})
        return pa.Table.from_pandas(pd.concat(frames, ignore_index=True), preserve_index=False)

    parts = zipd.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("b").agg(lo=("lo", "min"), hi=("hi", "max"))
    lut = {float(k): (float(v["lo"]), float(v["hi"])) for k, v in agg.iterrows()}
    ref = ray.put(lut)

    def fn(z, lb):
        m = ray.get(ref)
        out = np.zeros_like(z)
        for k, (lo, hi) in m.items():
            sel = lb == k
            span = (hi - lo) or 1.0
            out[sel] = (z[sel] - lo) / span
        return out

    return band_math.overlay_fn(dem_ds, labels, spec, fn)


def stochastic_depression_analysis(dem_ds, spec, rmse: float = 1.0, range_: float = 10.0,
                                   iterations: int = 5, num_workers: int = 4):
    """pdep = fraction of K seeded error realizations in which the cell
    is filled (filled > dem + eps)."""
    from .fill import fill_depressions_ds
    from .generate import turning_bands

    pdep = None
    for k in range(iterations):
        err = turning_bands(spec, range_=range_, num_bands=32, seed=1000 + k)
        noisy = band_math.overlay_fn(dem_ds, err, spec, lambda z, e: z + rmse * e)
        filled = fill_depressions_ds(noisy, spec, num_workers=num_workers)
        dep = band_math.overlay_fn(filled, noisy, spec,
                                   lambda f, z: (f > z + 1e-6).astype(np.float64))
        pdep = dep if pdep is None else band_math.overlay_fn(pdep, dep, spec, lambda a, b: a + b)
    return band_math.overlay_fn(
        pdep, pdep, spec, lambda a, _b: a / float(iterations)
    )


def remove_off_terrain_objects(dem_ds, spec, radius: int = 2, threshold: float = 2.0):
    """Cells more than ``threshold`` above their opening take the opened
    surface (remove_off_terrain_objects.rs simplification)."""
    from .filters2 import opening

    op = opening(dem_ds, spec, radius)
    return band_math.overlay_fn(
        dem_ds, op, spec, lambda z, o: np.where(z - o > threshold, o, z)
    )


def feature_preserving_smoothing(dem_ds, spec, sigma_dist: float = 1.0,
                                 sigma_int: float = 0.5):
    """Edge-preserving z smoothing (bilateral form of the reference's
    normal-space smoothing — feature_preserving_smoothing.rs; documented
    simplification: the bilateral range kernel plays the role of the
    normal-difference threshold)."""
    from .filters2 import bilateral_filter

    return bilateral_filter(dem_ds, spec, sigma_dist, sigma_int)


def fill_missing_data(dem_ds, spec, smooth_iters: int = 2):
    """Holes (nodata) take the euclidean-nearest valid value, then a few
    mean-filter passes restricted to filled cells blend the patch
    (fill_missing_data.rs IDW approximated by allocation + smoothing)."""
    from .distance import euclidean_allocation_ds
    from .focal import make_window_kernel

    # targets = valid cells carrying z (shift to keep 0 a target value)
    shifted = dem_ds.map_batches(
        lambda b: _shift_valid(b, spec), batch_format="pyarrow"
    )
    alloc = euclidean_allocation_ds(shifted, spec)
    # overlay_fn propagates nodata from either side and holes carry
    # nodata in z — use a direct zip instead
    from .bsp import combine_tile_layers

    zipd = combine_tile_layers(spec, dem=dem_ds, al=alloc)

    def fn(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            z = codecs.decode_tile(batch["dem"][i].as_py(), batch["dem_fmt"][i].as_py())
            a = codecs.decode_tile(batch["al"][i].as_py(), batch["al_fmt"][i].as_py())
            o = np.where(z == spec.nodata, a - 1.0e4, z)
            outs.append(o)
        return f32_tiles(batch, outs)

    out = zipd.map_batches(fn, batch_format="pyarrow")
    for _i in range(smooth_iters):
        sm = focal_op(out, spec, make_window_kernel("mean", 1), 1)
        # blend only previously-missing cells
        zip2 = combine_tile_layers(spec, cur=out, sm=sm, orig=dem_ds)

        def fn2(batch: pa.Table) -> pa.Table:
            outs = []
            for i in range(batch.num_rows):
                cur = codecs.decode_tile(batch["cur"][i].as_py(), batch["cur_fmt"][i].as_py())
                smo = codecs.decode_tile(batch["sm"][i].as_py(), batch["sm_fmt"][i].as_py())
                orig = codecs.decode_tile(batch["orig"][i].as_py(), batch["orig_fmt"][i].as_py())
                o = np.where(orig == spec.nodata, smo, cur)
                outs.append(o)
            return f32_tiles(batch, outs)

        out = zip2.map_batches(fn2, batch_format="pyarrow")
    return out


def _shift_valid(batch: pa.Table, spec) -> pa.Table:
    outs = []
    for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
        g = codecs.decode_tile(bb, ff)
        o = np.where(g != spec.nodata, g + 1.0e4, 0.0)
        outs.append(o)
    return f32_tiles(batch, outs)


class _WalkShard:
    """BSP cursor walk: per-cell downstream walks that stop at a
    cell-specific condition (z ≤ z0 − drop). Cursors crossing shard
    boundaries travel as messages; finished walks route a result message
    back to the origin's owner. Used by DownslopeIndex."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata: float,
                 res: float, drop: float):
        from .bsp import ShardBase

        self._base = ShardBase(tile_px, tiles_x, tiles_y)
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.nodata = nodata
        self.res = res
        self.drop = drop
        self.ptr: dict[int, np.ndarray] = {}
        self.z: dict[int, np.ndarray] = {}
        self.result: dict[int, np.ndarray] = {}

    def ingest(self, split_ds) -> list[int]:
        t = self.tpx
        owned = []
        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            for i in range(batch.num_rows):
                tid = (int(batch["tile_row"][i].as_py()) * self.tiles_x
                       + int(batch["tile_col"][i].as_py()))
                self.ptr[tid] = codecs.decode_tile(batch["ptr"][i].as_py(),
                                                   batch["ptr_fmt"][i].as_py() or "i8").astype(np.int8)
                self.z[tid] = codecs.decode_tile(batch["dem"][i].as_py(),
                                                 batch["dem_fmt"][i].as_py())
                self.result[tid] = np.full((t, t), self.nodata)
                owned.append(tid)
        return owned

    def _walk(self, cursors):
        """cursors: [(otid, orow, ocol, z0, tid, r, c, dist)] — returns
        (out_msgs, results) where out_msgs continue elsewhere and results
        are (otid, orow, ocol, angle)."""
        t = self.tpx
        out, results = [], []
        for otid, orow, ocol, z0, tid, r, c, dist in cursors:
            while True:
                p = self.ptr.get(tid)
                if p is None:
                    out.append((otid, orow, ocol, z0, tid, r, c, dist))
                    break
                # arrival check FIRST (dist>0 ⇒ we stepped to get here) —
                # at the loop top so it also covers cursors handed off
                # from another shard, whose landing cell would otherwise
                # skip it (caught by the downslope_index oracle gate:
                # tile-boundary cells read the next cell's angle)
                zt = self.z[tid][r, c]
                if dist > 0 and zt != self.nodata and zt <= z0 - self.drop:
                    results.append((otid, orow, ocol,
                                    np.degrees(np.arctan2(self.drop, dist))))
                    break
                d = int(p[r, c])
                if d < 0:  # pit / edge terminal: use slope so far
                    ang = np.degrees(np.arctan2(max(z0 - zt, 0.0), max(dist, self.res)))
                    results.append((otid, orow, ocol, ang))
                    break
                step = self.res * (np.sqrt(2.0) if DY8[d] and DX8[d] else 1.0)
                nr, nc = r + int(DY8[d]), c + int(DX8[d])
                dist += step
                if not (0 <= nr < t and 0 <= nc < t):
                    tr, tc = tid // self.tiles_x, tid % self.tiles_x
                    gr, gc = tr * t + nr, tc * t + nc
                    if 0 <= gr < self.tiles_y * t and 0 <= gc < self.tiles_x * t:
                        ntid = (gr // t) * self.tiles_x + (gc // t)
                        tid, r, c = ntid, gr % t, gc % t
                        if tid not in self.ptr:
                            out.append((otid, orow, ocol, z0, tid, r, c, dist))
                            break
                        # fall through: loop top re-checks arrival
                    else:
                        ang = np.degrees(np.arctan2(self.drop, max(dist, self.res)))
                        results.append((otid, orow, ocol, ang))
                        break
                else:
                    r, c = nr, nc
        return out, results

    def start(self):
        cursors = []
        for tid, zg in self.z.items():
            rr, cc = np.nonzero((zg != self.nodata) & (self.ptr[tid] >= -1))
            for r, c in zip(rr, cc):
                cursors.append((tid, int(r), int(c), float(zg[r, c]), tid, int(r), int(c), 0.0))
        return self._walk(cursors)

    def push(self, cursors):
        return self._walk(list(cursors))

    def store(self, results):
        for otid, r, c, ang in results:
            if otid in self.result:
                self.result[otid][r, c] = ang

    def dump(self, path: str):
        from .bsp import ShardBase

        ShardBase._dump_tiles(self._base, path, self.result, "f32")


def downslope_index(dem_ds, spec, drop: float = 2.0, num_workers: int = 4,
                    out_dir: str | None = None):
    """DownslopeIndex (downslope_index.rs): angle = atan(drop / L) where
    L is the flowpath distance to the first cell ≥ ``drop`` below —
    BSP cursor walks with cross-shard continuation."""
    import ray
    import ray.data as rd

    from .bsp import combine_tile_layers
    from .flow import d8_pointer_masked

    ptr = d8_pointer_masked(dem_ds, spec)
    combined = combine_tile_layers(spec, ptr=ptr, dem=dem_ds)
    Worker = ray.remote(_WalkShard)
    workers = [
        Worker.remote(spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata, spec.res, drop)
        for _ in range(num_workers)
    ]
    splits = combined.split(num_workers, locality_hints=workers)
    owned_lists = ray.get([w.ingest.remote(s) for w, s in zip(workers, splits)])
    owner = {}
    for wi, tids in enumerate(owned_lists):
        for tid in tids:
            owner[tid] = wi
    pending = ray.get([w.start.remote() for w in workers])
    cursors = []
    for out, results in pending:
        cursors.extend(out)
        by_owner: dict[int, list] = {}
        for res in results:
            by_owner.setdefault(owner[res[0]], []).append(res)
        ray.get([workers[wi].store.remote(rs) for wi, rs in by_owner.items()])
    while cursors:
        by_worker: dict[int, list] = {}
        for cur in cursors:
            by_worker.setdefault(owner[cur[4]], []).append(cur)
        parts = ray.get([workers[wi].push.remote(cs) for wi, cs in by_worker.items()])
        cursors = []
        for out, results in parts:
            cursors.extend(out)
            by_owner = {}
            for res in results:
                by_owner.setdefault(owner[res[0]], []).append(res)
            ray.get([workers[wi].store.remote(rs) for wi, rs in by_owner.items()])
    import tempfile as _tf

    out_dir = out_dir or _tf.mkdtemp(prefix="dsi_", dir="/tmp")
    os.makedirs(out_dir, exist_ok=True)
    ray.get([w.dump.remote(os.path.join(out_dir, f"shard_{i}.parquet"))
             for i, w in enumerate(workers)])
    return rd.read_parquet(out_dir)


def isobasins(dem_ds, spec, target_cells: int = 64, num_workers: int = 4):
    """Isobasins (isobasins.rs semantics, documented variant): watershed
    against stream cells labeled by their accumulation VOLUME CLASS
    (floor(acc/target)+1) — label boundaries fall where the channel has
    gathered another ``target_cells`` of area, so inter-boundary bands
    drain roughly equal increments."""
    from .flow import d8_pointer_masked, flow_accumulation_ds
    from .flow2 import subbasins

    ptr = d8_pointer_masked(dem_ds, spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=num_workers)

    def to_targets(batch: pa.Table) -> pa.Table:
        outs = []
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            a = codecs.decode_tile(bb, ff)
            t = np.where(
                (a != spec.nodata) & (a >= target_cells),
                np.floor(a / target_cells) + 1.0,
                0.0,
            )
            outs.append(t)
        return f32_tiles(batch, outs)

    targets = acc.map_batches(to_targets, batch_format="pyarrow")
    return subbasins(ptr, targets, spec, num_workers)


def impoundment_size_index(dem_ds, spec, dam_height: float = 5.0, num_workers: int = 4):
    """ImpoundmentSizeIndex (impoundment_size_index.rs) — documented
    approximation: V̂(cell) = max(0, n·(z + h) − Σz_upstream) where n and
    Σz come from two D8 accumulations (exact when every upslope cell
    lies below the dam crest; the reference scans perpendicular dam
    profiles instead)."""
    from .flow2 import d8_mass_flux, fractions_and_indeg_rows, run_multiflow

    rows = fractions_and_indeg_rows(dem_ds, spec, "d8")
    n_acc = run_multiflow(rows, spec, "sum", num_workers)
    zeros_ds = dem_ds.map_batches(
        lambda b: _const_tiles(b, 0.0), batch_format="pyarrow"
    )
    eff_ds = dem_ds.map_batches(
        lambda b: _const_tiles(b, 1.0), batch_format="pyarrow"
    )
    z_acc = d8_mass_flux(dem_ds, dem_ds, eff_ds, zeros_ds, spec, num_workers)

    nh = band_math.overlay_fn(n_acc, dem_ds, spec,
                              lambda n, z: n * (z + dam_height))
    return band_math.overlay_fn(nh, z_acc, spec,
                                lambda a, sz: np.maximum(a - sz, 0.0))


def _const_tiles(batch: pa.Table, value: float) -> pa.Table:
    outs = []
    for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
        g = codecs.decode_tile(bb, ff)
        outs.append(np.full_like(g, value))
    return f32_tiles(batch, outs)


def elevation_above_stream_ds(dem_ds, streams_ds, spec, num_workers: int = 4):
    """ElevationAboveStream (elevation_above_stream.rs), Dataset-native:
    z − z(first stream cell downstream) — terminal resolution against
    the stream target grid, one broadcast z-probe at the (few) target
    gids, subtraction via the keyed tile zip.

    Cells whose walk ends at a non-stream terminal (an interior pit or
    the grid edge) are NODATA — the reference seeds pit cells with
    nodata and propagates it upstream (elevation_above_stream.rs:318-323,
    351-355); the terminal gid is therefore only a valid subtraction
    target when the terminal is itself a stream cell."""
    import ray

    from .flow import d8_pointer_masked

    ptr = d8_pointer_masked(dem_ds, spec)
    gid_ds, _w = _term_acc_ds(ptr, spec, num_workers, mode="term_gid", tgt_ds=streams_ds)
    W = spec.tiles_x * spec.tile_px

    def gids(batch: pa.Table) -> pa.Table:
        out = set()
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            v = g[(g != spec.nodata) & (g >= 0)]
            out.update(np.unique(v).astype(np.int64).tolist())
        return pa.table({"gid": pa.array(sorted(out), pa.int64())})

    distinct = sorted(set(gid_ds.map_batches(gids, batch_format="pyarrow").to_pandas()["gid"]))
    want_ref = ray.put(np.asarray(distinct, dtype=np.int64))
    tpx = spec.tile_px

    def probe(batch: pa.Table) -> pa.Table:
        wanted = ray.get(want_ref)
        hits_g, hits_z = [], []
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            r0, c0 = tr * tpx, tc * tpx
            lo = (r0 * W + c0)
            sel = wanted[(wanted // W >= r0) & (wanted // W < r0 + tpx)
                         & (wanted % W >= c0) & (wanted % W < c0 + tpx)]
            if not len(sel):
                continue
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            for gg in sel:
                hits_g.append(int(gg))
                hits_z.append(float(g[gg // W - r0, gg % W - c0]))
            _ = lo
        return pa.table({"gid": pa.array(hits_g, pa.int64()), "z": pa.array(hits_z, pa.float64())})

    pz = dem_ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    # stream membership at the same gids: a terminal that is NOT a
    # stream cell (pit / edge outlet) is not a subtraction target
    ps = streams_ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    stream_gids = set(ps[ps["z"] == 1.0]["gid"].tolist())
    keep = pz["gid"].isin(stream_gids)
    lut_g = pz["gid"].to_numpy()[keep]
    order = np.argsort(lut_g)
    lut_g = lut_g[order]
    lut_z = pz["z"].to_numpy()[keep][order]
    nodata = spec.nodata

    def fn(z, gid):
        g = gid.astype(np.int64)
        if len(lut_g) == 0:
            return np.full_like(z, nodata)
        idx = np.clip(np.searchsorted(lut_g, g), 0, len(lut_g) - 1)
        found = (g >= 0) & (lut_g[idx] == g)
        out = np.where(found, z - lut_z[idx], nodata)
        return np.where(z != nodata, out, nodata)

    return band_math.overlay_fn(dem_ds, gid_ds, spec, fn)


def snap_pour_points_ds(points, accum_ds, spec, snap_dist: float):
    """SnapPourPoints (snap_pour_points.rs), Dataset-native: each outlet
    moves to the max-accumulation cell within ``snap_dist`` — one
    broadcast-probe pass over the accumulation tiles, candidates only."""
    import ray

    gs = spec.grid_spec()
    tpx = spec.tile_px
    rad = int(np.ceil(snap_dist / spec.res))
    pts = []
    for x, y, pid in points:
        r = int(gs.row_from_y(np.float64(y)))
        c = int(gs.col_from_x(np.float64(x)))
        pts.append((pid, r, c))
    ref = ray.put(pts)

    def probe(batch: pa.Table) -> pa.Table:
        ps = ray.get(ref)
        out = {"pid": [], "r": [], "c": [], "acc": []}
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            r0, c0 = tr * tpx, tc * tpx
            g = None
            for pid, r, c in ps:
                if r + rad < r0 or r - rad >= r0 + tpx or c + rad < c0 or c - rad >= c0 + tpx:
                    continue
                if g is None:
                    g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
                rr0 = max(r - rad, r0) - r0
                rr1 = min(r + rad, r0 + tpx - 1) - r0
                cc0 = max(c - rad, c0) - c0
                cc1 = min(c + rad, c0 + tpx - 1) - c0
                sub = g[rr0 : rr1 + 1, cc0 : cc1 + 1]
                j = int(np.argmax(sub))
                sr, sc = np.unravel_index(j, sub.shape)
                out["pid"].append(pid)
                out["r"].append(int(rr0 + sr + r0))
                out["c"].append(int(cc0 + sc + c0))
                out["acc"].append(float(sub[sr, sc]))
        return pa.table(
            {
                "pid": pa.array(out["pid"], pa.int64()),
                "r": pa.array(out["r"], pa.int64()),
                "c": pa.array(out["c"], pa.int64()),
                "acc": pa.array(out["acc"], pa.float64()),
            }
        )

    cand = accum_ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    gs = spec.grid_spec()
    out = []
    for x, y, pid in points:
        mine = cand[cand["pid"] == pid]
        if len(mine):
            best = mine.sort_values(["acc", "r", "c"], ascending=[False, True, True]).iloc[0]
            out.append(
                (
                    float(gs.west + (best["c"] + 0.5) * spec.res),
                    float(gs.north - (best["r"] + 0.5) * spec.res),
                    int(pid),
                )
            )
        else:
            out.append((float(x), float(y), int(pid)))
    return out
