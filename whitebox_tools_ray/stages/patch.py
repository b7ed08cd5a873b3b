"""Raster patch / class metrics — the gis_analysis patch-shape family.

Patch rasters hold one class id per cell (e.g. ``Clump`` output). All
tools here follow the same scale shape: a single per-tile (or focal)
pass emits tiny per-tile per-class PARTIAL rows; a driver-side combine over
the (small) class table finishes the statistic; when the output is a
raster, one more broadcast-map pass paints per-class values back onto
the tiles.

- raster_area          — RasterArea (raster_area.rs): cells × cell area
  per class.
- centroid_raster      — Centroid (centroid.rs): per-class mean cell
  position converted to map x/y.
- radius_of_gyration   — RadiusOfGyration (radius_of_gyration.rs,
  McGarigal GYRATE): mean distance of patch cells to the patch
  centroid; two passes (centroid, then distances).
- edge_cells           — FindPatchOrClassEdgeCells
  (find_patch_or_class_edge_cells.rs): cells with a 4-neighbour of a
  different class.
- edge_proportion      — EdgeProportion (edge_proportion.rs): per-class
  edge-cell share, painted back or returned as a table.
- narrowness_index     — NarrownessIndex (narrowness_index.rs:17-25):
  A/(π·MD²) with MD = max distance-to-edge per patch, via the exact
  Dataset-native EDT against the edge-cell mask.
- shape_complexity_index_raster — ShapeComplexityIndexRaster
  (shape_complexity_index_raster.rs): 1 − A/Ah per patch; the class
  hull is the hull of per-tile partial hulls (hull(A∪B) =
  hull(hull A ∪ hull B)).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs, geometry
from .focal import f32_tiles


def _class_pass(tiles_ds, per_tile_fn):
    """Run ``per_tile_fn(tile_row, tile_col, grid) -> DataFrame`` over
    every tile and return the concatenated Dataset of partial rows."""

    def batch_fn(batch: pa.Table) -> pa.Table:
        frames = []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            frames.append(
                per_tile_fn(int(batch["tile_row"][i].as_py()), int(batch["tile_col"][i].as_py()), g)
            )
        out = pd.concat(frames, ignore_index=True) if frames else per_tile_fn(0, 0, None)
        return pa.Table.from_pandas(out, preserve_index=False)

    return tiles_ds.map_batches(batch_fn, batch_format="pyarrow")


def _paint(tiles_ds, spec, mapping: dict, default: float | None = None):
    """Broadcast map class → value back onto the tiles."""
    import ray

    ref = ray.put(mapping)
    nodata = spec.nodata

    def fn(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        keys = np.array(sorted(m), dtype=np.float64)
        vals = np.array([m[k] for k in keys])
        outs = []
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            idx = np.searchsorted(keys, g)
            idx = np.clip(idx, 0, max(len(keys) - 1, 0))
            hit = (len(keys) > 0) & (keys[idx] == g)
            o = np.where(hit, vals[idx], nodata if default is None else default)
            o = np.where(g == nodata, nodata, o)
            outs.append(o)
        return f32_tiles(batch, outs)

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def class_counts(tiles_ds, spec):
    """Per-class cell counts (tiny driver table)."""

    def per_tile(tr, tc, g):
        if g is None:
            return pd.DataFrame({"cls": [], "n": []})
        v = g[g != spec.nodata]
        cls, cnt = np.unique(v, return_counts=True)
        return pd.DataFrame({"cls": cls, "n": cnt.astype(np.int64)})

    parts = _class_pass(tiles_ds, per_tile).to_pandas()
    return parts.groupby("cls")["n"].sum()


def raster_area(tiles_ds, spec, units: str = "map units"):
    """RasterArea: table (cls, area)."""
    counts = class_counts(tiles_ds, spec)
    cell = spec.res * spec.res if units == "map units" else 1.0
    return pd.DataFrame({"cls": counts.index.to_numpy(), "area": (counts * cell).to_numpy()})


def _class_centroids(tiles_ds, spec):
    def per_tile(tr, tc, g):
        if g is None:
            return pd.DataFrame({"cls": [], "n": [], "sr": [], "sc": []})
        rr, cc = np.meshgrid(np.arange(g.shape[0]), np.arange(g.shape[1]), indexing="ij")
        gr = rr + tr * spec.tile_px
        gc = cc + tc * spec.tile_px
        m = g != spec.nodata
        df = pd.DataFrame({"cls": g[m], "r": gr[m], "c": gc[m]})
        agg = df.groupby("cls").agg(n=("r", "size"), sr=("r", "sum"), sc=("c", "sum"))
        return agg.reset_index()

    parts = _class_pass(tiles_ds, per_tile).to_pandas()
    agg = parts.groupby("cls").agg(n=("n", "sum"), sr=("sr", "sum"), sc=("sc", "sum"))
    agg["cr"] = agg["sr"] / agg["n"]
    agg["cc"] = agg["sc"] / agg["n"]
    return agg


def centroid_raster(tiles_ds, spec, round_to: int = 6):
    """Centroid: per-class centroid as map coordinates."""
    gs = spec.grid_spec()
    agg = _class_centroids(tiles_ds, spec)
    x = gs.west + (agg["cc"].to_numpy() + 0.5) * spec.res
    y = gs.north - (agg["cr"].to_numpy() + 0.5) * spec.res
    return pd.DataFrame(
        {
            "cls": agg.index.to_numpy(),
            "x": np.round(x, round_to),
            "y": np.round(y, round_to),
        }
    )


def radius_of_gyration(tiles_ds, spec, round_to: int = 6):
    """McGarigal GYRATE: mean cell→centroid distance per class."""
    import ray

    agg = _class_centroids(tiles_ds, spec)
    cent = {float(k): (float(v["cr"]), float(v["cc"])) for k, v in agg.iterrows()}
    ref = ray.put(cent)

    def per_tile(tr, tc, g):
        if g is None:
            return pd.DataFrame({"cls": [], "n": [], "sd": []})
        cen = ray.get(ref)
        rr, cc = np.meshgrid(np.arange(g.shape[0]), np.arange(g.shape[1]), indexing="ij")
        gr = rr + tr * spec.tile_px
        gc = cc + tc * spec.tile_px
        m = g != spec.nodata
        df = pd.DataFrame({"cls": g[m], "r": gr[m], "c": gc[m]})
        rows = []
        for cls, grp in df.groupby("cls"):
            cr, ccen = cen[float(cls)]
            d = np.hypot(grp["r"].to_numpy() - cr, grp["c"].to_numpy() - ccen)
            rows.append({"cls": cls, "n": len(grp), "sd": float(d.sum())})
        return pd.DataFrame(rows, columns=["cls", "n", "sd"])

    parts = _class_pass(tiles_ds, per_tile).to_pandas()
    a2 = parts.groupby("cls").agg(n=("n", "sum"), sd=("sd", "sum"))
    return pd.DataFrame(
        {
            "cls": a2.index.to_numpy(),
            "gyradius": np.round((a2["sd"] / a2["n"]).to_numpy() * spec.res, round_to),
        }
    )


def edge_cells(tiles_ds, spec):
    """FindPatchOrClassEdgeCells: 1 where a 4-neighbour differs."""
    from .focal import focal_op, _shifted

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        edge = np.zeros(z.shape, dtype=bool)
        for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nb = _shifted(pad, halo, tpx, dy, dx)
            edge |= nb != z  # nodata (scene edge) also counts as boundary
        out = edge.astype(np.float64)
        return np.where(z != nodata, out, nodata)

    return focal_op(tiles_ds, spec, kernel, 1)


def edge_proportion(tiles_ds, spec, output_raster: bool = True, round_to: int = 6):
    """EdgeProportion: per-class edge/total share."""
    ec = edge_cells(tiles_ds, spec)
    from .bsp import combine_tile_layers, decode

    combined = combine_tile_layers(spec, cls=tiles_ds, edge=ec)

    def per_tile_pair(batch: pa.Table) -> pa.Table:
        frames = []
        for i in range(batch.num_rows):
            g = decode(batch, "cls", i)
            e = decode(batch, "edge", i)
            m = g != spec.nodata
            df = pd.DataFrame({"cls": g[m], "e": e[m]})
            agg = df.groupby("cls").agg(n=("e", "size"), ne=("e", "sum")).reset_index()
            frames.append(agg)
        out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame({"cls": [], "n": [], "ne": []})
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = combined.map_batches(per_tile_pair, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("cls").agg(n=("n", "sum"), ne=("ne", "sum"))
    prop = {float(k): float(v["ne"] / v["n"]) for k, v in agg.iterrows()}
    if not output_raster:
        return pd.DataFrame(
            {"cls": list(prop), "edge_proportion": [round(v, round_to) for v in prop.values()]}
        )
    return _paint(tiles_ds, spec, prop)


def narrowness_index(tiles_ds, spec, round_to: int = 6):
    """NarrownessIndex: A/(π·MD²), MD = max distance-to-edge per class
    (EDT against the edge-cell mask; boundary cells are distance 0)."""
    from .bsp import combine_tile_layers, decode
    from .distance import euclidean_distance_ds

    ec = edge_cells(tiles_ds, spec)
    dist = euclidean_distance_ds(ec, spec, target_nonzero=True)
    combined = combine_tile_layers(spec, cls=tiles_ds, d=dist)

    def per_tile(batch: pa.Table) -> pa.Table:
        frames = []
        for i in range(batch.num_rows):
            g = decode(batch, "cls", i)
            d = decode(batch, "d", i)
            m = g != spec.nodata
            df = pd.DataFrame({"cls": g[m], "d": d[m]})
            agg = df.groupby("cls").agg(n=("d", "size"), md=("d", "max")).reset_index()
            frames.append(agg)
        out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame({"cls": [], "n": [], "md": []})
        return pa.Table.from_pandas(out, preserve_index=False)

    parts = combined.map_batches(per_tile, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("cls").agg(n=("n", "sum"), md=("md", "max"))
    # distances are in map units; add half a cell so boundary-only
    # (1-cell-wide) patches get MD = res/2, matching the contained-circle
    # conception
    md = agg["md"].to_numpy() + spec.res / 2.0
    area = agg["n"].to_numpy() * spec.res * spec.res
    ni = area / (np.pi * md * md)
    return pd.DataFrame({"cls": agg.index.to_numpy(), "narrowness": np.round(ni, round_to)})


def shape_complexity_index_raster(tiles_ds, spec, round_to: int = 6):
    """SCI raster form: 1 − A/Ah per class; class hull = hull of
    per-tile partial hulls."""

    def per_tile(tr, tc, g):
        if g is None:
            return pd.DataFrame({"cls": [], "n": [], "hx": [], "hy": []})
        rr, cc = np.meshgrid(np.arange(g.shape[0]), np.arange(g.shape[1]), indexing="ij")
        gr = rr + tr * spec.tile_px
        gc = cc + tc * spec.tile_px
        m = g != spec.nodata
        rows = []
        df = pd.DataFrame({"cls": g[m], "r": gr[m], "c": gc[m]})
        for cls, grp in df.groupby("cls"):
            xs = grp["c"].to_numpy().astype(np.float64)
            ys = grp["r"].to_numpy().astype(np.float64)
            if len(xs) >= 3:
                h = geometry.convex_hull(xs, ys)
                hx, hy = h[:, 0], h[:, 1]
            else:
                hx, hy = xs, ys
            rows.append({"cls": cls, "n": len(grp), "hx": hx.tolist(), "hy": hy.tolist()})
        return pd.DataFrame(rows, columns=["cls", "n", "hx", "hy"])

    parts = _class_pass(tiles_ds, per_tile).to_pandas()
    out_cls, out_sci = [], []
    for cls, grp in parts.groupby("cls"):
        xs = np.concatenate([np.asarray(v, dtype=np.float64) for v in grp["hx"]])
        ys = np.concatenate([np.asarray(v, dtype=np.float64) for v in grp["hy"]])
        n = int(grp["n"].sum())
        if len(xs) >= 3:
            h = geometry.convex_hull(xs, ys)
            # hull of CELL CENTERS underestimates the cell-area hull;
            # pad by the half-cell ring: Ah ≈ hull area + perimeter/2 + 1/4π?
            # keep the reference's cell-count convention: Ah in cells
            ah = geometry.polygon_area(h[:, 0], h[:, 1]) + 0.5 * geometry.polygon_perimeter(h[:, 0], h[:, 1]) + 1.0
        else:
            ah = float(n)
        sci = 1.0 - n / ah if ah > 0 else 0.0
        out_cls.append(cls)
        out_sci.append(round(max(sci, 0.0), round_to))
    return pd.DataFrame({"cls": out_cls, "complexity": out_sci})


def find_lowest_or_highest_points(tiles_ds, spec, out_type: str = "both"):
    """FindLowestOrHighestPoints: global argmin/argmax as points."""
    gs = spec.grid_spec()

    def per_tile(tr, tc, g):
        if g is None:
            return pd.DataFrame({"kind": [], "r": [], "c": [], "z": []})
        m = g != spec.nodata
        if not m.any():
            return pd.DataFrame({"kind": [], "r": [], "c": [], "z": []})
        rows = []
        vals = np.where(m, g, np.nan)
        jmin = np.nanargmin(vals)
        jmax = np.nanargmax(vals)
        for kind, j in (("low", jmin), ("high", jmax)):
            r, c = np.unravel_index(j, g.shape)
            rows.append(
                {
                    "kind": kind,
                    "r": int(r) + tr * spec.tile_px,
                    "c": int(c) + tc * spec.tile_px,
                    "z": float(g[r, c]),
                }
            )
        return pd.DataFrame(rows)

    parts = _class_pass(tiles_ds, per_tile).to_pandas()
    rows = []
    if out_type in ("both", "lowest"):
        lo = parts[parts["kind"] == "low"].sort_values(["z", "r", "c"]).iloc[0]
        rows.append(("lowest", lo))
    if out_type in ("both", "highest"):
        hi = parts[parts["kind"] == "high"].sort_values(["z", "r", "c"], ascending=[False, True, True]).iloc[0]
        rows.append(("highest", hi))
    return pd.DataFrame(
        {
            "kind": [k for k, _ in rows],
            "x": [gs.west + (float(v["c"]) + 0.5) * spec.res for _, v in rows],
            "y": [gs.north - (float(v["r"]) + 0.5) * spec.res for _, v in rows],
            "z": [float(v["z"]) for _, v in rows],
        }
    )
