"""Image-analysis stragglers — change detection, vignetting,
pan-sharpening, stack profiles, memory insertion, modified k-means.

- change_vector_analysis — ChangeVectorAnalysis
  (change_vector_analysis.rs): per-record magnitude ‖date2 − date1‖
  and sector code (Σ 2^i over bands where the band decreased).
- correct_vignetting — CorrectVignetting (correct_vignetting.rs):
  v′ = v / cos^n(atan(d / f)) with d the distance from the principal
  point.
- panchromatic_sharpening — PanchromaticSharpening
  (panchromatic_sharpening.rs): Brovey ratio (per band:
  band · pan / mean(rgb)) or IHS substitution.
- image_stack_profile — ImageStackProfile (image_stack_profile.rs):
  per probe point, the value in every stack layer (one keyed zip over
  the stack, tiny table out).
- write_function_memory_insertion — WriteFunctionMemoryInsertion
  (write_function_memory_insertion.rs): RGB composite of 2-3 dates
  (R = date1, G = date2, B = date3 or date2).
- modified_k_means — ModifiedKMeansClustering
  (modified_k_means_clustering.rs): k-means where clusters smaller
  than ``min_class_size`` merge into their nearest surviving centroid.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs
from . import band_math
from .focal import f32_tiles


def change_vector_analysis(ds, date1_cols: list[str], date2_cols: list[str],
                           round_to: int = 6):
    """Magnitude + sector code over aligned column pairs."""

    def fn(batch: pa.Table) -> pa.Table:
        mags = None
        sector = None
        for i, (c1, c2) in enumerate(zip(date1_cols, date2_cols)):
            a = batch[c1].to_numpy(zero_copy_only=False).astype(np.float64)
            b = batch[c2].to_numpy(zero_copy_only=False).astype(np.float64)
            d = b - a
            mags = d * d if mags is None else mags + d * d
            neg = (d < 0).astype(np.int64) << i
            sector = neg if sector is None else sector + neg
        batch = batch.append_column("cva_magnitude", pa.array(np.round(np.sqrt(mags), round_to)))
        return batch.append_column("cva_sector", pa.array(sector, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


def correct_vignetting(tiles_ds, spec, focal_length: float = 304.8,
                       image_width: float = 228.6, n: float = 4.0):
    """v′ = v / cos^n(theta), theta = atan(dist_from_centre / f) with the
    principal point at the scene centre (pixel units scaled so the half
    image width maps to image_width/2)."""
    rows_total = spec.tiles_y * spec.tile_px
    cols_total = spec.tiles_x * spec.tile_px
    cy, cx = (rows_total - 1) / 2.0, (cols_total - 1) / 2.0
    scale = (image_width / 2.0) / max(cols_total / 2.0, 1)
    nodata = spec.nodata

    def fn(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            yy, xx = np.meshgrid(
                np.arange(g.shape[0]) + tr * spec.tile_px,
                np.arange(g.shape[1]) + tc * spec.tile_px,
                indexing="ij",
            )
            dist = np.hypot(yy - cy, xx - cx) * scale
            theta = np.arctan(dist / focal_length)
            out = np.where(g != nodata, g / np.cos(theta) ** n, nodata)
            outs.append(out)
        return f32_tiles(batch, outs)

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def panchromatic_sharpening(ds, pan_col: str = "pan", r_col: str = "r",
                            g_col: str = "g", b_col: str = "b",
                            method: str = "brovey", round_to: int = 6):
    from .color import ihs2rgb_arrays, rgb2ihs_arrays

    def fn(batch: pa.Table) -> pa.Table:
        r = batch[r_col].to_numpy(zero_copy_only=False).astype(np.float64)
        g = batch[g_col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.float64)
        p = batch[pan_col].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(all="ignore"):
            if method == "brovey":
                tot = r + g + b
                ratio = np.where(tot != 0, 3.0 * p / np.where(tot != 0, tot, 1.0), 0.0)
                nr, ng, nb = r * ratio, g * ratio, b * ratio
            else:  # ihs substitution
                h, s, _i = rgb2ihs_arrays(r, g, b)
                nr, ng, nb = ihs2rgb_arrays(h, s, p)
        for name, v in (("sharp_r", nr), ("sharp_g", ng), ("sharp_b", nb)):
            batch = batch.append_column(name, pa.array(np.round(v, round_to), pa.float64()))
        return batch

    return ds.map_batches(fn, batch_format="pyarrow")


def image_stack_profile(layer_dss: list, spec, points):
    """Per probe point × layer value table; one probe pass per layer."""
    import ray

    gs = spec.grid_spec()
    tpx = spec.tile_px
    probes = [
        (pid, int(gs.row_from_y(np.float64(y))), int(gs.col_from_x(np.float64(x))))
        for x, y, pid in points
    ]
    ref = ray.put(probes)
    frames = []
    for li, layer in enumerate(layer_dss):

        def probe(batch: pa.Table, li=li) -> pa.Table:
            ps = ray.get(ref)
            out = {"point_id": [], "layer": [], "value": []}
            for i in range(batch.num_rows):
                tr = int(batch["tile_row"][i].as_py())
                tc = int(batch["tile_col"][i].as_py())
                g = None
                for pid, r, c in ps:
                    if r // tpx == tr and c // tpx == tc:
                        if g is None:
                            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
                        out["point_id"].append(pid)
                        out["layer"].append(li)
                        out["value"].append(float(g[r % tpx, c % tpx]))
            return pa.table(
                {
                    "point_id": pa.array(out["point_id"], pa.int64()),
                    "layer": pa.array(out["layer"], pa.int64()),
                    "value": pa.array(out["value"], pa.float64()),
                }
            )

        frames.append(layer.map_batches(probe, batch_format="pyarrow").to_pandas())
    return pd.concat(frames, ignore_index=True).sort_values(["point_id", "layer"]).reset_index(drop=True)


def write_function_memory_insertion(date1_ds, date2_ds, spec, date3_ds=None):
    """Pack 2-3 dates as an RGB24-style composite (R=date1, G=date2,
    B=date3 or date2), each band min/max normalized to 0-255."""
    from .stretch import _pixel_minmax

    layers = [date1_ds, date2_ds, date3_ds or date2_ds]
    ranges = [_pixel_minmax(d) for d in layers]

    def norm(i):
        lo, hi = ranges[i]
        span = (hi - lo) or 1.0

        def f(g):
            return np.floor(np.clip((g - lo) / span, 0.0, 1.0) * 255.0)

        return f

    rg = band_math.overlay_fn(layers[0], layers[1], spec,
                              lambda a, b: norm(0)(a) * 1000.0 + norm(1)(b))
    return band_math.overlay_fn(rg, layers[2], spec,
                                lambda ab, c: ab * 1000.0 + norm(2)(c))


def modified_k_means(ds, emb_col: str = "embedding", k: int = 8,
                     min_class_size: int = 10, max_iters: int = 10, seed: int = 42):
    """k-means, then clusters below ``min_class_size`` merge into the
    nearest surviving centroid (modified_k_means_clustering.rs rule)."""
    from .kmeans import kmeans_assign, kmeans_fit

    centroids, _n_iter, _inertia = kmeans_fit(ds, k=k, emb_col=emb_col, max_iter=max_iters, seed=seed)
    assigned = kmeans_assign(ds, centroids, emb_col=emb_col)
    counts = assigned.groupby("cluster").count().to_pandas()
    sizes = dict(zip(counts["cluster"].astype(int), counts["count()"].astype(int)))
    small = [c for c, n in sizes.items() if n < min_class_size]
    keep = [c for c in range(len(centroids)) if c not in small]
    if small and keep:
        # remap each small centroid to its nearest kept centroid
        remap = {}
        for c in small:
            d = np.linalg.norm(centroids[keep] - centroids[c], axis=1)
            remap[c] = keep[int(np.argmin(d))]

        def fix(batch: pa.Table) -> pa.Table:
            cl = batch["cluster"].to_numpy(zero_copy_only=False).copy()
            for old, new in remap.items():
                cl[cl == old] = new
            idx = batch.schema.get_field_index("cluster")
            return batch.set_column(idx, "cluster", pa.array(cl, batch["cluster"].type))

        assigned = assigned.map_batches(fix, batch_format="pyarrow")
    return assigned, centroids
