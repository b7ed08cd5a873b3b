"""Multi-raster per-cell combines — the M2 family (SURVEY.md §2.4/§2.6).

Reference tools: Max/Min/Sum/Average/WeightedSum overlays
(gis_analysis/*_overlay.rs, weighted_sum.rs), NormalizedDifferenceIndex
(image_analysis/normalized_difference_index.rs: (A−B)/(A+B) with a 0/0
guard), HighestPosition/LowestPosition (argmax/argmin across a stack),
CountIf / PercentEqualTo (per-cell stack stats), ChangeVectorAnalysis.

Engine form: every op is one :func:`bsp.combine_tile_layers` zip of its
aligned tile layers (tile_row, tile_col, bytes, fmt; co-keyed by
construction, same scene grid), then a per-tile ``fn(grids)`` on the
decoded stack (:func:`_zip_map`). A tile missing from any input layer
raises ValueError.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import codecs
from .bsp import combine_tile_layers, decode

# Per-layer-nodata-SKIP stack reducers, matching the reference's overlay
# family loops (max_overlay.rs / min_overlay.rs / sum_overlay.rs /
# average_overlay.rs / highest_pos.rs / lowest_pos.rs /
# max_abs_overlay.rs / min_abs_overlay.rs: every tool tests
# ``in_val != in_nodata`` per LAYER and only then folds the cell in; a
# cell valid in no layer stays nodata). Positions are 1-based (i = 1);
# the abs overlays output |value|, not the signed value.
_NINF = -np.inf
_PINF = np.inf
_STACK_OPS = {
    "max": lambda s, v: np.where(v, s, _NINF).max(axis=0),
    "min": lambda s, v: np.where(v, s, _PINF).min(axis=0),
    "sum": lambda s, v: np.where(v, s, 0.0).sum(axis=0),
    "average": lambda s, v: np.where(v, s, 0.0).sum(axis=0)
    / np.maximum(v.sum(axis=0), 1),
    "highest_position": lambda s, v: np.where(v, s, _NINF).argmax(axis=0).astype(np.float64) + 1.0,
    "lowest_position": lambda s, v: np.where(v, s, _PINF).argmin(axis=0).astype(np.float64) + 1.0,
    "max_absolute": lambda s, v: np.where(v, np.abs(s), _NINF).max(axis=0),
    "min_absolute": lambda s, v: np.where(v, np.abs(s), _PINF).min(axis=0),
}

def _zip_map(layer_dss: list, spec, fn, out_fmt: str = "f32"):
    """Zip ``layer_dss`` on the tile key, decode each tile's grids in
    layer order and emit ``fn(grids)`` encoded as ``out_fmt``: Dataset
    [tile_row, tile_col, bytes, fmt] with one row per tile of the first
    layer. A tile missing from a later layer raises ValueError."""
    names = [f"layer{k}" for k in range(len(layer_dss))]
    zipped = combine_tile_layers(spec, **dict(zip(names, layer_dss)))

    def per_batch(batch: pa.Table) -> pa.Table:
        trs = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcs = batch["tile_col"].to_numpy(zero_copy_only=False)
        blobs = []
        for i in range(batch.num_rows):
            grids = [decode(batch, n, i) for n in names]
            missing = [k for k, g in enumerate(grids) if g is None]
            if missing:
                raise ValueError(f"tile ({trs[i]},{tcs[i]}) is missing from input layer {missing[0]}")
            blobs.append(codecs.encode_tile(fn(grids), out_fmt))
        return codecs.tile_table(trs, tcs, blobs, [out_fmt] * len(blobs))

    return zipped.map_batches(per_batch, batch_format="pyarrow")


def overlay(layer_dss: list, spec, op: str = "max", weights: list[float] | None = None):
    """N-ary per-cell overlay of aligned tile Datasets.

    ``op`` ∈ max|min|sum|average|highest_position|lowest_position|
    max_absolute|min_absolute or 'weighted_sum' with ``weights``.

    Nodata semantics follow each reference tool exactly: the overlay
    family SKIPS a layer's nodata cells and reduces over the remaining
    layers (cells valid in no layer → nodata; see _STACK_OPS);
    ``weighted_sum`` is the one poisoning tool — ANY layer nodata →
    nodata (weighted_sum.rs:269-275) — and its weights NORMALIZE to
    sum 1 (weighted_sum.rs:219-224). Returns
    Dataset[tile_row, tile_col, bytes, fmt].
    """
    if op == "weighted_sum":
        if weights is None or len(weights) != len(layer_dss):
            raise ValueError("weighted_sum needs one weight per layer")
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()  # the reference normalizes (weighted_sum.rs:219-224)
    elif op not in _STACK_OPS:
        raise ValueError(f"unknown overlay op {op!r}")
    nodata = spec.nodata

    def combine(grids):
        stack = np.stack(grids)
        valid = stack != nodata
        if op == "weighted_sum":
            out = np.tensordot(w, stack, axes=1)
            out[(~valid).any(axis=0)] = nodata
        else:
            out = _STACK_OPS[op](stack, valid)
            out[~valid.any(axis=0)] = nodata
        return out

    return _zip_map(layer_dss, spec, combine)


def normalized_difference(ds_a, ds_b, spec, clip: float = 0.0):
    """NDI = (A−B)/(A+B); 0/0 → 0 (normalized_difference_index.rs
    convention); nodata in either input propagates. One tile zip of the
    two layers, like ``overlay``."""
    nodata = spec.nodata

    def combine(grids):
        a, b = grids
        denom = a + b
        with np.errstate(all="ignore"):
            nd = np.where(denom != 0.0, (a - b) / denom, 0.0)
        nd[(a == nodata) | (b == nodata)] = nodata
        if clip > 0:
            nd = np.clip(nd, -clip, clip)
        return nd

    return _zip_map([ds_a, ds_b], spec, combine)


def count_if(layer_dss: list, spec, value: float):
    """CountIf (count_if.rs:239-249): per cell, how many stack layers
    equal ``value``. Reference semantics: a layer's nodata cell is simply
    skipped (``z == comparison_value && z != in_nodata``), and a cell that
    never matched in any layer stays NODATA in the output (the output is
    initialised to nodata and only set on the first match)."""
    nodata = spec.nodata

    def combine(grids):
        stack = np.stack(grids)
        cnt = ((stack == value) & (stack != nodata)).sum(axis=0).astype(np.float64)
        return np.where(cnt > 0, cnt, nodata)

    return _zip_map(layer_dss, spec, combine)


def overlay_fn(ds_a, ds_b, spec, fn, out_fmt: str = "f32"):
    """Binary per-cell combine ``fn(a, b) -> out`` of two aligned tile
    Datasets via one tile zip. Nodata in either input propagates."""
    nodata = spec.nodata

    def combine(grids):
        a, b = grids
        return np.where((a == nodata) | (b == nodata), nodata, fn(a, b))

    return _zip_map([ds_a, ds_b], spec, combine, out_fmt)


def compare_overlay(layer_dss: list, cmp_ds, spec, op: str = "eq", out_fmt: str = "f32"):
    """PercentEqualTo / PercentGreaterThan / PercentLessThan
    (percent_equal_to.rs family): per cell, the percentage of stack
    layers whose value compares true against the comparison layer."""
    fns = {
        "eq": lambda s, c: s == c,
        "gt": lambda s, c: s > c,
        "lt": lambda s, c: s < c,
    }
    cmp_fn = fns[op]
    nodata = spec.nodata

    def combine(grids):
        # percent_equal_to.rs:236-266 semantics: per-layer nodata SKIP
        # with the percentage normalized by the VALID layer count
        # (n_images), comparison-nodata cells nodata, zero valid layers
        # -> 0. Intentional deviation: the reference increments its
        # match counter on a NODATA-initialized output raster
        # (initialize_using_file fills nodata; no reinitialize_values),
        # so its published outputs carry `100*(nodata+matches)/n` at
        # every matched cell — an initialization bug this engine does
        # not reproduce.
        cmp_g = grids[0]
        stack = np.stack(grids[1:])
        valid = stack != nodata
        matches = (cmp_fn(stack, cmp_g[None]) & valid).sum(axis=0)
        n_img = valid.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(n_img > 0, 100.0 * matches / np.maximum(n_img, 1), 0.0)
        out[cmp_g == nodata] = nodata
        return out

    return _zip_map([cmp_ds, *layer_dss], spec, combine, out_fmt)


def pick_from_list(layer_dss: list, pos_ds, spec, out_fmt: str = "f32"):
    """PickFromList (pick_from_list.rs:16-21, 236-242): the position
    raster selects, per cell, which stack layer's value to output —
    ZERO-BASED ('the positions raster should be in zero-based order.
    That is, the first image in the stack should be assigned the value
    zero'). Positions matching no layer, position nodata, and a selected
    value that is itself nodata all leave the cell nodata."""
    nodata = spec.nodata

    def combine(grids):
        pos = grids[0]
        stack = np.stack(grids[1:])
        ip = pos.astype(np.int64)
        idx = np.clip(ip, 0, stack.shape[0] - 1)
        out = np.take_along_axis(stack, idx[None], 0)[0]
        bad = (pos == nodata) | (ip < 0) | (ip > stack.shape[0] - 1)
        return np.where(bad, nodata, out)

    return _zip_map([pos_ds, *layer_dss], spec, combine, out_fmt)


def weighted_overlay(layer_dss: list, spec, weights: list[float],
                     cost: list[bool] | None = None, scale_max: float = 1.0,
                     out_fmt: str = "f32"):
    """WeightedOverlay (weighted_overlay.rs): each factor min/max
    normalized onto [0, scale_max] (cost layers inverted), then the
    weighted sum with weights normalized to Σ=1."""
    from .stretch import _pixel_minmax

    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    costs = cost or [False] * len(layer_dss)
    ranges = [_pixel_minmax(ds) for ds in layer_dss]
    nodata = spec.nodata

    def combine(grids):
        out = None
        bad = None
        for grid, wi, ci, (lo, hi) in zip(grids, w, costs, ranges):
            span = (hi - lo) or 1.0
            norm = (grid - lo) / span
            if ci:
                norm = 1.0 - norm
            term = wi * norm * scale_max
            b = grid == nodata
            out = term if out is None else out + term
            bad = b if bad is None else (bad | b)
        out[bad] = nodata
        return out

    return _zip_map(layer_dss, spec, combine, out_fmt)
