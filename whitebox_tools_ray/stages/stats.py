"""Global aggregate → broadcast → re-map stages (the GA→M family).

- ``zscores``   — math_stat_analysis/zscores.rs: global mean/σ
  (Raster::calculate_mean_and_stdev, raster/mod.rs:961-997) then
  per-record standardize.
- ``quantiles`` — math_stat_analysis/quantiles.rs: global quantile cuts
  then per-record class assignment (1-based class index).
- ``reclass``   — math_stat_analysis/reclass.rs: value→class LUT with
  (new, from, to) ranges, broadcast, one vectorized map.
- ``minmax_stretch`` / ``histogram`` — the contrast-stretch family's
  two-phase skeleton (image_analysis/histogram_equalization.rs:252-296).

All compute the scalar(s) with Dataset aggregates (tiny result), then run
ONE second map pass — the input streams twice but never materializes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def global_mean_std(ds, col: str) -> tuple[float, float]:
    """Population mean/σ via sum + sum-of-squares partials."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"s": [float(v.sum())], "ss": [float((v**2).sum())], "n": [len(v)]})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .aggregate(Sum("s", alias_name="s"), Sum("ss", alias_name="ss"), Sum("n", alias_name="n"))
    )
    n = float(agg["n"])
    mean = agg["s"] / n
    var = max(agg["ss"] / n - mean**2, 0.0)
    return mean, float(np.sqrt(var))


def zscores(ds, col: str, out_col: str = "zscore"):
    mean, std = global_mean_std(ds, col)

    def remap(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        return batch.append_column(out_col, pa.array((v - mean) / std))

    return ds.map_batches(remap, batch_format="pyarrow")


def _order_stats_by_refinement(col_ds, col: str, n: int, ks: list[int],
                               bins: int = 1024, driver_cap: int = 2_000_000,
                               max_rounds: int = 64) -> dict[int, float]:
    """EXACT 0-based order statistics of ``col`` at ranks ``ks`` by
    iterative histogram refinement — the two-pass (in practice 2-4-pass)
    scheme that replaces sampling at any scale:

    1. one GA pass bins each pending rank's current [lo, hi] interval
       into ``bins`` buckets (all pending ranks share the SAME pass —
       the partial is one flat count vector);
    2. the driver locates each rank's bucket (O(bins) per rank), narrows
       the interval and accumulates the below-count — each round divides
       the candidate count by ~``bins``, so 100 TB (1e12 rows) needs 2
       rounds to reach a ≤2 M candidate set;
    3. a final filtered pass pulls only the surviving candidates and
       takes the exact order statistic driver-side.

    The input streams once per round and never materializes; degenerate
    intervals (all remaining values equal, or edges no longer
    splittable in f64) resolve immediately."""
    from ray.data.aggregate import Max, Min

    agg = col_ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
    # state per rank: [lo, hi, n_below, n_in_range] with values in
    # [lo, hi] (both ends inclusive)
    state: dict[int, list] = {int(k): [float(agg["lo"]), float(agg["hi"]), 0, n]
                              for k in ks}
    values: dict[int, float] = {}
    for _ in range(max_rounds):
        for k, (lo, hi, below, cnt) in list(state.items()):
            if k in values:
                continue
            if lo == hi:
                values[k] = lo  # all remaining candidates equal
        # adjacent-float intervals can't histogram-split: every candidate
        # is lo or hi, so one counting pass resolves them exactly
        adjacent = [k for k in state
                    if k not in values and state[k][3] > driver_cap
                    and state[k][0] != state[k][1]
                    and np.nextafter(state[k][0], state[k][1]) == state[k][1]]
        if adjacent:
            iv_adj = [(k, state[k][0]) for k in adjacent]

            def count_lo(batch: pa.Table, iv_adj=iv_adj) -> pa.Table:
                v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
                c = np.array([int((v == lo).sum()) for _, lo in iv_adj], dtype=np.int64)
                return pa.table({"c": pa.array([c.tobytes()], pa.binary())})

            pdf_adj = col_ds.map_batches(count_lo, batch_format="pyarrow").to_pandas()
            n_lo = np.zeros(len(adjacent), dtype=np.int64)
            for blob in pdf_adj["c"]:
                n_lo += np.frombuffer(blob, dtype=np.int64)
            for i, k in enumerate(adjacent):
                lo, hi, below, _ = state[k]
                values[k] = lo if (k - below) < int(n_lo[i]) else hi
        pending = [k for k in state if k not in values and state[k][3] > driver_cap]
        if not pending:
            break
        edges = np.stack([np.linspace(state[k][0], state[k][1], bins + 1)
                          for k in pending])  # (P, bins+1)

        # partial = ONE row per batch holding the flat count vector as
        # bytes; the driver sums num_blocks tiny vectors (cheaper than
        # len(pending)*bins named Dataset aggregations)
        def partial(batch: pa.Table, edges=edges, pending=pending) -> pa.Table:
            v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
            flat = np.zeros(len(pending) * bins, dtype=np.int64)
            for i in range(len(pending)):
                lo, hi = edges[i, 0], edges[i, -1]
                sel = v[(v >= lo) & (v <= hi)]
                if len(sel):
                    flat[i * bins:(i + 1) * bins] = np.histogram(sel, bins=edges[i])[0]
            return pa.table({"flat": pa.array([flat.tobytes()], pa.binary())})

        parts = col_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        total = np.zeros(len(pending) * bins, dtype=np.int64)
        for blob in parts["flat"]:
            total += np.frombuffer(blob, dtype=np.int64)
        for i, k in enumerate(pending):
            counts = total[i * bins:(i + 1) * bins]
            lo, hi, below, _ = state[k]
            cum = np.cumsum(counts)
            j = int(np.searchsorted(cum, k - below + 1))
            new_below = below + (int(cum[j - 1]) if j else 0)
            e = np.linspace(lo, hi, bins + 1)
            # np.histogram buckets are [e_j, e_{j+1}) except the last,
            # which is closed — keep the same convention in the state
            state[k] = [float(e[j]), float(e[j + 1]), new_below, int(counts[j])]
    # final exact pass over every unresolved rank's candidate interval
    todo = [k for k in state if k not in values]
    if todo:
        iv = [(k, state[k][0], state[k][1]) for k in todo]

        def collect(batch: pa.Table, iv=iv) -> pa.Table:
            v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
            ids, vals = [], []
            for idx, (_, lo, hi) in enumerate(iv):
                sel = v[(v >= lo) & (v <= hi)]
                ids.append(np.full(len(sel), idx, dtype=np.int64))
                vals.append(sel)
            return pa.table({"i": pa.array(np.concatenate(ids) if ids else [], pa.int64()),
                             "v": pa.array(np.concatenate(vals) if vals else [], pa.float64())})

        cand = col_ds.map_batches(collect, batch_format="pyarrow").to_pandas()
        for idx, (k, lo, hi) in enumerate(iv):
            vs = np.sort(cand.loc[cand["i"] == idx, "v"].to_numpy(np.float64))
            values[k] = float(vs[k - state[k][2]])
    return values


def quantile_cuts(ds, col: str, num_quantiles: int, driver_cap: int = 2_000_000,
                  refine_bins: int = 1024) -> np.ndarray:
    """EXACT quantile cut points at any scale (quantiles.rs parity —
    the reference computes exact quantiles over the whole in-RAM
    raster). Columns at or under ``driver_cap`` rows pull to the driver
    (one pass); larger inputs use iterative histogram refinement
    (``_order_stats_by_refinement``) — still exact, 2-4 streaming
    passes, never materializing the column. Both paths reproduce
    ``np.quantile(..., method='linear')`` bit-for-bit."""
    n = ds.count()
    col_ds = ds.select_columns([col])
    qs = np.linspace(0, 1, num_quantiles + 1)[1:-1]
    if n <= driver_cap:
        v = col_ds.to_pandas()[col].to_numpy(np.float64)
        return np.quantile(v, qs)
    h = (n - 1) * qs
    lo_k = np.floor(h).astype(np.int64)
    hi_k = np.ceil(h).astype(np.int64)
    stats = _order_stats_by_refinement(
        col_ds, col, n, sorted(set(lo_k) | set(hi_k)),
        bins=refine_bins, driver_cap=driver_cap)
    frac = h - lo_k
    return np.array([stats[int(a)] + f * (stats[int(b)] - stats[int(a)])
                     for a, b, f in zip(lo_k, hi_k, frac)])


def quantiles(ds, col: str, num_quantiles: int = 4, out_col: str = "quantile"):
    """Append 1-based quantile class of ``col`` (quantiles.rs GA→M)."""
    cuts = quantile_cuts(ds, col, num_quantiles)

    def remap(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        cls = np.searchsorted(cuts, v, side="right") + 1
        return batch.append_column(out_col, pa.array(cls.astype(np.int64)))

    return ds.map_batches(remap, batch_format="pyarrow")


def reclass(ds, col: str, ranges: list[tuple[float, float, float]], out_col: str = "reclass", nodata: float | None = None):
    """LUT reclass: ranges = [(new_value, from_incl, to_excl), ...]
    (reclass.rs range mode). Values matching no range pass through
    (or become ``nodata`` when given)."""
    rng = np.asarray(ranges, dtype=np.float64)

    def remap(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        out = v.copy() if nodata is None else np.full_like(v, nodata)
        for new, lo, hi in rng:
            m = (v >= lo) & (v < hi)
            out[m] = new
        return batch.append_column(out_col, pa.array(out))

    return ds.map_batches(remap, batch_format="pyarrow")


def minmax_stretch(ds, col: str, out_min: float = 0.0, out_max: float = 255.0, out_col: str = "stretched"):
    """MinMaxContrastStretch (image_analysis/min_max_contrast_stretch.rs):
    global min/max then linear remap."""
    from ray.data.aggregate import Max, Min

    agg = ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
    lo, hi = float(agg["lo"]), float(agg["hi"])
    span = (hi - lo) or 1.0

    def remap(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        s = (v - lo) / span * (out_max - out_min) + out_min
        return batch.append_column(out_col, pa.array(s))

    return ds.map_batches(remap, batch_format="pyarrow")


def histogram(ds, col: str, bins: int = 64, lo: float | None = None, hi: float | None = None):
    """Global histogram (RasterHistogram analog): per-batch partial
    counts summed driver-side; returns (edges, counts)."""
    from ray.data.aggregate import Max, Min

    if lo is None or hi is None:
        agg = ds.aggregate(Min(col, alias_name="lo"), Max(col, alias_name="hi"))
        lo = float(agg["lo"]) if lo is None else lo
        hi = float(agg["hi"]) if hi is None else hi
    edges = np.linspace(lo, hi, bins + 1)

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        c, _ = np.histogram(v, bins=edges)
        return pa.table({"bin": np.arange(bins, dtype=np.int64), "n": c.astype(np.int64)})

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("bin")
    )
    counts = np.zeros(bins, dtype=np.int64)
    counts[out["bin"].to_numpy()] = out["n"].to_numpy()
    return edges, counts


def hypsometric_curve(ds, col: str, bins: int = 100):
    """Hypsometric curve (terrain_analysis/hypsometric_analysis.rs):
    normalized cumulative area ABOVE each normalized elevation.

    For each of ``bins`` relative-elevation levels h_i in [0,1]:
    rel_area_i = (#cells with elevation > lo + h_i*(hi-lo)) / N — the
    classic area-above-elevation distribution. Computed from the global
    histogram (one pass + one tiny shuffle); returns a pandas DataFrame
    (rel_elev, rel_area) with rel_elev ascending.
    """
    import pandas as pd

    edges, counts = histogram(ds, col, bins=bins)
    n = counts.sum()
    if n == 0:
        return pd.DataFrame({"rel_elev": [], "rel_area": []})
    lo, hi = edges[0], edges[-1]
    span = (hi - lo) or 1.0
    # area above the LOWER edge of each bin = suffix sum of counts
    above = np.cumsum(counts[::-1])[::-1]
    rel_elev = (edges[:-1] - lo) / span
    rel_area = above / n
    return pd.DataFrame({"rel_elev": rel_elev, "rel_area": rel_area})


def reclass_equal_interval(ds, col: str, interval: float, start: float | None = None,
                           out_col: str = "reclass"):
    """ReclassEqualInterval (reclass_equal_interval.rs): class value =
    lower edge of the interval bin containing the value."""
    if start is None:
        from ray.data.aggregate import Min

        def partial(batch):
            import pyarrow as _pa

            v = batch[col].to_numpy(zero_copy_only=False)
            return _pa.table({"lo": [float(np.nanmin(v))]})

        start = float(ds.map_batches(partial, batch_format="pyarrow").aggregate(Min("lo", alias_name="lo"))["lo"])

    def remap(batch):
        import pyarrow as _pa

        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        out = np.floor((v - start) / interval) * interval + start
        return batch.append_column(out_col, _pa.array(out, _pa.float64()))

    return ds.map_batches(remap, batch_format="pyarrow")


def reclass_from_file(ds, col: str, text: str, out_col: str = "reclass"):
    """ReclassFromFile (reclass_from_file.rs): parse 'new;from;to' lines
    (comma/semicolon/tab/space separated) into the range LUT."""
    ranges = []
    for line in text.strip().splitlines():
        parts = [p for p in line.replace(",", " ").replace(";", " ").replace("\t", " ").split() if p]
        if len(parts) >= 3:
            ranges.append((float(parts[0]), float(parts[1]), float(parts[2])))
    return reclass(ds, col, ranges, out_col=out_col)
