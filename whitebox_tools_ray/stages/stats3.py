"""Hypothesis-test / rank-statistic family — math_stat_analysis part 3.

Distributed forms of the reference's statistical-test tools. Scalar
tests are two-phase GA patterns (per-batch partial sums → tiny driver
combine). Rank statistics (KS, Wilcoxon, cumulative distribution) use
a **distinct-value prefix scan**: groupby the exact value (one shuffle,
one row per distinct value with partial counts), range-sort the
distinct table, then cumulate per-block sums via driver-side offsets.
Because the scanned table has UNIQUE keys, sorted blocks hold disjoint
values and no tie group ever spans a block, which keeps every pass
exact with no boundary cases.

- ``anova``            — Anova (anova.rs:414-434): one-way F =
  MS_between / MS_within from per-group (n, Σx, Σx²) partials.
- ``paired_t_test``    — PairedSampleTTest (paired_sample_t_test.rs):
  t = d̄ / (s_d/√n) over per-row differences.
- ``two_sample_ks``    — TwoSampleKsTest (two_sample_ks_test.rs):
  D = sup|F₁−F₂| from per-value label counts + prefix scan.
- ``ks_normality``     — KsTestForNormality (ks_test_for_normality.rs):
  D = sup|ECDF − Φ((x−μ)/σ)| with μ, σ from a first GA pass, both
  one-sided ECDF jumps checked at every distinct value.
- ``wilcoxon_signed_rank`` — WilcoxonSignedRankTest
  (wilcoxon_signed_rank_test.rs:360-430): zero diffs dropped, tied
  |d| given their average rank, z-approximation with tie correction.
- ``cumulative_distribution`` — CumulativeDistribution
  (cumulative_distribution.rs): per-row P(X ≤ x) = cume count / n
  (ties share the count of their LAST member — SQL ``cume_dist()``),
  joined back to rows by value.
- ``image_autocorrelation`` — ImageAutocorrelation
  (image_autocorrelation.rs): Moran's I with rook contiguity via the
  focal halo engine (per-tile Σ z_i·z_j partials over shared edges).
- ``attribute_scattergram`` — AttributeScattergram: paired-sample
  extraction (the reference renders HTML; the data product is the
  pair table).

p-values use public closed forms: regularized incomplete beta via the
standard continued fraction (Numerical Recipes §6.4 form of Lentz's
algorithm — textbook math) for t/F distributions, the
Abramowitz–Stegun 7.1.26 polynomial for erf, and the asymptotic
Kolmogorov series for the KS tail.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa


# ---------------------------------------------------------------- p-values


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    MAXIT, EPS, FPMIN = 200, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """Two-sided p-value of Student's t."""
    if not math.isfinite(t):
        return 0.0
    x = df / (df + t * t)
    return betainc(df / 2.0, 0.5, x)


def f_sf(f: float, df1: float, df2: float) -> float:
    """Upper-tail p-value of the F distribution."""
    if not math.isfinite(f) or f <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return betainc(df2 / 2.0, df1 / 2.0, x)


def erf_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized erf — Abramowitz & Stegun 7.1.26 (|err| < 1.5e-7)."""
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-ax * ax))


def norm_cdf_vec(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf_vec(x / math.sqrt(2.0)))


def ks_sf(d: float, n_eff: float) -> float:
    """K-S tail probability Q_KS((√n + 0.12 + 0.11/√n)·D)."""
    if d <= 0:
        return 1.0
    s = math.sqrt(n_eff)
    lam = (s + 0.12 + 0.11 / s) * d
    a2 = -2.0 * lam * lam
    total, fac, prev = 0.0, 2.0, 1e300
    for j in range(1, 101):
        term = fac * math.exp(a2 * j * j)
        total += term
        if abs(term) <= 1e-12 * abs(total) or abs(term) >= prev:
            return max(0.0, min(1.0, total))
        fac = -fac
        prev = abs(term)
    return 1.0


# ------------------------------------------------------------ scalar tests


def anova(ds, value_col: str, group_col: str) -> dict:
    """One-way ANOVA (anova.rs): F, df, SS/MS from per-group partials."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "g": batch[group_col].to_pandas(),
                "x": batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64),
            }
        ).dropna()
        agg = df.groupby("g")["x"].agg(n="count", s="sum", ss=lambda v: float((v**2).sum()))
        return pa.Table.from_pandas(agg.reset_index(), preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("g").agg(n=("n", "sum"), s=("s", "sum"), ss=("ss", "sum"))
    n_tot = float(g["n"].sum())
    grand = float(g["s"].sum()) / n_tot
    ss_b = float((g["s"] ** 2 / g["n"]).sum()) - n_tot * grand * grand
    ss_t = float(g["ss"].sum()) - n_tot * grand * grand
    ss_w = ss_t - ss_b
    k = len(g)
    df_b, df_w = k - 1, int(n_tot) - k
    ms_b = ss_b / df_b if df_b else float("nan")
    ms_w = ss_w / df_w if df_w else float("nan")
    f = ms_b / ms_w if ms_w else float("nan")
    return {
        "groups": k,
        "n": int(n_tot),
        "ss_between": ss_b,
        "ss_within": ss_w,
        "df_between": df_b,
        "df_within": df_w,
        "ms_between": ms_b,
        "ms_within": ms_w,
        "f": f,
        "p_value": f_sf(f, df_b, df_w) if ms_w else float("nan"),
    }


def paired_t_test(ds, a: str, b: str) -> dict:
    """PairedSampleTTest: t on per-row differences a−b."""

    def partial(batch: pa.Table) -> pa.Table:
        d = (
            batch[a].to_numpy(zero_copy_only=False).astype(np.float64)
            - batch[b].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        d = d[~np.isnan(d)]
        return pa.table({"n": [len(d)], "s": [float(d.sum())], "ss": [float((d * d).sum())]})

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(p["n"].sum())
    s, ss = float(p["s"].sum()), float(p["ss"].sum())
    mean = s / n
    var = (ss - n * mean * mean) / (n - 1)
    sd = math.sqrt(max(var, 0.0))
    t = mean / (sd / math.sqrt(n)) if sd > 0 else float("inf")
    return {
        "n": n,
        "mean_diff": mean,
        "std_diff": sd,
        "t": t,
        "df": n - 1,
        "p_value": t_sf(t, n - 1),
    }


# ----------------------------------------- distinct-value prefix scan core


def distinct_value_scan(ds, val_col: str, sum_cols: list[str]):
    """Groupby ``val_col`` (exact values) summing ``sum_cols``, then sort
    the distinct table by value and append EXCLUSIVE global prefix-sum
    columns ``off_<c>``.

    Returns ``(scanned_ds, totals)`` where ``scanned_ds`` has one row
    per distinct value with columns ``val_col, <c>..., off_<c>...`` and
    ``totals`` maps each sum col to its grand total. Keys in the sorted
    distinct table are unique, so blocks hold disjoint values and the
    per-block offset (keyed by block min value) is exact.
    """

    def partial(batch: pa.Table) -> pa.Table:
        pdf = batch.select([val_col] + sum_cols).to_pandas()
        agg = pdf.groupby(val_col, sort=False)[sum_cols].sum().reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    # combiner inside map_batches → small shuffle → final per-value sums.
    # The final merge groups by a COARSE salt (value-hash % 64), one
    # vectorized pandas groupby per partition — grouping directly on
    # val_col spawns one pandas call per DISTINCT VALUE (15 k calls on
    # sf0.01 orders, measured ~17 s of pure per-group overhead).
    P = 64

    def add_part(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return batch.append_column("__part", pa.array(v.view(np.int64) % P))

    def merge_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(val_col, as_index=False)[sum_cols].sum()

    pre = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        add_part, batch_format="pyarrow"
    )
    distinct = (
        pre.groupby("__part")
        .map_groups(merge_part, batch_format="pandas")
        .sort(val_col)
        .materialize()
    )

    def block_meta(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if len(v) == 0:
            return pa.table(
                {
                    "vmin": pa.array([], pa.float64()),
                    **{c: pa.array([], pa.float64()) for c in sum_cols},
                }
            )
        row = {"vmin": [float(v[0])]}
        for c in sum_cols:
            row[c] = [float(batch[c].to_numpy(zero_copy_only=False).sum())]
        return pa.table(row)

    meta = distinct.map_batches(block_meta, batch_size=None, batch_format="pyarrow").to_pandas()
    meta = meta.sort_values("vmin").reset_index(drop=True)
    offsets = {}
    totals = {}
    for c in sum_cols:
        offs = meta[c].cumsum().shift(fill_value=0.0)
        totals[c] = float(meta[c].sum())
        for vm, off in zip(meta["vmin"], offs):
            offsets.setdefault(float(vm), {})[c] = float(off)

    def add_offsets(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        if len(v) == 0:
            for c in sum_cols:
                batch = batch.append_column(f"off_{c}", pa.array([], pa.float64()))
            return batch
        off = offsets[float(v[0])]
        for c in sum_cols:
            x = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            cum = np.cumsum(x) - x + off[c]  # exclusive prefix
            batch = batch.append_column(f"off_{c}", pa.array(cum, pa.float64()))
        return batch

    return (
        distinct.map_batches(add_offsets, batch_size=None, batch_format="pyarrow"),
        totals,
    )


def two_sample_ks(ds, val_col: str, label_col: str) -> dict:
    """TwoSampleKsTest: D = sup|F₁−F₂| over the labelled union.

    ``label_col`` holds 0 (sample 1) / 1 (sample 2). One groupby to the
    distinct-value table, one prefix scan, one tiny max.
    """

    def widen(batch: pa.Table) -> pa.Table:
        lab = batch[label_col].to_numpy(zero_copy_only=False)
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "v": v,
                "c1": (lab == 0).astype(np.float64),
                "c2": (lab != 0).astype(np.float64),
            }
        )

    wide = ds.map_batches(widen, batch_format="pyarrow")
    scanned, totals = distinct_value_scan(wide, "v", ["c1", "c2"])
    n1, n2 = totals["c1"], totals["c2"]

    def block_d(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"d": pa.array([], pa.float64())})
        cum1 = batch["off_c1"].to_numpy() + batch["c1"].to_numpy()
        cum2 = batch["off_c2"].to_numpy() + batch["c2"].to_numpy()
        d = np.abs(cum1 / n1 - cum2 / n2)
        return pa.table({"d": [float(d.max())]})

    dm = scanned.map_batches(block_d, batch_size=None, batch_format="pyarrow").to_pandas()
    D = float(dm["d"].max())
    n_eff = n1 * n2 / (n1 + n2)
    return {"n1": int(n1), "n2": int(n2), "d": D, "p_value": ks_sf(D, n_eff)}


def ks_normality(ds, col: str) -> dict:
    """KsTestForNormality: ECDF vs Φ((x−μ)/σ), μ/σ from a GA pass."""
    from .stats import global_mean_std

    mu, sd = global_mean_std(ds, col)

    def widen(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        return pa.table({"v": v, "c": np.ones(len(v))})

    wide = ds.map_batches(widen, batch_format="pyarrow")
    scanned, totals = distinct_value_scan(wide, "v", ["c"])
    n = totals["c"]

    def block_d(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"d": pa.array([], pa.float64())})
        v = batch["v"].to_numpy()
        cnt = batch["c"].to_numpy()
        off = batch["off_c"].to_numpy()
        cdf = norm_cdf_vec((v - mu) / sd)
        hi = (off + cnt) / n  # ECDF at x (right-continuous)
        lo = off / n  # ECDF just below x
        d = max(float(np.abs(hi - cdf).max()), float(np.abs(cdf - lo).max()))
        return pa.table({"d": [d]})

    dm = scanned.map_batches(block_d, batch_size=None, batch_format="pyarrow").to_pandas()
    D = float(dm["d"].max())
    return {"n": int(n), "mean": mu, "std": sd, "d": D, "p_value": ks_sf(D, n)}


def wilcoxon_signed_rank(ds, a: str, b: str) -> dict:
    """WilcoxonSignedRankTest: average ranks of |d|, zero diffs dropped,
    z with tie correction (wilcoxon_signed_rank_test.rs:360-430)."""

    def diffs(batch: pa.Table) -> pa.Table:
        d = (
            batch[a].to_numpy(zero_copy_only=False).astype(np.float64)
            - batch[b].to_numpy(zero_copy_only=False).astype(np.float64)
        )
        d = d[~np.isnan(d) & (d != 0.0)]
        return pa.table({"v": np.abs(d), "c": np.ones(len(d)), "pos": (d > 0).astype(np.float64)})

    wide = ds.map_batches(diffs, batch_format="pyarrow")
    scanned, totals = distinct_value_scan(wide, "v", ["c", "pos"])
    n = totals["c"]

    def block_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"w_plus": pa.array([], pa.float64()), "tie": pa.array([], pa.float64())})
        cnt = batch["c"].to_numpy()
        pos = batch["pos"].to_numpy()
        c_less = batch["off_c"].to_numpy()
        rank = c_less + (cnt + 1.0) / 2.0
        return pa.table(
            {
                "w_plus": [float((rank * pos).sum())],
                "tie": [float((cnt**3 - cnt).sum())],
            }
        )

    parts = scanned.map_batches(block_partial, batch_size=None, batch_format="pyarrow").to_pandas()
    w_plus = float(parts["w_plus"].sum())
    tie_sum = float(parts["tie"].sum())
    mean_w = n * (n + 1.0) / 4.0
    var_w = n * (n + 1.0) * (2.0 * n + 1.0) / 24.0 - tie_sum / 48.0
    z = (w_plus - mean_w) / math.sqrt(var_w) if var_w > 0 else 0.0
    p = float(2.0 * (1.0 - norm_cdf_vec(np.array([abs(z)]))[0]))
    return {"n": int(n), "w_plus": w_plus, "z": z, "p_value": p}


def cumulative_distribution(ds, col: str, out_col: str = "cume"):
    """CumulativeDistribution: append per-row P(X ≤ x) (= cume_dist()).

    Distinct-value scan gives each value's inclusive cume count; rows
    get their value's cume via a broadcast (small distinct set) or a
    value-bucketed shuffle join (large). The broadcast path is chosen
    when the distinct table fits comfortably in one object (< ~4M
    values); raster/attribute data is typically heavily tied.
    """

    def widen(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"v": v, "c": np.ones(len(v))})

    wide = ds.map_batches(widen, batch_format="pyarrow")
    scanned, totals = distinct_value_scan(wide, "v", ["c"])
    n = totals["c"]

    distinct_rows = scanned.count()
    if distinct_rows <= 4_000_000:
        import ray

        tbl = scanned.to_pandas()
        vals = np.sort(tbl["v"].to_numpy())
        order = np.argsort(tbl["v"].to_numpy(), kind="stable")
        cume = (tbl["off_c"].to_numpy() + tbl["c"].to_numpy())[order] / n
        ref = ray.put((vals, cume))

        def assign(batch: pa.Table) -> pa.Table:
            import ray as _ray

            vv, cc = _ray.get(ref)
            x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
            idx = np.searchsorted(vv, x)
            return batch.append_column(out_col, pa.array(cc[idx], pa.float64()))

        return ds.map_batches(assign, batch_format="pyarrow")

    # large-cardinality path: bucketed shuffle join on the value
    from .joins import hash_join_bucketed

    def cume_col(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                col: batch["v"].to_numpy(),
                out_col: (batch["off_c"].to_numpy() + batch["c"].to_numpy()) / n,
            }
        )

    lut = scanned.map_batches(cume_col, batch_format="pyarrow")
    return hash_join_bucketed(ds, lut, key=col)


def attribute_scattergram(ds, a: str, b: str, sample_limit: int = 10_000):
    """AttributeScattergram — the paired-sample data product."""
    return ds.select_columns([a, b]).limit(sample_limit)


def image_autocorrelation(tiles_ds, spec) -> dict:
    """ImageAutocorrelation: Moran's I, rook contiguity.

    I = (n/W)·Σw_ij z_i z_j / Σz_i² — one GA pass for μ over decoded
    tiles, then one focal halo pass emitting per-tile partials (cross
    products over 4-adjacency; each shared edge counted twice, matching
    the reference's symmetric w matrix).
    """
    from ..kernels import codecs
    from .focal import focal_op

    def mean_partial(batch: pa.Table) -> pa.Table:
        tot, cnt = 0.0, 0.0
        nd = batch["nodata"].to_numpy(zero_copy_only=False)
        for bb, ff, nn in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist(), nd):
            g = codecs.decode_tile(bb, ff)
            m = g != nn
            tot += float(g[m].sum())
            cnt += float(m.sum())
        return pa.table({"s": [tot], "n": [cnt]})

    mp = tiles_ds.map_batches(mean_partial, batch_format="pyarrow").to_pandas()
    n_tot = float(mp["n"].sum())
    mu = float(mp["s"].sum()) / n_tot

    def kernel(pad, nodata, sp):
        tpx = pad.shape[0] - 2
        core = pad[1:-1, 1:-1]
        valid = core != nodata
        z = np.where(valid, core - mu, 0.0)
        cross, w = 0.0, 0.0
        for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nb = pad[1 + dy : 1 + dy + tpx, 1 + dx : 1 + dx + tpx]
            nbv = (nb != nodata) & valid
            cross += float((z * np.where(nbv, nb - mu, 0.0)).sum())
            w += float(nbv.sum())
        out = np.full_like(core, nodata)
        out[0, 0] = cross
        out[0, 1] = w
        out[1, 0] = float(valid.sum())
        out[1, 1] = float((z * z)[valid].sum())
        return out

    part_ds = focal_op(tiles_ds, spec, kernel, halo=1, out_fmt="f32")

    def collect(batch: pa.Table) -> pa.Table:
        cross = w = nn = ssz = 0.0
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            cross += float(g[0, 0])
            w += float(g[0, 1])
            nn += float(g[1, 0])
            ssz += float(g[1, 1])
        return pa.table({"cross": [cross], "w": [w], "n": [nn], "ssz": [ssz]})

    agg = part_ds.map_batches(collect, batch_format="pyarrow").to_pandas()
    cross, w = float(agg["cross"].sum()), float(agg["w"].sum())
    nn, ssz = float(agg["n"].sum()), float(agg["ssz"].sum())
    moran_i = (nn / w) * (cross / ssz) if w and ssz else float("nan")
    return {
        "n": int(nn),
        "w_sum": w,
        "moran_i": moran_i,
        "expected_i": -1.0 / (nn - 1.0),
        "mean": mu,
    }
