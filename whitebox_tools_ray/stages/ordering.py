"""Deterministic global row numbering (FID assignment) in scan order.

The reference numbers rows by a sequential scan: survivors 1..n in input
order (clip.rs:338-354), points in row-major scan order
(raster_to_vector_points.rs:209-229). ``zip_with_order_index`` ranks an
int64 order key, refined by an optional content tiebreak column.

Guarantee: ranks follow (key, tiebreak), the tiebreak compared in IEEE
754 total order (-NaN < -inf < ... < -0.0 < +0.0 < ... < +inf < +NaN)
or, for integers, as int64. Rows equal in both take consecutive ranks in
an unspecified order; no other FID depends on block layout or arrival.

One path: materialize once, take block refs and row counts from the
ref-bundle metadata (no count pass), then per block stable-argsort the
key, keep the permutation in the object store and return the sorted
run. The row count picks the merge:

- up to ``MERGE_RANK_ROWS`` rows one task merges the runs with one
  stable argsort (timsort merges presorted runs in close to linear
  time), re-sorts only the tied positions by (key, tiebreak) and returns
  each block its rank slice; the driver holds refs only: it wires the
  sort tasks' runs into the merge task and its slices into the assign
  tasks, and never fetches a key or a rank. This avoids Ray's range
  sort, whose fixed cost of about 2 s dwarfs such inputs.
- above it a range sort on (key, tiebreak) gives each block an ordered
  range, only each block's first and last pair reach the driver, and
  offsets are cumulative row counts. Blocks whose ranges overlap out of
  order raise rather than emit duplicate or skipped FIDs.

A last task per block scatters its ranks through its permutation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# Row count up to which one task merges the key runs; it bounds that
# worker's merge memory (runs of 8 bytes per key, 16 with a tiebreak,
# plus about 40 bytes per row of merge arrays). Larger inputs take the
# range sort.
MERGE_RANK_ROWS = 10_000_000

# Total-order tiebreak column the range sort orders by; dropped again
# before the result is returned.
_TB = "__order_tiebreak"


def _total_order(column) -> np.ndarray:
    """int64 keys that compare like an Arrow column's values: IEEE 754
    total order for floats, int64 order for integers."""
    values = column.to_numpy(zero_copy_only=False)
    if values.dtype.kind != "f":
        return values.astype(np.int64, copy=False)
    b = values.astype(np.float64).view(np.int64)
    return b ^ ((b >> 63) & 0x7FFF_FFFF_FFFF_FFFF)


def _arrow(block) -> pa.Table:
    return block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)


def _sort_block(block, order_col: str, tiebreak_col: str | None, ends_only: bool):
    """Round 1: (local permutation, [key, tiebreak] in permuted order),
    only the first and last entries when ``ends_only``."""
    t = _arrow(block)
    cols = [t[order_col].to_numpy(zero_copy_only=False).astype(np.int64, copy=False)]
    if tiebreak_col:
        cols.append(_total_order(t[tiebreak_col]))
    perm = np.argsort(cols[0], kind="stable")
    pick = perm[[0, -1]] if ends_only else perm
    return perm, [c[pick] for c in cols]


def _assign(block, perm: np.ndarray, ranks, index_col: str) -> pa.Table:
    """Round 2: row ``perm[j]`` takes ``ranks[j]``; an int ``ranks`` is
    the first of consecutive ranks."""
    t = _arrow(block)
    if isinstance(ranks, int):
        ranks = np.arange(ranks, ranks + t.num_rows, dtype=np.int64)
    out = np.empty(t.num_rows, dtype=np.int64)
    out[perm] = ranks
    if _TB in t.column_names:
        t = t.drop_columns([_TB])
    return t.append_column(index_col, pa.array(out, pa.int64()))


def _blocks(mat_ds) -> tuple[list, list[int]]:
    """Non-empty block refs of a materialized Dataset and their row
    counts, from metadata. Empty blocks are dropped: they can carry an
    empty schema that would poison the result's schema union."""
    refs, sizes = [], []
    for bundle in mat_ds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows is None:
                raise ValueError("block metadata carries no row count")
            if meta.num_rows:
                refs.append(ref)
                sizes.append(meta.num_rows)
    return refs, sizes


def _resort_ties(order: np.ndarray, keys: np.ndarray, tb_runs: list) -> None:
    """Re-sort in place, by (key, tiebreak), the positions of ``order``
    (``keys`` in that order) whose key is tied. The m tied positions sort
    on one int64, group * m + tiebreak rank (< m**2 <= 10**14), at a
    fraction of the cost of a two-key lexsort."""
    eq = keys[1:] == keys[:-1]
    tied = np.flatnonzero(np.r_[eq, False] | np.r_[False, eq])
    sub = order[tied]
    m = len(sub)
    group = np.cumsum(np.r_[0, keys[tied[1:]] != keys[tied[:-1]]])
    tb_rank = np.empty(m, dtype=np.int64)
    tb_rank[np.argsort(np.concatenate(tb_runs)[sub])] = np.arange(m)
    order[tied] = sub[np.argsort(group * m + tb_rank, kind="stable")]


def _merge_ranks(start: int, tiebreak: bool, *runs):
    """Merge task: one rank slice per block, in ``runs`` order, from the
    blocks' sorted [key, tiebreak] runs. Keys are dropped before the
    ranks are built: this merge sets the task's peak memory."""
    bounds = np.cumsum([0] + [len(run[0]) for run in runs])
    keys = np.concatenate([run[0] for run in runs])
    order = np.argsort(keys, kind="stable")
    if tiebreak:
        keys = keys[order]
        _resort_ties(order, keys, [run[1] for run in runs])
    del keys, runs
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(start, start + len(order), dtype=np.int64)
    slices = [rank[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return slices if len(slices) > 1 else slices[0]


def _range_ranks(sort_block, mat_ds, order_col, tiebreak_col, start):
    """Block refs in key order, their permutations and first ranks, from
    a range sort."""
    import ray

    if tiebreak_col:
        mat_ds = mat_ds.map_batches(
            lambda b: b.append_column(_TB, pa.array(_total_order(b[tiebreak_col]), pa.int64())),
            batch_format="pyarrow",
        )
    tb = _TB if tiebreak_col else None
    refs, sizes = _blocks(mat_ds.sort([order_col] + ([tb] if tb else [])).materialize())
    out = [sort_block.remote(r, order_col, tb, True) for r in refs]
    ends = ray.get([e for _, e in out])
    first = [tuple(int(c[0]) for c in e) for e in ends]
    last = [tuple(int(c[1]) for c in e) for e in ends]
    order = sorted(range(len(refs)), key=first.__getitem__)
    for a, b in zip(order, order[1:]):
        if last[a] > first[b]:
            raise RuntimeError(f"range sort left overlapping blocks: (key, tiebreak) {last[a]} > {first[b]}")
    offsets = np.cumsum([start] + [sizes[i] for i in order])[:-1]
    return [refs[i] for i in order], [out[i][0] for i in order], [int(o) for o in offsets]


def zip_with_order_index(
    ds,
    order_col: str,
    index_col: str = "FID",
    start: int = 1,
    strategy: str = "auto",
    tiebreak_col: str | None = None,
):
    """Append ``index_col`` = rank of (``order_col``, ``tiebreak_col``)
    from ``start``, under the module's guarantee. ``order_col`` must be
    int64-castable. The result's row order is unspecified; the index
    values carry the scan order. ``strategy`` must be ``"auto"``."""
    import ray
    import ray.data as rd

    if strategy != "auto":
        raise ValueError(f"strategy must be 'auto' (one ordering path), got {strategy!r}")
    mat = ds.materialize()
    refs, sizes = _blocks(mat)
    if not refs:  # all blocks empty: typed empty result
        schema = mat.schema()
        fields = list(zip(schema.names, schema.types)) + [(index_col, pa.int64())]
        return rd.from_arrow(pa.table({n: pa.array([], type=t) for n, t in fields}))
    sort_block = ray.remote(num_returns=2)(_sort_block)
    if sum(sizes) <= MERGE_RANK_ROWS:
        out = [sort_block.remote(r, order_col, tiebreak_col, False) for r in refs]
        perms = [p for p, _ in out]
        merge = ray.remote(_merge_ranks).options(num_returns=len(refs))
        ranks = merge.remote(start, bool(tiebreak_col), *(run for _, run in out))
        if len(refs) == 1:  # num_returns=1 gives a bare ref
            ranks = [ranks]
    else:
        refs, perms, ranks = _range_ranks(sort_block, mat, order_col, tiebreak_col, start)
    assign = ray.remote(_assign)
    return rd.from_arrow_refs([assign.remote(r, p, k, index_col) for r, p, k in zip(refs, perms, ranks)])
