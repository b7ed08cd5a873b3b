"""Property tests for ``stages.ordering.zip_with_order_index`` on both of
its merge branches (one merge task and range sort): FIDs are exactly
start..start+n-1, ranks follow (key, IEEE 754 total-order tiebreak), and
permuting the input blocks changes no row's FID. On the merge branch no
key or rank reaches the driver."""

import math
import sys
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from whitebox_tools_ray.stages import ordering

ORDER_SET = settings(max_examples=40, deadline=None, derandomize=True)
BRANCHES = pytest.mark.parametrize("limit", [ordering.MERGE_RANK_ROWS, 0], ids=["task_merge", "range_sort"])

NAN = math.nan
SPECIAL = [math.copysign(NAN, -1.0), NAN, -math.inf, math.inf, -0.0, 0.0, -1.5, 1.5, -5e-324, 5e-324]


def total_key(v):
    """IEEE 754 totalOrder as a Python sort key, independent of the
    engine's bit mapping: -NaN < -inf < ... < -0.0 < +0.0 < ... < +NaN."""
    if isinstance(v, int):
        return (0, v)
    sign = math.copysign(1.0, v)
    return (2 * sign,) if math.isnan(v) else (0, v, sign)


@st.composite
def layouts(draw):
    """Blocks of (k, tb) rows: keys from a narrow range (ties) or a wide
    one, float tiebreaks from special values or anywhere (or int64
    tiebreaks), empty blocks and inputs with no rows at all."""
    int_tb = draw(st.booleans())
    tb_values = (
        st.integers(-(2**63), 2**63 - 1)
        if int_tb
        else st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True)
    )
    key_values = st.integers(-3, 3) | st.integers(-(2**62), 2**62)
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        m = draw(st.integers(0, 12))
        blocks.append(
            (draw(st.lists(key_values, min_size=m, max_size=m)), draw(st.lists(tb_values, min_size=m, max_size=m)))
        )
    tb_type = pa.int64() if int_tb else pa.float64()
    return [pa.table({"k": pa.array(k, pa.int64()), "tb": pa.array(tb, tb_type)}) for k, tb in blocks]


def rank(tables, limit, start, tiebreak_col):
    with mock.patch.object(ordering, "MERGE_RANK_ROWS", limit):
        out = ordering.zip_with_order_index(rd.from_arrow(tables), "k", start=start, tiebreak_col=tiebreak_col)
        return pa.concat_tables(ray.get(out.to_arrow_refs()))


def fid_multiset(out: pa.Table, with_tb: bool):
    """(k, tb bits, FID) triples: rows equal in the ranked columns may
    swap FIDs, so compare as a multiset."""
    tb = out["tb"].to_numpy(zero_copy_only=False)
    bits = tb.view(np.int64) if tb.dtype.kind == "f" else tb
    cols = [out["k"].to_pylist(), bits.tolist() if with_tb else [0] * len(tb), out["FID"].to_pylist()]
    return sorted(zip(*cols))


@BRANCHES
@ORDER_SET
@given(layouts(), st.sampled_from([0, 1, 7]), st.booleans(), st.randoms(use_true_random=False))
def test_ranks_follow_key_then_total_order_tiebreak(ray_session, limit, tables, start, with_tb, rnd):
    tiebreak_col = "tb" if with_tb else None
    out = rank(tables, limit, start, tiebreak_col)
    check_ranks(tables, out, start, with_tb)

    permuted = list(tables)
    rnd.shuffle(permuted)
    assert fid_multiset(rank(permuted, limit, start, tiebreak_col), with_tb) == fid_multiset(out, with_tb)


def check_ranks(tables, out: pa.Table, start: int, with_tb: bool):
    """The oracle: FIDs are exactly start..start+n-1 and, read in FID
    order, the rows' (key[, total-order tiebreak]) are sorted."""
    assert out.column_names == ["k", "tb", "FID"]
    fid = np.asarray(out["FID"].to_numpy(zero_copy_only=False), dtype=np.int64)
    n = sum(t.num_rows for t in tables)
    by_fid = np.argsort(fid, kind="stable")
    assert fid[by_fid].tolist() == list(range(start, start + n))

    def sort_key(k, tb):
        return (k, total_key(tb)) if with_tb else (k,)

    k_in = [k for t in tables for k in t["k"].to_pylist()]
    tb_in = [v for t in tables for v in t["tb"].to_pylist()]
    k_out, tb_out = out["k"].to_pylist(), out["tb"].to_pylist()
    assert [sort_key(k_out[i], tb_out[i]) for i in by_fid] == sorted(map(sort_key, k_in, tb_in))


def tied_blocks(n_blocks: int, rows: int, seed: int):
    """Blocks whose keys tie across blocks, with special-value float
    tiebreaks."""
    rng = np.random.default_rng(seed)
    return [
        pa.table({
            "k": pa.array(rng.integers(-5, 5, rows), pa.int64()),
            "tb": pa.array(rng.choice(SPECIAL + [2.0, -2.0], rows), pa.float64()),
        })
        for _ in range(n_blocks)
    ]


@pytest.mark.parametrize("n_blocks", [1, 40])
def test_merge_task_one_block_and_many_blocks(ray_session, n_blocks):
    # one block: the merge task's single return is a bare ref; 40 blocks:
    # each assign task must take its own block's slice of 40 returns
    tables = tied_blocks(n_blocks, 25, n_blocks)
    out = rank(tables, ordering.MERGE_RANK_ROWS, 3, "tb")
    assert out.num_rows == 25 * n_blocks
    check_ranks(tables, out, 3, True)


def test_merge_branch_gets_nothing_on_the_driver(ray_session):
    # the driver only passes refs: no ray.get from ordering.py (Ray's own
    # metadata get inside from_arrow_refs is allowed)
    callers = []
    real_get = ray.get

    def get(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_filename)
        return real_get(*args, **kwargs)

    tables = tied_blocks(4, 50, 7)
    with mock.patch.object(ray, "get", get):
        out = rank(tables, ordering.MERGE_RANK_ROWS, 1, "tb")
    check_ranks(tables, out, 1, True)
    assert callers, "the ray.get wrapper saw no call"
    assert ordering.__file__ not in callers


def test_range_sort_offsets_follow_block_ranges(ray_session):
    # with the sort a no-op: disjoint blocks that arrive out of order
    # still rank by their ranges, and overlapping blocks fail loudly
    # instead of emitting duplicate or skipped FIDs
    def keys(*k):
        return pa.table({"k": pa.array(k, pa.int64())})

    with mock.patch.object(rd.Dataset, "sort", lambda self, key, **kw: self):
        out = rank([keys(11, 10), keys(0, 1)], 0, 1, None)
        assert sorted(zip(out["k"].to_pylist(), out["FID"].to_pylist())) == [(0, 1), (1, 2), (10, 3), (11, 4)]
        with pytest.raises(RuntimeError, match="overlapping"):
            rank([keys(0, 10), keys(5, 15)], 0, 1, None)


def test_strategy_other_than_auto_is_rejected(ray_session):
    with pytest.raises(ValueError, match="auto"):
        ordering.zip_with_order_index(rd.from_arrow(pa.table({"k": [1]})), "k", strategy="sort")
