"""Unit tests for the relational stages not covered by the gate suite."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from whitebox_tools_ray.sources.vectors import fixture_attrs
from whitebox_tools_ray.stages.joins import broadcast_hash_join, hash_join_bucketed, semi_join
from whitebox_tools_ray.stages.mathops import OPS, scalar_op
from whitebox_tools_ray.stages.stats import histogram, quantiles


class TestBroadcastJoin:
    def test_last_dup_wins_and_null_padding(self, ray_session):
        # join_tables.rs:316-361 — dup fkeys keep LAST, unmatched -> Null
        probe = pa.table({"fkey": ["k0", "k5", "k99", "nope"], "v": [1, 2, 3, 4]})
        build = fixture_attrs()
        out = broadcast_hash_join(rd.from_arrow(probe), build, key="fkey").to_pandas()
        out = out.sort_values("v")
        bdf = build.to_pandas()
        # k0 is duplicated in attrs (rows 0 and 80) — last wins
        expect_k0 = bdf[bdf.fkey == "k0"].iloc[-1]
        assert out.iloc[0]["payload_c"] == expect_k0["payload_c"]
        # unmatched key -> NaN padding, row preserved
        assert len(out) == 4
        assert pd.isna(out.iloc[3]["payload_a"])

    def test_semi_and_anti(self, ray_session):
        probe = pa.table({"k": list("abcdef"), "v": range(6)})
        s = semi_join(rd.from_arrow(probe), {"a", "c"}, "k").to_pandas()
        a = semi_join(rd.from_arrow(probe), {"a", "c"}, "k", anti=True).to_pandas()
        assert sorted(s["k"]) == ["a", "c"]
        assert sorted(a["k"]) == ["b", "d", "e", "f"]


class TestBucketedJoin:
    def test_matches_pandas_merge(self, ray_session):
        rng = np.random.RandomState(0)
        left = pa.table({"k": rng.randint(0, 50, 500), "lv": np.arange(500)})
        right = pa.table({"k2": np.arange(50), "rv": rng.uniform(0, 1, 50)})
        out = hash_join_bucketed(
            rd.from_arrow(left), rd.from_arrow(right), key="k", right_key="k2", how="inner", num_buckets=8
        ).to_pandas()
        expect = left.to_pandas().merge(right.to_pandas(), left_on="k", right_on="k2").drop(columns="k2")
        out = out.sort_values(["k", "lv"]).reset_index(drop=True)
        expect = expect.sort_values(["k", "lv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(out[sorted(out.columns)], expect[sorted(expect.columns)])


    def test_outputs_carry_no_schema_metadata(self, ray_session):
        """Ray's ``unify_schemas`` hashes block schemas; the ``pandas``
        metadata dict of a block built by ``pa.Table.from_pandas`` cannot
        be hashed, so the merged buckets carry no metadata."""
        import ray

        left = pa.table({"k": np.arange(40) % 7, "lv": np.arange(40.0)})
        right = pa.table({"k": np.arange(7), "rv": [f"r{i}" for i in range(7)]})
        out = hash_join_bucketed(rd.from_arrow(left), rd.from_arrow(right), key="k", num_buckets=4)
        blocks = ray.get(out.to_arrow_refs())
        assert sum(t.num_rows for t in blocks) == 40
        assert all(t.schema.metadata is None for t in blocks)

class TestMathOps:
    def test_vectorized_ops(self, ray_session):
        v = np.linspace(0.5, 10.0, 100)
        ds = rd.from_arrow(pa.table({"v": v, "w": v * 2}))
        out = scalar_op(ds, "add", "v", other="w", out_col="s").to_pandas()
        np.testing.assert_allclose(out["s"], v * 3)
        out = scalar_op(ds, "power", "v", other=2.0, out_col="p").to_pandas()
        np.testing.assert_allclose(out["p"], v**2)
        out = scalar_op(ds, "ln", "v", out_col="l").to_pandas()
        np.testing.assert_allclose(out["l"], np.log(v))

    def test_nodata_passthrough(self, ray_session):
        nod = -32768.0
        ds = rd.from_arrow(pa.table({"v": [1.0, nod, 3.0]}))
        out = scalar_op(ds, "sqrt", "v", out_col="r", nodata=nod).to_pandas()
        assert out["r"].tolist()[1] == nod

    def test_op_inventory(self):
        # the §2.8 scalar library: all reference per-cell tools covered
        assert len(OPS) >= 45


class TestStats:
    def test_quantile_classes(self, ray_session):
        v = np.arange(1000, dtype=np.float64)
        ds = rd.from_arrow(pa.table({"v": v}))
        out = quantiles(ds, "v", num_quantiles=4, out_col="q").to_pandas()
        counts = out.groupby("q").size()
        assert sorted(counts.index) == [1, 2, 3, 4]
        assert abs(counts.max() - counts.min()) <= 3

    def test_histogram(self, ray_session):
        v = np.concatenate([np.zeros(10), np.ones(20)])
        ds = rd.from_arrow(pa.table({"v": v}))
        edges, counts = histogram(ds, "v", bins=2)
        assert counts.tolist() == [10, 20]
        assert edges[0] == 0.0 and edges[-1] == 1.0


class TestExactDistributedQuantiles:
    """quantile_cuts past the driver cap: iterative histogram refinement
    must reproduce np.quantile(..., 'linear') BIT-exactly (quantiles.rs
    is exact over the whole raster; sampling was the r4 'weak' item)."""

    def _check(self, v, nq, **kw):
        import ray.data as rd

        from whitebox_tools_ray.stages.stats import quantile_cuts

        ds = rd.from_arrow(pa.table({"v": v})).repartition(16)
        got = quantile_cuts(ds, "v", nq, **kw)
        qs = np.linspace(0, 1, nq + 1)[1:-1]
        exp = np.quantile(v, qs)
        np.testing.assert_array_equal(got, exp)

    def test_refinement_matches_numpy_bitwise(self, ray_session):
        rng = np.random.default_rng(7)
        v = rng.normal(size=2_200_000) * 1e3  # past the 2M default cap
        # tiny cap + small bins force 3+ refinement rounds
        self._check(v, 4, driver_cap=5_000, refine_bins=32)

    def test_refinement_with_heavy_ties(self, ray_session):
        rng = np.random.default_rng(11)
        v = np.concatenate([
            np.full(1_000_000, 42.0),          # huge tie block
            rng.integers(0, 50, 1_200_000).astype(np.float64),
        ])
        self._check(v, 10, driver_cap=5_000, refine_bins=32)

    def test_adjacent_float_interval(self, ray_session):
        a = 1.0
        b = np.nextafter(a, 2.0)
        v = np.concatenate([np.full(1_100_000, a), np.full(1_100_000, b)])
        self._check(v, 4, driver_cap=5_000, refine_bins=32)

    def test_small_input_driver_path_unchanged(self, ray_session):
        v = np.arange(1000, dtype=np.float64)
        self._check(v, 4)
