"""Ray-stage parity vs scalar pure-Python oracles (the reference
algorithms run literally, point-by-point) on the FIXTURES.md layers."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import geometry
from whitebox_tools_ray.sources import tiles as tsrc
from whitebox_tools_ray.sources.vectors import fixture_points, fixture_polygons
from whitebox_tools_ray.stages.ordering import zip_with_order_index
from whitebox_tools_ray.stages.spatial_join import (
    clip_points,
    clip_points_shuffle,
    extract_values_at_points,
    prepare_clip_parts,
)


@pytest.fixture(scope="module")
def layers(ray_session):
    return fixture_polygons(), fixture_points(800)


def oracle_clip(points: pa.Table, polys: pa.Table) -> list[int]:
    """Literal clip.rs:292-363 scan: per point over ALL parts in order."""
    parts = prepare_clip_parts(polys)
    keep = []
    xs = points.column("x").to_numpy()
    ys = points.column("y").to_numpy()
    rid = points.column("record_id").to_numpy()
    for i in range(len(xs)):
        out = False
        for p in parts:
            if p.x_min < xs[i] < p.x_max and p.y_min < ys[i] < p.y_max:
                if geometry.point_in_poly(xs[i], ys[i], p.xs, p.ys):
                    out = not p.is_hole
        if out:
            keep.append(int(rid[i]))
    return keep


class TestClipPoints:
    def test_broadcast_matches_oracle(self, layers):
        polys, points = layers
        expect = oracle_clip(points, polys)
        got = clip_points(rd.from_arrow(points), polys).to_pandas()
        got = got.sort_values("record_id")
        assert got["record_id"].tolist() == expect
        # FID = 1..n in input (record) order — clip.rs:338-354
        assert got["FID"].tolist() == list(range(1, len(expect) + 1))

    def test_hole_points_excluded(self, layers):
        polys, _ = layers
        # (140,540): donut hole 1 BUT also inside record 10 "island"
        # (scanned later) → kept by last-part-wins. (60,470): shell → kept.
        # (290,690): donut hole 2, nothing later covers it → excluded.
        pts = pa.table(
            {
                "record_id": pa.array(np.arange(1, 4, dtype=np.int32)),
                "x": pa.array([140.0, 60.0, 290.0]),
                "y": pa.array([540.0, 470.0, 690.0]),
            }
        )
        got = clip_points(rd.from_arrow(pts), polys, renumber_fid=False).to_pandas()
        assert sorted(got["record_id"].tolist()) == [1, 2]

    def test_island_in_hole_wins(self, layers):
        polys, _ = layers
        # record 10 (island) sits inside donut hole 1 and is scanned AFTER
        # the hole part → last-part-wins makes its interior IN again.
        pts = pa.table(
            {
                "record_id": pa.array(np.array([1], dtype=np.int32)),
                "x": pa.array([140.0]),
                "y": pa.array([540.0]),
            }
        )
        # 140,540 is inside the island box (120-160, 520-560) AND the hole
        got = clip_points(rd.from_arrow(pts), polys, renumber_fid=False).to_pandas()
        assert got["record_id"].tolist() == [1]

    def test_erase_is_complement(self, layers):
        polys, points = layers
        kept = clip_points(rd.from_arrow(points), polys, renumber_fid=False).to_pandas()
        erased = clip_points(rd.from_arrow(points), polys, mode="erase", renumber_fid=False).to_pandas()
        all_ids = set(points.column("record_id").to_pylist())
        assert set(kept["record_id"]) | set(erased["record_id"]) == all_ids
        assert set(kept["record_id"]) & set(erased["record_id"]) == set()

    def test_shuffle_path_matches_broadcast(self, layers):
        polys, points = layers
        a = clip_points(rd.from_arrow(points), polys, renumber_fid=False).to_pandas()
        b = clip_points_shuffle(rd.from_arrow(points), polys).to_pandas()
        assert sorted(a["record_id"]) == sorted(b["record_id"])

    def test_boundary_points_follow_reference(self, layers):
        polys, _ = layers
        # points exactly on record 5's edges (700..800 × 500..600): the
        # strict bbox test (bounding_box.rs:217-219) drops them before the
        # winding test → all outside.
        t = np.linspace(0.0, 1.0, 7)
        pts = pa.table(
            {
                "record_id": pa.array(np.arange(1, len(t) + 1, dtype=np.int32)),
                "x": pa.array(700.0 + 100.0 * t),
                "y": pa.array(np.full(len(t), 500.0)),
            }
        )
        got = clip_points(rd.from_arrow(pts), polys, renumber_fid=False).to_pandas()
        assert got.empty


class TestOrdering:
    def test_order_index(self, ray_session):
        rng = np.random.RandomState(0)
        keys = rng.permutation(5000).astype(np.int64)
        ds = rd.from_arrow(pa.table({"k": keys}))
        out = zip_with_order_index(ds, "k", index_col="idx").to_pandas()
        out = out.sort_values("k")
        assert out["idx"].tolist() == list(range(1, 5001))

    def test_order_index_tied_keys(self, ray_session):
        # duplicate order keys (the synthetic lineitem has ~25% dup
        # record_ids): the rank must still emit a permutation of 1..n,
        # with tied keys taking consecutive ranks
        rng = np.random.RandomState(1)
        keys = rng.randint(0, 3000, size=5000).astype(np.int64)
        ds = rd.from_arrow(pa.table({"k": keys, "v": np.arange(5000.0)}))
        out = zip_with_order_index(ds, "k", index_col="idx").to_pandas()
        assert sorted(out["idx"].tolist()) == list(range(1, 5001))
        out = out.sort_values("idx").reset_index(drop=True)
        # rank order must be non-decreasing in the key
        assert (np.diff(out["k"].to_numpy()) >= 0).all()
        # the (k, v) row multiset is preserved
        assert sorted(zip(keys.tolist(), np.arange(5000.0).tolist())) == sorted(
            zip(out["k"].tolist(), out["v"].tolist())
        )

    def test_order_index_tiebreak_col(self, ray_session):
        # tied keys refined by a tiebreak column: rank follows (k, tb),
        # negative tiebreaks included (numeric order, not bit order)
        keys = np.repeat(np.arange(100, dtype=np.int64), 5)
        rng = np.random.RandomState(2)
        for tb in (rng.permutation(500).astype(np.float64), rng.permutation(500) - 250.5):
            ds = rd.from_arrow(pa.table({"k": keys, "tb": tb}))
            out = zip_with_order_index(ds, "k", index_col="idx", tiebreak_col="tb").to_pandas()
            out = out.sort_values("idx").reset_index(drop=True)
            expect = np.lexsort((tb, keys))
            assert out["idx"].tolist() == list(range(1, 501))
            assert out["k"].tolist() == keys[expect].tolist()
            assert out["tb"].tolist() == tb[expect].tolist()


class TestExtractValues:
    def test_matches_scene_lookup(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=16)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        gs = spec.grid_spec()
        rng = np.random.RandomState(1)
        n = 300
        px = gs.west + rng.uniform(-0.1, 1.1, n) * (gs.east - gs.west)
        py = gs.south + rng.uniform(-0.1, 1.1, n) * (gs.north - gs.south)
        pts = pa.table(
            {
                "record_id": pa.array(np.arange(1, n + 1, dtype=np.int32)),
                "x": pa.array(px),
                "y": pa.array(py),
            }
        )
        got = (
            extract_values_at_points(rd.from_arrow(table), pts, spec)
            .to_pandas()
            .sort_values("record_id")
        )
        scene = tsrc.assemble_scene(table, spec)
        col = gs.col_from_x(px)
        row = gs.row_from_y(py)
        expect = np.full(n, gs.nodata)
        ok = (row >= 0) & (row < gs.rows) & (col >= 0) & (col < gs.columns)
        expect[ok] = scene[row[ok], col[ok]]
        assert got["record_id"].tolist() == list(range(1, n + 1))
        np.testing.assert_allclose(got["VALUE1"].to_numpy(), expect, rtol=0, atol=0)

    def test_shuffle_variant_matches_broadcast(self, ray_session):
        from whitebox_tools_ray.stages.spatial_join import extract_values_at_points_shuffle

        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=16)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        gs = spec.grid_spec()
        rng = np.random.RandomState(2)
        n = 500
        px = gs.west + rng.uniform(-0.1, 1.1, n) * (gs.east - gs.west)
        py = gs.south + rng.uniform(-0.1, 1.1, n) * (gs.north - gs.south)
        pts = pa.table(
            {
                "record_id": pa.array(np.arange(1, n + 1, dtype=np.int32)),
                "x": pa.array(px),
                "y": pa.array(py),
            }
        )
        broadcast = (
            extract_values_at_points(rd.from_arrow(table), pts, spec)
            .to_pandas().sort_values("record_id").reset_index(drop=True)
        )
        shuffled = (
            extract_values_at_points_shuffle(rd.from_arrow(table), rd.from_arrow(pts), spec)
            .to_pandas().sort_values("record_id").reset_index(drop=True)
        )
        assert broadcast["record_id"].tolist() == shuffled["record_id"].tolist()
        np.testing.assert_allclose(shuffled["VALUE1"].to_numpy(), broadcast["VALUE1"].to_numpy())
