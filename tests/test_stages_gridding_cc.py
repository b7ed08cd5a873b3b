"""Gridding (IDW/NN/block), Clump CC, and stretch-family tests."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.kernels.frs import FixedRadiusSearch2D
from whitebox_tools_ray.sources import tiles as tsrc


class TestFRS:
    def test_radius_search_exact(self):
        rng = np.random.RandomState(0)
        xs = rng.uniform(0, 100, 500)
        ys = rng.uniform(0, 100, 500)
        frs = FixedRadiusSearch2D(xs, ys, radius=5.0)
        for qx, qy in [(50.0, 50.0), (0.0, 0.0), (99.0, 1.0)]:
            idx, d = frs.search(qx, qy)
            brute = np.hypot(xs - qx, ys - qy)
            expect = set(np.nonzero(brute <= 5.0)[0])
            assert set(idx.tolist()) == expect

    def test_knn(self):
        rng = np.random.RandomState(1)
        xs = rng.uniform(0, 100, 300)
        ys = rng.uniform(0, 100, 300)
        frs = FixedRadiusSearch2D(xs, ys, radius=3.0)
        idx, d = frs.knn(10.0, 10.0, 5)
        assert len(idx) == 5
        brute = np.hypot(xs - 10.0, ys - 10.0)
        # expanding-window kNN is approximate like the reference's, but on
        # uniform data with a wide window it should find the true nearest
        assert idx[0] == brute.argmin()


class TestGridding:
    def test_idw_matches_direct(self, ray_session):
        from whitebox_tools_ray.stages.gridding import idw_gridding

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        gs = spec.grid_spec()
        rng = np.random.RandomState(2)
        n = 200
        px = gs.west + rng.uniform(0, 1, n) * (gs.east - gs.west)
        py = gs.south + rng.uniform(0, 1, n) * (gs.north - gs.south)
        pz = rng.uniform(0, 100, n)
        pts = pa.table({"x": px, "y": py, "value": pz})
        radius = 3.5 * gs.res_x
        out = idw_gridding(pts, spec, radius=radius).to_pandas()
        got = np.full((spec.rows, spec.columns), gs.nodata)
        for _, row in out.iterrows():
            g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            r0 = int(row["tile_row"]) * spec.tile_px
            c0 = int(row["tile_col"]) * spec.tile_px
            got[r0 : r0 + g.shape[0], c0 : c0 + g.shape[1]] = g
        # direct oracle
        for r in range(spec.rows):
            for c in range(spec.columns):
                x = float(gs.x_from_col(c))
                y = float(gs.y_from_row(r))
                d = np.hypot(px - x, py - y)
                m = d <= radius
                if not m.any():
                    expect = gs.nodata
                elif (d[m] == 0).any():
                    expect = pz[m][d[m] == 0][0]
                else:
                    w = 1.0 / d[m] ** 2
                    expect = float(np.sum(w * pz[m]) / np.sum(w))
                assert got[r, c] == pytest.approx(expect, rel=1e-5), (r, c)

    def test_block_gridding(self, ray_session):
        from whitebox_tools_ray.kernels.grid import GridSpec
        from whitebox_tools_ray.stages.gridding import block_gridding

        gs = GridSpec(west=0.0, north=100.0, res_x=10.0, res_y=10.0, rows=10, columns=10)
        pts = pa.table(
            {
                "x": [5.0, 6.0, 95.0],
                "y": [95.0, 96.0, 5.0],
                "value": [1.0, 9.0, 4.0],
            }
        )
        out = block_gridding(rd.from_arrow(pts), gs, stat="max").to_pandas()
        top_left = out[out["cell"] == 0]
        assert top_left["VALUE"].iloc[0] == 9.0
        assert len(out) == 2


class TestStretch:
    def test_histogram_equalization_uniformizes(self, ray_session):
        from whitebox_tools_ray.stages.stretch import histogram_equalization

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=16)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        out = histogram_equalization(rd.from_arrow(table), num_tones=256).to_pandas()
        vals = np.concatenate(
            [codecs.decode_tile(bytes(r["bytes"]), r["fmt"]).ravel() for _, r in out.iterrows()]
        )
        # equalized values should span the output range (0..1023 default)
        # with approximately uniform quartiles
        q = np.quantile(vals, [0.25, 0.5, 0.75])
        assert q[0] == pytest.approx(1023 * 0.25, abs=80)
        assert q[1] == pytest.approx(1023 * 0.5, abs=80)
        assert q[2] == pytest.approx(1023 * 0.75, abs=80)
        assert vals.min() >= 0 and vals.max() <= 1023

    def test_percentage_stretch_bounds(self, ray_session):
        from whitebox_tools_ray.stages.stretch import percentage_stretch

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=16)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        out = percentage_stretch(rd.from_arrow(table), clip_percent=2.0).to_pandas()
        vals = np.concatenate(
            [codecs.decode_tile(bytes(r["bytes"]), r["fmt"]).ravel() for _, r in out.iterrows()]
        )
        assert vals.min() >= 0.0 and vals.max() <= 255.0
        # tails clipped: a noticeable mass at the extremes
        assert (vals == 0.0).mean() > 0.005


class TestClumpDatasetNative:
    def test_clump_ds_matches_whole_raster(self, ray_session):
        """Round-2 clump_ds: Dataset in/out, only equivalence pairs on
        the driver, vectorized local pass; identical labels to the
        whole-raster oracle (row-major discovery numbering)."""
        from whitebox_tools_ray.stages.cc import _local_labels, clump_ds

        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        rng = np.random.RandomState(5)
        cat = rng.randint(0, 3, (spec.rows, spec.columns)).astype(np.float64)
        cat[1, 1] = spec.nodata
        import pyarrow as pa

        cols = {n: [] for n in ["tile_row", "tile_col", "bytes", "fmt"]}
        for tr in range(spec.tiles_y):
            for tc in range(spec.tiles_x):
                g = cat[tr * 8 : tr * 8 + 8, tc * 8 : tc * 8 + 8]
                cols["tile_row"].append(tr)
                cols["tile_col"].append(tc)
                cols["bytes"].append(codecs.encode_tile(g, "f32"))
                cols["fmt"].append("f32")
        t = pa.table(
            {
                "tile_row": pa.array(cols["tile_row"], pa.int32()),
                "tile_col": pa.array(cols["tile_col"], pa.int32()),
                "bytes": pa.array(cols["bytes"], pa.binary()),
                "fmt": pa.array(cols["fmt"], pa.string()),
            }
        )
        labeled, n_comp = clump_ds(rd.from_arrow(t), spec, diag=True)
        got = np.full_like(cat, spec.nodata)
        for _, row in labeled.to_pandas().iterrows():
            g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            r0, c0 = int(row["tile_row"]) * 8, int(row["tile_col"]) * 8
            got[r0 : r0 + 8, c0 : c0 + 8] = g
        expect = _local_labels(cat, spec.nodata, True, False).astype(np.float64)
        expect[cat == spec.nodata] = spec.nodata
        assert n_comp == int(expect.max())
        np.testing.assert_array_equal(got, expect)

    def test_local_labels_vec_matches_loop(self):
        from whitebox_tools_ray.stages.cc import _local_labels, _local_labels_vec

        rng = np.random.RandomState(9)
        for diag in (True, False):
            g = rng.randint(0, 4, (16, 16)).astype(np.float64)
            g[3, 3] = -32768.0
            loop = _local_labels(g, -32768.0, diag, False)
            vec = _local_labels_vec(g, -32768.0, diag, False)
            # same partition, same row-major first-cell ordering → verify
            # bijection and identical discovery numbering
            remap = {}
            dense = 0
            out = np.zeros_like(vec)
            order = np.argsort(vec.ravel(), kind="stable")
            flat = vec.ravel()
            seen = {}
            k = 0
            for i in range(len(flat)):
                l = flat[i]
                if l < 0:
                    continue
                if l not in seen:
                    k += 1
                    seen[l] = k
                out.ravel()[i] = seen[l]
            np.testing.assert_array_equal(out, loop)


class TestDelaunayTIN:
    def test_delaunay_property_and_coverage(self):
        from whitebox_tools_ray.kernels.delaunay import _circumcircle, delaunay

        rng = np.random.RandomState(11)
        pts = rng.uniform(0, 10, (150, 2))
        tris = delaunay(pts)
        assert len(tris) > 0
        ctrs, r2s = _circumcircle(pts, tris)
        for t_i in range(len(tris)):
            d2 = ((pts - ctrs[t_i]) ** 2).sum(1)
            inside = d2 < r2s[t_i] * (1 - 1e-9)
            inside[tris[t_i]] = False
            assert not inside.any()

    def test_tin_gridding_planar_exact(self, ray_session):
        """TIN interpolation of a planar field reproduces the plane
        exactly at every covered cell (tin_gridding.rs parity check)."""
        import pyarrow as pa

        from whitebox_tools_ray.stages.gridding import tin_gridding

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=16)
        gs = spec.grid_spec()
        rng = np.random.RandomState(4)
        n = 400
        px = gs.west + rng.uniform(0, 1, n) * (gs.east - gs.west)
        py = gs.south + rng.uniform(0, 1, n) * (gs.north - gs.south)
        pz = 2.0 * (px - gs.west) + 0.5 * (py - gs.south) + 7.0
        pts = pa.table({"x": pa.array(px), "y": pa.array(py), "value": pa.array(pz)})
        out = tin_gridding(pts, spec, margin_cells=32).to_pandas()
        covered = 0
        for _, row in out.iterrows():
            g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            tr, tc = int(row["tile_row"]), int(row["tile_col"])
            rows = np.arange(tr * 16, (tr + 1) * 16)
            cols = np.arange(tc * 16, (tc + 1) * 16)
            gx, gy = np.meshgrid(gs.x_from_col(cols), gs.y_from_row(rows))
            expect = 2.0 * (gx - gs.west) + 0.5 * (gy - gs.south) + 7.0
            m = g != gs.nodata
            covered += m.sum()
            np.testing.assert_allclose(g[m], expect[m], rtol=1e-6)
        assert covered > 0.5 * (32 * 32)  # most of the scene interpolated

    def test_voronoi_partitions_bbox(self):
        import pyarrow as pa

        from whitebox_tools_ray.stages.gridding import voronoi_diagram

        rng = np.random.RandomState(5)
        px, py = rng.uniform(1, 9, 30), rng.uniform(1, 9, 30)
        pts = pa.table({"x": pa.array(px), "y": pa.array(py)})
        recs = voronoi_diagram(pts, (0.0, 0.0, 10.0, 10.0))
        area = 0.0
        for r in recs:
            xs, ys = np.array(r["xs"][:-1]), np.array(r["ys"][:-1])
            area += 0.5 * abs(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1)))
        assert abs(area - 100.0) < 1e-6

    def test_construct_vector_tin(self):
        import pyarrow as pa

        from whitebox_tools_ray.stages.gridding import construct_vector_tin

        pts = pa.table(
            {"x": pa.array([0.0, 1.0, 0.0, 1.0]), "y": pa.array([0.0, 0.0, 1.0, 1.0]),
             "value": pa.array([1.0, 2.0, 3.0, 4.0])}
        )
        recs = construct_vector_tin(pts)
        assert len(recs) == 2  # unit square → two triangles


class TestIdwMinPoints:
    def test_min_points_gates_cells(self, ray_session):
        # idw_interpolation.rs: a cell interpolates only when the radius
        # captures >= min_points points; below that it stays nodata
        import pyarrow as pa

        from whitebox_tools_ray.sources.tiles import SceneSpec
        from whitebox_tools_ray.stages.gridding import idw_gridding

        spec = SceneSpec(tiles_x=1, tiles_y=1, tile_px=8, res=1.0, west=0.0, north=8.0)
        pts = pa.table({"x": pa.array([1.5, 1.6]), "y": pa.array([6.5, 6.6]),
                        "value": pa.array([10.0, 20.0])})
        lo = idw_gridding(pts, spec, radius=1.0, min_points=0).to_pandas()
        hi = idw_gridding(pts, spec, radius=1.0, min_points=2).to_pandas()
        from whitebox_tools_ray.kernels import codecs

        g_lo = codecs.decode_tile(bytes(lo["bytes"].iloc[0]), lo["fmt"].iloc[0])
        g_hi = codecs.decode_tile(bytes(hi["bytes"].iloc[0]), hi["fmt"].iloc[0])
        n_lo = (g_lo != spec.nodata).sum()
        n_hi = (g_hi != spec.nodata).sum()
        assert n_hi < n_lo  # min_points=2 excludes single-point cells
        assert n_hi > 0     # cells near both points still interpolate
