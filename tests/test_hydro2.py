"""Hydro / stream closure compositions."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.sources import tiles as tsrc
from whitebox_tools_ray.stages import hydro2


def tiles_from_grid(full, spec, fmt="f32"):
    rows = []
    tpx = spec.tile_px
    for tr in range(spec.tiles_y):
        for tc in range(spec.tiles_x):
            g = full[tr * tpx : (tr + 1) * tpx, tc * tpx : (tc + 1) * tpx]
            rows.append(
                {
                    "tile_row": tr,
                    "tile_col": tc,
                    "bytes": codecs.encode_tile(np.ascontiguousarray(g), fmt),
                    "fmt": fmt,
                }
            )
    return rd.from_pandas(pd.DataFrame(rows))


def assemble(df, spec):
    full = np.full((spec.rows, spec.columns), spec.nodata)
    for _, row in df.iterrows():
        g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
        r0 = int(row["tile_row"]) * spec.tile_px
        c0 = int(row["tile_col"]) * spec.tile_px
        full[r0 : r0 + g.shape[0], c0 : c0 + g.shape[1]] = g
    return full


@pytest.fixture(scope="module")
def east_plane(ray_session):
    """Pure east tilt: every cell flows straight east to the edge."""
    spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
    yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
    full = 100.0 - xx
    return spec, full, tiles_from_grid(full, spec)


class TestFlowpathLengths:
    def test_downslope_length_on_east_plane(self, east_plane):
        spec, full, ds = east_plane
        out = assemble(hydro2.downslope_flowpath_length(ds, spec, 2).to_pandas(), spec)
        # cell at col c flows east: path length = (15 - c) * res
        for c in (0, 5, 12, 15):
            assert out[7, c] == pytest.approx((15 - c) * spec.res, abs=1e-6)

    def test_average_flowpath_slope_is_one(self, east_plane):
        """dz/dx = 1 per cell step on the unit east tilt."""
        spec, full, ds = east_plane
        out = assemble(hydro2.average_flowpath_slope(ds, spec, 2).to_pandas(), spec)
        assert out[7, 5] == pytest.approx(1.0 / spec.res, rel=1e-6)

    def test_longest_flowpath_table(self, east_plane):
        spec, full, ds = east_plane
        out = hydro2.longest_flowpath(ds, spec, 2)
        # every row drains east: longest path = 15 cells
        assert out["longest_flowpath"].max() == pytest.approx(15 * spec.res, abs=1e-6)


class TestStreamOps:
    def test_elevation_above_stream_euclidean(self, east_plane):
        spec, full, ds = east_plane
        streams = np.zeros_like(full)
        streams[:, 12] = 1.0
        sds = tiles_from_grid(streams, spec)
        out = assemble(hydro2.elevation_above_stream_euclidean(ds, sds, spec).to_pandas(), spec)
        # nearest stream cell to (r, c) is (r, 12): z diff = (100-c) - (100-12)
        assert out[5, 9] == pytest.approx((100 - 9) - (100 - 12), abs=1e-3)
        assert out[5, 12] == pytest.approx(0.0, abs=1e-3)

    def test_fill_burn_lowers_stream(self, east_plane):
        spec, full, ds = east_plane
        streams = np.zeros_like(full)
        streams[:, 8] = 1.0
        out = assemble(
            hydro2.fill_burn(ds, tiles_from_grid(streams, spec), spec, burn=5.0, num_workers=2).to_pandas(),
            spec,
        )
        assert out[5, 8] <= full[5, 8] - 5.0 + 1e-6

    def test_stream_slope_continuous(self, east_plane):
        spec, full, ds = east_plane
        streams = np.zeros_like(full)
        streams[5, :] = 1.0  # an east-flowing stream line
        out = assemble(
            hydro2.stream_slope_continuous(ds, tiles_from_grid(streams, spec), spec).to_pandas(),
            spec,
        )
        assert out[5, 7] == pytest.approx(1.0 / spec.res, rel=1e-6)
        assert out[8, 7] == spec.nodata  # off-stream masked

    def test_extract_valleys_channel(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = np.abs(yy - 8.0)  # a V-shaped east-west valley at row 8
        out = assemble(hydro2.extract_valleys(tiles_from_grid(full, spec), spec).to_pandas(), spec)
        assert (out[8, 1:-1] == 1.0).all()
        assert (out[3, 1:-1] == 0.0).all()


class TestSurfaces:
    def test_flood_order_monotone_with_z(self, east_plane):
        spec, full, ds = east_plane
        out = assemble(hydro2.flood_order(ds, spec, 2).to_pandas(), spec)
        # no depressions → order rank == rank of z itself
        flat_z = full.ravel()
        flat_o = out.ravel()
        order_z = np.argsort(flat_z, kind="stable")
        ranks = flat_o[order_z]
        assert (np.diff(ranks) >= 0).all()

    def test_elev_relative_to_watershed_min_max(self, east_plane):
        spec, full, ds = east_plane
        out = assemble(hydro2.elev_relative_to_watershed_min_max(ds, spec, 2).to_pandas(), spec)
        v = out[out != spec.nodata]
        assert v.min() >= -1e-9 and v.max() <= 1.0 + 1e-9

    def test_remove_off_terrain_objects(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        full = np.zeros((16, 16))
        full[7:9, 7:9] = 10.0  # a small building
        out = assemble(
            hydro2.remove_off_terrain_objects(tiles_from_grid(full, spec), spec, 2, 2.0).to_pandas(),
            spec,
        )
        assert out[7, 7] == pytest.approx(0.0)
        assert out[0, 0] == pytest.approx(0.0)

    def test_fill_missing_data(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = 0.5 * xx + 0.25 * yy
        holed = full.copy()
        holed[6:9, 6:9] = spec.nodata
        out = assemble(hydro2.fill_missing_data(tiles_from_grid(holed, spec), spec).to_pandas(), spec)
        assert (out != spec.nodata).all()
        # filled values stay within the local value range
        assert abs(out[7, 7] - full[7, 7]) < 2.0

    def test_profile_samples_line(self, east_plane):
        spec, full, ds = east_plane
        gs = spec.grid_spec()
        x0 = gs.west + 0.5 * spec.res
        x1 = gs.west + 15.5 * spec.res
        y = gs.north - 7.5 * spec.res
        out = hydro2.profile(ds, spec, [(x0, y), (x1, y)], n_samples=16).to_pandas()
        assert len(out) >= 10
        assert out["z"].iloc[0] > out["z"].iloc[-1]  # drops eastward

    def test_slope_vs_elevation_counts(self, east_plane):
        spec, full, ds = east_plane
        out = hydro2.slope_vs_elevation_plot(ds, spec, 8, 8)
        assert out["n"].sum() == full.size


class TestElevAboveStreamDS:
    def test_east_plane_with_stream(self, east_plane):
        spec, full, ds = east_plane
        streams = np.zeros_like(full)
        streams[:, 12] = 1.0
        out = assemble(
            hydro2.elevation_above_stream_ds(ds, tiles_from_grid(streams, spec), spec, 2).to_pandas(),
            spec,
        )
        # cell (r, c<12) flows east to the stream at col 12 on its own row:
        # z diff = (100-c) - (100-12) = 12 - c
        for c in (3, 8, 11):
            assert out[5, c] == pytest.approx(12.0 - c, abs=1e-6)
        assert out[5, 12] == pytest.approx(0.0, abs=1e-6)

    def test_snap_pour_points_ds(self, east_plane):
        spec, full, ds = east_plane
        gs = spec.grid_spec()
        # accumulation proxy: higher to the east
        acc = np.tile(np.arange(16.0), (16, 1))
        acc_ds = tiles_from_grid(acc, spec)
        x = gs.west + 5.5 * spec.res
        y = gs.north - 7.5 * spec.res
        snapped = hydro2.snap_pour_points_ds([(x, y, 1)], acc_ds, spec, 2.0 * spec.res)
        sx, sy, pid = snapped[0]
        # max accumulation within radius 2 is at col 7, same row
        assert sx == pytest.approx(gs.west + 7.5 * spec.res)
        assert pid == 1


class TestCostAllocationDS:
    def test_two_sources_split(self, ray_session):
        """Uniform cost, two sources → allocation is the euclidean-ish
        split; tiled BSP matches the whole-grid kernel."""
        from whitebox_tools_ray.stages import cost as C

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        costg = np.ones((16, 16))
        src = np.zeros((16, 16))
        src[3, 3] = 1.0
        src[12, 12] = 2.0
        cds = tiles_from_grid(costg, spec)
        sds = tiles_from_grid(src, spec)
        got = assemble(C.cost_allocation_ds(cds, sds, spec, 2).to_pandas(), spec)
        _a, _b, want = C.cost_distance(costg, src.astype(np.int64), spec.nodata, spec.res)
        # compare only where the whole-grid Dijkstra's choice is strict
        # (equidistant frontier cells may legally differ)
        acc1, _, _ = C.cost_distance(costg, np.where(src == 1.0, 1, 0).astype(np.int64), spec.nodata, spec.res)
        acc2, _, _ = C.cost_distance(costg, np.where(src == 2.0, 2, 0).astype(np.int64), spec.nodata, spec.res)
        strict = np.abs(acc1 - acc2) > 1e-9
        assert (got[strict] == want[strict]).all()
        assert got[3, 3] == 1.0 and got[12, 12] == 2.0

    def test_source_ids_above_2_pow_24_survive(self, ray_session):
        """Allocation tiles carry ids exactly: f32 would turn 16,777,217
        into 16,777,216."""
        from whitebox_tools_ray.stages import cost as C

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        src = np.zeros((16, 16))
        src[3, 3] = 2**24 + 1
        cds = tiles_from_grid(np.ones((16, 16)), spec)
        sds = tiles_from_grid(src, spec, "f64")
        got = assemble(C.cost_allocation_ds(cds, sds, spec, 2).to_pandas(), spec)
        assert (got == 2**24 + 1).all()
