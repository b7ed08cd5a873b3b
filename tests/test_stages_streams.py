"""Stream-network, distance, cost, fill and basin stages against
whole-grid oracles: hand-built D8 patterns and link DAGs for the
driver-side link walks, small tiled scenes for the Dataset forms."""

import numpy as np
import pytest

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.sources.tiles import SceneSpec
from whitebox_tools_ray.stages.streams import (
    shreve_magnitude,
    stream_links_small,
    strahler_order,
)

# direction codes (focal.DX8/DY8 order): 0=NE 1=E 2=SE 3=S 4=SW 5=W 6=NW 7=N


def build_y_network():
    """An 8×8 single-tile scene with a Y: two heads joining, one outlet.

    head A: (0,2) S→(1,2) S→(2,2) SE→(3,3)
    head B: (0,4) S→(1,4) S→(2,4) SW→(3,3)
    trunk:  (3,3) S→(4,3) S→(5,3) S→(6,3) S→(7,3 outlet, dir -1)
    """
    spec = SceneSpec(tiles_x=1, tiles_y=1, tile_px=8)
    ptr = np.full((8, 8), -1, dtype=np.int8)
    stream = np.zeros((8, 8))
    for r in range(0, 2):
        ptr[r, 2] = 3
        stream[r, 2] = 1.0
    ptr[2, 2] = 2
    stream[2, 2] = 1.0
    for r in range(0, 2):
        ptr[r, 4] = 3
        stream[r, 4] = 1.0
    ptr[2, 4] = 4
    stream[2, 4] = 1.0
    for r in range(3, 7):
        ptr[r, 3] = 3
        stream[r, 3] = 1.0
    ptr[7, 3] = -1
    stream[7, 3] = 1.0
    return spec, ptr, stream


class TestStreamLinks:
    def test_y_network(self):
        spec, ptr, stream = build_y_network()
        pointer_tiles = {0: codecs.encode_tile(ptr.astype(np.float64), "i8")}
        stream_tiles = {0: stream}
        link_grid, links = stream_links_small(stream_tiles, pointer_tiles, spec)
        # 3 links: two heads + the trunk from the junction
        assert len(links) == 3
        by_id = {lk["link_id"]: lk for lk in links}
        trunk = [lk for lk in links if lk["ds_link"] == -1]
        assert len(trunk) == 1
        heads = [lk for lk in links if lk["ds_link"] == trunk[0]["link_id"]]
        assert len(heads) == 2
        # every stream cell got a link id
        assert (link_grid[stream == 1.0] > 0).all()

    def test_orders(self):
        spec, ptr, stream = build_y_network()
        pointer_tiles = {0: codecs.encode_tile(ptr.astype(np.float64), "i8")}
        _grid, links = stream_links_small({0: stream}, pointer_tiles, spec)
        order = strahler_order(links)
        mag = shreve_magnitude(links)
        trunk = [lk for lk in links if lk["ds_link"] == -1][0]
        heads = [lk for lk in links if lk["ds_link"] != -1]
        assert all(order[h["link_id"]] == 1 for h in heads)
        assert order[trunk["link_id"]] == 2  # two order-1s meet
        assert mag[trunk["link_id"]] == 2
        assert all(mag[h["link_id"]] == 1 for h in heads)

    def test_extract_streams_threshold(self, ray_session):
        # extract_streams.rs:254: STRICTLY above threshold; background is
        # NODATA by default, 0 only under --zero_background
        from whitebox_tools_ray.stages.streams import extract_streams_ds

        spec = SceneSpec(tiles_x=1, tiles_y=1, tile_px=2)
        accum = np.array([[1.0, 10.0], [50.0, spec.nodata]])
        out = _assemble_full(extract_streams_ds(_tiles_ds_from_full(accum, spec), spec, threshold=10.0), spec)
        assert out[1, 0] == 1.0
        assert out[0, 1] == spec.nodata  # == threshold -> NOT a stream
        assert out[0, 0] == spec.nodata  # default background = nodata
        assert out[1, 1] == spec.nodata
        outz = _assemble_full(
            extract_streams_ds(_tiles_ds_from_full(accum, spec), spec, threshold=10.0, zero_background=True),
            spec,
        )
        np.testing.assert_array_equal(outz, [[0.0, 0.0], [1.0, spec.nodata]])


class TestEuclideanDistance:
    def test_matches_brute_force(self):
        from whitebox_tools_ray.stages.distance import euclidean_distance

        rng = np.random.RandomState(1)
        g = (rng.uniform(0, 1, (30, 41)) < 0.05).astype(float)
        g[0, 0] = 1.0
        out = euclidean_distance(g, -32768.0, 1.5)
        tr, tc = np.nonzero(g)
        rr, cc = np.meshgrid(np.arange(30), np.arange(41), indexing="ij")
        d = np.sqrt((rr[..., None] - tr) ** 2 + (cc[..., None] - tc) ** 2).min(axis=2) * 1.5
        np.testing.assert_allclose(out, d)

    def test_nodata_passthrough(self):
        from whitebox_tools_ray.stages.distance import euclidean_distance

        nod = -32768.0
        g = np.zeros((5, 5))
        g[2, 2] = 1.0
        g[0, 0] = nod
        out = euclidean_distance(g, nod, 1.0)
        assert out[0, 0] == nod
        assert out[2, 2] == 0.0
        assert out[2, 4] == 2.0

class TestBasins:
    def test_basins_and_watershed(self):
        from whitebox_tools_ray.stages.basins import basins, watershed

        spec, ptr, stream = build_y_network()
        pointer_tiles = {0: codecs.encode_tile(ptr.astype(np.float64), "i8")}
        out = basins(pointer_tiles, spec)[0]
        # all Y-network cells drain to the single outlet → same basin id
        net = stream == 1.0
        assert len(set(out[net].tolist())) == 1
        # non-network cells are their own terminals (dir -1) → own ids
        assert out[0, 0] != out[2, 2] or not net[0, 0]

        gs = spec.grid_spec()
        # pour point on the trunk cell (5,3): catches everything upstream
        px = float(gs.x_from_col(3))
        py = float(gs.y_from_row(5))
        ws = watershed(pointer_tiles, spec, [(px, py, 42)])[0]
        assert ws[0, 2] == 42 and ws[0, 4] == 42 and ws[3, 3] == 42
        assert ws[5, 3] == 42
        # downstream of the pour point: NOT in the watershed
        assert ws[6, 3] == 0 and ws[7, 3] == 0

    def test_pointer_doubling_long_chain(self):
        from whitebox_tools_ray.stages.basins import terminal_index

        # a 1×64 chain all flowing east → single terminal at the end
        ptr = np.full((1, 64), 1, dtype=np.int8)
        ptr[0, 63] = -1
        term = terminal_index(ptr)
        assert (term == 63).all()


class TestFillDepressions:
    def test_single_pit_spill(self):
        from whitebox_tools_ray.stages.fill import priority_flood

        g = np.full((5, 5), 10.0)
        g[2, 2] = 1.0
        g[2, 3] = 8.0
        g[1, 3] = 8.0
        g[0, 3] = 8.0  # channel to the edge at 8
        out = priority_flood(g, -32768.0)
        assert out[2, 2] == 8.0
        # cells on the drainage channel unchanged
        assert out[2, 3] == 8.0 and out[0, 3] == 8.0

    def test_tiled_matches_global(self, ray_session):
        spec = SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        rng = np.random.RandomState(11)
        for _ in range(3):
            full = rng.uniform(0, 100, (24, 24))
            full[5:15, 5:15] -= 60  # cross-tile depression
            _check_fill_ds(full, spec)

    def test_nodata_drains(self):
        from whitebox_tools_ray.stages.fill import priority_flood

        nod = -32768.0
        g = np.full((7, 7), 10.0)
        g[3, 3] = 1.0  # pit
        g[3, 4] = nod  # nodata hole next to the pit → it drains
        out = priority_flood(g, nod)
        assert out[3, 3] == 1.0
        assert out[3, 4] == nod


    def test_depth_in_sink_and_sink_ds(self, ray_session):
        """DepthInSink over a plane with one pit on a tile seam equals
        ``filled - dem`` from a NumPy fixed-point fill, and Sink labels
        that pit as the one depression."""
        from whitebox_tools_ray.stages.fill import depth_in_sink_ds, sink_ds

        spec = SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        rr, cc = np.mgrid[0:16, 0:16]
        dem = (rr + cc).astype(np.float64)
        dem[7, 8] = 2.0  # its lowest neighbour is 13
        # F = max(z, min over 8 neighbours of F), F = z on the scene edge,
        # iterated down from +inf
        filled = np.full(dem.shape, np.inf)
        edge = np.zeros(dem.shape, bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        while True:
            pad = np.pad(filled, 1, constant_values=np.inf)
            low = np.min([pad[1 + dy : 17 + dy, 1 + dx : 17 + dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                          if dy or dx], axis=0)
            nxt = np.where(edge, dem, np.maximum(dem, low))
            if np.array_equal(nxt, filled):
                break
            filled = nxt
        assert filled[7, 8] == 13.0 and (filled - dem).sum() == 11.0
        want = np.where(filled - dem > 1e-9, filled - dem, spec.nodata)
        got = _assemble_full(depth_in_sink_ds(_tiles_ds_from_full(dem, spec), spec, num_workers=2), spec)
        np.testing.assert_array_equal(got, want)

        labels, n = sink_ds(_tiles_ds_from_full(dem, spec), spec, num_workers=2)
        assert n == 1
        lab = _assemble_full(labels, spec)
        assert lab[7, 8] == 1 and np.count_nonzero(lab == 1) == 1


class TestCostDistance:
    def test_tiled_matches_global(self, ray_session):
        from whitebox_tools_ray.stages.cost import cost_distance, cost_distance_ds

        spec = SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        rng = np.random.RandomState(5)
        # the cost tiles travel as f32
        cost = np.float32(rng.uniform(0.5, 5.0, (24, 24))).astype(np.float64)
        src = np.zeros((24, 24))
        src[2, 2] = 1.0
        src[20, 21] = 2.0
        whole, _bl, _al = cost_distance(cost, src.astype(np.int64), spec.nodata, spec.res)
        got = _assemble_full(
            cost_distance_ds(_tiles_ds_from_full(cost, spec),
                             _tiles_ds_from_full(src, spec), spec, num_workers=2), spec)
        np.testing.assert_allclose(got.astype(np.float32), whole.astype(np.float32), rtol=1e-5)

    def test_allocation_and_pathway(self):
        from whitebox_tools_ray.stages.cost import cost_distance, cost_pathway

        cost = np.ones((10, 10))
        src = np.zeros((10, 10), dtype=np.int64)
        src[0, 0] = 1
        src[9, 9] = 2
        accum, bl, alloc = cost_distance(cost, src, -32768.0, 1.0)
        assert alloc[1, 1] == 1 and alloc[8, 8] == 2
        assert accum[0, 0] == 0.0
        # uniform cost: straight diagonal is cheapest
        assert accum[2, 2] == pytest.approx(2 * np.sqrt(2.0))
        path = cost_pathway(bl, (3, 0))
        assert path[-1] == (0, 0)


class TestDownslopeOps:
    def test_distance_and_elevation_to_stream(self):
        from whitebox_tools_ray.stages.basins import downslope_distance_to_stream

        spec, ptr, stream = build_y_network()
        pointer_tiles = {0: codecs.encode_tile(ptr.astype(np.float64), "i8")}
        # streams = the trunk only (rows 3..7, col 3)
        trunk = np.zeros((8, 8))
        trunk[3:8, 3] = 1.0
        out = downslope_distance_to_stream(pointer_tiles, {0: trunk}, spec)[0]
        assert out[3, 3] == 0.0
        # head cell (2,2) → one SE step (diag) to (3,3)
        assert out[2, 2] == pytest.approx(np.sqrt(2.0) * spec.res)
        assert out[1, 2] == pytest.approx(spec.res + np.sqrt(2.0) * spec.res)
        # a cell with dir -1 off-stream never reaches → nodata
        assert out[0, 0] == spec.nodata


class TestFillTiledNodataHole:
    def test_tiled_matches_global_with_interior_nodata(self, ray_session):
        """ADVICE r1: depressions beside interior nodata holes must drain
        in the tiled path exactly as in the whole-grid priority flood."""
        spec = SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        rng = np.random.RandomState(7)
        full = rng.uniform(50, 100, (24, 24))
        full[4:20, 4:20] -= 40  # big cross-tile depression
        full[10:13, 10:13] = spec.nodata  # interior hole inside the depression
        full[2, 2] = spec.nodata  # lone hole near a corner tile edge
        _check_fill_ds(full, spec)

    def test_hole_straddling_tile_border(self, ray_session):
        spec = SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        full = np.full((16, 16), 90.0)
        full[4:12, 4:12] = 30.0  # depression across all four tiles
        full[7:9, 7:9] = spec.nodata  # hole exactly on the 4-tile corner
        _check_fill_ds(full, spec)


class TestFillDatasetNative:
    def test_ds_fill_matches_global(self, ray_session):
        spec = SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        rng = np.random.RandomState(23)
        full = rng.uniform(0, 100, (24, 24))
        full[5:15, 5:15] -= 60.0
        full[11, 11] = spec.nodata  # interior hole
        _check_fill_ds(full, spec)


class TestTerminalResolutionDatasetNative:
    def _ptr_ds(self, spec, grid):
        import ray.data as rd
        import pyarrow as pa
        from whitebox_tools_ray.stages import flow
        from whitebox_tools_ray.kernels import codecs
        t = spec.tile_px
        cols = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
        for tr in range(spec.tiles_y):
            for tc in range(spec.tiles_x):
                cols["tile_row"].append(tr)
                cols["tile_col"].append(tc)
                cols["bytes"].append(codecs.encode_tile(grid[tr*t:(tr+1)*t, tc*t:(tc+1)*t].astype(np.float64), "i8"))
                cols["fmt"].append("i8")
        return rd.from_arrow(pa.table({
            "tile_row": pa.array(cols["tile_row"], pa.int32()),
            "tile_col": pa.array(cols["tile_col"], pa.int32()),
            "bytes": pa.array(cols["bytes"], pa.binary()),
            "fmt": pa.array(cols["fmt"], pa.string())}))

    def _assemble(self, out_ds, spec):
        from whitebox_tools_ray.kernels import codecs
        t = spec.tile_px
        full = np.full((spec.rows, spec.columns), np.nan)
        for _, row in out_ds.to_pandas().iterrows():
            g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            r0, c0 = int(row["tile_row"]) * t, int(row["tile_col"]) * t
            full[r0:r0+t, c0:c0+t] = g
        return full

    def _random_pointers(self, spec, seed):
        """Random valid D8 pointer field from a random DEM (acyclic by
        construction)."""
        from whitebox_tools_ray.stages import flow
        from whitebox_tools_ray.kernels import codecs
        rng = np.random.RandomState(seed)
        dem = rng.uniform(0, 100, (spec.rows, spec.columns))
        dem[2, 2] = spec.nodata
        # whole-grid pointer via the engine kernel on a padded grid
        pad = np.full((spec.rows + 2, spec.columns + 2), spec.nodata)
        pad[1:-1, 1:-1] = dem

        class FakeSpec:
            tile_px = spec.rows
            res = spec.res
        ptr = flow.d8_pointer_kernel_masked(pad, spec.nodata, FakeSpec).astype(np.int8)
        return ptr

    def test_basins_ds_matches_dict_path(self, ray_session):
        from whitebox_tools_ray.stages.basins import basins, basins_ds
        from whitebox_tools_ray.kernels import codecs

        spec = SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        ptr = self._random_pointers(spec, 31)
        t = spec.tile_px
        tiles = {tr*3+tc: codecs.encode_tile(ptr[tr*t:(tr+1)*t, tc*t:(tc+1)*t].astype(np.float64), "i8")
                 for tr in range(3) for tc in range(3)}
        expect_tiles = basins(tiles, spec)
        expect = np.zeros((spec.rows, spec.columns))
        for tid, g in expect_tiles.items():
            r0, c0 = (tid // 3) * t, (tid % 3) * t
            expect[r0:r0+t, c0:c0+t] = g
        got = self._assemble(basins_ds(self._ptr_ds(spec, ptr), spec, num_workers=3), spec)
        np.testing.assert_array_equal(got, expect)

    def test_downslope_distance_ds_matches_dict_path(self, ray_session):
        import ray.data as rd
        import pyarrow as pa
        from whitebox_tools_ray.stages.basins import (
            downslope_distance_to_stream, downslope_distance_to_stream_ds)
        from whitebox_tools_ray.kernels import codecs

        spec = SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        ptr = self._random_pointers(spec, 7)
        t = spec.tile_px
        stream = np.zeros((spec.rows, spec.columns))
        stream[8, :] = 1.0  # a stream row crossing tiles
        ptiles = {tr*2+tc: codecs.encode_tile(ptr[tr*t:(tr+1)*t, tc*t:(tc+1)*t].astype(np.float64), "i8")
                  for tr in range(2) for tc in range(2)}
        stiles = {tr*2+tc: stream[tr*t:(tr+1)*t, tc*t:(tc+1)*t] for tr in range(2) for tc in range(2)}
        expect_tiles = downslope_distance_to_stream(ptiles, stiles, spec)
        expect = np.zeros((spec.rows, spec.columns))
        for tid, g in expect_tiles.items():
            r0, c0 = (tid // 2) * t, (tid % 2) * t
            expect[r0:r0+t, c0:c0+t] = g

        cols = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
        for tr in range(2):
            for tc in range(2):
                cols["tile_row"].append(tr); cols["tile_col"].append(tc)
                cols["bytes"].append(codecs.encode_tile(stiles[tr*2+tc], "f32")); cols["fmt"].append("f32")
        stream_ds = rd.from_arrow(pa.table({
            "tile_row": pa.array(cols["tile_row"], pa.int32()),
            "tile_col": pa.array(cols["tile_col"], pa.int32()),
            "bytes": pa.array(cols["bytes"], pa.binary()),
            "fmt": pa.array(cols["fmt"], pa.string())}))
        got = self._assemble(
            downslope_distance_to_stream_ds(self._ptr_ds(spec, ptr), stream_ds, spec, num_workers=2), spec)
        np.testing.assert_allclose(got, expect, rtol=1e-9)


def _tiles_ds_from_full(full, spec, fmt="f32"):
    import ray.data as rd
    import pyarrow as pa
    from whitebox_tools_ray.kernels import codecs
    t = spec.tile_px
    cols = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
    for tr in range(spec.tiles_y):
        for tc in range(spec.tiles_x):
            cols["tile_row"].append(tr)
            cols["tile_col"].append(tc)
            cols["bytes"].append(codecs.encode_tile(full[tr*t:(tr+1)*t, tc*t:(tc+1)*t].astype(np.float64), fmt))
            cols["fmt"].append(fmt)
    return rd.from_arrow(pa.table({
        "tile_row": pa.array(cols["tile_row"], pa.int32()),
        "tile_col": pa.array(cols["tile_col"], pa.int32()),
        "bytes": pa.array(cols["bytes"], pa.binary()),
        "fmt": pa.array(cols["fmt"], pa.string())}))


def _check_fill_ds(full, spec):
    """fill_depressions_ds over ``full`` cut into tiles equals the
    whole-grid priority flood, nodata cells included."""
    import tempfile

    from whitebox_tools_ray.stages.fill import fill_depressions_ds, priority_flood

    full = np.float32(full).astype(np.float64)  # the tiles travel as f32
    whole = priority_flood(full, spec.nodata)
    out = fill_depressions_ds(_tiles_ds_from_full(full, spec), spec, num_workers=3,
                              out_dir=tempfile.mkdtemp(prefix="fds_", dir="/tmp"))
    np.testing.assert_array_equal(_assemble_full(out, spec), whole)


def _assemble_full(out_ds, spec):
    from whitebox_tools_ray.kernels import codecs
    t = spec.tile_px
    full = np.full((spec.rows, spec.columns), np.nan)
    for _, row in out_ds.to_pandas().iterrows():
        g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
        r0, c0 = int(row["tile_row"]) * t, int(row["tile_col"]) * t
        full[r0:r0+t, c0:c0+t] = g
    return full


class TestDistanceCostDatasetNative:
    def test_euclidean_ds_matches_whole(self, ray_session):
        from whitebox_tools_ray.stages.distance import euclidean_distance, euclidean_distance_ds

        spec = SceneSpec(tiles_x=3, tiles_y=2, tile_px=8)
        rng = np.random.RandomState(13)
        full = (rng.uniform(0, 1, (16, 24)) < 0.05).astype(np.float64)
        full[3, 17] = spec.nodata
        whole = euclidean_distance(full, spec.nodata, spec.res)
        got = _assemble_full(euclidean_distance_ds(_tiles_ds_from_full(full, spec), spec), spec)
        valid = full != spec.nodata
        np.testing.assert_allclose(got[valid].astype(np.float32), whole[valid].astype(np.float32), rtol=1e-6)

    def test_cost_ds_matches_whole(self, ray_session):
        from whitebox_tools_ray.stages.cost import cost_distance, cost_distance_ds

        spec = SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        rng = np.random.RandomState(17)
        cost = np.float32(rng.uniform(0.5, 3.0, (16, 16))).astype(np.float64)
        cost[5, 5] = spec.nodata
        src = np.zeros((16, 16))
        src[2, 2] = 1.0
        src[14, 13] = 2.0
        whole, _bl, _al = cost_distance(cost, src.astype(np.int64), spec.nodata, spec.res)
        got = _assemble_full(
            cost_distance_ds(_tiles_ds_from_full(cost, spec),
                             _tiles_ds_from_full(src, spec), spec, num_workers=2), spec)
        valid = cost != spec.nodata
        np.testing.assert_allclose(got[valid].astype(np.float32), whole[valid].astype(np.float32), rtol=1e-5)

    def test_cost_backlink_and_pathway_ds(self, ray_session):
        # backlink raster from the BSP shards + the store-actor pathway
        # walk == the single-grid kernel's path (unique-cost surface so
        # the least-cost path has no ties)
        from whitebox_tools_ray.stages.cost import (
            cost_backlink_ds,
            cost_distance,
            cost_pathway,
            cost_pathway_ds,
        )

        spec = SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        rng = np.random.RandomState(23)
        cost = np.float32(rng.uniform(0.5, 3.0, (16, 16))).astype(np.float64)
        src = np.zeros((16, 16))
        src[2, 2] = 1.0
        _a, bl_whole, _al = cost_distance(cost, src.astype(np.int64), spec.nodata, spec.res)
        expect_path = cost_pathway(bl_whole, (14, 13))
        bl_ds = cost_backlink_ds(_tiles_ds_from_full(cost, spec),
                                 _tiles_ds_from_full(src, spec), spec, num_workers=2)
        got_path = cost_pathway_ds(bl_ds, spec, (14, 13), num_stores=2)
        assert got_path == expect_path
        assert got_path[0] == (14, 13) and got_path[-1] == (2, 2)


class TestStreamNetworkRemainder:
    """Hand-walked oracles on a known link DAG.

    Topology (ids after stream_links_small on the Y-network are not used here;
    we construct links directly):

        1 (len 10) ─┐
                    ├─→ 3 (len 5) ─┐
        2 (len 4)  ─┘              ├─→ 5 (len 8, outlet)
        4 (len 20) ────────────────┘
    """

    def _links(self):
        return [
            {"link_id": 1, "cells": [(0, 0)], "length": 10.0, "ds_link": 3},
            {"link_id": 2, "cells": [(0, 1)], "length": 4.0, "ds_link": 3},
            {"link_id": 3, "cells": [(1, 1)], "length": 5.0, "ds_link": 5},
            {"link_id": 4, "cells": [(2, 0)], "length": 20.0, "ds_link": 5},
            {"link_id": 5, "cells": [(2, 2)], "length": 8.0, "ds_link": -1},
        ]

    def test_strahler_shreve(self):
        links = self._links()
        s = strahler_order(links)
        assert s == {1: 1, 2: 1, 3: 2, 4: 1, 5: 2}
        from whitebox_tools_ray.stages.streams import shreve_magnitude

        m = shreve_magnitude(links)
        assert m == {1: 1, 2: 1, 3: 2, 4: 1, 5: 3}

    def test_upstream_distance_and_trunk(self):
        from whitebox_tools_ray.stages.streams import (
            _trunk_child,
            upstream_channel_distance,
        )

        links = self._links()
        ud = upstream_channel_distance(links)
        # link 3 top: max(10, 4) = 10; link 5 top: max(10+5, 20) = 15... vs 20 → 20
        assert ud == {1: 0.0, 2: 0.0, 3: 10.0, 4: 0.0, 5: 20.0}
        trunk = _trunk_child(links)
        # at 3: upstream dists incl own length: 1→10, 2→4 → trunk 1
        # at 5: 3→15, 4→20 → trunk 4
        assert trunk == {3: 1, 5: 4}

    def test_horton(self):
        from whitebox_tools_ray.stages.streams import horton_order

        links = self._links()
        # strahler: 5→2; trunk path from outlet: 5→4 — so 4 gets 2;
        # 3 restarts with its strahler 2; 3's trunk is 1 → 1 gets 2; 2 → 1
        assert horton_order(links) == {5: 2, 4: 2, 3: 2, 1: 2, 2: 1}

    def test_hack(self):
        from whitebox_tools_ray.stages.streams import hack_order

        links = self._links()
        # outlet 5 = 1; trunk 4 continues 1; 3 = 2; 3's trunk 1 continues 2; 2 = 3
        assert hack_order(links) == {5: 1, 4: 1, 3: 2, 1: 2, 2: 3}

    def test_topological(self):
        from whitebox_tools_ray.stages.streams import topological_order

        assert topological_order(self._links()) == {5: 1, 3: 2, 4: 2, 1: 3, 2: 3}

    def test_upstream_lengths_class_mainstem_tribs(self):
        from whitebox_tools_ray.stages.streams import (
            find_main_stem,
            length_of_upstream_channels,
            stream_link_class,
            tributary_identifier,
        )

        links = self._links()
        tot = length_of_upstream_channels(links)
        assert tot == {1: 10.0, 2: 4.0, 3: 19.0, 4: 20.0, 5: 47.0}
        assert stream_link_class(links) == {1: 1, 2: 1, 4: 1, 3: 2, 5: 2}
        assert find_main_stem(links) == {5, 4}
        trib = tributary_identifier(links)
        # outlet tributary {5,4}; 3 starts a new one continued by 1; 2 its own
        assert trib[5] == trib[4]
        assert trib[3] == trib[1] != trib[5]
        assert trib[2] not in (trib[5], trib[3])

    def test_remove_short_and_rasterize(self):
        from whitebox_tools_ray.stages.streams import remove_short_streams

        links = self._links()
        kept = {lk["link_id"] for lk in remove_short_streams(links, 8.0)}
        assert kept == {1, 3, 4, 5}  # head link 2 (len 4) dropped

    def test_distance_to_outlet_and_farthest_head(self, ray_session):
        from whitebox_tools_ray.stages.streams import (
            distance_to_outlet_small,
            farthest_channel_head_small,
        )
        from whitebox_tools_ray.kernels import codecs

        spec = SceneSpec(tiles_x=1, tiles_y=1, tile_px=4)
        # straight stream along row 1 flowing east (dir 1), outlet at col 3
        ptr = np.full((4, 4), -1, dtype=np.float64)
        ptr[1, 0] = ptr[1, 1] = ptr[1, 2] = 1
        stream = np.zeros((4, 4))
        stream[1, :] = 1.0
        ptiles = {0: codecs.encode_tile(ptr, "i8")}
        stiles = {0: stream}
        d = distance_to_outlet_small(stiles, ptiles, spec)
        np.testing.assert_allclose(d[1, :], [3 * spec.res, 2 * spec.res, spec.res, 0.0])
        f = farthest_channel_head_small(stiles, ptiles, spec)
        np.testing.assert_allclose(f[1, :], [0.0, spec.res, 2 * spec.res, 3 * spec.res])

    def test_outlet_and_farthest_head_ds_match_grid(self, ray_session):
        # registered Dataset forms vs the single-grid references on a
        # multi-junction valley network (50+ junctions at threshold 25)
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.pipelines.relational import _scene, _valley_grid
        from whitebox_tools_ray.stages.flow import d8_pointer_masked, flow_accumulation_ds
        from whitebox_tools_ray.stages.streams import (
            distance_to_outlet_small,
            distance_to_outlet_ds,
            extract_streams_ds,
            farthest_channel_head_small,
            farthest_channel_head_ds,
        )

        rows, spec = _scene(_valley_grid())
        ptr = d8_pointer_masked(rd.from_items(rows), spec)
        acc = flow_accumulation_ds(ptr, spec, num_workers=2)
        streams = extract_streams_ds(acc, spec, threshold=25.0)

        def assemble(tile_ds):
            g = np.full((spec.rows, spec.columns), np.nan)
            for _, r in tile_ds.to_pandas().iterrows():
                t = codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
                g[int(r["tile_row"]) * 16 : int(r["tile_row"]) * 16 + 16,
                  int(r["tile_col"]) * 16 : int(r["tile_col"]) * 16 + 16] = t
            return g

        ptiles = {int(r["tile_row"]) * spec.tiles_x + int(r["tile_col"]): bytes(r["bytes"])
                  for _, r in ptr.to_pandas().iterrows()}
        stiles = {int(r["tile_row"]) * spec.tiles_x + int(r["tile_col"]):
                  codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
                  for _, r in streams.to_pandas().iterrows()}

        d_grid = distance_to_outlet_small(stiles, ptiles, spec)
        d_ds = assemble(distance_to_outlet_ds(streams, ptr, spec, num_workers=2))
        np.testing.assert_allclose(d_ds, d_grid, rtol=1e-9)

        f_grid = farthest_channel_head_small(stiles, ptiles, spec)
        f_ds = assemble(farthest_channel_head_ds(streams, ptr, spec, num_workers=2))
        np.testing.assert_allclose(f_ds, f_grid, rtol=1e-9, atol=1e-6)

class TestBreachDepressions:
    def test_breach_properties(self):
        """breach_depressions.rs semantics: only lowers, removes every
        depression (fill of the output is a no-op), leaves drained
        terrain untouched."""
        from whitebox_tools_ray.stages.fill import breach_depressions, priority_flood

        rng = np.random.RandomState(9)
        g = rng.uniform(0, 100, (30, 30))
        g[8:22, 8:22] -= 60
        out = breach_depressions(g, -32768.0)
        assert (out <= g + 1e-12).all()
        filled = priority_flood(out, -32768.0)
        np.testing.assert_allclose(filled, out, atol=1e-9)
        # terrain outside the depression is untouched
        outside = np.ones_like(g, dtype=bool)
        outside[7:23, 7:23] = False
        changed_outside = (out[outside] < g[outside]).mean()
        assert changed_outside < 0.2  # carving stays near the depression

    def test_breach_drains_through_nodata(self):
        from whitebox_tools_ray.stages.fill import breach_depressions, priority_flood

        g = np.full((9, 9), 50.0)
        g[4, 4] = 10.0
        g[4, 5] = -32768.0  # hole next to the pit
        out = breach_depressions(g, -32768.0)
        v = g != -32768.0
        filled = priority_flood(out, -32768.0)
        np.testing.assert_allclose(filled[v], out[v], atol=1e-9)
        assert out[4, 4] == 10.0  # pit itself already drains via the hole

    def test_breach_ds_tiled_vs_global_parity(self, ray_session):
        """breach_depressions_ds (exact route) on a multi-pit tiled DEM
        == breach_depressions on the assembled grid, bit for bit; above
        the cell cap it routes to fill_depressions_ds (raise-not-carve),
        whose output must also be depression-free."""
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources import tiles as tsrc
        from whitebox_tools_ray.stages.fill import (
            breach_depressions,
            breach_depressions_ds,
            priority_flood,
        )

        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=16, seed=21)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        grid = tsrc.assemble_scene(table, spec)
        # carve several explicit pits so multiple rounds fire
        for (r, c) in ((6, 6), (20, 30), (37, 12), (25, 40)):
            grid[r - 2 : r + 3, c - 2 : c + 3] -= 80.0
        rows = []
        for tr in range(3):
            for tc in range(3):
                sub = grid[tr * 16 : (tr + 1) * 16, tc * 16 : (tc + 1) * 16]
                rows.append(
                    {
                        "tile_row": tr,
                        "tile_col": tc,
                        "bytes": codecs.encode_tile(sub, "f32"),
                        "fmt": "f32",
                    }
                )
        # f32 encode/decode round-trip so both paths see identical input
        grid32 = np.vstack(
            [
                np.hstack(
                    [
                        codecs.decode_tile(rows[tr * 3 + tc]["bytes"], "f32")
                        for tc in range(3)
                    ]
                )
                for tr in range(3)
            ]
        )
        ds = rd.from_items(rows).repartition(4)
        out = breach_depressions_ds(ds, spec).to_pandas()
        got = np.full((48, 48), spec.nodata)
        for _, row in out.iterrows():
            t = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            got[
                int(row["tile_row"]) * 16 : int(row["tile_row"]) * 16 + 16,
                int(row["tile_col"]) * 16 : int(row["tile_col"]) * 16 + 16,
            ] = t
        expect = breach_depressions(grid32, spec.nodata)
        np.testing.assert_allclose(got, np.float32(expect), rtol=0, atol=0)
        # over-cap route now runs the hierarchical exact carve (one shard
        # covers this scene at the default shard size) — same bits
        hier = breach_depressions_ds(ds, spec, exact_cell_cap=1).to_pandas()
        goth = np.full((48, 48), spec.nodata)
        for _, row in hier.iterrows():
            t = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            goth[
                int(row["tile_row"]) * 16 : int(row["tile_row"]) * 16 + 16,
                int(row["tile_col"]) * 16 : int(row["tile_col"]) * 16 + 16,
            ] = t
        np.testing.assert_allclose(goth, expect, rtol=0, atol=1e-6)
        refill = priority_flood(goth.astype(np.float64), spec.nodata)
        np.testing.assert_allclose(refill, goth, atol=1e-3)

    def test_breach_hierarchical_multi_shard_parity(self, ray_session):
        """breach_hierarchical with 2-tile shards (4 shards on a 3x3
        scene, pits deliberately near shard borders so searches defer
        and resolve under shifted offsets) == the global exact kernel."""
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources import tiles as tsrc
        from whitebox_tools_ray.stages.fill import (
            breach_depressions,
            breach_hierarchical,
        )

        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=16, seed=33)
        # steep south-dipping plane: pit searches resolve a few cells
        # south, so search regions fit a 1-tile core except for the pits
        # placed ON shard borders (those defer, then land under an offset)
        rr, cc = np.meshgrid(np.arange(48, dtype=np.float64),
                             np.arange(48, dtype=np.float64), indexing="ij")
        grid = 200.0 - 1.0 * rr + 0.01 * cc
        for (r, c) in ((15, 15), (16, 32), (31, 16), (8, 40), (40, 8)):
            grid[r, c] -= 2.5
        rows = []
        for tr in range(3):
            for tc in range(3):
                sub = grid[tr * 16 : (tr + 1) * 16, tc * 16 : (tc + 1) * 16]
                rows.append({"tile_row": tr, "tile_col": tc,
                             "bytes": codecs.encode_tile(sub, "f32"), "fmt": "f32"})
        grid32 = np.vstack([
            np.hstack([codecs.decode_tile(rows[tr * 3 + tc]["bytes"], "f32")
                       for tc in range(3)]) for tr in range(3)])
        ds = rd.from_items(rows)
        out = breach_hierarchical(ds, spec, shard_tiles=2).to_pandas()
        got = np.full((48, 48), spec.nodata)
        for _, row in out.iterrows():
            t = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            got[int(row["tile_row"]) * 16 : int(row["tile_row"]) * 16 + 16,
                int(row["tile_col"]) * 16 : int(row["tile_col"]) * 16 + 16] = t
        expect = breach_depressions(grid32, spec.nodata)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-6)


class TestStreamLinksDS:
    def test_ds_matches_dict_form(self, ray_session):
        """Dataset-native link extraction == the whole-grid kernel."""
        import pandas as pd
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources import tiles as tsrc
        from whitebox_tools_ray.stages.focal import d8_pointer_kernel
        from whitebox_tools_ray.stages import streams as S

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=2)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        # a Y-shaped drainage: two headwater channels meeting mid-grid
        dem = 100.0 - xx - 0.01 * np.abs(yy - 8.0)
        pad = np.full((18, 18), spec.nodata)
        pad[1:-1, 1:-1] = dem

        class _S:
            tile_px = 16
            res = spec.res

        ptr_full = d8_pointer_kernel(pad, spec.nodata, _S()).astype(np.int8)
        stream_full = np.zeros((16, 16))
        stream_full[5, 2:] = 1.0
        stream_full[11, 2:] = 1.0
        stream_full[8, 8:] = 1.0
        # dict form
        st_tiles = {}
        ptr_tiles = {}
        for tr in range(2):
            for tc in range(2):
                tid = tr * 2 + tc
                st_tiles[tid] = stream_full[tr * 8 : tr * 8 + 8, tc * 8 : tc * 8 + 8]
                ptr_tiles[tid] = codecs.encode_tile(
                    ptr_full[tr * 8 : tr * 8 + 8, tc * 8 : tc * 8 + 8].astype(np.float64), "i8"
                )
        lid_grid, links_ref = S.stream_links_small(st_tiles, ptr_tiles, spec)
        # ds form
        rows_s, rows_p = [], []
        for tr in range(2):
            for tc in range(2):
                tid = tr * 2 + tc
                rows_s.append({"tile_row": tr, "tile_col": tc,
                               "bytes": codecs.encode_tile(st_tiles[tid], "f32"), "fmt": "f32"})
                rows_p.append({"tile_row": tr, "tile_col": tc,
                               "bytes": ptr_tiles[tid], "fmt": "i8"})
        lid_ds, links_ds = S.stream_links_ds(
            rd.from_pandas(pd.DataFrame(rows_s)), rd.from_pandas(pd.DataFrame(rows_p)), spec
        )
        # same number of links, same total stream cells, same length multiset
        assert len(links_ds) == len(links_ref)
        assert sorted(round(l["length"], 6) for l in links_ds) == sorted(
            round(l["length"], 6) for l in links_ref
        )
        # painted raster labels the same CELL SET
        full = np.zeros((16, 16))
        for _, row in lid_ds.to_pandas().iterrows():
            g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            full[int(row["tile_row"]) * 8 : int(row["tile_row"]) * 8 + 8,
                 int(row["tile_col"]) * 8 : int(row["tile_col"]) * 8 + 8] = g
        assert ((full > 0) == (lid_grid > 0)).all()


class TestLinkPeelDS:
    def test_dataset_orders_match_driver_walk(self, ray_session):
        """strahler_order_links_ds / shreve_magnitude_links_ds (Dataset
        topological peel — the path for link tables that outgrow the
        driver) == the recursive driver walks, on a 3-level DAG with a
        tie (order bump) and a non-tie junction."""
        import pandas as pd
        import ray.data as rd

        from whitebox_tools_ray.stages.streams import (
            shreve_magnitude,
            shreve_magnitude_links_ds,
            strahler_order,
            strahler_order_links_ds,
        )

        #    1   2     3          heads
        #     \ /      |
        #      4       5          4 = tie (1,1) -> 2 ; 5 = 1
        #       \     /
        #         6               (2,1) no tie -> 2 ; shreve 3
        links = [
            {"link_id": 1, "ds_link": 4, "length": 1.0, "cells": [(0, 0), (0, 0)]},
            {"link_id": 2, "ds_link": 4, "length": 1.0, "cells": [(0, 1), (0, 1)]},
            {"link_id": 3, "ds_link": 5, "length": 1.0, "cells": [(0, 2), (0, 2)]},
            {"link_id": 4, "ds_link": 6, "length": 1.0, "cells": [(1, 0), (1, 0)]},
            {"link_id": 5, "ds_link": 6, "length": 1.0, "cells": [(1, 2), (1, 2)]},
            {"link_id": 6, "ds_link": -1, "length": 1.0, "cells": [(2, 1), (2, 1)]},
        ]
        link_ds = rd.from_pandas(pd.DataFrame(
            {"link_id": [lk["link_id"] for lk in links],
             "ds_link": [lk["ds_link"] for lk in links],
             "length": [lk["length"] for lk in links]}))
        ref_o = strahler_order(links)
        ref_m = shreve_magnitude(links)
        o = strahler_order_links_ds(link_ds).to_pandas().set_index("link_id")["val"].to_dict()
        m = shreve_magnitude_links_ds(link_ds).to_pandas().set_index("link_id")["val"].to_dict()
        assert {k: int(v) for k, v in o.items()} == ref_o
        assert {k: int(v) for k, v in m.items()} == ref_m
        assert int(o[6]) == 2 and int(m[6]) == 3

    def test_breach_hierarchical_fill_fallback(self, ray_session):
        """A pit whose least-cost search region exceeds every shard core
        under every offset can never be localized — after the rounds the
        fallback fills the remaining depression: output is
        depression-free and never carved below the input."""
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources import tiles as tsrc
        from whitebox_tools_ray.stages.fill import breach_hierarchical, priority_flood

        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=16, seed=44)
        # a huge shallow bowl: the breach search from the centre pit must
        # climb the rim far outside any 2x2-tile core before finding a
        # lower cell (there is none - rim is the scene edge drain)
        rr, cc = np.meshgrid(np.arange(48.0), np.arange(48.0), indexing="ij")
        grid = 100.0 + 0.5 * np.sqrt((rr - 24) ** 2 + (cc - 24) ** 2)
        rows = []
        for tr in range(3):
            for tc in range(3):
                sub = grid[tr * 16 : (tr + 1) * 16, tc * 16 : (tc + 1) * 16]
                rows.append({"tile_row": tr, "tile_col": tc,
                             "bytes": codecs.encode_tile(sub, "f64"), "fmt": "f64"})
        out = breach_hierarchical(rd.from_items(rows), spec, shard_tiles=2,
                                  max_global_rounds=6).to_pandas()
        got = np.full((48, 48), spec.nodata)
        for _, r in out.iterrows():
            t = codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
            got[int(r["tile_row"]) * 16 : int(r["tile_row"]) * 16 + 16,
                int(r["tile_col"]) * 16 : int(r["tile_col"]) * 16 + 16] = t
        # depression-free: a re-fill changes nothing
        refill = priority_flood(got.astype(np.float64), spec.nodata)
        np.testing.assert_allclose(refill, got, atol=1e-3)
        # the fallback raises (fills); nothing carved below the input
        # (1e-3 slack: the fill shard engine stores f32 tiles)
        assert (got >= grid - 1e-3).all()

    def test_raster_streams_to_vector_ds(self, ray_session):
        """Dataset polyline extraction == cell-walk geometry on the Y
        network: 3 links, each polyline follows head->terminal cell
        centers in flow order (descending flowpath length)."""
        import ray.data as rd

        from whitebox_tools_ray.stages.streams import (
            raster_streams_to_vector_ds,
            stream_links_small,
        )

        spec, ptr, stream = build_y_network()
        pointer_tiles = {0: codecs.encode_tile(ptr.astype(np.float64), "i8")}
        link_grid, links = stream_links_small({0: stream}, pointer_tiles, spec)
        gs = spec.grid_spec()
        expect = set()
        for lk in links:
            xs = tuple(float(gs.x_from_col(c)) for _r, c in lk["cells"])
            ys = tuple(float(gs.y_from_row(r)) for r, _c in lk["cells"])
            expect.add((xs, ys, round(lk["length"], 6)))

        stream_ds = rd.from_items([{
            "tile_row": 0, "tile_col": 0,
            "bytes": codecs.encode_tile(stream, "f32"), "fmt": "f32"}])
        ptr_ds = rd.from_items([{
            "tile_row": 0, "tile_col": 0,
            "bytes": codecs.encode_tile(ptr.astype(np.float64), "i8"), "fmt": "i8"}])
        out = raster_streams_to_vector_ds(stream_ds, ptr_ds, spec, num_workers=2).to_pandas()
        assert len(out) == len(links) == 3
        got = set()
        for _, r in out.iterrows():
            got.add((tuple(r["xs"]), tuple(r["ys"]), round(float(r["length"]), 6)))
        assert got == expect

    def test_stream_link_slope_ds_matches_grid(self, ray_session):
        import ray.data as rd

        from whitebox_tools_ray.stages.streams import (
            stream_link_slope,
            stream_link_slope_ds,
            stream_links_small,
        )

        spec, ptr, stream = build_y_network()
        pointer_tiles = {0: codecs.encode_tile(ptr.astype(np.float64), "i8")}
        _grid, links = stream_links_small({0: stream}, pointer_tiles, spec)
        rng = np.random.RandomState(7)
        dem = rng.uniform(10, 100, (8, 8))
        ref = stream_link_slope(links, dem, spec.res)
        dem_ds = rd.from_items([{"tile_row": 0, "tile_col": 0,
                                 "bytes": codecs.encode_tile(dem, "f64"), "fmt": "f64"}])
        got = stream_link_slope_ds(links, dem_ds, spec)
        assert set(got) == set(ref)
        for k in ref:
            assert abs(got[k] - ref[k]) < 1e-12
