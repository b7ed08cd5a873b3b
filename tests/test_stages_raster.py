"""Tile-pipeline parity: assign keys, clip-raster mask, raster→points."""

import numpy as np
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import codecs, geometry
from whitebox_tools_ray.kernels.grid import TileGrid
from whitebox_tools_ray.sources import tiles as tsrc
from whitebox_tools_ray.sources.vectors import fixture_polygons
from whitebox_tools_ray.stages.assign import assign_tiles
from whitebox_tools_ray.stages.clip_raster import clip_raster_to_polygon, prepare_mask_parts
from whitebox_tools_ray.stages.raster_vector import raster_to_vector_points


@pytest.fixture(scope="module")
def scene(ray_session):
    spec = tsrc.SceneSpec(tiles_x=4, tiles_y=4, tile_px=16)
    return spec, tsrc.generate_tiles(spec, fmt_cycle=("f32",))


def scene_polygons(spec):
    """Fixture polygons placed over the scene's world frame."""
    gs = spec.grid_spec()
    # fixture frame is [x0, x0+1000]²; map onto scene extents
    sx = (gs.east - gs.west) / 1000.0
    sy = (gs.north - gs.south) / 1000.0
    t = fixture_polygons()
    import pyarrow as pa

    d = t.to_pydict()
    for i in range(t.num_rows):
        d["xs"][i] = [gs.west + v * sx for v in d["xs"][i]]
        d["ys"][i] = [gs.south + v * sy for v in d["ys"][i]]
        d["x_min"][i] = min(d["xs"][i])
        d["x_max"][i] = max(d["xs"][i])
        d["y_min"][i] = min(d["ys"][i])
        d["y_max"][i] = max(d["ys"][i])
    return pa.Table.from_pydict(d, schema=t.schema)


def densify(poly_table, k):
    """Split every edge into ``k`` collinear segments (many-edge parts)."""
    import pyarrow as pa

    d = poly_table.to_pydict()
    frac = np.arange(k) / k
    for i in range(poly_table.num_rows):
        xs, ys = np.asarray(d["xs"][i]), np.asarray(d["ys"][i])
        bounds = list(d["parts"][i]) + [len(xs)]
        parts, nx, ny = [], [], []
        for a, b in zip(bounds[:-1], bounds[1:]):
            parts.append(len(nx))
            for j in range(a, b - 1):
                nx.extend(xs[j] + (xs[j + 1] - xs[j]) * frac)
                ny.extend(ys[j] + (ys[j + 1] - ys[j]) * frac)
            nx.append(xs[b - 1])
            ny.append(ys[b - 1])
        d["parts"][i], d["xs"][i], d["ys"][i] = parts, nx, ny
    return pa.Table.from_pydict(d, schema=poly_table.schema)


def oracle_clip_raster(scene_grid, gs, poly_table, erase=False):
    """Literal clip_raster_to_polygon.rs:230-403 whole-raster scan."""
    out = scene_grid.copy() if erase else np.full_like(scene_grid, gs.nodata)
    parts = prepare_mask_parts(poly_table, gs)
    for p in parts:
        for r in range(p.starting_row, p.ending_row):  # exclusive end
            if r < 0 or r >= gs.rows:
                continue
            y = float(gs.y_from_row(r))
            for c in range(p.starting_col, p.ending_col):
                if c < 0 or c >= gs.columns:
                    continue
                x = float(gs.x_from_col(c))
                if geometry.point_in_poly(x, y, p.xs, p.ys):
                    if not erase:
                        out[r, c] = gs.nodata if p.is_hole else scene_grid[r, c]
                    else:
                        out[r, c] = scene_grid[r, c] if p.is_hole else gs.nodata
    return out


class TestAssign:
    def test_keys_match_generator(self, scene):
        spec, table = scene
        gs = spec.grid_spec()
        tg = TileGrid.from_extent(
            gs.west,
            gs.east,
            gs.south,
            gs.north,
            spec.tile_px * spec.res,
            spec.tile_px * spec.res,
            origin_x=gs.west,
            origin_y=gs.south,
        )
        out = assign_tiles(rd.from_arrow(table), tg).to_pandas()
        # the LidarTile rule counts rows from the SOUTH (y origin at min);
        # generator counts from the north → flipped row index
        assert (out["a_tile_row"] == spec.tiles_y - 1 - out["tile_row"]).all()
        assert (out["a_tile_col"] == out["tile_col"]).all()
        assert out["tile_id"].nunique() == len(out)

    def test_quad_hex_cells_present(self, scene):
        spec, table = scene
        gs = spec.grid_spec()
        tg = TileGrid.from_extent(gs.west, gs.east, gs.south, gs.north, 1440.0, 1440.0)
        out = assign_tiles(rd.from_arrow(table), tg, quad_level=12, hex_res=5).to_pandas()
        assert out["quad_cell"].nunique() > 1
        assert (out["quad_cell"] % 32 == 12).all()  # level tag


class TestClipRaster:
    @pytest.mark.parametrize("erase", [False, True])
    def test_matches_whole_raster_oracle(self, scene, erase):
        spec, table = scene
        gs = spec.grid_spec()
        polys = scene_polygons(spec)
        out_ds = clip_raster_to_polygon(rd.from_arrow(table), polys, spec, erase=erase)
        out_table = out_ds.to_pandas()
        import pyarrow as pa

        out_pa = pa.Table.from_pandas(out_table)
        got = tsrc.assemble_scene(out_pa, spec)
        scene_grid = tsrc.assemble_scene(table, spec)
        expect = oracle_clip_raster(scene_grid, gs, polys, erase=erase)
        # f32 storage: compare at float32 resolution
        np.testing.assert_array_equal(
            got.astype(np.float32), expect.astype(np.float32)
        )


    @pytest.mark.parametrize("erase", [False, True])
    def test_densified_layer_matches_oracle(self, ray_session, erase):
        # tiles that do not divide the part windows: windows end inside tiles
        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=12)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        gs = spec.grid_spec()
        polys = densify(scene_polygons(spec), 256)
        parts = prepare_mask_parts(polys, gs)
        assert any(len(p.xs) > 1000 for p in parts)
        assert any(0 < p.ending_row < gs.rows and p.ending_row % spec.tile_px for p in parts)
        assert any(0 < p.ending_col < gs.columns and p.ending_col % spec.tile_px for p in parts)
        import pyarrow as pa

        out = clip_raster_to_polygon(rd.from_arrow(table), polys, spec, erase=erase).to_pandas()
        got = tsrc.assemble_scene(pa.Table.from_pandas(out), spec)
        expect = oracle_clip_raster(tsrc.assemble_scene(table, spec), gs, polys, erase=erase)
        np.testing.assert_array_equal(got.astype(np.float32), expect.astype(np.float32))


class TestRasterToVectorPoints:
    def test_matches_scan_order(self, scene):
        spec, table = scene
        gs = spec.grid_spec()
        got = raster_to_vector_points(rd.from_arrow(table), spec).to_pandas()
        got = got.sort_values("FID")
        scene_grid = tsrc.assemble_scene(table, spec)
        rows, cols = np.nonzero((scene_grid != 0.0) & (scene_grid != gs.nodata))
        # np.nonzero is row-major — the reference scan order (r2v:209-229)
        assert len(got) == len(rows)
        np.testing.assert_array_equal(got["FID"].to_numpy(), np.arange(1, len(rows) + 1))
        np.testing.assert_allclose(got["x"].to_numpy(), gs.x_from_col(cols))
        np.testing.assert_allclose(got["y"].to_numpy(), gs.y_from_row(rows))
        np.testing.assert_allclose(got["VALUE"].to_numpy(), scene_grid[rows, cols])


class TestFlipImage:
    def test_scene_flip_vertical_and_both(self, ray_session):
        """FlipImage must flip the WHOLE scene: within-tile pixels plus
        the tile's grid position (flip_image.rs semantics), preserving
        the source codec fmt."""
        import pyarrow as pa

        from whitebox_tools_ray.api import run as run_tool

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8)
        grids = {}
        rows = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
        for tr in range(2):
            for tc in range(2):
                rr, cc = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
                g = (31.0 * (rr + tr * 8) + 17.0 * (cc + tc * 8)) % 97
                grids[(tr, tc)] = g
                rows["tile_row"].append(tr)
                rows["tile_col"].append(tc)
                rows["bytes"].append(codecs.encode_tile(g, "f64"))
                rows["fmt"].append("f64")
        ds = rd.from_arrow(pa.table(rows))

        def mosaic(out_ds):
            full = np.zeros((16, 16))
            for b in out_ds.to_pandas().itertuples():
                g = codecs.decode_tile(bytes(b.bytes), b.fmt)
                full[b.tile_row * 8:(b.tile_row + 1) * 8,
                     b.tile_col * 8:(b.tile_col + 1) * 8] = g
            return full

        scene = np.zeros((16, 16))
        for (tr, tc), g in grids.items():
            scene[tr * 8:(tr + 1) * 8, tc * 8:(tc + 1) * 8] = g

        out_v = mosaic(run_tool("FlipImage", ds, spec, direction="vertical"))
        np.testing.assert_array_equal(out_v, scene[::-1, :])
        out_b = mosaic(run_tool("FlipImage", ds, spec, direction="both"))
        np.testing.assert_array_equal(out_b, scene[::-1, ::-1])
        # fmt preserved (no f64 -> f32 downcast)
        fmts = run_tool("FlipImage", ds, spec).to_pandas()["fmt"].unique()
        assert list(fmts) == ["f64"]
