"""Focal + flow-accumulation parity: tiled engine output must equal a
literal whole-raster run of the reference algorithms."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.sources import tiles as tsrc
from whitebox_tools_ray.stages import flow
from whitebox_tools_ray.stages.focal import (
    DX8,
    DY8,
    slope,
    window_filter,
)


@pytest.fixture(scope="module")
def scene(ray_session):
    spec = tsrc.SceneSpec(tiles_x=3, tiles_y=3, tile_px=16, seed=7)
    table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
    grid = tsrc.assemble_scene(table, spec)
    return spec, table, grid


def whole_raster_slope(grid, spec):
    """Literal slope.rs:256-292 over the whole raster."""
    rows, cols = grid.shape
    nodata = spec.nodata
    out = np.full_like(grid, nodata)
    eight = spec.res * 8.0
    for r in range(rows):
        for c in range(cols):
            z = grid[r, c]
            if z == nodata:
                continue
            n = []
            for i in range(8):
                rr, cc = r + DY8[i], c + DX8[i]
                zi = grid[rr, cc] if 0 <= rr < rows and 0 <= cc < cols else nodata
                n.append(zi if zi != nodata else z)
            fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight
            fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight
            out[r, c] = np.degrees(np.arctan(np.sqrt(fx * fx + fy * fy)))
    return out


def assemble_result(df, spec):
    full = np.full((spec.rows, spec.columns), spec.nodata)
    for _, row in df.iterrows():
        g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
        r0 = int(row["tile_row"]) * spec.tile_px
        c0 = int(row["tile_col"]) * spec.tile_px
        full[r0 : r0 + g.shape[0], c0 : c0 + g.shape[1]] = g
    return full


class TestFocal:
    def test_slope_tiled_equals_whole(self, scene):
        spec, table, grid = scene
        out = slope(rd.from_arrow(table), spec).to_pandas()
        got = assemble_result(out, spec)
        expect = whole_raster_slope(grid, spec)
        np.testing.assert_allclose(
            got.astype(np.float32), expect.astype(np.float32), rtol=1e-5, atol=1e-4
        )

    def test_mean_filter_tiled_equals_whole(self, scene):
        spec, table, grid = scene
        r = 2
        out = window_filter(rd.from_arrow(table), spec, stat="mean", radius=r).to_pandas()
        got = assemble_result(out, spec)
        # oracle: mean over in-scene cells within the window (out-of-scene
        # = nodata = excluded)
        rows, cols = grid.shape
        expect = np.zeros_like(grid)
        for rr in range(rows):
            for cc in range(cols):
                r0, r1 = max(0, rr - r), min(rows, rr + r + 1)
                c0, c1 = max(0, cc - r), min(cols, cc + r + 1)
                expect[rr, cc] = grid[r0:r1, c0:c1].mean()
        np.testing.assert_allclose(got.astype(np.float32), expect.astype(np.float32), rtol=1e-5)


def whole_raster_d8(grid, spec):
    """Literal d8_flow_accum.rs pointer + topological accumulation."""
    rows, cols = grid.shape
    nodata = spec.nodata
    res = spec.res
    diag = np.sqrt(2) * res
    lengths = [diag, res, diag, res, diag, res, diag, res]
    fdir = np.full((rows, cols), -1, dtype=np.int8)
    for r in range(rows):
        for c in range(cols):
            z = grid[r, c]
            if z == nodata:
                continue
            best, max_slope = -1, -np.inf
            for i in range(8):
                rr, cc = r + DY8[i], c + DX8[i]
                zn = grid[rr, cc] if 0 <= rr < rows and 0 <= cc < cols else nodata
                if zn != nodata:
                    s = (z - zn) / lengths[i]
                    if s > max_slope and s > 0:
                        max_slope, best = s, i
            fdir[r, c] = best
    indeg = np.full((rows, cols), -1, dtype=np.int8)
    for r in range(rows):
        for c in range(cols):
            if grid[r, c] == nodata:
                continue
            cnt = 0
            for i in range(8):
                rr, cc = r + DY8[i], c + DX8[i]
                if 0 <= rr < rows and 0 <= cc < cols and fdir[rr, cc] == flow.INFLOW_OF[i]:
                    cnt += 1
            indeg[r, c] = cnt
    accum = np.ones((rows, cols))
    stack = [(r, c) for r in range(rows) for c in range(cols) if indeg[r, c] == 0]
    while stack:
        r, c = stack.pop()
        fa = accum[r, c]
        indeg[r, c] -= 1
        d = fdir[r, c]
        if d >= 0:
            rr, cc = r + DY8[d], c + DX8[d]
            if 0 <= rr < rows and 0 <= cc < cols:
                accum[rr, cc] += fa
                indeg[rr, cc] -= 1
                if indeg[rr, cc] == 0:
                    stack.append((rr, cc))
    accum[grid == nodata] = nodata
    return fdir, accum


class TestExtraFilters:
    def test_median_filter_matches_oracle(self, scene):
        spec, table, grid = scene
        from whitebox_tools_ray.stages.focal import window_filter

        out = window_filter(rd.from_arrow(table), spec, stat="median", radius=1).to_pandas()
        got = assemble_result(out, spec)
        rows, cols = grid.shape
        expect = np.zeros_like(grid)
        for rr in range(rows):
            for cc in range(cols):
                r0, r1 = max(0, rr - 1), min(rows, rr + 2)
                c0, c1 = max(0, cc - 1), min(cols, cc + 2)
                expect[rr, cc] = np.median(grid[r0:r1, c0:c1])
        np.testing.assert_allclose(got.astype(np.float32), expect.astype(np.float32), rtol=1e-5)

    def test_olympic_filter(self, scene):
        spec, table, grid = scene
        from whitebox_tools_ray.stages.focal import window_filter

        out = window_filter(rd.from_arrow(table), spec, stat="olympic", radius=1).to_pandas()
        got = assemble_result(out, spec)
        # interior spot check
        r, c = 10, 10
        w = grid[r - 1 : r + 2, c - 1 : c + 2].ravel()
        expect = (w.sum() - w.max() - w.min()) / (len(w) - 2)
        assert got[r, c] == pytest.approx(expect, rel=1e-6)


class TestFlowAccumulationDatasetNative:
    def test_ds_path_equals_whole(self, scene, ray_session):
        """Dataset-in → Dataset-out accumulation (flow_accumulation_ds):
        same pointers and accumulation as the whole-raster oracle, no
        driver pixel dicts."""
        import tempfile

        spec, table, grid = scene
        ptr_ds = flow.d8_pointer_masked(rd.from_arrow(table), spec).materialize()
        fdir, expect = whole_raster_d8(grid, spec)
        valid = grid != spec.nodata
        # pointer parity first
        eng_dir = assemble_result(ptr_ds.to_pandas(), spec)
        np.testing.assert_array_equal(eng_dir[valid], fdir[valid])
        out_dir = tempfile.mkdtemp(prefix="flowtest_", dir="/tmp")
        out_ds = flow.flow_accumulation_ds(ptr_ds, spec, num_workers=3, out_dir=out_dir)
        got = assemble_result(out_ds.to_pandas(), spec)
        # accumulation exact (integer counts)
        np.testing.assert_array_equal(got[valid], expect[valid])


class TestWindowedTerrainStats:
    def _whole_oracle(self, grid, radius, stat, nodata):
        rows, cols = grid.shape
        out = np.full_like(grid, nodata)
        for r in range(rows):
            for c in range(cols):
                z = grid[r, c]
                if z == nodata:
                    continue
                r0, r1 = max(0, r - radius), min(rows, r + radius + 1)
                c0, c1 = max(0, c - radius), min(cols, c + radius + 1)
                win = grid[r0:r1, c0:c1]
                win = win[win != nodata]
                mean = win.mean()
                if stat == "dev_from_mean":
                    std = win.std()
                    out[r, c] = (z - mean) / std if std > 0 else 0.0
                elif stat == "diff_from_mean":
                    out[r, c] = z - mean
                elif stat == "percent_elev_range":
                    rng = win.max() - win.min()
                    out[r, c] = z / rng * 100.0 if rng > 0 else 0.0
                elif stat == "elev_percentile":
                    out[r, c] = (win < z).sum() / win.size * 100.0
        return out

    def test_windowed_stats_match_whole(self, scene, ray_session):
        from whitebox_tools_ray.stages.focal import window_stat_op

        spec, table, grid = scene
        for stat in ["dev_from_mean", "diff_from_mean", "percent_elev_range", "elev_percentile"]:
            out = window_stat_op(rd.from_arrow(table), spec, stat, radius=2).to_pandas()
            got = assemble_result(out, spec)
            expect = self._whole_oracle(grid, 2, stat, spec.nodata)
            valid = grid != spec.nodata
            # edge cells: the tiled pad treats out-of-scene as nodata =
            # excluded, same as the whole-raster window clamp → equal
            np.testing.assert_allclose(
                np.float32(got[valid]), np.float32(expect[valid]), rtol=1e-4, atol=1e-4,
                err_msg=stat,
            )


class TestVisibility:
    def test_viewshed_wall(self):
        from whitebox_tools_ray.stages.visibility import viewshed

        g = np.zeros((21, 21))
        g[:, 12] = 10.0
        v = viewshed(g, -32768.0, (10, 5), station_height=2.0)
        assert v[10, 3] == 1.0 and v[10, 11] == 1.0 and v[10, 12] == 1.0
        assert v[10, 14] == 0.0 and v[10, 20] == 0.0
        assert (viewshed(np.zeros((9, 9)), -32768.0, (4, 4)) == 1.0).all()

    def test_horizon_and_fetch(self):
        from whitebox_tools_ray.stages.visibility import fetch_analysis, horizon_angle

        g = np.zeros((21, 21))
        g[:, 12] = 10.0
        h = horizon_angle(g, -32768.0, 90.0, max_dist=20.0)
        assert h[10, 5] > 0 and h[10, 15] <= 0
        f = fetch_analysis(g, -32768.0, 90.0, max_dist=20.0)
        # looking east: cells west of the wall hit it
        assert f[10, 5] < 20.0 and f.max() <= 20.0


class TestCombineTileLayers:
    """The zip against a Python dict zip, over 81 tiles in 6 blocks per
    layer, with one tile missing from the secondary layer."""

    @staticmethod
    def _layers():
        spec = tsrc.SceneSpec(tiles_x=9, tiles_y=9, tile_px=8, seed=3)
        base_t = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        other_t = tsrc.generate_tiles(
            tsrc.SceneSpec(tiles_x=9, tiles_y=9, tile_px=8, seed=4),
            fmt_cycle=("f32",),
        ).filter(~((pc.field("tile_row") == 2) & (pc.field("tile_col") == 5)))
        return spec, base_t, other_t

    @staticmethod
    def _by_tile(table, name):
        """Row of each tile, keys aside, with ``bytes``/``fmt`` renamed
        to ``<name>``/``<name>_fmt``."""
        rename = {"bytes": name, "fmt": name + "_fmt"}
        return {
            (r["tile_row"], r["tile_col"]): {
                rename.get(k, k): v for k, v in r.items() if k not in ("tile_row", "tile_col")
            }
            for r in table.to_pylist()
        }

    @staticmethod
    def _rows(out):
        out = out.sort_values(["tile_row", "tile_col"]).reset_index(drop=True)
        return {
            (int(r.tile_row), int(r.tile_col)): {
                k: bytes(v) if isinstance(v, (bytes, bytearray)) else v
                for k, v in r._asdict().items()
                if k not in ("Index", "tile_row", "tile_col")
            }
            for r in out.itertuples()
        }

    def test_zip_matches_dict_zip(self, ray_session):
        from whitebox_tools_ray.stages.bsp import combine_tile_layers

        spec, base_t, other_t = self._layers()
        assert other_t.num_rows == 80
        a, b = self._by_tile(base_t, "a"), self._by_tile(other_t, "b")
        want = {
            k: {**v, "b": b[k]["b"] if k in b else b"", "b_fmt": b[k]["b_fmt"] if k in b else ""}
            for k, v in a.items()
        }
        out = combine_tile_layers(
            spec,
            a=rd.from_arrow(base_t).repartition(6),
            b=rd.from_arrow(other_t).repartition(6),
        ).to_pandas()
        first = [{"bytes": "a", "fmt": "a_fmt"}.get(c, c) for c in base_t.column_names]
        assert list(out.columns) == first + ["b", "b_fmt"]
        assert len(out) == 81
        got = self._rows(out)
        assert got == want
        assert got[(2, 5)]["b"] == b"" and got[(2, 5)]["b_fmt"] == ""

    def test_one_layer_is_a_rename(self, ray_session):
        from whitebox_tools_ray.stages.bsp import combine_tile_layers

        spec, base_t, _ = self._layers()
        out = combine_tile_layers(spec, a=rd.from_arrow(base_t).repartition(6)).to_pandas()
        assert list(out.columns) == [{"bytes": "a", "fmt": "a_fmt"}.get(c, c) for c in base_t.column_names]
        assert self._rows(out) == self._by_tile(base_t, "a")

    def test_empty_secondary_block(self, ray_session):
        """A materialized layer can hold a block with no rows and no
        columns; the index skips it."""
        from whitebox_tools_ray.stages.bsp import combine_tile_layers

        spec, base_t, other_t = self._layers()
        out = combine_tile_layers(
            spec, a=rd.from_arrow(base_t), b=rd.from_arrow([other_t, pa.table({})])
        ).to_pandas()
        b = self._by_tile(other_t, "b")
        assert {k: v["b"] for k, v in self._rows(out).items()} == {
            k: b[k]["b"] if k in b else b"" for k in self._by_tile(base_t, "a")
        }

    def test_duplicate_secondary_key_raises(self, ray_session):
        """The index task raises ValueError; Ray Data re-raises it wrapped
        in a ``UserCodeException`` that carries its text."""
        from whitebox_tools_ray.stages.bsp import combine_tile_layers

        spec, base_t, other_t = self._layers()
        twice = pa.concat_tables([other_t, other_t.slice(40, 1)])
        with pytest.raises(Exception, match=r"ValueError: tile \(4,5\) appears twice in layer 'b'"):
            combine_tile_layers(
                spec,
                a=rd.from_arrow(base_t).repartition(6),
                b=rd.from_arrow(twice).repartition(6),
            ).to_pandas()

    def test_block_refs_outlive_gc(self, ray_session):
        """The pull closure holds the block and index refs: a chained map
        run twice after a ``gc.collect()`` still finds every payload."""
        import gc

        from whitebox_tools_ray.stages.bsp import combine_tile_layers

        spec, base_t, other_t = self._layers()
        chained = combine_tile_layers(
            spec,
            a=rd.from_arrow(base_t).repartition(6),
            b=rd.from_arrow(other_t).repartition(6),
        ).map_batches(lambda t: t.select(["tile_row", "tile_col", "b"]), batch_format="pyarrow")
        gc.collect()
        b = self._by_tile(other_t, "b")
        want = {k: {"b": b.get(k, {"b": b""})["b"]} for k in self._by_tile(base_t, "a")}
        for _ in range(2):
            assert self._rows(chained.to_pandas()) == want

    def test_outputs_carry_no_schema_metadata(self, ray_session, monkeypatch):
        """Ray's ``unify_schemas`` hashes block schemas; a schema with
        metadata (a dict) cannot be hashed, so zip, halo and band-math
        outputs, and the layered rows D8 mass flux hands to its drain,
        carry none, whether the per-tile function returns pandas or
        Arrow."""
        import pandas as pd
        import ray

        from whitebox_tools_ray.stages import band_math, flow2
        from whitebox_tools_ray.stages.bsp import combine_tile_layers
        from whitebox_tools_ray.stages.focal import halo_map

        spec, base_t, other_t = self._layers()
        src = rd.from_arrow(base_t).repartition(6)

        def as_pandas(tr, tc, pad):
            return pd.DataFrame({"tile_row": [tr], "tile_col": [tc], "s": [float(pad.sum())]})

        def as_arrow(tr, tc, pad):
            return pa.Table.from_pandas(as_pandas(tr, tc, pad))

        handed = []
        monkeypatch.setattr(flow2, "run_multiflow", lambda rows, *args, **kw: handed.append(rows))
        flow2.d8_mass_flux(src, src, src, src, spec)
        outs = [
            combine_tile_layers(spec, a=src, b=rd.from_arrow(other_t).repartition(6)),
            halo_map(src, spec, 1, as_pandas),
            halo_map(src, spec, 2, as_arrow),
            band_math.overlay([src, src], spec, op="sum"),
            band_math.normalized_difference(src, src, spec),
            band_math.pick_from_list([src, src], src, spec),
            *handed,
        ]
        for ds in outs:
            blocks = ray.get(ds.to_arrow_refs())
            assert sum(t.num_rows for t in blocks) == 81
            assert all(t.schema.metadata is None for t in blocks)


class TestHillshadeQuirk:
    def test_fx_zero_shortcircuits_to_half(self, ray_session):
        # hillshade.rs:316-326: when fx == 0 (pure north-south gradient)
        # the reference outputs 0.5 * 32767 regardless of fy
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources.tiles import SceneSpec
        from whitebox_tools_ray.stages.focal import focal_op, hillshade_kernel

        spec = SceneSpec(tiles_x=1, tiles_y=1, tile_px=8)
        rr = np.arange(8, dtype=np.float64)[:, None] * np.ones((1, 8))
        ds = rd.from_items([{"tile_row": 0, "tile_col": 0,
                             "bytes": codecs.encode_tile(rr * 10.0, "f64"), "fmt": "f64"}])
        out = focal_op(ds, spec, hillshade_kernel, 1, out_fmt="f64").to_pandas()
        g = codecs.decode_tile(bytes(out["bytes"].iloc[0]), out["fmt"].iloc[0])
        # interior + straight edges have fx == 0 -> round(0.5 * 32767);
        # corner cells pick up fx != 0 from the nodata-neighbour
        # substitution and follow the full formula
        assert (g[1:-1, :] == 16384.0).all()
        assert (g[:, 1:-1] == 16384.0).all()
