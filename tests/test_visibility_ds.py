"""Dataset forms of the visibility family must be bit-identical to the
single-grid kernels (absolute-coordinate arithmetic makes tiling
invisible to the result)."""

import numpy as np
import pytest


NOD = -32768.0


def _scene():
    from whitebox_tools_ray.sources.tiles import SceneSpec

    spec = SceneSpec(tiles_x=4, tiles_y=4, tile_px=16, nodata=NOD, res=1.0)
    rng = np.random.default_rng(11)
    full = rng.integers(0, 60, (64, 64)).astype(float)
    full[rng.random((64, 64)) < 0.03] = NOD
    return spec, full


def _tiles_ds(full, spec):
    import ray.data as rd

    from whitebox_tools_ray.kernels import codecs

    tpx = spec.tile_px
    rows = []
    for tr in range(spec.tiles_y):
        for tc in range(spec.tiles_x):
            rows.append(
                {
                    "tile_row": tr,
                    "tile_col": tc,
                    "bytes": codecs.encode_tile(
                        full[tr * tpx : (tr + 1) * tpx, tc * tpx : (tc + 1) * tpx], "f64"
                    ),
                    "fmt": "f64",
                }
            )
    return rd.from_items(rows)


def _back(ds, spec):
    from whitebox_tools_ray.kernels import codecs

    tpx = spec.tile_px
    out = np.full((spec.rows, spec.columns), np.nan)
    for _, r in ds.to_pandas().iterrows():
        g = codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
        out[r.tile_row * tpx : (r.tile_row + 1) * tpx,
            r.tile_col * tpx : (r.tile_col + 1) * tpx] = g
    return out


class TestVisibilityDatasetForms:
    @pytest.mark.parametrize("az,md", [(90.0, 20.0), (217.0, 12.0)])
    def test_directional_ds_bitexact(self, ray_session, az, md):
        from whitebox_tools_ray.stages import visibility as vis

        spec, full = _scene()
        for dsf, kf, kw in (
            (vis.horizon_angle_ds, vis.horizon_angle, {}),
            (vis.fetch_analysis_ds, vis.fetch_analysis, {}),
            (vis.directional_relief_ds, vis.directional_relief, {}),
        ):
            got = _back(dsf(_tiles_ds(full, spec), spec, az, md, out_fmt="f64"), spec)
            want = kf(full, NOD, az, md, **kw)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("station,sectors", [((32, 32), 8), ((5, 60), 6)])
    def test_viewshed_ds_bitexact(self, ray_session, station, sectors):
        from whitebox_tools_ray.stages import visibility as vis

        spec, full = _scene()
        sr, sc = station
        if full[sr, sc] == NOD:
            full[sr, sc] = 20.0
        got = _back(
            vis.viewshed_ds(_tiles_ds(full, spec), spec, station,
                            n_sectors=sectors, out_fmt="f64"),
            spec,
        )
        want = vis.viewshed(full, NOD, station)
        assert np.array_equal(got, want)

    def test_viewshed_wall_property(self, ray_session):
        # the wall hides everything behind it from a low station
        from whitebox_tools_ray.stages import visibility as vis

        g = np.zeros((20, 20))
        g[:, 10] = 50.0
        v = vis.viewshed(g, NOD, (10, 5), station_height=2.0)
        assert (v[:, 11:] == 0.0).all()
        assert v[10, 5] == 1.0

    def test_visibility_index_ds(self, ray_session):
        from whitebox_tools_ray.stages import visibility as vis

        spec, full = _scene()
        got = _back(
            vis.visibility_index_ds(_tiles_ds(full, spec), spec,
                                    station_step=16, out_fmt="f64"),
            spec,
        )
        want = vis.visibility_index(full, NOD, station_step=16)
        assert np.array_equal(got, want)

    def test_registry_dispatch(self, ray_session):
        from whitebox_tools_ray import api
        from whitebox_tools_ray.stages import visibility as vis

        spec, full = _scene()
        got = _back(
            api.run("HorizonAngle", _tiles_ds(full, spec), spec, 90.0, 15.0,
                    out_fmt="f64"),
            spec,
        )
        assert np.array_equal(got, vis.horizon_angle(full, NOD, 90.0, 15.0))


class TestFocalOp:
    def test_matches_kernel_on_whole_scene(self, ray_session):
        """Each tile of ``focal_op`` equals the same kernel run once on
        the whole nodata-padded scene, nodata holes included, at halo 1
        and 2 and with one input block or many."""
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources.tiles import SceneSpec
        from whitebox_tools_ray.stages import focal

        spec = SceneSpec(tiles_x=9, tiles_y=9, tile_px=8, nodata=NOD, res=90.0)
        whole = SceneSpec(tiles_x=1, tiles_y=1, tile_px=72, nodata=NOD, res=90.0)
        rng = np.random.default_rng(21)
        full = rng.integers(0, 80, (72, 72)).astype(float)
        full[rng.random((72, 72)) < 0.04] = NOD
        rows = [
            {
                "tile_row": tr,
                "tile_col": tc,
                "bytes": codecs.encode_tile(
                    full[tr * 8 : (tr + 1) * 8, tc * 8 : (tc + 1) * 8], "f64"
                ),
                "fmt": "f64",
            }
            for tr in range(9)
            for tc in range(9)
        ]
        for kern, halo in ((focal.slope_kernel, 1), (focal.make_window_kernel("max", 2), 2)):
            want = kern(np.pad(full, halo, constant_values=NOD), NOD, whole)
            for blocks in (1, 27):
                got = focal.focal_op(
                    rd.from_items(rows, override_num_blocks=blocks), spec, kern, halo, out_fmt="f64"
                ).to_pandas()
                assert len(got) == 81
                for tr, tc, data in zip(got["tile_row"], got["tile_col"], got["bytes"]):
                    tile = want[tr * 8 : (tr + 1) * 8, tc * 8 : (tc + 1) * 8]
                    assert bytes(data) == codecs.encode_tile(tile, "f64"), (halo, blocks, tr, tc)


class TestCoPartitionFallbacks:
    def test_overlay_copartition_matches_broadcast(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from whitebox_tools_ray.stages import overlay as ov

        rng = np.random.default_rng(17)

        def rect_record(rid, x0, y0, w, h):
            xs = [x0, x0, x0 + w, x0 + w]
            ys = [y0, y0 + h, y0 + h, y0]
            return {"record_id": rid, "parts": [0], "xs": xs, "ys": ys,
                    "x_min": x0, "x_max": x0 + w, "y_min": y0, "y_max": y0 + h}

        SCH = pa.schema([("record_id", pa.int32()), ("parts", pa.list_(pa.int32())),
                         ("xs", pa.list_(pa.float64())), ("ys", pa.list_(pa.float64())),
                         ("x_min", pa.float64()), ("x_max", pa.float64()),
                         ("y_min", pa.float64()), ("y_max", pa.float64())])
        A = [rect_record(i, rng.uniform(0, 80), rng.uniform(0, 80),
                         rng.uniform(2, 15), rng.uniform(2, 15)) for i in range(40)]
        B = [rect_record(1000 + i, rng.uniform(0, 80), rng.uniform(0, 80),
                         rng.uniform(2, 15), rng.uniform(2, 15)) for i in range(35)]
        a_tbl = pa.Table.from_pylist(A, schema=SCH)
        b_tbl = pa.Table.from_pylist(B, schema=SCH)
        for op in ("intersect", "difference"):
            bc = ov.overlay(rd.from_arrow(a_tbl), b_tbl, op).to_pandas()
            cp = ov.overlay_copartition(rd.from_arrow(a_tbl), rd.from_arrow(b_tbl), op).to_pandas()
            assert len(bc) == len(cp)
            sa = bc.groupby("record_id")["area"].sum().sort_index()
            sb = cp.groupby("record_id")["area"].sum().sort_index()
            assert sa.index.tolist() == sb.index.tolist()
            assert np.allclose(sa.values, sb.values, rtol=0, atol=1e-9)

    def test_idw_copartition_matches_broadcast(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.sources.tiles import SceneSpec
        from whitebox_tools_ray.stages import gridding as gr

        spec = SceneSpec(tiles_x=3, tiles_y=3, tile_px=8)
        gs = spec.grid_spec()
        rng = np.random.default_rng(2)
        n = 200
        tbl = pa.table({
            "x": gs.west + rng.random(n) * spec.columns * gs.res_x,
            "y": gs.north - rng.random(n) * spec.rows * gs.res_y,
            "value": rng.random(n) * 100,
        })

        def back(ds):
            out = np.full((spec.rows, spec.columns), np.nan)
            for _, r in ds.to_pandas().iterrows():
                out[int(r.tile_row) * 8 : (int(r.tile_row) + 1) * 8,
                    int(r.tile_col) * 8 : (int(r.tile_col) + 1) * 8] = \
                    codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
            return out

        for method in ("idw", "nearest"):
            a = back(gr.idw_gridding(tbl, spec, radius=300.0, method=method, out_fmt="f64"))
            b = back(gr.idw_gridding_ds(rd.from_arrow(tbl), spec, radius=300.0,
                                        method=method, out_fmt="f64"))
            assert np.array_equal(a, b)
