"""Band-math / overlay (M2 family) tests."""

import numpy as np
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.sources import tiles as tsrc
from whitebox_tools_ray.stages.band_math import count_if, normalized_difference, overlay


@pytest.fixture(scope="module")
def layers(ray_session):
    sa = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
    sb = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=2)
    ta = tsrc.generate_tiles(sa, fmt_cycle=("f32",))
    tb = tsrc.generate_tiles(sb, fmt_cycle=("f32",))
    return sa, ta, tb


def assemble(df, spec):
    full = np.zeros((spec.rows, spec.columns))
    for _, r in df.iterrows():
        g = codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
        full[int(r["tile_row"]) * 8 : int(r["tile_row"]) * 8 + 8,
             int(r["tile_col"]) * 8 : int(r["tile_col"]) * 8 + 8] = g
    return full


class TestOverlay:
    @pytest.mark.parametrize("op,np_fn", [
        ("max", np.maximum), ("min", np.minimum),
    ])
    def test_binary_ops(self, layers, op, np_fn):
        spec, ta, tb = layers
        out = overlay([rd.from_arrow(ta), rd.from_arrow(tb)], spec, op=op).to_pandas()
        got = assemble(out, spec)
        a = tsrc.assemble_scene(ta, spec)
        b = tsrc.assemble_scene(tb, spec)
        np.testing.assert_allclose(got.astype(np.float32), np_fn(a, b).astype(np.float32))

    def test_weighted_sum(self, layers):
        spec, ta, tb = layers
        out = overlay([rd.from_arrow(ta), rd.from_arrow(tb)], spec, op="weighted_sum", weights=[0.25, 0.75]).to_pandas()
        got = assemble(out, spec)
        a = tsrc.assemble_scene(ta, spec)
        b = tsrc.assemble_scene(tb, spec)
        np.testing.assert_allclose(got.astype(np.float32), (0.25 * a + 0.75 * b).astype(np.float32), rtol=1e-6)

    def test_highest_position_one_based(self, layers):
        spec, ta, tb = layers
        out = overlay([rd.from_arrow(ta), rd.from_arrow(tb)], spec, op="highest_position").to_pandas()
        got = assemble(out, spec)
        a = tsrc.assemble_scene(ta, spec)
        b = tsrc.assemble_scene(tb, spec)
        expect = np.where(a >= b, 1.0, 2.0)  # argmax picks first on ties
        np.testing.assert_array_equal(got, expect)


class TestNDI:
    def test_matches_formula(self, layers):
        spec, ta, tb = layers
        out = normalized_difference(rd.from_arrow(ta), rd.from_arrow(tb), spec).to_pandas()
        got = assemble(out, spec)
        a = tsrc.assemble_scene(ta, spec)
        b = tsrc.assemble_scene(tb, spec)
        denom = a + b
        expect = np.where(denom != 0, (a - b) / denom, 0.0)
        np.testing.assert_allclose(got.astype(np.float32), expect.astype(np.float32), rtol=1e-5)


class TestCountIf:
    def test_counts(self, ray_session):
        import pyarrow as pa

        spec = tsrc.SceneSpec(tiles_x=1, tiles_y=1, tile_px=4)
        mk = lambda v: pa.table(
            {
                "tile_row": pa.array([0], pa.int32()),
                "tile_col": pa.array([0], pa.int32()),
                "bytes": pa.array([codecs.encode_tile(np.full((4, 4), v), "f32")], pa.binary()),
                "fmt": pa.array(["f32"]),
            }
        )
        out = count_if([rd.from_arrow(mk(v)) for v in (5.0, 5.0, 3.0)], spec, value=5.0).to_pandas()
        g = codecs.decode_tile(bytes(out.iloc[0]["bytes"]), "f32")
        assert (g == 2.0).all()


class TestMissingTile:
    """A tile missing from a later layer fails loudly instead of reducing
    over fewer layers (PickFromList would pick the wrong layer). Ray Data
    re-raises the ValueError wrapped in a ``UserCodeException`` that
    carries its text."""

    @staticmethod
    def _dropped(table):
        import pyarrow.compute as pc

        return table.filter(~((pc.field("tile_row") == 1) & (pc.field("tile_col") == 0)))

    def test_count_if(self, layers):
        spec, ta, tb = layers
        with pytest.raises(Exception, match=r"ValueError: tile \(1,0\) is missing from input layer 1"):
            count_if([rd.from_arrow(ta), rd.from_arrow(self._dropped(tb))], spec, value=5.0).to_pandas()

    def test_pick_from_list(self, layers):
        from whitebox_tools_ray.stages.band_math import pick_from_list

        spec, ta, tb = layers
        with pytest.raises(Exception, match=r"ValueError: tile \(1,0\) is missing from input layer 2"):
            pick_from_list([rd.from_arrow(ta), rd.from_arrow(self._dropped(tb))], rd.from_arrow(ta),
                           spec).to_pandas()


class TestRasterOps:
    def test_nodata_ops(self, ray_session):
        from whitebox_tools_ray.stages.raster_ops import (
            convert_nodata_to_zero,
            modify_nodata_value,
            set_nodata_value,
        )

        spec = tsrc.SceneSpec(tiles_x=1, tiles_y=1, tile_px=4)
        g = np.full((4, 4), 7.0)
        g[0, 0] = spec.nodata
        import pyarrow as pa

        t = pa.table(
            {
                "tile_row": pa.array([0], pa.int32()),
                "tile_col": pa.array([0], pa.int32()),
                "bytes": pa.array([codecs.encode_tile(g, "f32")], pa.binary()),
                "fmt": pa.array(["f32"]),
                "nodata": pa.array([spec.nodata]),
            }
        )
        z = convert_nodata_to_zero(rd.from_arrow(t)).to_pandas()
        gz = codecs.decode_tile(bytes(z.iloc[0]["bytes"]), "f32")
        assert gz[0, 0] == 0.0 and gz[1, 1] == 7.0
        m = modify_nodata_value(rd.from_arrow(t), -9999.0).to_pandas()
        gm = codecs.decode_tile(bytes(m.iloc[0]["bytes"]), "f32")
        assert gm[0, 0] == -9999.0 and m.iloc[0]["nodata"] == -9999.0
        s = set_nodata_value(rd.from_arrow(t), -1.0).to_pandas()
        gs2 = codecs.decode_tile(bytes(s.iloc[0]["bytes"]), "f32")
        assert s.iloc[0]["nodata"] == -1.0 and gs2[0, 0] == np.float32(spec.nodata)

    def test_integral_image_ds_matches_whole(self, ray_session):
        import pyarrow as pa

        from whitebox_tools_ray.stages.raster_ops import integral_image_ds

        spec = tsrc.SceneSpec(tiles_x=3, tiles_y=2, tile_px=8)
        rng = np.random.RandomState(1)
        full = rng.uniform(-5, 10, (16, 24))
        rows = []
        for tid in range(6):
            tr, tc = tid // 3, tid % 3
            rows.append(
                {
                    "tile_row": tr,
                    "tile_col": tc,
                    "bytes": codecs.encode_tile(full[tr * 8 : tr * 8 + 8, tc * 8 : tc * 8 + 8], "f64"),
                    "fmt": "f64",
                }
            )
        out = integral_image_ds(rd.from_items(rows), spec).to_pandas()
        whole = np.cumsum(np.cumsum(full, axis=0), axis=1)
        for _, rec in out.iterrows():
            r0, c0 = int(rec["tile_row"]) * 8, int(rec["tile_col"]) * 8
            g = codecs.decode_tile(bytes(rec["bytes"]), rec["fmt"])
            np.testing.assert_allclose(g, whole[r0 : r0 + 8, c0 : c0 + 8], rtol=1e-12)

    def test_composite_roundtrip(self, ray_session):
        import pyarrow as pa

        from whitebox_tools_ray.stages.raster_ops import create_colour_composite, split_colour_composite

        t = pa.table({"r": [10.0, 255.0], "g": [20.0, 0.0], "b": [30.0, 128.0]})
        packed = create_colour_composite(rd.from_arrow(t))
        out = split_colour_composite(packed).to_pandas()
        assert out["r_out"].tolist() == [10.0, 255.0]
        assert out["g_out"].tolist() == [20.0, 0.0]
        assert out["b_out"].tolist() == [30.0, 128.0]

    def test_cell_assignment(self, ray_session):
        from whitebox_tools_ray.stages.raster_ops import raster_cell_assignment

        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=4)
        table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
        out = raster_cell_assignment(rd.from_arrow(table), spec, what="row").to_pandas()
        for _, r in out.iterrows():
            g = codecs.decode_tile(bytes(r["bytes"]), r["fmt"])
            assert g[0, 0] == r["tile_row"] * 4
