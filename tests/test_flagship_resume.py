"""Flagship pipeline: checkpoint manifests and resume-skip behavior."""

import json
import os
import shutil
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.pipelines.flagship import LAYER_CPU, run_tiling_pipeline, synthesize_tiles_parallel
from whitebox_tools_ray.stages.assign import DecodeVerifyReencode
from whitebox_tools_ray.sources.tiles import SceneSpec
from whitebox_tools_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def tiny_scene(ray_session, tmp_path_factory):
    spec = SceneSpec(tiles_x=4, tiles_y=4, tile_px=16)
    path = str(tmp_path_factory.mktemp("tiles") / "t")
    synthesize_tiles_parallel(spec, path, num_bands=2)
    return spec, path


class TestResume:
    def test_manifest_written_and_resume_skips(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene
        out = str(tmp_path / "out")
        m1 = run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        assert m1["tiles"] == 16
        assert m1["bands_skipped"] == 0
        man = os.path.join(out, "MANIFEST.jsonl")
        recs = [json.loads(l) for l in open(man)]
        assert len(recs) == 2
        assert all(r["rows_out"] > 0 and r["content_hash"] for r in recs)
        # rerun: everything skipped, nothing recomputed
        m2 = run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        assert m2["bands_skipped"] == 2
        assert m2["tiles"] == 0

    def test_partial_resume(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene
        out = str(tmp_path / "out2")
        run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        # simulate a crash that lost band 1's manifest line (bands run
        # concurrently → line order is nondeterministic, so select by id)
        man = os.path.join(out, "MANIFEST.jsonl")
        recs = [json.loads(l) for l in open(man)]
        keep = [r for r in recs if r["partition_id"] == "band0000"]
        with open(man, "w") as f:
            f.write(json.dumps(keep[0]) + "\n")
        shutil.rmtree(os.path.join(out, "band0001"))
        m = run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        assert m["bands_skipped"] == 1
        assert m["tiles"] == 8  # only the lost band recomputed
        assert os.path.isdir(os.path.join(out, "band0001"))

    def test_lost_manifest_line_reruns_band_without_duplicates(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene
        out = str(tmp_path / "out_dup")
        run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        # crash between band 1's write and its manifest line: the band's
        # files stay on disk, its line is gone
        man = os.path.join(out, "MANIFEST.jsonl")
        recs = [json.loads(l) for l in open(man)]
        with open(man, "w") as f:
            f.write("".join(json.dumps(r) + "\n" for r in recs if r["partition_id"] != "band0001"))
        m = run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        assert m["tiles"] == 8
        assert pq.read_table(os.path.join(out, "band0001")).num_rows == 8
        recs = [json.loads(l) for l in open(man)]
        assert [r["rows_out"] for r in recs if r["partition_id"] == "band0001"] == [8]

    @pytest.mark.parametrize("num_bands", [1, 4])
    def test_band_count_must_match_input_layout(self, tiny_scene, tmp_path, num_bands):
        spec, tiles_path = tiny_scene  # laid out as band=0/, band=1/
        out = str(tmp_path / "out_bands")
        with pytest.raises(ValueError, match="band="):
            run_tiling_pipeline(tiles_path, out, spec, num_bands=num_bands)
        assert not os.path.exists(out)

    def test_content_hash_reproducible(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene

        def hashes(name):
            out = str(tmp_path / name)
            run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
            recs = [json.loads(l) for l in open(os.path.join(out, "MANIFEST.jsonl"))]
            return {r["partition_id"]: r["content_hash"] for r in recs}

        first = hashes("run1")
        assert sorted(first) == ["band0000", "band0001"]
        assert hashes("run2") == first

    def test_params_change_invalidates(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene
        out = str(tmp_path / "out3")
        run_tiling_pipeline(tiles_path, out, spec, num_bands=2, quad_level=12)
        m = run_tiling_pipeline(tiles_path, out, spec, num_bands=2, quad_level=10)
        # different params_hash → no skips
        assert m["bands_skipped"] == 0

    def test_torn_tail_line_ignored(self, tmp_path):
        man = Manifest(str(tmp_path / "m.jsonl"), run_params={"a": 1})
        man.record("p0", (0, 1), 5, 5, 0.1, "/tmp/x")
        with open(man.path, "a") as f:
            f.write('{"partition_id": "p1", "key_ra')  # crash mid-write
        assert man.completed() == {"p0"}


MANIFEST_KEYS = {"partition_id", "key_range", "rows_in", "rows_out", "wall_s", "output_uri", "content_hash",
                 "params_hash", "metrics", "ts"}
CLEAN = {"undecodable": 0, "reencode_psnr_failed": 0}
METRICS_KEYS = {"undecodable", "reencode_psnr_failed", "read_cpu_s", "assign_cpu_s", "decode_cpu_s", "write_cpu_s"}


def _counts(metrics):
    """The verify counts of a manifest ``metrics`` after checking its key
    set and that each per-layer CPU time is a non-negative float."""
    assert set(metrics) == METRICS_KEYS and set(LAYER_CPU) < METRICS_KEYS
    for k in LAYER_CPU:
        assert isinstance(metrics[k], float) and metrics[k] >= 0.0, (k, metrics[k])
    return {k: metrics[k] for k in CLEAN}


def _records(out):
    path = os.path.join(out, "MANIFEST.jsonl")
    if not os.path.exists(path):  # a failed run may finish no band
        return {}
    with open(path) as f:
        return {r["partition_id"]: r for r in map(json.loads, f)}


def _tamper(tiles_path, tmp_path, edit):
    """Copy of the tile input whose band=1 first file has ``edit``
    applied to its first row's (bytes, fmt); returns (path, file name,
    edited table)."""
    path = str(tmp_path / "tiles")
    shutil.copytree(tiles_path, path)
    band = os.path.join(path, "band=1")
    name = sorted(f for f in os.listdir(band) if f.endswith(".parquet"))[0]
    t = pq.read_table(os.path.join(band, name))
    blobs, fmts = t["bytes"].to_pylist(), t["fmt"].to_pylist()
    blobs[0], fmts[0] = edit(blobs[0], fmts[0])
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
    t = t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(fmts, pa.string()))
    pq.write_table(t, os.path.join(band, name))
    return path, name, t


class TestManifestMetrics:
    def test_manifest_schema(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene
        out = str(tmp_path / "out")
        run_tiling_pipeline(tiles_path, out, spec, num_bands=2)
        recs = _records(out)
        assert sorted(recs) == ["band0000", "band0001"]
        for r in recs.values():
            assert set(r) == MANIFEST_KEYS
            assert _counts(r["metrics"]) == CLEAN
            assert isinstance(r["key_range"], list) and len(r["key_range"]) == 2
            assert r["rows_in"] == r["rows_out"] == 8
            assert isinstance(r["wall_s"], float) and isinstance(r["ts"], float)
            assert all(isinstance(r[k], str) and r[k] for k in ("output_uri", "content_hash", "params_hash"))

    def test_nan_tile_kept_and_counted(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene

        def nan_tile(blob, fmt):
            g = codecs.decode_tile(blob, fmt)
            g[0, 0] = np.nan
            return codecs.encode_tile(g, "f32"), "f32"

        path, name, src = _tamper(tiles_path, tmp_path, nan_tile)
        with pytest.raises(ValueError, match="below 40"):
            DecodeVerifyReencode("q16", strict=True)(src)
        out = str(tmp_path / "out")
        assert run_tiling_pipeline(path, out, spec, num_bands=2)["tiles"] == 16
        recs = _records(out)
        assert _counts(recs["band0000"]["metrics"]) == CLEAN
        assert _counts(recs["band0001"]["metrics"]) == {"undecodable": 0, "reencode_psnr_failed": 1}
        got = pq.read_table(os.path.join(out, "band0001", name))
        assert got["bytes"][0].as_py() == src["bytes"][0].as_py()
        assert got["fmt"].to_pylist() == ["f32"] + ["q16"] * (got.num_rows - 1)

    def test_corrupt_idat_fails_the_run(self, tiny_scene, tmp_path):
        spec, tiles_path = tiny_scene

        def flip_idat_byte(blob, fmt):
            png = bytearray(codecs.encode_tile(codecs.decode_tile(blob, fmt), "png"))
            (ln,) = struct.unpack(">I", png[49:53])  # IDAT follows the 16-byte header, signature, IHDR
            assert png[53:57] == b"IDAT"
            png[57 + ln // 2] ^= 0xFF
            return bytes(png), "png"

        path, name, src = _tamper(tiles_path, tmp_path, flip_idat_byte)
        for strict in (True, False):
            with pytest.raises(zlib.error):
                DecodeVerifyReencode("q16", strict)(src)
        out = str(tmp_path / "out")
        with pytest.raises(zlib.error):
            run_tiling_pipeline(path, out, spec, num_bands=2)
        assert not os.path.exists(os.path.join(out, "band0001", name))
        assert "band0001" not in _records(out)
