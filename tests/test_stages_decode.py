"""Block decode stage (``stages/assign.DecodeVerifyReencode``) against a
per-tile oracle built from ``codecs.decode_tile``/``encode_tile``, and the
vectorized PNG unfilter against the scalar loop it replaced.

Hypothesis runs derandomized, so the suite stays reproducible."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.stages.assign import CHUNK_BYTES, DecodeVerifyReencode

SET = settings(max_examples=30, deadline=None, derandomize=True)


def unfilter_scalar(scan, h, stride, bpp):
    """Reverse PNG scanline filters 0-4 byte by byte (the oracle)."""
    out = np.zeros((h, stride), dtype=np.uint8)
    for r in range(h):
        ftype = int(scan[r, 0])
        line = scan[r, 1:].astype(np.int32)
        prev = out[r - 1].astype(np.int32) if r > 0 else np.zeros(stride, np.int32)
        if ftype == 0:
            out[r] = line.astype(np.uint8)
        elif ftype == 2:
            out[r] = ((line + prev) & 0xFF).astype(np.uint8)
        elif ftype in (1, 3, 4):
            cur = np.zeros(stride, np.int32)
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                if ftype == 1:
                    cur[i] = (line[i] + a) & 0xFF
                elif ftype == 3:
                    cur[i] = (line[i] + (a + b) // 2) & 0xFF
                else:
                    p = a + b - c
                    pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)
                    cur[i] = (line[i] + pred) & 0xFF
            out[r] = cur.astype(np.uint8)
        else:
            raise ValueError(f"bad PNG filter type {ftype}")
    return out


def png_filtered(img: np.ndarray, ftypes) -> bytes:
    """16-bit gray PNG of ``img`` with scanline r written under filter
    ``ftypes[r]`` (the encoder side of the spec's filters)."""
    h, w = img.shape
    raw = img.astype(">u2").view(np.uint8).reshape(h, 2 * w).astype(np.int32)
    bpp = 2
    scan = bytearray()
    for r in range(h):
        line = raw[r]
        prev = raw[r - 1] if r else np.zeros_like(line)
        left = np.concatenate([np.zeros(bpp, np.int32), line[:-bpp]])
        upleft = np.concatenate([np.zeros(bpp, np.int32), prev[:-bpp]])
        f = int(ftypes[r])
        if f == 0:
            pred = np.zeros_like(line)
        elif f == 1:
            pred = left
        elif f == 2:
            pred = prev
        elif f == 3:
            pred = (left + prev) // 2
        else:
            p = left + prev - upleft
            pa_, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - upleft)
            pred = np.where((pa_ <= pb) & (pa_ <= pc), left, np.where(pb <= pc, prev, upleft))
        scan.append(f)
        scan += ((line - pred) & 0xFF).astype(np.uint8).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    return (codecs._PNG_SIG + codecs._chunk(b"IHDR", ihdr) + codecs._chunk(b"IDAT", zlib.compress(bytes(scan)))
            + codecs._chunk(b"IEND", b""))


def oracle(batch: pa.Table, out_fmt) -> pa.Table:
    """The stage's output, tile by tile through decode_tile/encode_tile."""
    stats, blobs, fmts = [], [], []
    for b, f in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
        g = codecs.decode_tile(b, f)
        stats.append((g.min(), g.max(), g.mean()))
        blobs.append(b if out_fmt is None else codecs.encode_tile(g, out_fmt))
        fmts.append(f if out_fmt is None else out_fmt)
    cols = np.array(stats, dtype=np.float64).reshape(-1, 3).T
    t = (batch.append_column("px_min", pa.array(cols[0]))
         .append_column("px_max", pa.array(cols[1]))
         .append_column("px_mean", pa.array(cols[2])))
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
    return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(fmts, pa.string()))


FAST = ["png", "f32", "q16", "f64", "i8"]
SMALL = [(1, 1), (3, 5), (8, 8), (13, 7)]
BIG = [(128, 128), (200, 200)]  # 8 and 3 tiles per chunk


@st.composite
def tile_batches(draw):
    """A tile table as runs of (fmt, shape), padded in front and split
    into Arrow chunks, plus the payloads' source images for filtered PNGs."""
    payloads, fmts, images = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        fmt = draw(st.sampled_from(FAST + ["jpeg"]))
        big = fmt != "jpeg" and draw(st.booleans())
        shape = draw(st.sampled_from(BIG if big else SMALL))
        filtered = fmt == "png" and not big and draw(st.booleans())
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        for _ in range(draw(st.integers(1, 10))):
            if fmt != "jpeg" and draw(st.integers(0, 5)) == 0:  # shape change mid-run
                shape = draw(st.sampled_from(SMALL))
            g = rng.normal(size=shape).cumsum(axis=0) * draw(st.sampled_from([1.0, 1e-3, 1e4]))
            if fmt == "i8":
                g = np.clip(np.round(g), -128, 127)
            if filtered:
                q = rng.integers(0, 65536, shape, dtype=np.uint16)
                payloads.append(struct.pack("<dd", -5.0, 0.25) + png_filtered(q, rng.integers(0, 5, shape[0])))
                images.append((len(payloads) - 1, q * 0.25 - 5.0))
            else:
                payloads.append(codecs.encode_tile(g, fmt))
            fmts.append(fmt)
    pad = draw(st.integers(0, 3))
    arr = pa.array([b"junk"] * pad + payloads, pa.binary()).slice(pad)
    cuts = sorted(draw(st.lists(st.integers(0, len(payloads)), max_size=3)))
    bounds = [0, *cuts, len(payloads)]
    chunks = [arr.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    col = pa.chunked_array(chunks, pa.binary())
    return pa.table({"image_id": pa.array(range(len(payloads)), pa.int64()), "bytes": col,
                     "fmt": pa.array(fmts, pa.string())}), images


class TestDecodeVerifyReencode:
    @SET
    @given(tb=tile_batches(), out_fmt=st.sampled_from([None, "q16", "f32"]))
    def test_block_stage_matches_per_tile_oracle(self, tb, out_fmt):
        batch, images = tb
        dec = DecodeVerifyReencode(out_fmt, strict=True)
        got = dec(batch)
        assert got.equals(oracle(batch, out_fmt), check_metadata=True)
        assert dec.counts == {"undecodable": 0, "reencode_psnr_failed": 0}
        # filtered PNGs decode to the image they were written from
        blobs = batch["bytes"].to_pylist()
        for i, img in images:
            assert np.array_equal(codecs.decode_tile(blobs[i], "png"), img)

    def test_runs_longer_than_a_chunk(self):
        rng = np.random.default_rng(3)
        per_chunk = CHUNK_BYTES // (8 * 128 * 128)
        grids = [rng.normal(size=(128, 128)).cumsum(axis=1) for _ in range(2 * per_chunk + 3)]
        batch = pa.table({"bytes": pa.array([codecs.encode_tile(g, "png") for g in grids], pa.binary()),
                          "fmt": ["png"] * len(grids)})
        assert DecodeVerifyReencode("q16")(batch).equals(oracle(batch, "q16"))

    def test_empty_batch(self):
        batch = pa.table({"bytes": pa.array([], pa.binary()), "fmt": pa.array([], pa.string())})
        for out_fmt in (None, "q16"):
            got = DecodeVerifyReencode(out_fmt)(batch)
            assert got.num_rows == 0
            assert got.equals(oracle(batch, out_fmt))

    def test_nan_tile_fails_verify(self):
        g = np.arange(64.0).reshape(8, 8)
        bad = g.copy()
        bad[2, 3] = np.nan
        blobs = [codecs.encode_tile(x, "f32") for x in (g, bad, g)]
        batch = pa.table({"bytes": pa.array(blobs, pa.binary()), "fmt": ["f32"] * 3})
        with pytest.raises(ValueError, match="row 1: f32 tile re-encoded to q16"):
            DecodeVerifyReencode("q16", strict=True)(batch)
        dec = DecodeVerifyReencode("q16", strict=False)
        out = dec(batch)
        assert dec.counts == {"undecodable": 0, "reencode_psnr_failed": 1}
        assert out["fmt"].to_pylist() == ["q16", "f32", "q16"]
        assert out["bytes"][1].as_py() == blobs[1]
        assert out["bytes"][0].as_py() == codecs.encode_tile(g, "q16")

    def test_corrupt_idat_raises_in_both_modes(self):
        payload = bytearray(codecs.encode_tile(np.arange(256.0).reshape(16, 16) ** 1.5, "png"))
        payload[len(payload) // 2] ^= 0xFF  # inside the IDAT data
        batch = pa.table({"bytes": pa.array([bytes(payload)], pa.binary()), "fmt": ["png"]})
        for strict in (True, False):
            with pytest.raises(zlib.error):
                DecodeVerifyReencode("q16", strict)(batch)

    def test_undecodable_counted_when_not_strict(self):
        # a progressive (SOF2) jpeg: no codec for it
        blob = struct.pack("<dd", 0.0, 1.0) + b"\xff\xd8\xff\xc2\x00\x0b\x08\x00\x08\x00\x08\x01\x01\x11\x00"
        batch = pa.table({"bytes": pa.array([blob], pa.binary()), "fmt": ["jpeg"]})
        with pytest.raises(NotImplementedError):
            DecodeVerifyReencode("q16", strict=True)(batch)
        dec = DecodeVerifyReencode("q16", strict=False)
        out = dec(batch)
        assert dec.counts == {"undecodable": 1, "reencode_psnr_failed": 0}
        assert out["bytes"][0].as_py() == blob and out["fmt"][0].as_py() == "jpeg"
        assert np.isnan(out["px_mean"][0].as_py())


class TestUnfilter:
    @pytest.mark.parametrize("bpp", [1, 2, 3, 6])
    def test_matches_scalar_loop(self, bpp):
        rng = np.random.default_rng(bpp)
        h, w = 9, 7
        scan = rng.integers(0, 256, (h, 1 + w * bpp), dtype=np.uint8)
        scan[:, 0] = rng.integers(0, 5, h)
        scan[0, 0], scan[1, 0] = 1, 1  # Sub on the first row and after it
        assert np.array_equal(codecs._unfilter(scan, h, w * bpp, bpp), unfilter_scalar(scan, h, w * bpp, bpp))

    def test_bad_filter_type(self):
        scan = np.zeros((2, 5), np.uint8)
        scan[1, 0] = 5
        with pytest.raises(ValueError, match="bad PNG filter type 5"):
            codecs._unfilter(scan, 2, 4, 2)
