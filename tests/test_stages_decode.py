"""Block decode stage (``stages/assign.DecodeVerifyReencode``) against a
per-tile oracle built from ``codecs.decode_tile``/``encode_tile``, the PNG
unfilter against the NumPy-scalar loops it replaced, and the libdeflate
inflate path against its ``zlib.decompress`` fallback.

Hypothesis runs derandomized, so the suite stays reproducible."""

import ctypes.util
import struct
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

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


def unfilter_row_numpy(ftype, line, prev, bpp):
    """Reverse one Average (3) or Paeth (4) scanline with the per-byte
    loop over NumPy scalars that ``codecs._unfilter`` ran before
    ``_unfilter_row`` (the oracle)."""
    line32 = line.astype(np.int32)
    prev32 = prev.astype(np.int32)
    stride = len(line)
    cur = np.zeros(stride, np.int32)
    for i in range(stride):
        a = cur[i - bpp] if i >= bpp else 0
        b = prev32[i]
        if ftype == 3:
            cur[i] = (line32[i] + (a + b) // 2) & 0xFF
        else:
            c = prev32[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)
            cur[i] = (line32[i] + pred) & 0xFF
    return cur.astype(np.uint8)


def png_filtered(img: np.ndarray, ftypes, level: int = -1, parts: int = 1, cut=None) -> bytes:
    """16-bit gray PNG of ``img`` with scanline r written under filter
    ``ftypes[r]`` (the encoder side of the spec's filters), compressed at
    zlib ``level`` and split into ``parts`` IDAT chunks; ``cut`` edits the
    filtered scanline bytes before they are compressed."""
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
    stream = zlib.compress(bytes(scan) if cut is None else cut(bytes(scan)), level)
    bounds = np.linspace(0, len(stream), parts + 1).astype(int)
    idat = b"".join(codecs._chunk(b"IDAT", stream[a:b]) for a, b in zip(bounds, bounds[1:]))
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    return codecs._PNG_SIG + codecs._chunk(b"IHDR", ihdr) + idat + codecs._chunk(b"IEND", b"")


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

    @pytest.mark.parametrize("bpp", [1, 2, 3, 6])
    @pytest.mark.parametrize("ftype", [3, 4])
    def test_average_and_paeth_match_scalar_loop(self, ftype, bpp):
        rng = np.random.default_rng(10 * ftype + bpp)
        for w in (1, 2, 17):
            h = 6
            scan = rng.integers(0, 256, (h, 1 + w * bpp), dtype=np.uint8)
            scan[:, 0] = ftype
            scan[3, 0] = rng.integers(0, 3)  # a row of another type in between
            assert np.array_equal(codecs._unfilter(scan, h, w * bpp, bpp), unfilter_scalar(scan, h, w * bpp, bpp))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ftype=st.sampled_from([3, 4]), bpp=st.integers(1, 8), data=st.data())
    def test_unfilter_row_matches_numpy_scalar_loop(self, ftype, bpp, data):
        n = data.draw(st.integers(0, 40))
        byte_rows = st.binary(min_size=n, max_size=n)
        line, prev = data.draw(byte_rows), data.draw(byte_rows)
        got = codecs._unfilter_row(ftype, line, prev, bpp)
        want = unfilter_row_numpy(ftype, np.frombuffer(line, np.uint8), np.frombuffer(prev, np.uint8), bpp)
        assert bytes(got) == want.tobytes()

    def test_bad_filter_type(self):
        scan = np.zeros((2, 5), np.uint8)
        scan[1, 0] = 5
        with pytest.raises(ValueError, match="bad PNG filter type 5"):
            codecs._unfilter(scan, 2, 4, 2)


def without_libdeflate(fn, *args):
    """``fn(*args)`` with the libdeflate loader forced to None, so every
    stream inflates through the ``zlib.decompress`` fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codecs, "_libdeflate", lambda: None)
        return fn(*args)


@pytest.fixture(params=["libdeflate", "zlib"])
def inflate_path(request, monkeypatch):
    if request.param == "zlib":
        monkeypatch.setattr(codecs, "_libdeflate", lambda: None)
    return request.param


def png_tile(img, ftypes, lo=-5.0, scale=0.25, **kw) -> bytes:
    """``png`` tile payload of a uint16 image: (lo, scale) header + PNG."""
    return struct.pack("<dd", lo, scale) + png_filtered(img, ftypes, **kw)


def block_of(payloads):
    """(data, offsets) of payloads back to back, as ``decode_block`` takes."""
    data = np.frombuffer(b"".join(payloads), np.uint8)
    return data, np.cumsum([0] + [len(p) for p in payloads])


class TestInflate:
    def test_libdeflate_loads_where_installed(self, monkeypatch):
        """Fails when the system has libdeflate but ``codecs`` does not
        decode through it: a broken load or ctypes signature would
        otherwise fall back to zlib silently and lose the speed-up."""
        if ctypes.util.find_library("deflate") is None:
            pytest.skip("no system libdeflate")
        assert codecs._libdeflate() is not None

        def no_zlib(*args, **kwargs):
            raise AssertionError("inflated through the zlib.decompress fallback")

        monkeypatch.setattr(codecs.zlib, "decompress", no_zlib)
        img = np.arange(6 * 7, dtype=np.uint16).reshape(6, 7) * 1500
        assert np.array_equal(codecs.png_decode(png_filtered(img, [0, 1, 2, 3, 4, 0], parts=2)), img)

    @SET
    @given(seed=st.integers(0, 2**31 - 1), shape=st.sampled_from([(1, 1), (3, 5), (16, 16), (40, 33)]),
           level=st.integers(0, 9), parts=st.integers(1, 4), k=st.integers(1, 4), smooth=st.booleans())
    def test_libdeflate_and_zlib_fallback_agree(self, seed, shape, level, parts, k, smooth):
        rng = np.random.default_rng(seed)
        imgs, payloads = [], []
        for _ in range(k):
            if smooth:  # compresses, so the level matters
                img = np.cumsum(rng.integers(0, 40, shape), axis=1).astype(np.uint16)
            else:
                img = rng.integers(0, 65536, shape, dtype=np.uint16)
            imgs.append(img)
            payloads.append(png_tile(img, rng.integers(0, 5, shape[0]), level=level, parts=parts))
        data, offsets = block_of(payloads)
        got = codecs.decode_block(data, offsets, "png", shape)
        assert got.tobytes() == without_libdeflate(codecs.decode_block, data, offsets, "png", shape).tobytes()
        assert got.tobytes() == np.stack([img * 0.25 - 5.0 for img in imgs]).tobytes()
        for img, p in zip(imgs, payloads):
            assert np.array_equal(codecs.png_decode(p[16:]), img)
            assert np.array_equal(without_libdeflate(codecs.png_decode, p[16:]), img)

    @staticmethod
    def _decoders(payload, shape):
        data, offsets = block_of([payload])
        return [lambda: codecs.png_decode(payload[16:]), lambda: codecs.decode_block(data, offsets, "png", shape)]

    @pytest.mark.parametrize("parts", [1, 3])
    def test_flipped_idat_byte_raises_zlib_error(self, inflate_path, parts):
        img = np.arange(16 * 16, dtype=np.uint16).reshape(16, 16) * 37
        payload = bytearray(png_tile(img, [2] * 16, parts=parts))
        (ln,) = struct.unpack(">I", payload[49:53])
        assert payload[53:57] == b"IDAT"
        payload[57 + ln // 2] ^= 0xFF
        for decode in self._decoders(bytes(payload), (16, 16)):
            with pytest.raises(zlib.error):
                decode()

    def test_cut_stream_raises_zlib_error(self, inflate_path):
        img = np.arange(16 * 16, dtype=np.uint16).reshape(16, 16) * 37
        png = png_filtered(img, [0] * 16)
        (ln,) = struct.unpack(">I", png[33:37])
        assert png[37:41] == b"IDAT"
        cut = png[:33] + codecs._chunk(b"IDAT", png[41 : 41 + ln - 6]) + codecs._chunk(b"IEND", b"")
        for decode in self._decoders(struct.pack("<dd", 0.0, 1.0) + cut, (16, 16)):
            with pytest.raises(zlib.error):
                decode()

    @pytest.mark.parametrize("edit", [lambda s: s[:-33], lambda s: s[:-1], lambda s: s + s[-33:], lambda s: s + b"\0"],
                             ids=["row_short", "byte_short", "row_over", "byte_over"])
    def test_wrong_inflated_size_raises_value_error(self, inflate_path, edit):
        img = np.arange(16 * 16, dtype=np.uint16).reshape(16, 16) * 37
        payload = png_tile(img, [0] * 16, cut=edit)
        for decode in self._decoders(payload, (16, 16)):
            with pytest.raises(ValueError):
                decode()

    def test_threads_decode_as_one(self):
        rng = np.random.default_rng(7)
        shape = (24, 24)
        payloads = [png_tile(rng.integers(0, 65536, shape, dtype=np.uint16), rng.integers(0, 5, 24))
                    for _ in range(12)]
        data, offsets = block_of(payloads)
        want = codecs.decode_block(data, offsets, "png", shape).tobytes()
        used = set()  # (thread id, decompressor address)

        def run():
            out = [codecs.decode_block(data, offsets, "png", shape).tobytes() for _ in range(5)]
            d = getattr(codecs._THREAD, "decompressor", None)
            used.add((threading.get_ident(), d and d.ptr))
            return out

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as ex:
                results = [f.result(timeout=120) for f in [ex.submit(run) for _ in range(16)]]
        finally:
            sys.setswitchinterval(old)
        assert all(r == want for out in results for r in out)
        if codecs._libdeflate() is not None:  # one decompressor per thread, none shared
            ptrs = {ptr for _tid, ptr in used}
            assert None not in ptrs and len(ptrs) == len({tid for tid, _ptr in used})
