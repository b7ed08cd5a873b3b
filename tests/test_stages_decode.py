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
from whitebox_tools_ray.stages.assign import CHUNK_BYTES, MIN_PSNR_DB, DecodeVerifyReencode, q16_cleared

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


def oracle(batch: pa.Table, out_fmt, strict: bool = True) -> tuple[pa.Table, dict]:
    """The stage's output table and counts, tile by tile through
    decode_tile/encode_tile/psnr: a tile whose re-encode decodes back
    below 40 dB keeps its input (or raises the stage's error under
    ``strict``)."""
    stats, blobs, fmts, failed = [], [], [], 0
    for i, (b, f) in enumerate(zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist())):
        g = codecs.decode_tile(b, f)
        stats.append((g.min(), g.max(), g.mean()))
        if out_fmt is None:
            blobs.append(b)
            fmts.append(f)
            continue
        enc = codecs.encode_tile(g, out_fmt)
        db = codecs.psnr(g, codecs.decode_tile(enc, out_fmt))
        if db >= 40.0:
            blobs.append(enc)
            fmts.append(out_fmt)
            continue
        if strict:
            raise ValueError(f"row {i}: {f} tile re-encoded to {out_fmt} at {db:.1f} dB PSNR, below 40.0")
        failed += 1
        blobs.append(b)
        fmts.append(f)
    cols = np.array(stats, dtype=np.float64).reshape(-1, 3).T
    t = (batch.append_column("px_min", pa.array(cols[0]))
         .append_column("px_max", pa.array(cols[1]))
         .append_column("px_mean", pa.array(cols[2])))
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
    t = t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(fmts, pa.string()))
    return t, {"undecodable": 0, "reencode_psnr_failed": failed}


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
        assert got.equals(oracle(batch, out_fmt)[0], check_metadata=True)
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
        assert DecodeVerifyReencode("q16")(batch).equals(oracle(batch, "q16")[0])

    def test_empty_batch(self):
        batch = pa.table({"bytes": pa.array([], pa.binary()), "fmt": pa.array([], pa.string())})
        for out_fmt in (None, "q16"):
            got = DecodeVerifyReencode(out_fmt)(batch)
            assert got.num_rows == 0
            assert got.equals(oracle(batch, out_fmt)[0])

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



def exact_db(g: np.ndarray) -> float:
    """PSNR of one tile's q16 re-encode decoded back, tile by tile."""
    with np.errstate(all="ignore"):
        return codecs.psnr(g, codecs.decode_tile(codecs.encode_tile(g, "q16"), "q16"))


KINDS = ["scaled", "offset_edge", "near_2e400", "constant", "subnormal"]


def adversarial_tile(kind: str, shape, rng, exponent: float, offset: float, holes) -> np.ndarray:
    """One float64 tile that stresses the q16 bound: ``exponent`` sets
    the range (10**exponent, or 2**(±400 + ...) near the range guard),
    ``offset`` shifts it, ``holes`` are (value, flat index) overwrites."""
    u = rng.random(shape)
    if kind == "scaled":
        g = offset + 10.0**exponent * u
    elif kind == "offset_edge":  # offset of 10¹¹–10¹⁶ ranges: the bound's c₂ term decides
        span = 10.0 ** (exponent % 40 - 20)
        g = np.copysign(span * 10.0 ** (11 + exponent % 5), offset) + span * u
    elif kind == "near_2e400":
        g = offset + 2.0 ** (np.copysign(400.0, exponent) + exponent % 4 - 2) * u
    elif kind == "constant":
        g = np.full(shape, offset)
    else:  # a few subnormal steps
        g = np.round(u * 100 - 50) * 5e-324
    for value, at in holes:
        g.flat[at % g.size] = value
    return g


@st.composite
def adversarial_blocks(draw):
    """A (k, h, w) block of adversarial tiles: offsets up to ±1e300,
    ranges from 1e-320 to 1e300, constant and subnormal tiles, NaN and
    ±inf pixels, ranges near 2^±400."""
    k, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiles = []
    for _ in range(k):
        kind = draw(st.sampled_from(KINDS))
        exponent = draw(st.floats(-320.0, 300.0))
        offset = draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-320.0, 300.0))
        holes = draw(st.lists(st.tuples(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 24)),
                              max_size=2))
        tiles.append(adversarial_tile(kind, (h, w), rng, exponent, offset, holes))
    return np.stack(tiles)


def stage_batch(tiles) -> pa.Table:
    """A tile table of exact f64 payloads, so the stage decodes each
    tile's pixels bit for bit."""
    blobs = [codecs.encode_tile(g, "f64") for g in tiles]
    return pa.table({"bytes": pa.array(blobs, pa.binary()), "fmt": ["f64"] * len(blobs)})


class TestVerifyByBound:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(block=adversarial_blocks())
    def test_cleared_tiles_pass_the_exact_check(self, block):
        flat = block.reshape(len(block), -1)
        cleared = q16_cleared(flat.min(axis=1), flat.max(axis=1))
        for g in block[cleared]:
            assert exact_db(g) >= MIN_PSNR_DB

    def test_sweep_of_random_tiles(self):
        """The same decision on 16,000 random 4×4 tiles, vectorized with
        the stage's block forms (bit-equal to the per-tile codecs)."""
        rng = np.random.default_rng(17)
        k = 16_000
        kinds = rng.integers(0, len(KINDS), k)
        exps = rng.uniform(-320, 300, k)
        offs = rng.choice([0.0, 1.0, -1.0], k) * 10.0 ** rng.uniform(-320, 300, k)
        block = np.stack([adversarial_tile(KINDS[kinds[j]], (4, 4), rng, exps[j], offs[j],
                                           [(np.nan, 3)] if j % 50 == 0 else []) for j in range(k)])
        flat = block.reshape(k, -1)
        lo, hi = flat.min(axis=1), flat.max(axis=1)
        cleared = q16_cleared(lo, hi)
        with np.errstate(all="ignore"):
            enc = codecs.q16_encode_block(block.copy(), lo, hi)
            back = codecs.decode_block(enc.reshape(-1), np.arange(k + 1) * enc.shape[1], "q16", (4, 4))
            passed = codecs.psnr(block, back, hi - lo) >= MIN_PSNR_DB
        assert not (cleared & ~passed).any()
        # both sides of the decision are exercised
        assert cleared.sum() > 3000 and (~cleared & passed).sum() > 300 and (~passed).sum() > 3000

    @SET
    @given(kinds=st.lists(st.sampled_from(["smooth", "png", "constant", "offset", "nan", "inf", "tiny",
                                            "huge"]), min_size=1, max_size=12), strict=st.booleans())
    def test_mixed_batch_matches_per_tile_oracle(self, kinds, strict):
        """Tiles the bound clears and tiles only the exact check decides,
        passing and failing, in one batch: output, counts and the strict
        error are the per-tile oracle's."""
        rng = np.random.default_rng(len(kinds))
        blobs, fmts = [], []
        for kind in kinds:
            g = rng.normal(size=(8, 8)).cumsum(axis=1)
            if kind == "constant":
                g[:] = 7.25
            elif kind == "offset":  # 5e13 ranges: beyond the bound, within 40 dB
                g += 5e13 * np.ptp(g)
            elif kind == "nan":
                g[3, 4] = np.nan
            elif kind == "inf":
                g[0, 0] = -np.inf
            elif kind == "tiny":  # ranges below and above the guard
                g *= 1e-125
            elif kind == "huge":  # psnr's squared error overflows: fails
                g *= 1e300
            blobs.append(codecs.encode_tile(g, "png" if kind == "png" else "f64"))
            fmts.append("png" if kind == "png" else "f64")
        batch = pa.table({"bytes": pa.array(blobs, pa.binary()), "fmt": fmts})
        flat = np.stack([codecs.decode_tile(b, f) for b, f in zip(blobs, fmts)]).reshape(len(kinds), -1)
        cleared = q16_cleared(flat.min(axis=1), flat.max(axis=1))
        assert list(cleared) == [k in ("smooth", "png", "constant") for k in kinds]
        dec = DecodeVerifyReencode("q16", strict)
        try:
            want, counts = oracle(batch, "q16", strict)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                dec(batch)
            assert str(got.value) == str(e)
            return
        got = dec(batch)
        stats = ["px_min", "px_max", "px_mean"]  # NaN for NaN tiles, which Table.equals tells apart
        assert got.drop_columns(stats).equals(want.drop_columns(stats), check_metadata=True)
        for c in stats:
            np.testing.assert_array_equal(got[c].to_numpy(), want[c].to_numpy())
        assert dec.counts == counts

    def test_bound_clears_a_png_scene_without_the_exact_check(self, monkeypatch):
        """Every tile of a smooth PNG scene is cleared by the bound, so
        the stage never calls ``codecs.psnr`` on it."""
        rng = np.random.default_rng(5)
        grids = [rng.normal(size=(128, 128)).cumsum(axis=0) * 3.0 + 250.0 for _ in range(19)]
        batch = pa.table({"bytes": pa.array([codecs.encode_tile(g, "png") for g in grids], pa.binary()),
                          "fmt": ["png"] * len(grids)})
        want, counts = oracle(batch, "q16")

        def no_psnr(*args, **kwargs):
            raise AssertionError("the exact check ran on a tile the bound clears")

        monkeypatch.setattr(codecs, "psnr", no_psnr)
        dec = DecodeVerifyReencode("q16", strict=True)
        assert dec(batch).equals(want, check_metadata=True)
        assert dec.counts == counts == {"undecodable": 0, "reencode_psnr_failed": 0}

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
