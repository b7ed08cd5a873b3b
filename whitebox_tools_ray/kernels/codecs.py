"""Tile pixel codecs — encode/decode the ``bytes`` column of the tile table.

The container ships no image libraries (no PIL / cv2 / imageio), so the
engine carries its own minimal codecs, NumPy + zlib only (PNG inflate
takes the system libdeflate when it is installed; see below):

- ``png``  — real PNG (grayscale 8/16-bit, RGB 8-bit): signature + IHDR +
  IDAT(zlib, scanline filters 0-4 on decode, filter 0 on encode) + IEND.
  Lossless → exact pixel parity.
- ``f32``  — raw little-endian float32 grid, zlib-compressed, 8-byte
  header (rows, cols). Lossless for float DEM tiles — the exact-parity
  path for flow accumulation / focal goldens.
- ``q16``  — lossy: float grid affinely quantized to uint16 over
  [min, max], zlib-compressed. Quantization SNR ⪆ 90 dB for smooth
  fields — exercises the PSNR≥40dB acceptance path of BASELINE.json.
- ``jpeg`` — lossy: float grid affinely quantized to uint8 over
  [min, max] (8-byte lo/scale side header) then baseline JFIF via the
  pure-numpy T.81 codec (``kernels/jpeg_codec.py``). Real encode AND
  decode; use for photographic-texture tiles, never for exact-parity
  goldens.

The block forms (:func:`block_shape`, :func:`decode_block`,
:func:`q16_encode_block`) run a chunk of same-shape payloads straight
from an Arrow binary column's data buffer, bit-equal to the per-tile
:func:`decode_tile` / :func:`encode_tile`, which stay as their oracles.
PNG pixels byte-swap once into a native ``uint16`` block, which then
scales into the float64 block; the q16 encode quantizes that block in
place and rounds it straight into the payload rows' pixel bytes, and
builds no decoded grid (a caller that verifies decodes the payload rows
it needs with :func:`decode_block`).

PNG IDAT streams inflate through :func:`_inflate_into`, straight into a
preallocated ``uint8`` array, with the system libdeflate
(``libdeflate_zlib_decompress`` through ``ctypes``: Adler-32 checked,
exact output size required). Tiling PNGs barely compress (a 32.9 KB
128² 16-bit tile into about 30.6 KB), and on them ``zlib.decompress``
was the largest single cost of the decode stage: 264 µs a tile against
libdeflate's 145 µs on a 4-vCPU x86 host. The library is looked up
once per process with ``ctypes.util.find_library("deflate")`` on the
first inflate (the lookup runs ``ldconfig``, so not at import), and
each thread gets its own decompressor, which libdeflate does not allow
to be shared. When the library is absent, or returns anything other
than success at the expected size, the stream is inflated with
``zlib.decompress`` as before, so results and errors are zlib's: a
corrupt stream raises ``zlib.error`` and a stream of the wrong inflated
size ``ValueError``.

Semantics note: decoded pixel grids keep the reference's nodata SENTINEL
convention (compare ``!=``, never Arrow validity masks) — see
/root/reference/src/raster/mod.rs:364-412 and SURVEY.md §1.6.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import struct
import threading
import zlib

import numpy as np

__all__ = [
    "encode_tile", "decode_tile", "png_encode", "png_decode", "psnr",
    "block_shape", "decode_block", "q16_encode_block",
]

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def png_encode(img: np.ndarray) -> bytes:
    """Encode a (h, w) uint8/uint16 or (h, w, 3) uint8 array as PNG."""
    if img.ndim == 2:
        color_type = 0
        if img.dtype == np.uint8:
            bit_depth = 8
            raw = img
        elif img.dtype == np.uint16:
            bit_depth = 16
            raw = img.astype(">u2")
        else:
            raise ValueError(f"unsupported gray dtype {img.dtype}")
    elif img.ndim == 3 and img.shape[2] == 3 and img.dtype == np.uint8:
        color_type = 2
        bit_depth = 8
        raw = img
    else:
        raise ValueError(f"unsupported image shape {img.shape} / dtype {img.dtype}")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    body = raw.tobytes()
    stride = len(body) // h
    scan = bytearray()
    for r in range(h):
        scan.append(0)  # filter type 0 (None)
        scan += body[r * stride : (r + 1) * stride]
    idat = zlib.compress(bytes(scan), 6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _unfilter_row(ftype: int, line: bytes, prev: bytes, bpp: int) -> bytearray:
    """Reverse one Average (3) or Paeth (4) scanline. Each byte depends
    on the one ``bpp`` to its left, so this is a left-to-right loop over
    Python ints on ``bytes`` (NumPy scalars cost ~10x more per byte)."""
    cur = bytearray(line)
    n = len(cur)
    if ftype == 3:
        for i in range(min(bpp, n)):
            cur[i] = (cur[i] + (prev[i] >> 1)) & 0xFF
        for i in range(bpp, n):
            cur[i] = (cur[i] + ((cur[i - bpp] + prev[i]) >> 1)) & 0xFF
        return cur
    for i in range(min(bpp, n)):  # a = c = 0: Paeth predicts b
        cur[i] = (cur[i] + prev[i]) & 0xFF
    for i in range(bpp, n):
        a, b, c = cur[i - bpp], prev[i], prev[i - bpp]
        # |p - a|, |p - b|, |p - c| for p = a + b - c
        pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
        if pa <= pb and pa <= pc:
            cur[i] = (cur[i] + a) & 0xFF
        elif pb <= pc:
            cur[i] = (cur[i] + b) & 0xFF
        else:
            cur[i] = (cur[i] + c) & 0xFF
    return cur


def _unfilter(scan: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse PNG scanline filters 0-4. ``scan`` is (h, 1+stride) uint8.

    None, Sub and Up are whole-row NumPy ops (uint8 arithmetic wraps
    mod 256 as the spec's does); Average and Paeth run
    :func:`_unfilter_row`."""
    ftypes = scan[:, 0]
    if not ftypes.any():  # all filter 0 (what png_encode writes) — no-op
        return np.ascontiguousarray(scan[:, 1:])
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, np.uint8)
    for r in range(h):
        ftype = int(scan[r, 0])
        line = scan[r, 1:]
        if ftype == 0:
            out[r] = line
        elif ftype == 1:  # Sub: a running sum per byte lane of the pixel
            out[r] = np.cumsum(line.reshape(-1, bpp), axis=0, dtype=np.uint8).reshape(-1)
        elif ftype == 2:  # Up
            out[r] = line + prev
        elif ftype in (3, 4):
            out[r] = np.frombuffer(_unfilter_row(ftype, line.tobytes(), prev.tobytes(), bpp), np.uint8)
        else:
            raise ValueError(f"bad PNG filter type {ftype}")
        prev = out[r]
    return out


@functools.cache
def _libdeflate():
    """The system libdeflate with its decompress API declared, or None
    when it is absent. Looked up once per process."""
    name = ctypes.util.find_library("deflate")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
    except OSError:
        return None
    lib.libdeflate_alloc_decompressor.argtypes = []
    lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
    lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
    lib.libdeflate_free_decompressor.restype = None
    # (decompressor, in, in_nbytes, out, out_nbytes_avail, actual_out_nbytes_ret)
    lib.libdeflate_zlib_decompress.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
                                               ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
    lib.libdeflate_zlib_decompress.restype = ctypes.c_int
    return lib


class _Decompressor:
    """One libdeflate decompressor, freed with its owner thread's locals."""

    def __init__(self, lib):
        self.lib = lib
        self.ptr = lib.libdeflate_alloc_decompressor()
        if not self.ptr:
            raise MemoryError("libdeflate_alloc_decompressor failed")

    def __del__(self):
        self.lib.libdeflate_free_decompressor(self.ptr)


_THREAD = threading.local()  # .decompressor: this thread's _Decompressor


def _inflate_into(stream, out: np.ndarray) -> None:
    """Inflate the zlib ``stream`` (any bytes-like object) into ``out``,
    a C-contiguous uint8 array it must fill exactly. libdeflate when it
    loads and succeeds; otherwise ``zlib.decompress``, whose errors
    (``zlib.error``, or ``ValueError`` on a size mismatch) propagate."""
    if out.dtype != np.uint8 or not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("inflate target must be a writable C-contiguous uint8 array")
    lib = _libdeflate()
    if lib is not None:
        d = getattr(_THREAD, "decompressor", None)
        if d is None:
            d = _THREAD.decompressor = _Decompressor(lib)
        src = np.frombuffer(stream, np.uint8)
        # LIBDEFLATE_SUCCESS is 0; a NULL actual-size pointer makes any
        # size other than out.size an error
        if lib.libdeflate_zlib_decompress(d.ptr, src.ctypes.data, src.size, out.ctypes.data, out.size, None) == 0:
            return
    raw = zlib.decompress(stream, bufsize=out.size)
    if len(raw) != out.size:
        raise ValueError(f"zlib stream inflates to {len(raw)} bytes, expected {out.size}")
    out.reshape(-1)[:] = np.frombuffer(raw, np.uint8)


def _png_idat(data) -> tuple[int, int, int, int, bytes | memoryview]:
    """Parse a non-interlaced gray/RGB PNG from any bytes-like object:
    (h, w, bit_depth, channels, zlib stream of its IDAT chunks)."""
    data = memoryview(data)
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = bit_depth = color_type = None
    idat = []
    while pos < len(data):
        (ln,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, bit_depth, color_type, _comp, _filt, interlace = struct.unpack(">IIBBBBB", payload)
            if interlace:
                raise ValueError("interlaced PNG unsupported")
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if color_type == 0:
        channels = 1
    elif color_type == 2:
        channels = 3
    else:
        raise ValueError(f"unsupported color type {color_type}")
    return h, w, bit_depth, channels, idat[0] if len(idat) == 1 else b"".join(idat)


def png_decode(data: bytes) -> np.ndarray:
    """Decode the subset of PNG produced by :func:`png_encode` (plus any
    filter types and non-interlaced gray/RGB images)."""
    h, w, bit_depth, channels, stream = _png_idat(data)
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    scan = np.empty((h, 1 + stride), np.uint8)  # a filter byte per scanline
    _inflate_into(stream, scan)
    flat = _unfilter(scan, h, stride, bpp)
    if bit_depth == 8:
        img = flat.reshape(h, w, channels) if channels > 1 else flat.reshape(h, w)
    else:
        img = flat.reshape(h, stride).view(">u2").astype(np.uint16).reshape(h, w)
    return img


# --- tile-level codecs over float64 grids ---


def _f32_encode(grid: np.ndarray) -> bytes:
    # raw little-endian payload: zlib on float mantissas was measured at
    # 2.3 ms/128² tile for a 14% size win — the parquet writer's column
    # compression covers storage, so the hot path ships raw bytes
    h, w = grid.shape
    return struct.pack("<II", h, w) + np.ascontiguousarray(grid, dtype="<f4").tobytes()


def _f32_decode(data: bytes) -> np.ndarray:
    h, w = struct.unpack("<II", data[:8])
    payload = data[8:]
    if len(payload) != h * w * 4:  # legacy zlib-compressed payload
        payload = zlib.decompress(payload)
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(h, w)


def _q16_encode(grid: np.ndarray) -> bytes:
    # raw quantized payload — zlib on the 16-bit plane was measured to
    # save <2% (high-entropy low bits) at ~1 ms/tile; parquet column
    # compression covers storage
    h, w = grid.shape
    lo = float(np.min(grid))
    hi = float(np.max(grid))
    scale = (hi - lo) / 65535.0 if hi > lo else 1.0
    q = np.round((grid - lo) / scale).astype("<u2")
    return struct.pack("<IIdd", h, w, lo, scale) + q.tobytes()


def _q16_decode(data: bytes) -> np.ndarray:
    h, w, lo, scale = struct.unpack("<IIdd", data[:24])
    payload = data[24:]
    if len(payload) != h * w * 2:  # legacy zlib-compressed payload
        payload = zlib.decompress(payload)
    q = np.frombuffer(payload, dtype="<u2").astype(np.float64)
    return (q * scale + lo).reshape(h, w)


def _i8_encode(grid: np.ndarray) -> bytes:
    h, w = grid.shape
    return struct.pack("<II", h, w) + zlib.compress(grid.astype(np.int8).tobytes(), 1)


def _i8_decode(data: bytes) -> np.ndarray:
    h, w = struct.unpack("<II", data[:8])
    return np.frombuffer(zlib.decompress(data[8:]), dtype=np.int8).reshape(h, w).copy()


def encode_tile(grid: np.ndarray, fmt: str) -> bytes:
    """Encode a float64 (h, w) pixel grid into the tile ``bytes`` payload."""
    if fmt == "f32":
        return _f32_encode(grid)
    if fmt == "f64":
        # exact float64 payload (label grids / large integer ids that
        # exceed f32's 2^24 integer range)
        h, w = grid.shape
        return struct.pack("<II", h, w) + np.ascontiguousarray(grid, dtype="<f8").tobytes()
    if fmt == "i8":
        return _i8_encode(grid)
    if fmt == "q16":
        return _q16_encode(grid)
    if fmt == "png":
        # losslessly store float grids scaled into uint16 with a side header
        lo = float(np.min(grid))
        hi = float(np.max(grid))
        scale = (hi - lo) / 65535.0 if hi > lo else 1.0
        q = np.round((grid - lo) / scale).astype(np.uint16)
        return struct.pack("<dd", lo, scale) + png_encode(q)
    if fmt == "jpeg":
        # LOSSY: grid scaled into uint8 with a side header; baseline
        # JFIF via the pure-numpy codec (kernels/jpeg_codec.py)
        from . import jpeg_codec

        lo = float(np.min(grid))
        hi = float(np.max(grid))
        scale = (hi - lo) / 255.0 if hi > lo else 1.0
        q = np.round((grid - lo) / scale).astype(np.uint8)
        return struct.pack("<dd", lo, scale) + jpeg_codec.jpeg_encode(q, quality=92)
    raise ValueError(f"unknown tile format {fmt!r}")


def decode_tile(data: bytes, fmt: str) -> np.ndarray:
    """Decode a tile payload into a float64 (h, w) grid."""
    if fmt == "f32":
        return _f32_decode(data)
    if fmt == "f64":
        h, w = struct.unpack("<II", data[:8])
        return np.frombuffer(data[8:], dtype="<f8").reshape(h, w).copy()
    if fmt == "i8":
        return _i8_decode(data).astype(np.float64)
    if fmt == "q16":
        return _q16_decode(data)
    if fmt == "png":
        lo, scale = struct.unpack("<dd", data[:16])
        q = png_decode(data[16:]).astype(np.float64)
        return q * scale + lo
    if fmt == "jpeg":
        from . import jpeg_codec

        lo, scale = struct.unpack("<dd", data[:16])
        q = jpeg_codec.jpeg_decode(data[16:]).astype(np.float64)
        return q * scale + lo
    raise ValueError(f"unknown tile format {fmt!r}")


# --- block codecs: runs of same-shape payloads straight from an Arrow
# binary column's data buffer, one float64 (k, h, w) block at a time ---

# fmt -> (header bytes, pixel dtype) of the uncompressed payloads
_RAW = {"f32": (8, "<f4"), "f64": (8, "<f8"), "q16": (24, "<u2")}


def block_shape(payload, fmt: str) -> tuple[int, int] | None:
    """(h, w) of a tile payload that :func:`decode_block` stacks, read
    from its header alone; None for one only :func:`decode_tile` reads
    (jpeg, zlib-compressed legacy f32/q16, PNG other than 16-bit gray,
    unknown fmt, a truncated header)."""
    n = len(payload)
    if fmt in _RAW:
        hdr, dtype = _RAW[fmt]
        if n < hdr:
            return None
        h, w = struct.unpack_from("<II", payload)
        return (h, w) if n == hdr + h * w * np.dtype(dtype).itemsize else None
    if fmt == "i8":
        return struct.unpack_from("<II", payload) if n >= 8 else None
    if fmt == "png":
        # (lo, scale) side header, signature, then IHDR, which the PNG
        # spec requires first
        if n < 45 or bytes(payload[16:24]) != _PNG_SIG or bytes(payload[28:32]) != b"IHDR":
            return None
        w, h, bit_depth, color_type, _comp, _filt, interlace = struct.unpack_from(">IIBBBBB", payload, 32)
        return (h, w) if (bit_depth, color_type, interlace) == (16, 0, 0) else None
    return None


def decode_block(data: np.ndarray, offsets: np.ndarray, fmt: str, shape: tuple[int, int]) -> np.ndarray:
    """Decode payloads ``data[offsets[j]:offsets[j + 1]]`` of one ``fmt``
    whose :func:`block_shape` is ``shape`` into a (k, h, w) float64
    block, bit-equal to stacking :func:`decode_tile` of each.

    ``data`` is a uint8 buffer holding the payloads back to back, as an
    Arrow binary column's data buffer does. Uncompressed formats are one
    strided view of it; PNG inflates tile by tile, then unfilters,
    byte-swaps and scales the whole block; i8 goes through
    :func:`decode_tile`."""
    k = len(offsets) - 1
    if fmt in _RAW:
        hdr, dtype = _RAW[fmt]
        # equal-length payloads back to back: one (k, payload) matrix
        rows = data[offsets[0] : offsets[-1]].reshape(k, -1)
        pixels = rows[:, hdr:].view(dtype).reshape(k, *shape)
        if fmt != "q16":
            return pixels.astype(np.float64)
        lo, scale = np.ascontiguousarray(rows[:, 8:24]).view("<f8").T
        block = np.multiply(pixels, scale[:, None, None])
        block += lo[:, None, None]
        return block
    if fmt == "png":
        h, w = shape
        scan = np.empty((k, h, 1 + 2 * w), np.uint8)
        lo_scale = np.empty((k, 2))
        for j in range(k):
            payload = data[offsets[j] : offsets[j + 1]]
            lo_scale[j] = struct.unpack_from("<dd", payload)
            _inflate_into(_png_idat(payload[16:])[4], scan[j])
        for j in np.flatnonzero(scan[:, :, 0].any(axis=1)):
            scan[j, :, 1:] = _unfilter(scan[j], h, 2 * w, 2)
        # one byte-swapping copy, then a native multiply: cheaper than
        # multiplying the strided big-endian view
        pixels = np.empty((k, h, w), np.uint16)
        np.copyto(pixels, scan[:, :, 1:].view(">u2"))
        block = np.multiply(pixels, lo_scale[:, 1, None, None])
        block += lo_scale[:, 0, None, None]
        return block
    block = np.empty((k, *shape))
    for j in range(k):
        block[j] = decode_tile(data[offsets[j] : offsets[j + 1]].tobytes(), fmt)
    return block


def q16_encode_block(block: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`encode_tile` to ``q16`` over a (k, h, w) float64 block whose
    tiles have minima ``lo`` and maxima ``hi``.

    Returns the payloads as a (k, 24 + 2hw) uint8 matrix, row j
    byte-equal to ``encode_tile(block[j], "q16")``. Quantizes in place:
    ``block`` is overwritten (subtract, divide, round) and holds the
    rounded quantization levels on return, so a caller that still needs
    the pixels copies them first. Non-finite pixels quantize to
    arbitrary values; decoding the payload rows
    (:func:`decode_block`) exposes them."""
    k, h, w = block.shape
    out = np.empty((k, 24 + 2 * h * w), np.uint8)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(hi > lo, (hi - lo) / 65535.0, 1.0)
        block -= lo[:, None, None]
        block /= scale[:, None, None]
        np.round(block, out=block)
        # rounding casts straight into the payload rows' pixel bytes
        np.copyto(out[:, 24:].view("<u2"), block.reshape(k, -1), casting="unsafe")
    head = np.empty(k, dtype=[("h", "<u4"), ("w", "<u4"), ("lo", "<f8"), ("scale", "<f8")])
    head["h"], head["w"], head["lo"], head["scale"] = h, w, lo, scale
    out[:, :24] = head.view(np.uint8).reshape(k, 24)
    return out


def psnr(ref: np.ndarray, test: np.ndarray, peak=None):
    """Peak signal-to-noise ratio in dB over the ref grid's dynamic range.
    Reduces over the last two axes, so a (k, h, w) stack of grids gives
    one value per grid. NaN when either grid holds a NaN. ``peak``, when
    given, is that range (max - min of each ref grid) already computed.

    The squared error sums in one ``einsum`` pass, so the value can
    differ from a sum-then-mean in the last ulp."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if peak is None:
            peak = np.max(ref, axis=(-2, -1)) - np.min(ref, axis=(-2, -1))
        err = ref - test
        mse = np.einsum("...ij,...ij->...", err, err) / (err.shape[-2] * err.shape[-1])
        peak = np.where(peak == 0.0, 1.0, peak)
        db = 10.0 * np.log10(peak * peak / mse)
    return float(db) if db.ndim == 0 else db


def tile_row_table(tr: int, tc: int, blob: bytes, fmt: str, **extra):
    """One-row tile table in the canonical block shape: Arrow, int32
    keys. Every stage that emits per-tile rows goes through this so
    Ray's schema dedup / operator fusion sees ONE schema across the
    whole pipeline (mixed int32/int64 keys and pandas blocks defeat
    both and spam `unify_schemas` warnings on every reduce)."""
    import pyarrow as pa

    cols = {
        "tile_row": pa.array([int(tr)], pa.int32()),
        "tile_col": pa.array([int(tc)], pa.int32()),
        "bytes": pa.array([blob], pa.binary()),
        "fmt": pa.array([fmt], pa.string()),
    }
    for k, v in extra.items():
        cols[k] = pa.array([v])
    return pa.table(cols)


def tile_table(trs, tcs, blobs, fmts, **extra):
    """Multi-row variant of :func:`tile_row_table` (same canon)."""
    import pyarrow as pa

    cols = {
        "tile_row": pa.array(np.asarray(trs, dtype=np.int32), pa.int32()),
        "tile_col": pa.array(np.asarray(tcs, dtype=np.int32), pa.int32()),
        "bytes": pa.array(list(blobs), pa.binary()),
        "fmt": pa.array(list(fmts), pa.string()),
    }
    for k, v in extra.items():
        cols[k] = pa.array(v)
    return pa.table(cols)
