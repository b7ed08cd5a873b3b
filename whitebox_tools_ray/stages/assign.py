"""Tile/cell assignment stage — the engine's first `map_batches` hop.

Reads the tile table (image_id, bytes, w, h, fmt, caption, phash, georef)
and appends the partitioning keys every downstream wide op shuffles on:

- ``(tile_row, tile_col, tile_id)`` by the LidarTile rule
  (/root/reference/src/tools/lidar_analysis/lidar_tile.rs:257-281) over a
  :class:`~whitebox_tools_ray.kernels.grid.TileGrid`,
- ``quad_cell`` (S2-analog Morton id) and ``hex_cell`` (H3-analog) of the
  tile CENTER,
- optionally a decode→verify→re-encode pass (:class:`DecodeVerifyReencode`,
  the ConvertRasterFormat analog, data_tools/convert_raster_format.rs).

Zero-copy Arrow in/out (``batch_format="pyarrow"``); no pixel decode
unless requested, so key assignment never touches the heavy ``bytes``
column (it is not even read when ``columns`` pruning is used upstream).

The decode pass runs on the block, not per row: payloads are slices of
the ``bytes`` column's Arrow offsets and data buffers, and runs of rows
sharing (fmt, h, w) decode into float64 chunks of ``CHUNK_BYTES`` (8
tiles of 128²), small enough to keep the stage's memory flat. "Verify"
means the BASELINE.json per-row bar: every re-encoded tile must decode
back to ≥ ``MIN_PSNR_DB`` (40 dB) PSNR against the decoded pixels. The
stored ``phash`` is not recomputed; the class docstring says why.

A q16 re-encode is verified by an error bound first (:func:`q16_cleared`),
from the tile's min ``lo`` and max ``hi``, which the stats already hold.
Let ``peak = fl(hi - lo)``, ``scale = fl(peak / 65535)``, ``u = 2⁻⁵³``
(unit roundoff) and ``ε = 2u``. The encode stores the level
``q = round(fl(fl(x - lo) / scale))`` and the decode returns
``b = fl(fl(q·scale) + lo)``. While every operand and result stays in
the normal range, each ``fl`` is exact up to a factor ``1 + δ`` with
``|δ| ≤ u``, so for a pixel ``x`` in ``[lo, hi]``:

- rounding to the level moves ``x`` by at most ``0.5·scale``;
- the subtract and the divide move ``t·scale`` off ``x - lo`` by at
  most ``2u·peak``, and the multiply ``q·scale`` by at most ``u·peak``;
- the final add is off by at most ``u·max(|lo|, |hi|)``;
- ``t ≤ 65535·(1 + 4u) < 65535.5``, so no level wraps in the u16 cast.

Hence ``|b - x| ≤ 0.5·scale + 3u·peak + u·max(|lo|, |hi|)`` up to
second-order terms (``u²·peak``, ``u·scale``). The stage takes
``E = 0.5·scale + 4ε·peak + 2ε·max(|lo|, |hi|)``: more than twice each
derived coefficient, which covers the second-order terms, the rounding
of ``peak`` against the exact ``hi - lo`` and the rounding of ``E``
itself. PSNR is ``10·log10(peak² / mse)`` with ``mse ≤ E²``, and 40 dB
is an rms error of ``0.01·peak``, so a tile with ``E ≤ 0.005·peak``
decodes back to at least 46 dB: a 2× margin, which also covers the
rounding of the squared-error sum in :func:`codecs.psnr`.

A tile is cleared when ``lo`` and ``hi`` are finite (then so is every
pixel) and either ``peak == 0`` (a constant tile: scale is 1, every
level is 0 and decodes to ``lo`` exactly, and ``psnr`` gives +inf) or
``2⁻⁴⁰⁰ < peak < 2⁴⁰⁰`` and ``E ≤ 0.005·peak``. The range guard is
required: the argument above needs normal-range arithmetic, and the
exact check squares ``peak`` and the error. Near 1e±300 a subnormal
``scale`` loses its relative precision, and ``peak²`` or the squared
error overflows or underflows, so the exact check fails such tiles for
reasons quantization does not cause. On 240,000 random 4×4 tiles
(offsets up to ±1e300, ranges from 1e−320 to 1e300, ranges near
2^±400, constant, subnormal and NaN/±inf tiles), 123,853 of which the
exact check fails, the bound without the guard cleared 54,468 failing
tiles and with it none. Inside the guard ``scale ≥ 2⁻⁴¹⁷`` is normal,
``peak²`` lies in ``[2⁻⁸⁰⁰, 2⁸⁰⁰]``, a cleared tile has
``max(|lo|, |hi|) < 2⁴⁴⁵``, and a squared error that underflows only
raises the exact PSNR.

Every tile the bound does not clear (NaN or ±inf pixels, a range outside
the guard, or an offset around 10¹³ times the tile's range) takes the
exact check: its payload row decodes back with
``codecs.decode_block(..., "q16", shape)`` and :func:`codecs.psnr`
compares it with a copy of its pixels taken before the encode
quantized the block in place. The bound clears a subset of the tiles
the exact check passes, so counts, outputs and strict-mode errors are
the exact check's. Other output formats run the exact check on every
tile.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import cells, codecs
from ..kernels.grid import TileGrid


def tile_center_xy(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """World center of each tile from its georef columns."""
    west = batch["west"].to_numpy(zero_copy_only=False)
    north = batch["north"].to_numpy(zero_copy_only=False)
    res_x = batch["res_x"].to_numpy(zero_copy_only=False)
    res_y = batch["res_y"].to_numpy(zero_copy_only=False)
    w = batch["w"].to_numpy(zero_copy_only=False).astype(np.float64)
    h = batch["h"].to_numpy(zero_copy_only=False).astype(np.float64)
    cx = west + w * res_x / 2.0
    cy = north - h * res_y / 2.0
    return cx, cy


def make_assign_fn(tile_grid: TileGrid, quad_level: int = 12, hex_res: int = 7):
    """Stateless per-batch assigner: appends tile_row2/tile_col2/tile_id,
    quad_cell, hex_cell columns (int64) keyed on tile centers.

    The LidarTile-rule assignment is re-derived from the tile CENTER so it
    is independent of how the generator happened to number tiles — parity
    is asserted against the stored (tile_row, tile_col) in tests.
    """

    def assign(batch: pa.Table) -> pa.Table:
        cx, cy = tile_center_xy(batch)
        trow, tcol, tid = tile_grid.assign(cx, cy)
        qc = cells.quad_cell(cx, cy, quad_level)
        hq, hr = cells.hex_cell(cx, cy, hex_res)
        hc = cells.pack_hex(hq, hr, hex_res)
        return (
            batch.append_column("a_tile_row", pa.array(trow, pa.int64()))
            .append_column("a_tile_col", pa.array(tcol, pa.int64()))
            .append_column("tile_id", pa.array(tid, pa.int64()))
            .append_column("quad_cell", pa.array(qc, pa.int64()))
            .append_column("hex_cell", pa.array(hc, pa.int64()))
        )

    return assign


# float64 bytes of one decode chunk: 8 tiles of 128². Stacking a whole
# 128-tile block instead measured +11-13% tiling peak_pss_mb.
CHUNK_BYTES = 1 << 20

# BASELINE.json's per-row bar for lossy output
MIN_PSNR_DB = 40.0

# q16_cleared's bar: half the rms error MIN_PSNR_DB allows, over peak
BOUND_RATIO = 0.5 * 10.0 ** (-MIN_PSNR_DB / 20.0)

_EPS = float(np.finfo(np.float64).eps)


def q16_cleared(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per tile, True when its q16 re-encode provably decodes back to at
    least ``MIN_PSNR_DB``, from its min ``lo`` and max ``hi`` alone (the
    bound and its range guard are derived in the module docstring).
    False is no failure, only a tile the exact check must decide."""
    with np.errstate(invalid="ignore"):
        peak = hi - lo
        err = 0.5 * (peak / 65535.0) + 4.0 * _EPS * peak + 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        bounded = (peak > 2.0**-400) & (peak < 2.0**400) & (err <= BOUND_RATIO * peak)
        return np.isfinite(lo) & np.isfinite(hi) & ((peak == 0.0) | bounded)


def _binary_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data, offsets) NumPy views of a binary array's buffers: row i is
    ``data[offsets[i]:offsets[i + 1]]``."""
    if arr.null_count:
        raise ValueError("null tile payload")
    _validity, offs, data = arr.buffers()
    otype = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offsets = np.frombuffer(offs, otype)[arr.offset : arr.offset + len(arr) + 1]
    return np.frombuffer(data, np.uint8) if data is not None else np.empty(0, np.uint8), offsets


class DecodeVerifyReencode:
    """Per-batch callable: decode pixels, derive stats, re-encode, and
    verify the re-encode.

    The ConvertRasterFormat analog (data_tools/convert_raster_format.rs:
    read → write). Holds its options (output format, strictness) and the
    verify counts of the batches it ran, so any task can build one, call
    it on tables and read ``counts``.

    Appends ``px_min, px_max, px_mean: float64`` and, when ``out_fmt`` is
    set, replaces ``bytes``/``fmt`` with the re-encoded tiles.

    The batch runs as a block: payloads are read as slices of the
    ``bytes`` column's Arrow buffers, and runs of consecutive rows that
    share (fmt, h, w) decode into float64 chunks of at most
    ``CHUNK_BYTES`` (:func:`codecs.decode_block`). Stats, the q16 encode
    and the verify run over each chunk; the output column is one
    ``BinaryArray`` built from the concatenated payloads.

    Passes over a 16-bit PNG chunk, each one whole-chunk NumPy op:

    - decode: inflate each tile's IDAT into the chunk's scanline buffer
      (libdeflate, see :mod:`~whitebox_tools_ray.kernels.codecs`),
      unfilter the tiles that use filters, then scale the big-endian u16
      pixels straight into the float64 block and add each tile's offset;
    - stats: min, max and mean per tile;
    - verify by bound: :func:`q16_cleared` on the stats' ``min``/``max``;
    - q16 encode: subtract, divide and round in place in the block, then
      cast to u16 straight into the payload rows;
    - exact check, only on the tiles the bound did not clear: decode
      their payload rows back (:func:`codecs.decode_block`) and take
      :func:`codecs.psnr` against a copy of their pixels made before the
      in-place encode, with the peak taken from the stats and the
      squared error summed in one ``einsum`` pass.

    Verify: each re-encoded tile must decode back to at least
    ``MIN_PSNR_DB`` PSNR against its decoded pixels. The bound clears a
    finite tile whose range is neither tiny, huge, nor dwarfed by its
    offset (module docstring); every other tile takes the exact check,
    which catches NaN or inf pixels (q16 quantizes them to garbage) and
    ranges whose squares overflow or underflow. A failing tile
    raises under ``strict``; otherwise it keeps its input ``bytes`` and
    ``fmt`` and counts in ``counts["reencode_psnr_failed"]``. A tile whose
    codec is not implemented (a non-baseline jpeg) raises under
    ``strict``; otherwise its stats are NaN, it keeps its input and counts
    in ``counts["undecodable"]``. Corrupt payloads raise in both modes.

    The stored ``phash`` is not recomputed as a check: it is hashed from
    the float grid before quantization, so a near-lossless decode moves
    it. On the bench scene 113 of 128 tiles hash differently after a
    107 dB 16-bit PNG decode, by 2–26 bits, so equality is no check and
    no bit-distance threshold separates good tiles from bad ones.
    """

    def __init__(self, out_fmt: str | None = None, strict: bool = True):
        self.out_fmt = out_fmt
        self.strict = strict
        self.counts = {"undecodable": 0, "reencode_psnr_failed": 0}

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        fmts = batch["fmt"].to_numpy(zero_copy_only=False)
        stats = np.full((3, n), np.nan)  # min, max, mean
        keep = np.zeros(n, bool)  # rows that keep their input payload
        lengths = np.zeros(n, np.int64)
        pieces: list[np.ndarray] = []  # output payload bytes, row order
        row0 = 0
        for arr in batch["bytes"].chunks:
            m = len(arr)
            if not m:
                continue
            data, offsets = _binary_buffers(arr)
            shapes = [codecs.block_shape(data[offsets[i] : offsets[i + 1]], fmts[row0 + i]) for i in range(m)]
            i = 0
            while i < m:
                fmt, shape = fmts[row0 + i], shapes[i]
                # a tile only decode_tile reads is a chunk of its own
                cap = 1 if shape is None else max(1, CHUNK_BYTES // max(1, 8 * shape[0] * shape[1]))
                j = i + 1
                while j < min(m, i + cap) and shapes[j] == shape and fmts[row0 + j] == fmt:
                    j += 1
                self._chunk(data, offsets[i : j + 1], fmt, shape, row0 + i, stats, keep, lengths, pieces)
                i = j
            row0 += m
        t = (
            batch.append_column("px_min", pa.array(stats[0]))
            .append_column("px_max", pa.array(stats[1]))
            .append_column("px_mean", pa.array(stats[2]))
        )
        if self.out_fmt is None:
            return t
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1] > np.iinfo(np.int32).max:
            raise pa.ArrowCapacityError(f"{offsets[-1]} re-encoded bytes overflow a binary column")
        data = np.concatenate(pieces) if pieces else np.empty(0, np.uint8)
        out = pa.BinaryArray.from_buffers(
            pa.binary(), n, [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)])
        t = t.set_column(t.schema.get_field_index("bytes"), "bytes", out)
        return t.set_column(t.schema.get_field_index("fmt"), "fmt",
                            pa.array(np.where(keep, fmts, self.out_fmt), pa.string()))

    def _chunk(self, data, offsets, fmt, shape, r, stats, keep, lengths, pieces) -> None:
        """Decode, stat, re-encode and verify rows ``r..r+k-1``."""
        k = len(offsets) - 1
        rows = slice(r, r + k)
        lengths[rows] = np.diff(offsets)
        try:
            if shape is None:
                block = codecs.decode_tile(data[offsets[0] : offsets[1]].tobytes(), fmt)[None]
            else:
                block = codecs.decode_block(data, offsets, fmt, shape)
        except NotImplementedError:
            if self.strict:
                raise
            # only a one-tile chunk (shape None: jpeg) reaches here
            self.counts["undecodable"] += k
            keep[rows] = True
            pieces.append(data[offsets[0] : offsets[-1]])
            return
        flat = block.reshape(k, -1)
        lo, hi = flat.min(axis=1), flat.max(axis=1)
        stats[:, rows] = lo, hi, flat.mean(axis=1)
        if self.out_fmt is None:
            return
        if self.out_fmt == "q16":
            ok = q16_cleared(lo, hi)
            check = np.flatnonzero(~ok)
            ref = block[check]  # a copy: the encode quantizes block in place
            enc = codecs.q16_encode_block(block, lo, hi)
            if len(check):
                redo = enc[check]
                back = codecs.decode_block(redo.reshape(-1), np.arange(len(check) + 1) * redo.shape[1], "q16",
                                           block.shape[1:])
        else:
            ok = np.zeros(k, bool)
            check = np.arange(k)
            ref = block
            enc = [np.frombuffer(codecs.encode_tile(g, self.out_fmt), np.uint8) for g in block]
            back = np.stack([codecs.decode_tile(e.tobytes(), self.out_fmt) for e in enc])
        if len(check):
            db = codecs.psnr(ref, back, (hi - lo)[check])
            passed = db >= MIN_PSNR_DB
            ok[check] = passed
            if self.strict and not passed.all():
                bad = int(np.flatnonzero(~passed)[0])
                raise ValueError(f"row {r + check[bad]}: {fmt} tile re-encoded to {self.out_fmt} at {db[bad]:.1f} dB "
                                 f"PSNR, below {MIN_PSNR_DB}")
        self.counts["reencode_psnr_failed"] += int(k - ok.sum())
        keep[rows] = ~ok
        for j in range(k):
            if ok[j]:
                pieces.append(enc[j])
                lengths[r + j] = len(enc[j])
            else:
                pieces.append(data[offsets[j] : offsets[j + 1]])


def assign_tiles(
    ds,
    tile_grid: TileGrid,
    quad_level: int = 12,
    hex_res: int = 7,
    batch_size: int = 256,
):
    """Dataset → Dataset with assignment keys appended (no pixel decode)."""
    return ds.map_batches(
        make_assign_fn(tile_grid, quad_level, hex_res),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
