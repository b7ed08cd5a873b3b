"""Raster↔vector conversions.

- ``raster_to_vector_points`` — /root/reference/src/tools/data_tools/
  raster_to_vector_points.rs:209-229: row-major scan; every cell with
  ``z != 0 && z != nodata`` emits a Point at the CELL CENTER with
  attributes FID (1-based running count in scan order) and VALUE. The
  distributed FID uses the order-index utility on the scan key
  ``row * columns + col`` (SURVEY.md §7 exact-FID note).
- ``vector_points_to_raster`` — data_tools/vector_points_to_raster.rs:
  point burn-in with collision policy first/last/min/max/sum; cell by the
  floor rule. Expressed as a groupby-aggregate on cell id (**SJ+GBA**).
- ``raster_to_vector_lines`` — data_tools/raster_to_vector_lines.rs:
  boundaries between differing cell values, one 1-cell halo pass, then
  segments stitched into polylines by ``overlay.merge_line_segments``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs
from .ordering import zip_with_order_index


class _TilePointsEmitter:
    """Per-tile flat map: decode, emit (scan_key, x, y, VALUE) rows."""

    def __init__(self, scene_spec):
        self.spec = scene_spec
        self.gs = scene_spec.grid_spec()

    def __call__(self, batch: pa.Table) -> pa.Table:
        tpx = self.spec.tile_px
        trows = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        keys: list[np.ndarray] = []
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for i in range(batch.num_rows):
            grid = codecs.decode_tile(blobs[i], fmts[i])
            h, w = grid.shape
            hit = (grid != 0.0) & (grid != self.gs.nodata)
            if not hit.any():
                continue
            lr, lc = np.nonzero(hit)
            gr = lr + int(trows[i]) * tpx
            gc = lc + int(tcols[i]) * tpx
            keys.append(gr * self.gs.columns + gc)
            xs.append(self.gs.x_from_col(gc))
            ys.append(self.gs.y_from_row(gr))
            vals.append(grid[hit])
        if not keys:
            return pa.table(
                {
                    "scan_key": pa.array([], pa.int64()),
                    "x": pa.array([], pa.float64()),
                    "y": pa.array([], pa.float64()),
                    "VALUE": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "scan_key": pa.array(np.concatenate(keys), pa.int64()),
                "x": pa.array(np.concatenate(xs), pa.float64()),
                "y": pa.array(np.concatenate(ys), pa.float64()),
                "VALUE": pa.array(np.concatenate(vals), pa.float64()),
            }
        )


def raster_to_vector_points(tiles_ds, scene_spec, concurrency=(1, 4), assign_fid: bool = True):
    """Tile table → point Dataset (FID, x, y, VALUE) in exact scan order."""
    pts = tiles_ds.map_batches(
        _TilePointsEmitter,
        fn_constructor_args=(scene_spec,),
        batch_format="pyarrow",
        batch_size=32,
        concurrency=concurrency,
    )
    if assign_fid:
        pts = zip_with_order_index(pts, "scan_key", index_col="FID", start=1)
    return pts


_COLLISIONS = ("first", "last", "min", "max", "sum")


def vector_points_to_raster(
    points_ds,
    gs,
    field: str = "value",
    collision: str = "last",
    background: float | None = None,
    x_col: str = "x",
    y_col: str = "y",
):
    """Burn points into cells of grid ``gs`` with a collision policy.

    Returns a Dataset of (row, col, VALUE) — the sparse raster form; a
    dense tile writer can consume it. first/last use the point ORDER
    (record order), reproduced via a stable sort on the order column.
    """
    if collision not in _COLLISIONS:
        raise ValueError(f"collision must be one of {_COLLISIONS}")

    def assign_cell(batch: pa.Table) -> pa.Table:
        px = batch[x_col].to_numpy(zero_copy_only=False)
        py = batch[y_col].to_numpy(zero_copy_only=False)
        col = gs.col_from_x(px)
        row = gs.row_from_y(py)
        ok = (row >= 0) & (row < gs.rows) & (col >= 0) & (col < gs.columns)
        t = batch.append_column("__cell", pa.array(row * gs.columns + col, pa.int64()))
        return t.filter(pa.array(ok))

    cells_ds = points_ds.map_batches(assign_cell, batch_format="pyarrow")

    def reduce_group(g: pd.DataFrame) -> pd.DataFrame:
        cell = int(g["__cell"].iloc[0])
        v = g[field]
        if collision == "first":
            g2 = g.sort_values("record_id", kind="mergesort")
            val = float(g2[field].iloc[0])
        elif collision == "last":
            g2 = g.sort_values("record_id", kind="mergesort")
            val = float(g2[field].iloc[-1])
        elif collision == "min":
            val = float(v.min())
        elif collision == "max":
            val = float(v.max())
        else:
            val = float(v.sum())
        return pd.DataFrame(
            {
                "row": [cell // gs.columns],
                "col": [cell % gs.columns],
                "VALUE": [val],
            }
        )

    return cells_ds.groupby("__cell").map_groups(reduce_group, batch_format="pandas")


def raster_to_vector_lines(tiles_ds, scene_spec):
    """RasterToVectorLines (data_tools/raster_to_vector_lines.rs): trace
    the cell-edge boundaries between differing categorical values into
    polylines.

    Engine form: a 1-cell halo exchange (``focal.halo_map``) so each
    tile sees its neighbors' edge cells; every tile emits exactly the
    boundary segments whose LEFT (vertical) / TOP (horizontal) cell it
    owns — cross-tile boundaries included, no duplicates — then chains
    stitch with merge_line_segments (endpoint-key GBA, SURVEY §2.3)."""
    from .focal import halo_map

    gs = scene_spec.grid_spec()
    tpx = scene_spec.tile_px
    nodata = gs.nodata
    tiles_x = scene_spec.tiles_x

    def per_tile(tr: int, tc: int, pad: np.ndarray) -> pa.Table:
        r0, c0 = tr * tpx, tc * tpx
        own = pad[1:-1, 1:-1]
        right = pad[1:-1, 2:]
        below = pad[2:, 1:-1]
        # vertical edges owned by this tile: between own (r,c) and its
        # right neighbor (which may live in the next tile via the halo)
        vr, vc = np.nonzero((own != right) & (own != nodata) & (right != nodata))
        ex = gs.west + (c0 + vc + 1) * gs.res_x
        # horizontal edges owned by this tile: own (r,c) vs cell below
        hr, hc = np.nonzero((own != below) & (own != nodata) & (below != nodata))
        ey = gs.north - (r0 + hr + 1) * gs.res_y
        ax = np.concatenate([ex, gs.west + (c0 + hc) * gs.res_x])
        return pa.table(
            {
                "ax": ax,
                "ay": np.concatenate([gs.north - (r0 + vr) * gs.res_y, ey]),
                "bx": np.concatenate([ex, gs.west + (c0 + hc + 1) * gs.res_x]),
                "by": np.concatenate([gs.north - (r0 + vr + 1) * gs.res_y, ey]),
                "seg_key": (tr * tiles_x + tc) * 10_000_000 + np.arange(len(ax), dtype=np.int64),
            }
        )

    segs = halo_map(tiles_ds, scene_spec, 1, per_tile)

    def to_records(batch: pd.DataFrame) -> pd.DataFrame:
        recs = []
        for _, row in batch.iterrows():
            recs.append(
                {
                    "record_id": int(row["seg_key"]),
                    "parts": [0],
                    "xs": [row["ax"], row["bx"]],
                    "ys": [row["ay"], row["by"]],
                    "x_min": min(row["ax"], row["bx"]),
                    "x_max": max(row["ax"], row["bx"]),
                    "y_min": min(row["ay"], row["by"]),
                    "y_max": max(row["ay"], row["by"]),
                    "name": "",
                    "zone": 0,
                }
            )
        return pd.DataFrame(recs)

    rec_ds = segs.map_batches(to_records, batch_format="pandas")
    from .overlay import merge_line_segments

    return merge_line_segments(rec_ds, snap=1e-6)
