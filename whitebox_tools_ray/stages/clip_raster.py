"""ClipRasterToPolygon / ErasePolygonFromRaster as per-tile mask stages.

Reference semantics (/root/reference/src/tools/gis_analysis/
clip_raster_to_polygon.rs):

- maintain_dimensions mode (:230-403): output starts all-nodata on the
  INPUT grid. Per polygon record, non-hole parts first then hole parts;
  per part, a row/col bbox is derived from the part's vertices via the
  grid's floor transforms, and the scan runs ``starting_row..ending_row``
  EXCLUSIVE of the last row/col (:282,:284 — off-by-one preserved). A
  cell whose CENTER wind-falls in the part is copied in (non-hole) or
  reset to nodata (hole).
- crop mode (:404-620): output grid = input contracted to the polygon
  layer bbox, rows/cols by ``ceil``; same scan over the OUTPUT grid,
  values gathered from the input via world coords.

ErasePolygonFromRaster (erase_polygon_from_raster.rs) is the complement:
output starts as the INPUT and matching non-hole cells become nodata,
hole cells are restored.

Ray-Data design: the driver computes each part's scanline runs once over
its bbox window (``geometry.ring_runs``: per-row toggle columns from edge
crossings, Raptor-style) and broadcasts them (``ray.put``); the tile table
streams through stateless ``map_batches`` tasks that read the broadcast
through the per-worker cache (``broadcast.get_cached``). Each tile turns
its slice of every part's runs into a mask (``geometry.runs_mask``), so no
cell-centre geometry runs per tile. Tiles not intersecting any part bbox
skip decode entirely in clip mode (they are all-nodata) — the pruning
required for 100 TB inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..kernels import codecs, geometry
from ..kernels.grid import GridSpec
from ..sources.vectors import part_slices, record_is_hole
from .broadcast import get_cached


@dataclass
class MaskPart:
    record_pos: int  # polygon record scan position
    is_hole: bool
    xs: np.ndarray  # closed ring
    ys: np.ndarray
    starting_row: int
    ending_row: int  # EXCLUSIVE (reference off-by-one)
    starting_col: int
    ending_col: int  # EXCLUSIVE
    run_rows: np.ndarray  # geometry.ring_runs over the scan window
    run_ks: np.ndarray


def prepare_mask_parts(poly_table: pa.Table, gs: GridSpec) -> list[MaskPart]:
    """Flatten polygons into the reference's two-phase scan list: per
    record, non-hole parts first (in part order), then hole parts
    (clip_raster_to_polygon.rs:246-375). Bbox rows/cols via the grid's
    floor transforms over part vertices (:261-280); each part's scanline
    runs are built once over that exclusive-end window."""
    out: list[MaskPart] = []
    cols = poly_table.to_pydict()
    for i in range(poly_table.num_rows):
        parts = np.asarray(cols["parts"][i], dtype=np.int64)
        xs = np.asarray(cols["xs"][i], dtype=np.float64)
        ys = np.asarray(cols["ys"][i], dtype=np.float64)
        holes = record_is_hole(parts, xs, ys)
        slices = part_slices(parts, len(xs))
        for phase_hole in (False, True):
            for p, (first, last) in enumerate(slices):
                if bool(holes[p]) != phase_hole:
                    continue
                rx = xs[first : last + 1]
                ry = ys[first : last + 1]
                rr = gs.row_from_y(ry)
                cc = gs.col_from_x(rx)
                r0, r1, c0, c1 = int(rr.min()), int(rr.max()), int(cc.min()), int(cc.max())
                run_rows, run_ks = geometry.ring_runs(rx, ry, gs, r0, r1, c0, c1)
                out.append(
                    MaskPart(
                        record_pos=i,
                        is_hole=phase_hole,
                        xs=rx,
                        ys=ry,
                        starting_row=r0,
                        ending_row=r1,
                        starting_col=c0,
                        ending_col=c1,
                        run_rows=run_rows,
                        run_ks=run_ks,
                    )
                )
    return out


def mask_tile(
    grid: np.ndarray,
    tile_r0: int,
    tile_c0: int,
    gs: GridSpec,
    parts: list[MaskPart],
    erase: bool = False,
) -> np.ndarray:
    """Apply the reference scan to one tile window of the scene grid.

    ``grid`` is the decoded (h, w) input tile at scene offset (tile_r0,
    tile_c0). Returns the output tile. Exact parity requires the parts
    list to be in prepare_mask_parts order (records sequential; within a
    record non-holes then holes) — later records overwrite earlier ones
    exactly as the reference's sequential loop does.
    """
    h, w = grid.shape
    if erase:
        out = grid.copy()
    else:
        out = np.full((h, w), gs.nodata, dtype=np.float64)
    for p in parts:
        # intersect the part's (exclusive-end) scan window with this tile
        r0 = max(p.starting_row, tile_r0)
        r1 = min(p.ending_row, tile_r0 + h)
        c0 = max(p.starting_col, tile_c0)
        c1 = min(p.ending_col, tile_c0 + w)
        if r0 >= r1 or c0 >= c1:
            continue
        inside = geometry.runs_mask(p.run_rows, p.run_ks, r0, r1, c0, c1)
        win = np.s_[r0 - tile_r0 : r1 - tile_r0, c0 - tile_c0 : c1 - tile_c0]
        sub = out[win]
        if p.is_hole != erase:
            sub[inside] = gs.nodata
        else:
            sub[inside] = grid[win][inside]
    return out


class _ClipRasterFn:
    """Stateless task body over the tile table: decode → mask → re-encode.
    The parts broadcast is read through the per-worker cache."""

    def __init__(self, parts_ref, parts: list[MaskPart], scene_spec, erase: bool):
        self.parts_ref = parts_ref
        self.spec = scene_spec
        self.gs = scene_spec.grid_spec()
        self.erase = erase
        # tile-level pruning: global bbox over all part windows
        if parts:
            self.any_r0 = min(p.starting_row for p in parts)
            self.any_r1 = max(p.ending_row for p in parts)
            self.any_c0 = min(p.starting_col for p in parts)
            self.any_c1 = max(p.ending_col for p in parts)
        else:
            self.any_r0 = self.any_r1 = self.any_c0 = self.any_c1 = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        tpx = self.spec.tile_px
        trows = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        out_bytes: list[bytes] = []
        for i in range(batch.num_rows):
            r0 = int(trows[i]) * tpx
            c0 = int(tcols[i]) * tpx
            touches = not (
                r0 >= self.any_r1 or r0 + tpx <= self.any_r0 or c0 >= self.any_c1 or c0 + tpx <= self.any_c0
            )
            if not touches and not self.erase:
                # all-nodata tile without decoding
                out_bytes.append(codecs.encode_tile(np.full((tpx, tpx), self.gs.nodata), "f32"))
                continue
            grid = codecs.decode_tile(blobs[i], fmts[i])
            if not touches:
                out_bytes.append(codecs.encode_tile(grid, "f32"))
                continue
            out = mask_tile(grid, r0, c0, self.gs, get_cached(self.parts_ref), erase=self.erase)
            out_bytes.append(codecs.encode_tile(out, "f32"))
        t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(out_bytes, pa.binary()))
        t = t.set_column(
            t.schema.get_field_index("fmt"), "fmt", pa.array(["f32"] * t.num_rows, pa.string())
        )
        return t


def clip_raster_to_polygon(tiles_ds, poly_table: pa.Table, scene_spec, erase: bool = False):
    """maintain_dimensions clip (or erase) of a tiled scene vs polygons.

    Output tile table on the same grid; ``bytes`` re-encoded ``f32``
    (lossless) so golden comparisons are exact.
    """
    import ray

    parts = prepare_mask_parts(poly_table, scene_spec.grid_spec())
    fn = _ClipRasterFn(ray.put(parts), parts, scene_spec, erase)
    return tiles_ds.map_batches(fn, batch_format="pyarrow", batch_size=32)
