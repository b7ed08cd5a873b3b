"""Vector → raster burn-in: lines (Bresenham-style) and polygons
(scanline cell-center fill).

Reference semantics:
- VectorLinesToRaster (data_tools/vector_lines_to_raster.rs): for every
  line segment, burn the field value into each cell the segment passes
  through (the reference steps sub-cell increments along the segment —
  equivalent to a conservative Bresenham); later records overwrite.
- VectorPolygonsToRaster (data_tools/vector_polygons_to_raster.rs):
  scanline fill — a cell takes the record's value when its CENTER is
  inside the polygon (same winding/hole semantics as
  ClipRasterToPolygon); later records overwrite (record order).

Ray-Data design: geometry broadcasts; the tile table streams; each tile
burns only the records whose bbox touches its window. Polygon rings
broadcast as scanline runs over the whole scene (``geometry.ring_runs``,
built once on the driver), and the fill runs as stateless ``map_batches``
tasks that read them through the per-worker cache
(``broadcast.get_cached``). The background is ``background`` (default
nodata).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import codecs, geometry
from ..sources.vectors import part_slices, record_is_hole
from .broadcast import get_cached


def _burn_segment(grid: np.ndarray, gs, tile_r0: int, tile_c0: int, x0, y0, x1, y1, value: float):
    """Burn cells along one segment into a tile window (sub-cell stepping
    like the reference: half-cell increments guarantee coverage)."""
    h, w = grid.shape
    seg_len = float(np.hypot(x1 - x0, y1 - y0))
    step = min(gs.res_x, gs.res_y) / 2.0
    n = max(int(seg_len / step) + 1, 2)
    t = np.linspace(0.0, 1.0, n)
    xs = x0 + (x1 - x0) * t
    ys = y0 + (y1 - y0) * t
    cols = gs.col_from_x(xs) - tile_c0
    rows = gs.row_from_y(ys) - tile_r0
    ok = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    grid[rows[ok], cols[ok]] = value


def lines_to_raster(
    tiles_ds,
    line_table: pa.Table,
    spec,
    field: str | None = None,
    background: float | None = None,
):
    """Burn a line layer into the scene's tiles. ``field`` column holds
    the burn value (default: record_id)."""
    import ray

    gs = spec.grid_spec()
    recs = []
    cols = line_table.to_pydict()
    for i in range(line_table.num_rows):
        parts = np.asarray(cols["parts"][i], dtype=np.int64)
        xs = np.asarray(cols["xs"][i], dtype=np.float64)
        ys = np.asarray(cols["ys"][i], dtype=np.float64)
        val = float(cols[field][i]) if field else float(cols["record_id"][i])
        segs = []
        for first, last in part_slices(parts, len(xs)):
            segs.append((xs[first : last + 1], ys[first : last + 1]))
        recs.append((val, segs, xs.min(), xs.max(), ys.min(), ys.max()))
    ref = ray.put(recs)
    bg = gs.nodata if background is None else background
    tpx = spec.tile_px

    class Burn:
        def __init__(self):
            self.recs = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            blobs = []
            trows = batch["tile_row"].to_numpy(zero_copy_only=False)
            tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
            for i in range(batch.num_rows):
                r0, c0 = int(trows[i]) * tpx, int(tcols[i]) * tpx
                wx0 = gs.west + c0 * gs.res_x
                wx1 = wx0 + tpx * gs.res_x
                wy1 = gs.north - r0 * gs.res_y
                wy0 = wy1 - tpx * gs.res_y
                grid = np.full((tpx, tpx), bg, dtype=np.float64)
                for val, segs, bx0, bx1, by0, by1 in self.recs:
                    if bx0 > wx1 or bx1 < wx0 or by0 > wy1 or by1 < wy0:
                        continue
                    for sx, sy in segs:
                        for k in range(len(sx) - 1):
                            _burn_segment(grid, gs, r0, c0, sx[k], sy[k], sx[k + 1], sy[k + 1], val)
                blobs.append(codecs.encode_tile(grid, "f32"))
            t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
            return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(["f32"] * t.num_rows))

    return tiles_ds.map_batches(Burn, batch_format="pyarrow", batch_size=16, concurrency=(1, 4))


def polygons_to_raster(
    tiles_ds,
    poly_table: pa.Table,
    spec,
    field: str | None = None,
    background: float | None = None,
):
    """Cell-center polygon fill with the record's value; later records
    overwrite; holes restore the background (per-record two-phase like
    ClipRasterToPolygon). Each ring's runs span the whole scene: this tool
    has no bbox window truncation."""
    import ray

    gs = spec.grid_spec()
    recs = []
    cols = poly_table.to_pydict()
    for i in range(poly_table.num_rows):
        parts = np.asarray(cols["parts"][i], dtype=np.int64)
        xs = np.asarray(cols["xs"][i], dtype=np.float64)
        ys = np.asarray(cols["ys"][i], dtype=np.float64)
        holes = record_is_hole(parts, xs, ys)
        val = float(cols[field][i]) if field else float(cols["record_id"][i])
        rings = []
        for p, (first, last) in enumerate(part_slices(parts, len(xs))):
            runs = geometry.ring_runs(xs[first : last + 1], ys[first : last + 1], gs, 0, gs.rows, 0, gs.columns)
            rings.append((bool(holes[p]), *runs))
        # non-holes first, then holes (the reference's two-phase order)
        rings.sort(key=lambda r: r[0])
        recs.append((val, rings, xs.min(), xs.max(), ys.min(), ys.max()))
    ref = ray.put(recs)
    bg = gs.nodata if background is None else background
    tpx = spec.tile_px

    def fill(batch: pa.Table) -> pa.Table:
        recs = get_cached(ref)
        blobs = []
        trows = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
        for i in range(batch.num_rows):
            r0, c0 = int(trows[i]) * tpx, int(tcols[i]) * tpx
            grid = np.full((tpx, tpx), bg, dtype=np.float64)
            wx0 = gs.x_from_col(c0) - gs.res_x
            wx1 = gs.x_from_col(c0 + tpx - 1) + gs.res_x
            wy0 = gs.y_from_row(r0 + tpx - 1) - gs.res_y
            wy1 = gs.y_from_row(r0) + gs.res_y
            for val, rings, bx0, bx1, by0, by1 in recs:
                if bx0 > wx1 or bx1 < wx0 or by0 > wy1 or by1 < wy0:
                    continue
                for is_hole, run_rows, run_ks in rings:
                    inside = geometry.runs_mask(run_rows, run_ks, r0, r0 + tpx, c0, c0 + tpx)
                    grid[inside] = bg if is_hole else val
            blobs.append(codecs.encode_tile(grid, "f32"))
        t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
        return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(["f32"] * t.num_rows))

    return tiles_ds.map_batches(fill, batch_format="pyarrow", batch_size=16)
