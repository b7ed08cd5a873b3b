"""Small per-tile raster utilities — nodata management, cell assignment,
integral images, color-composite packing.

Reference tools mirrored (file per function):
- ConvertNodataToZero (data_tools/convert_nodata_to_zero.rs)
- ModifyNoDataValue (data_tools/modify_nodata_value.rs)
- SetNodataValue (data_tools/set_nodata_value.rs — header-only rewrite)
- RasterCellAssignment (gis_analysis/raster_cell_assignment.rs —
  fill cells with row/col/x/y)
- IntegralImage (image_analysis/integral_image.rs — per-tile prefix sums
  with cross-tile row/column offset exchange, the "IT-lite" pattern of
  SURVEY.md §2.6)
- CreateColourComposite / SplitColourComposite (image_analysis/
  create_colour_composite.rs / split_colour_composite.rs — the packed
  (a<<24|b<<16|g<<8|r) float encoding of raster/mod.rs:604-611)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import codecs


def _per_tile(tiles_ds, fn, out_fmt: str = "f32", batch_size: int = 16):
    def mapper(batch: pa.Table) -> pa.Table:
        blobs = []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            nod = batch["nodata"][i].as_py() if "nodata" in batch.schema.names else None
            blobs.append(codecs.encode_tile(fn(g, nod, batch, i), out_fmt))
        t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
        return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array([out_fmt] * t.num_rows))

    return tiles_ds.map_batches(mapper, batch_format="pyarrow", batch_size=batch_size)


def convert_nodata_to_zero(tiles_ds):
    return _per_tile(tiles_ds, lambda g, nod, b, i: np.where(g == nod, 0.0, g))


def modify_nodata_value(tiles_ds, new_nodata: float):
    """Rewrite the sentinel VALUE in the pixels and the metadata column."""

    def mapper(batch: pa.Table) -> pa.Table:
        blobs = []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            nod = batch["nodata"][i].as_py()
            blobs.append(codecs.encode_tile(np.where(g == nod, new_nodata, g), "f32"))
        t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
        t = t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(["f32"] * t.num_rows))
        return t.set_column(
            t.schema.get_field_index("nodata"), "nodata", pa.array([new_nodata] * t.num_rows)
        )

    return tiles_ds.map_batches(mapper, batch_format="pyarrow", batch_size=16)


def set_nodata_value(tiles_ds, nodata: float):
    """Header-only change (set_nodata_value.rs): pixels untouched."""

    def mapper(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("nodata"), "nodata", pa.array([nodata] * batch.num_rows)
        )

    return tiles_ds.map_batches(mapper, batch_format="pyarrow")


def raster_cell_assignment(tiles_ds, spec, what: str = "row"):
    """Fill every cell with its row / column / x / y (scene coords)."""
    gs = spec.grid_spec()
    tpx = spec.tile_px

    def fn(g, nod, batch, i):
        tr = int(batch["tile_row"][i].as_py())
        tc = int(batch["tile_col"][i].as_py())
        rr = np.arange(tr * tpx, tr * tpx + g.shape[0])[:, None].repeat(g.shape[1], 1)
        cc = np.arange(tc * tpx, tc * tpx + g.shape[1])[None, :].repeat(g.shape[0], 0)
        if what == "row":
            out = rr.astype(np.float64)
        elif what == "column":
            out = cc.astype(np.float64)
        elif what == "x":
            out = gs.x_from_col(cc)
        elif what == "y":
            out = gs.y_from_row(rr)
        else:
            raise ValueError(what)
        if nod is not None:
            out = np.where(g != nod, out, nod)
        return out

    return _per_tile(tiles_ds, fn)


def integral_image_ds(tiles_ds, spec):
    """Dataset-native IntegralImage (image_analysis/integral_image.rs) —
    exact scene-wide summed-area table over the tile table.

    Scale shape (the "IT-lite" pattern of SURVEY.md §2.6): pass 1 ships
    only per-tile EDGE VECTORS to the driver — the right column / bottom
    row of each tile's local prefix-sum plus its total, O(n_tiles ·
    tile_px) floats, a 2/tile_px fraction of the scene (1/512 at 1024²
    tiles) — the driver runs the classic prefix-combine over the TILE
    grid (one row-prefix, one column-prefix, one 2-D total prefix);
    pass 2 broadcasts the per-tile (left_sum, up_sum, up_left_total)
    offsets once via ``ray.put`` and every tile recomputes its local
    SAT and adds its three offsets. No tile body ever leaves its task
    and no tile-to-tile shuffle happens at all."""
    import ray

    tpx = spec.tile_px

    def edges(batch: pa.Table) -> pa.Table:
        tids, rights, bottoms, totals = [], [], [], []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            s = np.cumsum(np.cumsum(g.astype(np.float64), axis=0), axis=1)
            tid = int(batch["tile_row"][i].as_py()) * spec.tiles_x + int(batch["tile_col"][i].as_py())
            tids.append(tid)
            rights.append(s[:, -1].tolist())
            bottoms.append(s[-1, :].tolist())
            totals.append(float(s[-1, -1]))
        return pa.table(
            {
                "tid": pa.array(tids, pa.int64()),
                "right_col": pa.array(rights, pa.list_(pa.float64())),
                "bottom_row": pa.array(bottoms, pa.list_(pa.float64())),
                "total": pa.array(totals, pa.float64()),
            }
        )

    et = tiles_ds.map_batches(edges, batch_format="pyarrow").to_pandas()  # O(tiles·tile_px) small
    right = {int(t.tid): np.asarray(t.right_col, dtype=np.float64) for t in et.itertuples()}
    bottom = {int(t.tid): np.asarray(t.bottom_row, dtype=np.float64) for t in et.itertuples()}
    tot_grid = np.zeros((spec.tiles_y, spec.tiles_x))
    for t in et.itertuples():
        tot_grid[int(t.tid) // spec.tiles_x, int(t.tid) % spec.tiles_x] = float(t.total)
    sat_tot = np.cumsum(np.cumsum(tot_grid, axis=0), axis=1)

    offsets: dict[int, list] = {}
    for tr in range(spec.tiles_y):
        acc = np.zeros(tpx)
        for tc in range(spec.tiles_x):
            tid = tr * spec.tiles_x + tc
            offsets[tid] = [acc.copy(), None, 0.0]
            if tid in right:
                acc = acc + right[tid]
    for tc in range(spec.tiles_x):
        acc = np.zeros(tpx)
        for tr in range(spec.tiles_y):
            tid = tr * spec.tiles_x + tc
            offsets[tid][1] = acc.copy()
            if tid in bottom:
                acc = acc + bottom[tid]
    for tid in offsets:
        tr, tc = tid // spec.tiles_x, tid % spec.tiles_x
        if tr > 0 and tc > 0:
            offsets[tid][2] = float(sat_tot[tr - 1, tc - 1])
    ref = ray.put(offsets)

    def apply(batch: pa.Table) -> pa.Table:
        offs = ray.get(ref)
        blobs = []
        for i in range(batch.num_rows):
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            s = np.cumsum(np.cumsum(g.astype(np.float64), axis=0), axis=1)
            tid = int(batch["tile_row"][i].as_py()) * spec.tiles_x + int(batch["tile_col"][i].as_py())
            left, up, ul = offs[tid]
            s += left[: s.shape[0], None]
            s += up[None, : s.shape[1]]
            s += ul
            blobs.append(codecs.encode_tile(s, "f64"))
        t = batch.set_column(batch.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
        return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(["f64"] * t.num_rows))

    return tiles_ds.map_batches(apply, batch_format="pyarrow", batch_size=16)


def create_colour_composite(ds, r_col="r", g_col="g", b_col="b", out_col="composite"):
    """Pack 0-255 channels into the reference's (255<<24|b<<16|g<<8|r)
    float encoding (raster/mod.rs:604-611)."""

    def fn(batch: pa.Table) -> pa.Table:
        r = np.clip(batch[r_col].to_numpy(zero_copy_only=False), 0, 255).astype(np.int64)
        g = np.clip(batch[g_col].to_numpy(zero_copy_only=False), 0, 255).astype(np.int64)
        b = np.clip(batch[b_col].to_numpy(zero_copy_only=False), 0, 255).astype(np.int64)
        packed = ((np.int64(255) << 24) | (b << 16) | (g << 8) | r).astype(np.float64)
        return batch.append_column(out_col, pa.array(packed))

    return ds.map_batches(fn, batch_format="pyarrow")


def split_colour_composite(ds, col="composite"):
    """Inverse of create_colour_composite: unpack r/g/b channels."""

    def fn(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        return (
            batch.append_column("r_out", pa.array((v & 0xFF).astype(np.float64)))
            .append_column("g_out", pa.array(((v >> 8) & 0xFF).astype(np.float64)))
            .append_column("b_out", pa.array(((v >> 16) & 0xFF).astype(np.float64)))
        )

    return ds.map_batches(fn, batch_format="pyarrow")
