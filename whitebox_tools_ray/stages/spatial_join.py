"""Spatial joins: points-in-polygon (Clip/Erase semantics) and
point→tile raster-value gather.

Clip, Point branch (/root/reference/src/tools/gis_analysis/clip.rs:292-363):

- the polygon layer is flattened ONCE into (record, part) order: closed
  ring slice (clip.rs:246-252), bbox, is_hole flag (geometry.rs:305-412);
- per point, ALL parts are scanned in that order; a part whose bbox
  strictly contains the point (bounding_box.rs:217-219) and whose ring
  wind-contains it (poly_ops.rs:30-72) sets ``out = !is_hole`` — LAST
  matching part wins (clip.rs:303-317);
- survivors are re-emitted in input order with FID renumbered 1..n
  (clip.rs:338-354).

Ray-Data design (SURVEY.md §7.4): the polygon layer is the SMALL side →
broadcast via ``ray.put`` once, read by stateless tasks through the
per-worker cache (``broadcast.get_cached``). With the parts goes a
256x256 label grid over the layer (Raptor, VLDB 2019: approximate the
vector layer by a raster once, resolve most points by a lookup). A cell
that no part edge or bbox side comes near carries the scan's answer at
its centre, which holds for every point in the cell; a point there costs
one ``floor`` lookup. Points in the few cells near an edge, and points
with non-finite coordinates, run the exact scan (``clip_kernel``,
vectorized: loop over parts, NumPy over points). Erase (erase.rs) is the
inverse keep condition on the same answer.

The broadcast path is the only clip path: every task holds the whole
flattened layer and its grid, so the layer must fit one worker's memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from ..kernels import cells, geometry
from ..sources.vectors import part_slices, record_is_hole
from .broadcast import get_cached
from .ordering import zip_with_order_index


@dataclass
class ClipPart:
    """One flattened polygon part in global (record, part) scan order."""

    record_id: int
    part_index: int  # global scan order
    xs: np.ndarray  # closed ring
    ys: np.ndarray
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    is_hole: bool


def prepare_clip_parts(poly_table: pa.Table) -> list[ClipPart]:
    """Flatten a polygon layer to (record, part)-ordered ClipParts
    (clip.rs:237-270 pre-pass)."""
    out: list[ClipPart] = []
    cols = poly_table.to_pydict()
    gidx = 0
    for i in range(poly_table.num_rows):
        parts = np.asarray(cols["parts"][i], dtype=np.int64)
        xs = np.asarray(cols["xs"][i], dtype=np.float64)
        ys = np.asarray(cols["ys"][i], dtype=np.float64)
        holes = record_is_hole(parts, xs, ys)
        for p, (first, last) in enumerate(part_slices(parts, len(xs))):
            rx = xs[first : last + 1]
            ry = ys[first : last + 1]
            out.append(
                ClipPart(
                    record_id=int(cols["record_id"][i]),
                    part_index=gidx,
                    xs=rx,
                    ys=ry,
                    x_min=float(rx.min()),
                    x_max=float(rx.max()),
                    y_min=float(ry.min()),
                    y_max=float(ry.max()),
                    is_hole=bool(holes[p]),
                )
            )
            gidx += 1
    return out


def build_part_cell_index(parts: list[ClipPart], level: int) -> dict[int, np.ndarray]:
    """cell_id → sorted array of part indexes whose bbox intersects the cell."""
    index: dict[int, list[int]] = {}
    size = cells.QUAD_FRAME_SIZE / (1 << level)
    for p in parts:
        ix0 = int(np.floor((p.x_min - cells.QUAD_FRAME_X0) / size))
        ix1 = int(np.floor((p.x_max - cells.QUAD_FRAME_X0) / size))
        iy0 = int(np.floor((p.y_min - cells.QUAD_FRAME_Y0) / size))
        iy1 = int(np.floor((p.y_max - cells.QUAD_FRAME_Y0) / size))
        for iy in range(iy0, iy1 + 1):
            for ix in range(ix0, ix1 + 1):
                cid = int(
                    cells.quad_cell(
                        np.array([cells.QUAD_FRAME_X0 + (ix + 0.5) * size]),
                        np.array([cells.QUAD_FRAME_Y0 + (iy + 0.5) * size]),
                        level,
                    )[0]
                )
                index.setdefault(cid, []).append(p.part_index)
    return {k: np.array(sorted(v), dtype=np.int64) for k, v in index.items()}


def clip_kernel(px: np.ndarray, py: np.ndarray, parts: list[ClipPart]) -> np.ndarray:
    """The exact Clip scan, vectorized over points (clip.rs:300-317):
    parts in ascending part_index order, so the last matching part wins."""
    out = np.zeros(len(px), dtype=bool)
    for p in parts:
        cand = geometry.points_in_box(px, py, p.x_min, p.x_max, p.y_min, p.y_max)
        if not cand.any():
            continue
        hit = np.zeros(len(px), dtype=bool)
        hit[cand] = geometry.points_in_poly(px[cand], py[cand], p.xs, p.ys)
        if p.is_hole:
            out[hit] = False
        else:
            out[hit] = True
    return out


LABEL_GRID = 256  # label-grid cells per side
OUTSIDE, INSIDE, UNRESOLVED = 0, 1, 2


@dataclass
class LabelGrid:
    """Cell labels over the union of the part bboxes, padded by a margin.

    Cell (row j, col i) is ``[x0 + i*cw, x0 + (i+1)*cw] x [y0 + j*ch, ...]``
    and ``labels[j + 1, i + 1]`` holds OUTSIDE, INSIDE or UNRESOLVED; the
    border rows and columns are OUTSIDE. NaN cell sizes mean no grid: every
    point runs ``clip_kernel``.
    """

    x0: float
    y0: float
    cw: float
    ch: float
    labels: np.ndarray  # int8, (LABEL_GRID + 2) square, OUTSIDE border


def part_segments(parts: list[ClipPart]) -> tuple[np.ndarray, ...]:
    """Every segment across which ``clip_kernel``'s answer can change:
    ring edges and bbox sides (``points_in_box`` is strict). A ring whose
    last vertex is not its first also adds the horizontal segments from
    both end vertices to its bbox's x_min side: an open chain's crossing
    parity flips across those too."""
    segs = []
    for p in parts:
        xs, ys = p.xs, p.ys
        sx = [xs[:-1], [p.x_min, p.x_max, p.x_max, p.x_min]]
        sy = [ys[:-1], [p.y_min, p.y_min, p.y_max, p.y_max]]
        ex = [xs[1:], [p.x_max, p.x_max, p.x_min, p.x_min]]
        ey = [ys[1:], [p.y_min, p.y_max, p.y_max, p.y_min]]
        if xs[0] != xs[-1] or ys[0] != ys[-1]:
            sx.append([xs[0], xs[-1]])
            sy.append([ys[0], ys[-1]])
            ex.append([p.x_min, p.x_min])
            ey.append([ys[0], ys[-1]])
        segs.append([np.concatenate(c).astype(np.float64) for c in (sx, sy, ex, ey)])
    return tuple(np.concatenate(c) for c in zip(*segs))


def build_label_grid(parts: list[ClipPart]) -> LabelGrid:
    """The LABEL_GRID x LABEL_GRID label grid of a clip layer (Raptor-style
    raster approximation, VLDB 2019), exact for every point it resolves.

    A cell is UNRESOLVED when a ``part_segments`` segment touches the cell
    widened by ``1e-9*cell + 16*spacing(max|coord|)``; every other cell
    takes ``clip_kernel``'s answer at its centre. The frame is padded by
    the same margin, so a point that maps off the grid is outside every
    part bbox. Why this is exact: ``kernels/geometry.py`` docstring.
    """
    g = LABEL_GRID
    labels = np.zeros((g + 2, g + 2), dtype=np.int8)
    no_grid = LabelGrid(0.0, 0.0, np.nan, np.nan, labels)
    if not parts:
        return no_grid
    x0, y0, x1, y1 = part_segments(parts)
    # the bbox sides start at every part's bbox corners; NaN propagates
    lo_x, hi_x, lo_y, hi_y = x0.min(), x0.max(), y0.min(), y0.max()
    with np.errstate(all="ignore"):
        big = np.max(np.abs([lo_x, hi_x, lo_y, hi_y]))
        margin = 1e-9 * max(hi_x - lo_x, hi_y - lo_y) / g + 16 * np.spacing(big)
        gx, gy = lo_x - margin, lo_y - margin
        cw, ch = (hi_x + margin - gx) / g, (hi_y + margin - gy) / g
    if not (np.isfinite([gx, gy, cw, ch]).all() and cw > 0 and ch > 0):
        return no_grid  # a non-finite coordinate, or a one-point layer at 0
    touched = geometry.segment_cells(x0, y0, x1, y1, gx, gy, cw, ch, g, g, margin)
    row, col = np.nonzero(~touched)
    inside = clip_kernel(gx + (col + 0.5) * cw, gy + (row + 0.5) * ch, parts)
    labels[1:-1, 1:-1] = UNRESOLVED
    labels[row + 1, col + 1] = inside
    return LabelGrid(gx, gy, cw, ch, labels)


def clip_filter(px: np.ndarray, py: np.ndarray, parts: list[ClipPart], grid: LabelGrid) -> np.ndarray:
    """``clip_kernel(px, py, parts)`` through the label grid: one lookup
    per point; points in UNRESOLVED cells, and points whose cell
    coordinates are not finite, run ``clip_kernel`` over all parts."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    side = LABEL_GRID + 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.floor((px - grid.x0) / grid.cw)
        v = np.floor((py - grid.y0) / grid.ch)
    ok = np.isfinite(u) & np.isfinite(v)
    # off-grid cells clip onto the OUTSIDE border
    for w in (u, v):
        np.clip(w, -1, LABEL_GRID, out=w)
        np.copyto(w, -1.0, where=~ok)
    code = grid.labels.ravel()[(v.astype(np.intp) + 1) * side + (u.astype(np.intp) + 1)]
    todo = ~ok | (code == UNRESOLVED)
    out = code == INSIDE
    out[todo] = clip_kernel(px[todo], py[todo], parts)
    return out


class _ClipFn:
    """Stateless clip task body; the broadcast (parts, label grid) is
    fetched through the per-worker cache."""

    def __init__(self, layer_ref, keep_inside: bool, x_col: str, y_col: str):
        self.layer_ref = layer_ref
        self.keep_inside = keep_inside
        self.x_col = x_col
        self.y_col = y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts, grid = get_cached(self.layer_ref)
        px = batch[self.x_col].to_numpy(zero_copy_only=False)
        py = batch[self.y_col].to_numpy(zero_copy_only=False)
        out = clip_filter(px, py, parts, grid)
        keep = out if self.keep_inside else ~out
        return batch.filter(pa.array(keep))


def clip_points(
    points_ds,
    poly_table: pa.Table,
    mode: str = "clip",
    x_col: str = "x",
    y_col: str = "y",
    order_col: str = "record_id",
    renumber_fid: bool = True,
):
    """Clip (keep inside, clip.rs Point branch) or Erase (keep outside,
    erase.rs) a point Dataset against a broadcast polygon layer.

    The driver flattens the layer and builds its label grid
    (``build_label_grid``) once; both go out as one ``ray.put`` object.
    Each task resolves most points with one grid lookup and runs the exact
    ``clip_kernel`` only on the rest (``clip_filter``), so the result is
    bit-equal to scanning every part for every point.

    Returns the surviving rows; when ``renumber_fid`` the sequential-scan
    FID (1..n in ``order_col`` order, clip.rs:338-354 parity) is appended
    by ``ordering.zip_with_order_index``, whose merge runs in one task:
    no key or rank reaches the driver. Survivors that share an
    ``order_col`` value are numbered in ``y_col`` order (IEEE 754 total
    order), whatever the block layout.
    """
    import ray

    if mode not in ("clip", "erase"):
        raise ValueError("mode must be 'clip' or 'erase'")
    parts = prepare_clip_parts(poly_table)
    layer_ref = ray.put((parts, build_label_grid(parts)))
    fn = _ClipFn(layer_ref, mode == "clip", x_col, y_col)
    out = points_ds.map_batches(fn, batch_format="pyarrow")
    if renumber_fid:
        # y breaks ties in order_col by content, so tied survivors get the
        # same FIDs whatever order their blocks arrive in
        out = zip_with_order_index(out, order_col, index_col="FID", start=1, tiebreak_col=y_col)
    return out


class _ExtractValuesActor:
    """tile_id → point lookup gather (extract_raster_values_at_points.rs:243-258).

    Points are the broadcast side (bucketed by tile_id once per actor);
    the tile table streams through. Per tile: decode, gather
    ``z[row_in_tile, col_in_tile]`` for that tile's points.
    """

    def __init__(self, points_by_tile_ref, tiles_x: int):
        import ray

        self.points_by_tile = ray.get(points_by_tile_ref)
        self.tiles_x = tiles_x

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels import codecs

        out_ids: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        tid = (
            batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64) * self.tiles_x
            + batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        fmts = batch["fmt"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        for i in range(batch.num_rows):
            pts = self.points_by_tile.get(int(tid[i]))
            if pts is None:
                continue
            rec_ids, rr, cc = pts
            grid = codecs.decode_tile(blobs[i], fmts[i])
            out_ids.append(rec_ids)
            out_vals.append(grid[rr, cc])
        if not out_ids:
            return pa.table({"record_id": pa.array([], pa.int32()), "VALUE1": pa.array([], pa.float64())})
        return pa.table(
            {
                "record_id": pa.array(np.concatenate(out_ids), pa.int32()),
                "VALUE1": pa.array(np.concatenate(out_vals), pa.float64()),
            }
        )


def extract_values_at_points(
    tiles_ds,
    points_table: pa.Table,
    scene_spec,
    x_col: str = "x",
    y_col: str = "y",
):
    """Per point: (row, col) by the floor rule (raster/mod.rs:635-641),
    gather the cell value; out-of-grid points get the nodata sentinel
    (raster/mod.rs:364-412 out-of-bounds semantics).

    Returns a Dataset of (record_id, VALUE1) for ALL input points.
    """
    import ray

    gs = scene_spec.grid_spec()
    px = points_table.column(x_col).to_numpy()
    py = points_table.column(y_col).to_numpy()
    rid = points_table.column("record_id").to_numpy()
    col = gs.col_from_x(px)
    row = gs.row_from_y(py)
    in_grid = (row >= 0) & (row < gs.rows) & (col >= 0) & (col < gs.columns)

    tpx = scene_spec.tile_px
    trow = row[in_grid] // tpx
    tcol = col[in_grid] // tpx
    tile_id = trow * scene_spec.tiles_x + tcol
    by_tile: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for t in np.unique(tile_id):
        m = tile_id == t
        by_tile[int(t)] = (
            rid[in_grid][m],
            (row[in_grid][m] % tpx).astype(np.int64),
            (col[in_grid][m] % tpx).astype(np.int64),
        )
    ref = ray.put(by_tile)
    found = tiles_ds.map_batches(
        _ExtractValuesActor,
        fn_constructor_args=(ref, scene_spec.tiles_x),
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 4),
    )
    # out-of-grid points → nodata rows, emitted driver-side (tiny)
    import ray.data as rd

    missing = pa.table(
        {
            "record_id": pa.array(rid[~in_grid], pa.int32()),
            "VALUE1": pa.array(np.full((~in_grid).sum(), gs.nodata), pa.float64()),
        }
    )
    if missing.num_rows:
        found = found.union(rd.from_arrow(missing))
    return found


def knn_join(
    left_ds,
    right_table: pa.Table,
    k: int = 1,
    x_col: str = "x",
    y_col: str = "y",
    right_x: str = "x",
    right_y: str = "y",
    right_id: str = "record_id",
    max_radius: float | None = None,
):
    """Standalone kNN join (the FixedRadiusSearch/KdTree accelerator
    surface, structures/fixed_radius_search.rs:134-218): for each left
    point, its k nearest right points (id + distance).

    The right side broadcasts ONCE with a per-worker FRS index built in
    the actor constructor; left streams, so the right side must fit one
    worker's memory."""
    import ray

    from ..kernels.frs import FixedRadiusSearch2D

    rx = right_table.column(right_x).to_numpy().astype(np.float64)
    ry = right_table.column(right_y).to_numpy().astype(np.float64)
    rid = right_table.column(right_id).to_numpy()
    if max_radius is None:
        # a radius that statistically covers ≥k neighbors: points-per-area
        span_x = max(float(rx.max() - rx.min()), 1e-9)
        span_y = max(float(ry.max() - ry.min()), 1e-9)
        density = max(len(rx) / (span_x * span_y), 1e-12)
        max_radius = float(np.sqrt((k + 4) / (np.pi * density))) * 4.0
    ref = ray.put((rx, ry, rid, float(max_radius)))

    class KnnActor:
        def __init__(self):
            self.rx, self.ry, self.rid, self.radius = ray.get(ref)
            self.frs = FixedRadiusSearch2D(self.rx, self.ry, self.radius)

        def __call__(self, batch: pa.Table) -> pa.Table:
            lx = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
            ly = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
            lids = batch["record_id"].to_numpy(zero_copy_only=False)
            out_l, out_r, out_d, out_rank = [], [], [], []
            for i in range(len(lx)):
                idx, d = self.frs.knn(lx[i], ly[i], k)
                # deterministic tie-break: (distance, right id)
                order = np.lexsort((self.rid[idx], d))[:k]
                for rank, j in enumerate(order):
                    out_l.append(lids[i])
                    out_r.append(self.rid[idx[j]])
                    out_d.append(float(d[j]))
                    out_rank.append(rank + 1)
            return pa.table(
                {
                    "left_id": pa.array(out_l),
                    "right_id": pa.array(out_r),
                    "distance": pa.array(out_d, pa.float64()),
                    "rank": pa.array(out_rank, pa.int32()),
                }
            )

    return left_ds.map_batches(KnnActor, batch_format="pyarrow", batch_size=4096, concurrency=(1, 8))
