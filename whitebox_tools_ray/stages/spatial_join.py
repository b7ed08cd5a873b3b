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
per-worker cache (``broadcast.get_cached``); the scan is vectorized over
the point batch (loop over parts, NumPy over points). A quad-cell grid
over the parts gives batch-level pruning: a broadcast
``cell → part-index list`` lets a batch scan only parts whose bbox
touches its points' cells — at 100 TB of points the per-batch work is
O(local parts), not O(all parts). Erase (erase.rs) is the inverse keep
condition on the same scan.

For polygon layers too large to broadcast, the same kernel runs after an
explicit co-partition: explode parts per covering quad cell, hash-shuffle
points by cell, per-cell ``map_groups`` — parts carry their global
(record, part) index so last-wins order survives partitioning. That path
is ``clip_points_shuffle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
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


def clip_kernel(
    px: np.ndarray, py: np.ndarray, parts: list[ClipPart], part_subset: np.ndarray | None = None
) -> np.ndarray:
    """The exact Clip scan, vectorized over points (clip.rs:300-317).

    ``part_subset`` (sorted global part indexes) restricts the scan; scan
    ORDER is always ascending part_index so last-wins is preserved.
    """
    out = np.zeros(len(px), dtype=bool)
    it = parts if part_subset is None else (parts[i] for i in part_subset)
    for p in it:
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


class _ClipFn:
    """Stateless clip task body; broadcast parts + cell index fetched via
    the per-worker cache."""

    def __init__(self, parts_ref, cell_index_ref, level: int, keep_inside: bool, x_col: str, y_col: str):
        self.parts_ref = parts_ref
        self.cell_index_ref = cell_index_ref
        self.level = level
        self.keep_inside = keep_inside
        self.x_col = x_col
        self.y_col = y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = get_cached(self.parts_ref)
        cell_index = get_cached(self.cell_index_ref)
        px = batch[self.x_col].to_numpy(zero_copy_only=False)
        py = batch[self.y_col].to_numpy(zero_copy_only=False)
        point_cells = cells.quad_cell(px, py, self.level)
        out = np.zeros(len(px), dtype=bool)
        for cid in np.unique(point_cells):
            subset = cell_index.get(int(cid))
            sel = point_cells == cid
            if subset is None or len(subset) == 0:
                continue
            out[sel] = clip_kernel(px[sel], py[sel], parts, subset)
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
    cell_level: int = 12,
    batch_size: int | None = None,
):
    """Clip (keep inside, clip.rs Point branch) or Erase (keep outside,
    erase.rs) a point Dataset against a broadcast polygon layer.

    Returns the surviving rows; when ``renumber_fid`` the sequential-scan
    FID (1..n in ``order_col`` order, clip.rs:338-354 parity) is appended
    by ``ordering.zip_with_order_index``. Survivors that share an
    ``order_col`` value are numbered in ``y_col`` order (IEEE 754 total
    order), whatever the block layout.
    """
    import ray

    if mode not in ("clip", "erase"):
        raise ValueError("mode must be 'clip' or 'erase'")
    parts = prepare_clip_parts(poly_table)
    cell_index = build_part_cell_index(parts, cell_level)
    parts_ref = ray.put(parts)
    index_ref = ray.put(cell_index)
    fn = _ClipFn(parts_ref, index_ref, cell_level, mode == "clip", x_col, y_col)
    bs_kw = {} if batch_size is None else {"batch_size": batch_size}
    out = points_ds.map_batches(
        fn,
        batch_format="pyarrow",
        **bs_kw,
    )
    if renumber_fid:
        # y breaks ties in order_col by content, so tied survivors get the
        # same FIDs whatever order their blocks arrive in
        out = zip_with_order_index(out, order_col, index_col="FID", start=1, tiebreak_col=y_col)
    return out


def clip_points_shuffle(
    points_ds,
    poly_table: pa.Table,
    mode: str = "clip",
    x_col: str = "x",
    y_col: str = "y",
    cell_level: int = 10,
):
    """Co-partitioned variant for polygon layers too big to broadcast.

    Parts are exploded to (cell_id, part payload) rows; points get
    cell_id; both sides hash-shuffle on cell_id and the per-cell kernel
    runs in ``map_groups``. Parts keep their global part_index so the
    last-wins scan order is preserved inside every cell. Points in cells
    with no parts short-circuit (clip: dropped, erase: kept) without
    entering the shuffle (semi-join pre-filter on the broadcast cell-key
    SET — only candidate points shuffle).
    """
    import ray

    parts = prepare_clip_parts(poly_table)
    cell_index = build_part_cell_index(parts, cell_level)
    keep_inside = mode == "clip"

    cell_key_ref = ray.put(np.array(sorted(cell_index.keys()), dtype=np.int64))
    parts_ref = ray.put(parts)
    index_ref = ray.put(cell_index)

    def add_cell(batch: pa.Table) -> pa.Table:
        px = batch[x_col].to_numpy(zero_copy_only=False)
        py = batch[y_col].to_numpy(zero_copy_only=False)
        cid = cells.quad_cell(px, py, cell_level)
        return batch.append_column("__cell", pa.array(cid, pa.int64()))

    with_cell = points_ds.map_batches(add_cell, batch_format="pyarrow")

    class SplitByCandidacy:
        def __init__(self):
            self.cell_keys = ray.get(cell_key_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            cid = batch["__cell"].to_numpy(zero_copy_only=False)
            cand = np.isin(cid, self.cell_keys, assume_unique=False)
            return batch.filter(pa.array(cand))

    # candidates shuffle; non-candidates resolve immediately
    candidates = with_cell.map_batches(SplitByCandidacy, batch_format="pyarrow", concurrency=(1, 2))

    class NonCandidates:
        def __init__(self):
            self.cell_keys = ray.get(cell_key_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            cid = batch["__cell"].to_numpy(zero_copy_only=False)
            noncand = ~np.isin(cid, self.cell_keys, assume_unique=False)
            return batch.filter(pa.array(noncand))

    def per_cell(g: pd.DataFrame) -> pd.DataFrame:
        cid = int(g["__cell"].iloc[0])
        subset = cell_index.get(cid)
        px = g[x_col].to_numpy()
        py = g[y_col].to_numpy()
        inside = clip_kernel(px, py, parts, subset) if subset is not None else np.zeros(len(g), bool)
        return g[inside] if keep_inside else g[~inside]

    joined = candidates.groupby("__cell").map_groups(per_cell, batch_format="pandas")
    if not keep_inside:
        outside = with_cell.map_batches(NonCandidates, batch_format="pyarrow", concurrency=(1, 2))
        joined = joined.union(outside)
    return joined.drop_columns(["__cell"])


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
    concurrency: int | None = None,
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
        concurrency=concurrency or (1, 4),
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


def extract_values_at_points_shuffle(
    tiles_ds,
    points_ds,
    scene_spec,
    x_col: str = "x",
    y_col: str = "y",
):
    """Shuffle variant of ExtractRasterValuesAtPoints for LARGE point
    tables (VERDICT r1): points co-partition with tiles on tile_id via
    one keyed groupby — neither side is broadcast, both stream. Per tile
    group: decode once, vectorized gather for all its points.

    Prefer the broadcast variant when points ≪ tiles; this one when the
    point table rivals or exceeds the tile table (the common case for
    training-data pipelines sampling every image)."""
    import pandas as pd

    from ..kernels import codecs

    gs = scene_spec.grid_spec()
    tpx = scene_spec.tile_px
    tiles_x = scene_spec.tiles_x
    nodata = gs.nodata

    def tag_points(batch: pa.Table) -> pa.Table:
        px = batch[x_col].to_numpy(zero_copy_only=False)
        py = batch[y_col].to_numpy(zero_copy_only=False)
        rid = batch["record_id"].to_numpy(zero_copy_only=False)
        col = gs.col_from_x(px)
        row = gs.row_from_y(py)
        in_grid = (row >= 0) & (row < gs.rows) & (col >= 0) & (col < gs.columns)
        tid = np.where(in_grid, (row // tpx) * tiles_x + (col // tpx), -1)
        return pa.table(
            {
                "tkey": pa.array(tid.astype(np.int64)),
                "role": pa.array(np.ones(len(rid), dtype=np.int8)),
                "record_id": pa.array(rid.astype(np.int32), pa.int32()),
                "r": pa.array(np.where(in_grid, row % tpx, 0).astype(np.int32), pa.int32()),
                "c": pa.array(np.where(in_grid, col % tpx, 0).astype(np.int32), pa.int32()),
                "bytes": pa.array([b""] * len(rid), pa.binary()),
                "fmt": pa.array([""] * len(rid), pa.string()),
            }
        )

    def tag_tiles(batch: pa.Table) -> pa.Table:
        tid = (
            batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64) * tiles_x
            + batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        n = len(tid)
        return pa.table(
            {
                "tkey": pa.array(tid),
                "role": pa.array(np.zeros(n, dtype=np.int8)),
                "record_id": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
                "r": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
                "c": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
                "bytes": batch["bytes"],
                "fmt": batch["fmt"],
            }
        )

    u = tiles_ds.map_batches(tag_tiles, batch_format="pyarrow").union(
        points_ds.map_batches(tag_points, batch_format="pyarrow")
    )

    def gather(g: pd.DataFrame) -> pd.DataFrame:
        tkey = int(g["tkey"].iloc[0])
        pts = g[g["role"] == 1]
        if len(pts) == 0:
            return pd.DataFrame({"record_id": pd.Series([], dtype="int32"),
                                 "VALUE1": pd.Series([], dtype="float64")})
        if tkey < 0:  # out-of-grid points
            return pd.DataFrame({"record_id": pts["record_id"].astype("int32"),
                                 "VALUE1": np.full(len(pts), nodata)})
        tiles = g[g["role"] == 0]
        if len(tiles) == 0:
            return pd.DataFrame({"record_id": pts["record_id"].astype("int32"),
                                 "VALUE1": np.full(len(pts), nodata)})
        grid = codecs.decode_tile(bytes(tiles["bytes"].iloc[0]), tiles["fmt"].iloc[0])
        vals = grid[pts["r"].to_numpy(), pts["c"].to_numpy()]
        return pd.DataFrame({"record_id": pts["record_id"].astype("int32"), "VALUE1": vals})

    return u.groupby("tkey").map_groups(gather, batch_format="pandas")


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
    the actor constructor; left streams. For right sides too large to
    broadcast, co-partition both sides by quad cell with neighbor-cell
    duplication (the SJ pattern of clip_points_shuffle)."""
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
