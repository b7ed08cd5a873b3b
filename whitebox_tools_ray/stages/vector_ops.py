"""Simple per-record vector transforms — the data_tools/gis_analysis
"M" family over the nested-geometry schema (POLY_SCHEMA-style records).

Each mirrors a whole reference tool (file cited per function); all are
vectorized-enough ``map_batches`` bodies over the parts/xs/ys layout.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.vectors import part_slices, record_is_hole


def _iter_records(batch: pa.Table):
    cols = batch.to_pydict()
    for i in range(batch.num_rows):
        yield i, {k: cols[k][i] for k in cols}


def extract_nodes(poly_ds):
    """ExtractNodes (gis_analysis/extract_nodes.rs): every vertex becomes
    a point record (closing duplicates skipped); FID sequential within
    record, keyed by (record_id, vertex_idx)."""

    def fn(batch: pa.Table) -> pa.Table:
        rid, vidx, xs, ys = [], [], [], []
        for _i, rec in _iter_records(batch):
            parts = np.asarray(rec["parts"], dtype=np.int64)
            rx = np.asarray(rec["xs"])
            ry = np.asarray(rec["ys"])
            for first, last in part_slices(parts, len(rx)):
                n = last - first  # drop the closing duplicate
                rid.extend([rec["record_id"]] * n)
                vidx.extend(range(first, first + n))
                xs.extend(rx[first : first + n])
                ys.extend(ry[first : first + n])
        return pa.table(
            {
                "record_id": pa.array(rid, pa.int32()),
                "vertex_idx": pa.array(vidx, pa.int64()),
                "x": pa.array(xs, pa.float64()),
                "y": pa.array(ys, pa.float64()),
            }
        )

    return poly_ds.map_batches(fn, batch_format="pyarrow")


def multipart_to_singlepart(poly_ds):
    """MultiPartToSinglePart (data_tools/multipart_to_singlepart.rs):
    explode each part to its own record; new record_id = sequential part
    position keyed (record_id, part_idx) — hole parts travel with their
    own record like the reference's polygon mode."""

    def fn(batch: pa.Table) -> pa.Table:
        out = {"record_id": [], "part_idx": [], "parts": [], "xs": [], "ys": []}
        for _i, rec in _iter_records(batch):
            parts = np.asarray(rec["parts"], dtype=np.int64)
            rx = np.asarray(rec["xs"])
            ry = np.asarray(rec["ys"])
            for p, (first, last) in enumerate(part_slices(parts, len(rx))):
                out["record_id"].append(rec["record_id"])
                out["part_idx"].append(p)
                out["parts"].append([0])
                out["xs"].append(rx[first : last + 1].tolist())
                out["ys"].append(ry[first : last + 1].tolist())
        return pa.table(
            {
                "record_id": pa.array(out["record_id"], pa.int32()),
                "part_idx": pa.array(out["part_idx"], pa.int64()),
                "parts": pa.array(out["parts"], pa.list_(pa.int32())),
                "xs": pa.array(out["xs"], pa.list_(pa.float64())),
                "ys": pa.array(out["ys"], pa.list_(pa.float64())),
            }
        )

    return poly_ds.map_batches(fn, batch_format="pyarrow")


def singlepart_to_multipart(poly_ds, group_col: str):
    """SinglePartToMultiPart (data_tools/singlepart_to_multipart.rs):
    merge records sharing ``group_col`` into one multi-part record."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        parts, xs, ys = [], [], []
        for _, row in g.iterrows():
            parts.append(len(xs))
            xs.extend(row["xs"])
            ys.extend(row["ys"])
        return pd.DataFrame(
            {
                group_col: [g[group_col].iloc[0]],
                "record_id": [int(g["record_id"].min())],
                "parts": [parts],
                "xs": [xs],
                "ys": [ys],
            }
        )

    return poly_ds.groupby(group_col).map_groups(merge, batch_format="pandas")


def remove_polygon_holes(poly_ds):
    """RemovePolygonHoles (data_tools/remove_polygon_holes.rs): drop the
    counter-clockwise parts."""

    def fn(batch: pa.Table) -> pa.Table:
        out = {"record_id": [], "parts": [], "xs": [], "ys": []}
        for _i, rec in _iter_records(batch):
            parts = np.asarray(rec["parts"], dtype=np.int64)
            rx = np.asarray(rec["xs"])
            ry = np.asarray(rec["ys"])
            holes = record_is_hole(parts, rx, ry)
            new_parts, nxs, nys = [], [], []
            for p, (first, last) in enumerate(part_slices(parts, len(rx))):
                if holes[p]:
                    continue
                new_parts.append(len(nxs))
                nxs.extend(rx[first : last + 1])
                nys.extend(ry[first : last + 1])
            out["record_id"].append(rec["record_id"])
            out["parts"].append(new_parts)
            out["xs"].append(nxs)
            out["ys"].append(nys)
        return pa.table(
            {
                "record_id": pa.array(out["record_id"], pa.int32()),
                "parts": pa.array(out["parts"], pa.list_(pa.int32())),
                "xs": pa.array(out["xs"], pa.list_(pa.float64())),
                "ys": pa.array(out["ys"], pa.list_(pa.float64())),
            }
        )

    return poly_ds.map_batches(fn, batch_format="pyarrow")


def clean_vector(poly_ds, min_vertices: int = 4):
    """CleanVector (data_tools/clean_vector.rs): drop null/degenerate
    geometries (fewer than a closed triangle's vertices)."""

    def fn(batch: pa.Table) -> pa.Table:
        keep = [len(x) >= min_vertices for x in batch["xs"].to_pylist()]
        return batch.filter(pa.array(keep))

    return poly_ds.map_batches(fn, batch_format="pyarrow")


def smooth_vectors(poly_ds, filter_size: int = 3):
    """SmoothVectors (gis_analysis/smooth_vectors.rs): moving-average of
    vertices along each part (endpoints kept; closed rings re-closed)."""
    half = filter_size // 2

    def fn(batch: pa.Table) -> pa.Table:
        out = {"record_id": [], "parts": [], "xs": [], "ys": []}
        for _i, rec in _iter_records(batch):
            parts = np.asarray(rec["parts"], dtype=np.int64)
            rx = np.asarray(rec["xs"], dtype=np.float64)
            ry = np.asarray(rec["ys"], dtype=np.float64)
            nxs, nys, nparts = [], [], []
            for first, last in part_slices(parts, len(rx)):
                px = rx[first : last + 1].copy()
                py = ry[first : last + 1].copy()
                closed = px[0] == px[-1] and py[0] == py[-1]
                n = len(px)
                sx, sy = px.copy(), py.copy()
                for j in range(1, n - 1):
                    lo, hi = max(0, j - half), min(n, j + half + 1)
                    sx[j] = px[lo:hi].mean()
                    sy[j] = py[lo:hi].mean()
                if closed:
                    sx[-1], sy[-1] = sx[0], sy[0]
                nparts.append(len(nxs))
                nxs.extend(sx)
                nys.extend(sy)
            out["record_id"].append(rec["record_id"])
            out["parts"].append(nparts)
            out["xs"].append(nxs)
            out["ys"].append(nys)
        return pa.table(
            {
                "record_id": pa.array(out["record_id"], pa.int32()),
                "parts": pa.array(out["parts"], pa.list_(pa.int32())),
                "xs": pa.array(out["xs"], pa.list_(pa.float64())),
                "ys": pa.array(out["ys"], pa.list_(pa.float64())),
            }
        )

    return poly_ds.map_batches(fn, batch_format="pyarrow")


def polygons_to_lines(poly_ds):
    """PolygonsToLines (data_tools/polygons_to_lines.rs): re-type parts
    as polylines — structurally the identity on our schema (adds a
    geom_type marker)."""

    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column("geom_type", pa.array(["polyline"] * batch.num_rows))

    return poly_ds.map_batches(fn, batch_format="pyarrow")


def lines_to_polygons(line_ds):
    """LinesToPolygons (data_tools/lines_to_polygons.rs): close each part
    (append the first vertex when open)."""

    def fn(batch: pa.Table) -> pa.Table:
        out = {"record_id": [], "parts": [], "xs": [], "ys": []}
        for _i, rec in _iter_records(batch):
            parts = np.asarray(rec["parts"], dtype=np.int64)
            rx = np.asarray(rec["xs"])
            ry = np.asarray(rec["ys"])
            nxs, nys, nparts = [], [], []
            for first, last in part_slices(parts, len(rx)):
                px = list(rx[first : last + 1])
                py = list(ry[first : last + 1])
                if px[0] != px[-1] or py[0] != py[-1]:
                    px.append(px[0])
                    py.append(py[0])
                nparts.append(len(nxs))
                nxs.extend(px)
                nys.extend(py)
            out["record_id"].append(rec["record_id"])
            out["parts"].append(nparts)
            out["xs"].append(nxs)
            out["ys"].append(nys)
        return pa.table(
            {
                "record_id": pa.array(out["record_id"], pa.int32()),
                "parts": pa.array(out["parts"], pa.list_(pa.int32())),
                "xs": pa.array(out["xs"], pa.list_(pa.float64())),
                "ys": pa.array(out["ys"], pa.list_(pa.float64())),
            }
        )

    return line_ds.map_batches(fn, batch_format="pyarrow")


def extend_vector_lines(line_ds, distance: float):
    """ExtendVectorLines (gis_analysis/extend_vector_lines.rs): lengthen
    both ends of each part along its end-segment directions."""

    def fn(batch: pa.Table) -> pa.Table:
        out = {"record_id": [], "parts": [], "xs": [], "ys": []}
        for _i, rec in _iter_records(batch):
            parts = np.asarray(rec["parts"], dtype=np.int64)
            rx = np.asarray(rec["xs"], dtype=np.float64)
            ry = np.asarray(rec["ys"], dtype=np.float64)
            nxs, nys, nparts = [], [], []
            for first, last in part_slices(parts, len(rx)):
                px = rx[first : last + 1].copy()
                py = ry[first : last + 1].copy()
                if len(px) >= 2:
                    d0 = np.hypot(px[0] - px[1], py[0] - py[1]) or 1.0
                    px[0] += (px[0] - px[1]) / d0 * distance
                    py[0] += (py[0] - py[1]) / d0 * distance
                    d1 = np.hypot(px[-1] - px[-2], py[-1] - py[-2]) or 1.0
                    px[-1] += (px[-1] - px[-2]) / d1 * distance
                    py[-1] += (py[-1] - py[-2]) / d1 * distance
                nparts.append(len(nxs))
                nxs.extend(px)
                nys.extend(py)
            out["record_id"].append(rec["record_id"])
            out["parts"].append(nparts)
            out["xs"].append(nxs)
            out["ys"].append(nys)
        return pa.table(
            {
                "record_id": pa.array(out["record_id"], pa.int32()),
                "parts": pa.array(out["parts"], pa.list_(pa.int32())),
                "xs": pa.array(out["xs"], pa.list_(pa.float64())),
                "ys": pa.array(out["ys"], pa.list_(pa.float64())),
            }
        )

    return line_ds.map_batches(fn, batch_format="pyarrow")


def add_point_coordinates(point_ds, x_col: str = "x", y_col: str = "y"):
    """AddPointCoordinatesToTable (data_tools/
    add_point_coordinates_to_table.rs): append XCOORD/YCOORD columns."""

    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column("XCOORD", batch[x_col]).append_column("YCOORD", batch[y_col])

    return point_ds.map_batches(fn, batch_format="pyarrow")


# --- tile footprint / selection (lidar_analysis tiling surface) ---


def tile_footprints(tiles_ds):
    """LidarTileFootprint (lidar_analysis/lidar_tile_footprint.rs): one
    bounding polygon record per tile (closed CW ring)."""

    def fn(batch: pa.Table) -> pa.Table:
        west = batch["west"].to_numpy(zero_copy_only=False)
        north = batch["north"].to_numpy(zero_copy_only=False)
        res_x = batch["res_x"].to_numpy(zero_copy_only=False)
        res_y = batch["res_y"].to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.float64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.float64)
        east = west + w * res_x
        south = north - h * res_y
        xs = [[we, we, ea, ea, we] for we, ea in zip(west, east)]
        ys = [[so, no, no, so, so] for so, no in zip(south, north)]
        return pa.table(
            {
                "image_id": batch["image_id"],
                "tile_row": batch["tile_row"],
                "tile_col": batch["tile_col"],
                "parts": pa.array([[0]] * batch.num_rows, pa.list_(pa.int32())),
                "xs": pa.array(xs, pa.list_(pa.float64())),
                "ys": pa.array(ys, pa.list_(pa.float64())),
            }
        )

    return tiles_ds.map_batches(fn, batch_format="pyarrow")


def select_tiles_by_polygon(tiles_ds, poly_table: pa.Table):
    """SelectTilesByPolygon (lidar_analysis/select_tiles_by_polygon.rs:
    240-300): keep tiles whose corner points hit the polygon layer or
    whose bbox contains a polygon vertex (the reference's two-way test)."""
    import ray

    from .spatial_join import clip_kernel, prepare_clip_parts

    parts = prepare_clip_parts(poly_table)
    ref = ray.put(parts)

    class Select:
        def __init__(self):
            self.parts = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            west = batch["west"].to_numpy(zero_copy_only=False)
            north = batch["north"].to_numpy(zero_copy_only=False)
            res_x = batch["res_x"].to_numpy(zero_copy_only=False)
            res_y = batch["res_y"].to_numpy(zero_copy_only=False)
            w = batch["w"].to_numpy(zero_copy_only=False).astype(np.float64)
            h = batch["h"].to_numpy(zero_copy_only=False).astype(np.float64)
            east = west + w * res_x
            south = north - h * res_y
            keep = np.zeros(batch.num_rows, dtype=bool)
            for i in range(batch.num_rows):
                cx = np.array([west[i], west[i], east[i], east[i], (west[i] + east[i]) / 2])
                cy = np.array([south[i], north[i], north[i], south[i], (south[i] + north[i]) / 2])
                if clip_kernel(cx, cy, self.parts).any():
                    keep[i] = True
                    continue
                for p in self.parts:
                    inside = (
                        (p.xs > west[i]) & (p.xs < east[i]) & (p.ys > south[i]) & (p.ys < north[i])
                    )
                    if inside.any():
                        keep[i] = True
                        break
            return batch.filter(pa.array(keep))

    return tiles_ds.map_batches(Select, batch_format="pyarrow", batch_size=64, concurrency=(1, 4))


def reinitialize_attribute_table(ds):
    """ReinitializeAttributeTable (data_tools/reinitialize_attribute_table.rs):
    drop every attribute except the geometry + a fresh FID."""
    import pyarrow as pa

    geom_cols = [c for c in ["record_id", "parts", "xs", "ys", "x_min", "x_max", "y_min", "y_max"]
                 if c in ds.schema().names]

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(geom_cols)

    return ds.map_batches(project, batch_format="pyarrow")


def print_tile_tags(tiles_ds, limit: int = 5) -> list[dict]:
    """PrintGeoTiffTags analog (data_tools/print_geotiff_tags.rs): dump
    the tile table's schema + per-tile georef header fields for the
    first ``limit`` rows — the engine's debug metadata surface."""
    rows = tiles_ds.take(limit)
    out = []
    for r in rows:
        out.append(
            {k: r[k] for k in r if k not in ("bytes",)} | {"bytes_len": len(r.get("bytes", b""))}
        )
    return out
