"""Line-geometry operators: segment intersections.

Reference: gis_analysis/line_intersections.rs (471 LoC) — emit a point
for every intersection between parts of two polyline layers;
algorithms/line_ops.rs:86-199 (find_split_points_at_line_intersections)
is the shared kernel that also powers the overlay family.

Kernel: vectorized segment-segment intersection. For segments
P+t·r (t∈[0,1]) and Q+u·s (u∈[0,1]): t = cross(Q−P, s)/cross(r, s),
u = cross(Q−P, r)/cross(r, s); intersection iff cross(r,s) ≠ 0 and
t,u ∈ [0,1] (endpoint touches included — the reference counts them).
Collinear overlaps emit no point (matching the reference's behavior of
handling those via split-point dedup).

Stage: the B layer broadcasts (parts flattened + bbox-pruned); A
streams; per A-part the candidate B-parts are bbox-filtered and the
(na × nb) segment grid evaluates in one NumPy broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.vectors import part_slices


def segment_intersections(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All intersection points between polyline A (vertex arrays) and
    polyline B. Returns (xs, ys)."""
    p_x, p_y = ax[:-1], ay[:-1]
    r_x, r_y = np.diff(ax), np.diff(ay)
    q_x, q_y = bx[:-1], by[:-1]
    s_x, s_y = np.diff(bx), np.diff(by)
    # broadcast (na, nb)
    rxs = r_x[:, None] * s_y[None, :] - r_y[:, None] * s_x[None, :]
    qp_x = q_x[None, :] - p_x[:, None]
    qp_y = q_y[None, :] - p_y[:, None]
    with np.errstate(all="ignore"):
        t = (qp_x * s_y[None, :] - qp_y * s_x[None, :]) / rxs
        u = (qp_x * r_y[:, None] - qp_y * r_x[:, None]) / rxs
    hit = (rxs != 0) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    ti, bi = np.nonzero(hit)
    xs = p_x[ti] + t[ti, bi] * r_x[ti]
    ys = p_y[ti] + t[ti, bi] * r_y[ti]
    return xs, ys


def line_intersections(ds_a, table_b: pa.Table):
    """Intersection points of two line layers (line_intersections.rs).

    B is the broadcast side; returns Dataset[record_a, record_b, x, y]
    (duplicate points from shared endpoints deduped per pair)."""
    import ray

    b_parts = []
    cols = table_b.to_pydict()
    for i in range(table_b.num_rows):
        parts = np.asarray(cols["parts"][i], dtype=np.int64)
        xs = np.asarray(cols["xs"][i], dtype=np.float64)
        ys = np.asarray(cols["ys"][i], dtype=np.float64)
        for first, last in part_slices(parts, len(xs)):
            px, py = xs[first : last + 1], ys[first : last + 1]
            b_parts.append((int(cols["record_id"][i]), px, py, px.min(), px.max(), py.min(), py.max()))
    ref = ray.put(b_parts)

    class Intersect:
        def __init__(self):
            self.b_parts = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            out_a, out_b, out_x, out_y = [], [], [], []
            c = batch.to_pydict()
            for i in range(batch.num_rows):
                parts = np.asarray(c["parts"][i], dtype=np.int64)
                xs = np.asarray(c["xs"][i], dtype=np.float64)
                ys = np.asarray(c["ys"][i], dtype=np.float64)
                rid = int(c["record_id"][i])
                for first, last in part_slices(parts, len(xs)):
                    ax, ay = xs[first : last + 1], ys[first : last + 1]
                    ax0, ax1, ay0, ay1 = ax.min(), ax.max(), ay.min(), ay.max()
                    for rb, bx, by, bx0, bx1, by0, by1 in self.b_parts:
                        if bx0 > ax1 or bx1 < ax0 or by0 > ay1 or by1 < ay0:
                            continue
                        ix, iy = segment_intersections(ax, ay, bx, by)
                        if len(ix):
                            pts = sorted(set(zip(np.round(ix, 9), np.round(iy, 9))))
                            for x, y in pts:
                                out_a.append(rid)
                                out_b.append(rb)
                                out_x.append(x)
                                out_y.append(y)
            return pa.table(
                {
                    "record_a": pa.array(out_a, pa.int32()),
                    "record_b": pa.array(out_b, pa.int32()),
                    "x": pa.array(out_x, pa.float64()),
                    "y": pa.array(out_y, pa.float64()),
                }
            )

    return ds_a.map_batches(Intersect, batch_format="pyarrow", batch_size=256, concurrency=(1, 4))
