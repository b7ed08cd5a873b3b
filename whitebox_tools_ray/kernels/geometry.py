"""Planar geometry kernels, vectorized with NumPy.

Semantics reproduce the reference (WhiteboxTools) kernels exactly — same
arithmetic order, same sign conventions, float64 throughout, no fused ops:

- ``is_left`` / ``winding_number`` / ``point_in_poly``:
  /root/reference/src/algorithms/poly_ops.rs:22-72 (odd winding rule;
  boundary points count as OUTSIDE, poly_ops.rs:27).
- ``polygon_area``: poly_area.rs:12 (abs shoelace / 2, open or closed ring).
- ``signed_area2``: the raw shoelace sum (2*signed area) used by the
  is_hole concave branch, geometry.rs:388-405.
- ``polygon_perimeter``: poly_perimeter.rs:12.
- ``is_hole``: geometry.rs:305-412 — Bourke's convex/concave method with
  the reference's exact part end-point formula (including the
  ``part < num_parts - 2`` quirk that folds the second-to-last part's end
  into ``num_points - 2``).
- ``is_clockwise_order``: is_clockwise_order.rs.
- ``point_in_box``: bounding_box.rs:217-219 (strict inequalities —
  boundary-exclusive).
- ``convex_hull``: convex_hull.rs (Andrew's monotone chain).
- ``minimum_bounding_box``: minimum_bounding_box.rs (rotating calipers
  over hull edges).
- ``smallest_enclosing_circle``: smallest_enclosing_circle.rs (Welzl).
- ``ring_runs`` / ``runs_mask``: the cell-centre form of
  ``points_in_poly`` over a grid window, as Raptor-style scanline runs
  (Raptor, VLDB 2019). ``ring_runs`` finds every (edge, row) crossing once
  per ring; ``runs_mask`` turns any sub-window's crossings into a mask
  with a row-wise parity suffix sum, with no per-cell geometry.

All "many points vs one ring" kernels are vectorized over the points —
the hot path inside ``map_batches``.

Why the runs are exact, not approximate. ``points_in_poly`` toggles a
point's parity for edge i when the point's y lies in the edge's half-open
y span and ``is_left`` has the edge's sign. On one grid row py is fixed,
so the span test picks the same edges for every cell of the row, and
only px varies. ``x_from_col`` is monotone in the column, and IEEE
subtraction and multiplication by a fixed operand are monotone (rounding
never reverses order), so ``(x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)``
is monotone in the column: non-increasing for upward edges (``> 0``
tested) and non-decreasing for downward ones (``< 0`` tested). Either
way the test holds on a prefix of the row's columns, so one toggle column
k per (edge, row) — found by bisection with the very same expression —
reproduces the per-cell answer bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "is_left",
    "winding_number",
    "point_in_poly",
    "points_in_poly",
    "polygon_area",
    "signed_area2",
    "polygon_perimeter",
    "is_hole_ring",
    "is_clockwise_order",
    "point_in_box",
    "points_in_box",
    "poly_is_convex",
    "convex_hull",
    "minimum_bounding_box",
    "smallest_enclosing_circle",
    "interior_point",
    "ring_runs",
    "runs_mask",
]


def is_left(x0: float, y0: float, x1: float, y1: float, px, py):
    """> 0 if (px,py) is left of the directed line p0→p1, 0 if on, < 0 if right.

    Exact arithmetic order of poly_ops.rs:22-24:
    ``(p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y)``.
    Accepts scalars or arrays for (px, py).
    """
    return (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)


def winding_number(px: float, py: float, xs: np.ndarray, ys: np.ndarray) -> int:
    """Winding number of one point vs a closed ring (first == last vertex).

    poly_ops.rs:41-72. Scalar form, used for tests; the batch form is
    :func:`points_in_poly`.
    """
    wn = 0
    for i in range(len(xs) - 1):
        if ys[i] <= py:
            if ys[i + 1] > py:  # upward crossing
                if is_left(xs[i], ys[i], xs[i + 1], ys[i + 1], px, py) > 0.0:
                    wn += 1
        else:
            if ys[i + 1] <= py:  # downward crossing
                if is_left(xs[i], ys[i], xs[i + 1], ys[i + 1], px, py) < 0.0:
                    wn -= 1
    return wn


def point_in_poly(px: float, py: float, xs, ys) -> bool:
    """Odd-winding point-in-polygon; boundary points are OUTSIDE (poly_ops.rs:30-33)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return winding_number(px, py, xs, ys) % 2 != 0


def points_in_poly(px: np.ndarray, py: np.ndarray, xs, ys) -> np.ndarray:
    """Vectorized odd-winding test: N points vs one closed ring.

    Same crossing rules as poly_ops.rs:41-72 (``<=`` on the start vertex,
    strict on is_left), evaluated edge-by-edge over the whole point batch.
    Returns a bool array.  O(E) passes over N points — the per-cell spatial
    join kernel.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    wn = np.zeros(px.shape, dtype=np.int64)
    x0s, y0s = xs[:-1], ys[:-1]
    x1s, y1s = xs[1:], ys[1:]
    for x0, y0, x1, y1 in zip(x0s, y0s, x1s, y1s):
        if y0 <= y1:
            # candidate upward crossings: y0 <= p < y1
            m = (y0 <= py) & (y1 > py)
            if m.any():
                lft = (x1 - x0) * (py[m] - y0) - (px[m] - x0) * (y1 - y0)
                upd = np.zeros(m.sum(), dtype=np.int64)
                upd[lft > 0.0] = 1
                wn[m] += upd
        else:
            m = (y0 > py) & (y1 <= py)
            if m.any():
                lft = (x1 - x0) * (py[m] - y0) - (px[m] - x0) * (y1 - y0)
                upd = np.zeros(m.sum(), dtype=np.int64)
                upd[lft < 0.0] = 1
                wn[m] -= upd
    return (wn % 2) != 0


def ring_runs(xs, ys, gs, r0: int, r1: int, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
    """Scanline runs of one closed ring over grid rows ``r0..r1`` and
    columns ``c0..c1`` (both end-exclusive) of ``gs``.

    Returns ``(rows, ks)``, int32 and sorted by row: one entry per (edge,
    row) crossing. The cell centre (row, col) of the window is inside the
    ring — exactly as ``points_in_poly`` decides — when an odd number of
    its row's entries have ``k > col``. Crossings that cover no column of
    the window are dropped.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if r0 >= r1 or c0 >= c1 or len(xs) < 2:
        return np.empty(0, np.int32), np.empty(0, np.int32)
    x0, y0, x1, y1 = xs[:-1], ys[:-1], xs[1:], ys[1:]
    # row-centre y falls with the row: search the reversed (ascending) copy
    # for the half-open span  min(y0, y1) <= py < max(y0, y1)
    nrows = r1 - r0
    py_asc = gs.y_from_row(np.arange(r0, r1))[::-1]
    lo = np.searchsorted(py_asc, np.minimum(y0, y1), side="left")
    hi = np.searchsorted(py_asc, np.maximum(y0, y1), side="left")
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int32), np.empty(0, np.int32)
    edge = np.repeat(np.arange(len(x0)), counts)
    starts = np.cumsum(counts) - counts
    j = lo[edge] + (np.arange(total) - starts[edge])
    rows = r0 + (nrows - 1 - j)
    py = py_asc[j]
    ex0, ey0, ey1 = x0[edge], y0[edge], y1[edge]
    up = ey0 <= ey1
    a = (x1[edge] - ex0) * (py - ey0)
    dy = ey1 - ey0
    # bisection: k = number of leading window columns where the edge's
    # is_left test holds (a prefix, see the module docstring)
    px = gs.x_from_col(np.arange(c0, c1))
    ncols = c1 - c0
    klo = np.zeros(total, dtype=np.int64)
    khi = np.full(total, ncols, dtype=np.int64)
    while True:
        active = klo < khi
        if not active.any():
            break
        mid = (klo + khi) >> 1
        lft = a - (px[np.minimum(mid, ncols - 1)] - ex0) * dy
        holds = np.where(up, lft > 0.0, lft < 0.0)
        klo = np.where(active & holds, mid + 1, klo)
        khi = np.where(active & ~holds, mid, khi)
    keep = klo > 0
    rows, ks = rows[keep], c0 + klo[keep]
    order = np.argsort(rows, kind="stable")
    return rows[order].astype(np.int32), ks[order].astype(np.int32)


def runs_mask(rows: np.ndarray, ks: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Inside mask of the sub-window rows ``r0..r1`` x columns ``c0..c1``
    (end-exclusive) from ``ring_runs`` output. The sub-window must lie in
    the window the runs were built over."""
    h, w = r1 - r0, c1 - c0
    i0, i1 = np.searchsorted(rows, [r0, r1], side="left")
    k = np.clip(ks[i0:i1].astype(np.int64) - c0, 0, w)
    hist = np.bincount((rows[i0:i1].astype(np.int64) - r0) * (w + 1) + k, minlength=h * (w + 1))
    # cell col is toggled by every crossing with k > col: a suffix sum
    suffix = np.cumsum(hist.reshape(h, w + 1)[:, :0:-1], axis=1)[:, ::-1]
    return (suffix & 1).astype(bool)


def polygon_area(xs, ys) -> float:
    """Abs shoelace area (poly_area.rs:12-26); works for open or closed rings."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    a = float(np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1]))
    a += float(xs[-1] * ys[0] - xs[0] * ys[-1])
    return abs(a) / 2.0


def signed_area2(xs, ys) -> float:
    """Raw shoelace sum (= 2 * signed area); positive = counter-clockwise."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    a = float(np.sum(xs[:-1] * ys[1:] - xs[1:] * ys[:-1]))
    a += float(xs[-1] * ys[0] - xs[0] * ys[-1])
    return a


def polygon_perimeter(xs, ys) -> float:
    """Closed-ring perimeter (poly_perimeter.rs:12-24); closes the ring itself."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    d = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
    d += math.hypot(xs[0] - xs[-1], ys[0] - ys[-1])
    return d


def _bourke_ccw(xs: np.ndarray, ys: np.ndarray) -> bool:
    """Bourke convex/concave orientation test over an UNCLOSED vertex run.

    Returns True for counter-clockwise. geometry.rs:342-412 /
    is_clockwise_order.rs — convex: sign of crossproducts[0] (with the
    reference's ``>= 0`` tie rule); concave: sign of the shoelace area
    (``area >= 0`` → CCW).
    """
    n = len(xs)
    prv = np.roll(np.arange(n), 1)
    nxt = np.roll(np.arange(n), -1)
    cps = (xs - xs[prv]) * (ys[nxt] - ys) - (ys - ys[prv]) * (xs[nxt] - xs)
    test_sign = cps[0] >= 0.0
    if test_sign:
        is_convex = bool(np.all(cps[1:] >= 0.0))
    else:
        is_convex = bool(np.all(cps[1:] < 0.0))
    if is_convex:
        return bool(test_sign)
    area = float(np.sum(xs * ys[nxt] - xs[nxt] * ys)) / 2.0
    return area >= 0.0


def is_hole_ring(xs, ys) -> bool:
    """True if a polygon ring is a hole (counter-clockwise), geometry.rs:305-412.

    ``xs``/``ys`` must be the ring WITHOUT its closing duplicate vertex —
    callers slicing multi-part geometries must apply the reference's part
    end-point formula first (see ``vectors.part_slices``).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 3:
        return False
    return _bourke_ccw(xs, ys)


def is_clockwise_order(xs, ys) -> bool:
    """is_clockwise_order.rs — drops a duplicated closing vertex, then Bourke test."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs[0] == xs[-1] and ys[0] == ys[-1]:
        xs, ys = xs[:-1], ys[:-1]
    if len(xs) < 3:
        return False
    return not _bourke_ccw(xs, ys)


def point_in_box(x, y, min_x, max_x, min_y, max_y):
    """Strictly-inside bbox test (bounding_box.rs:217-219): boundary excluded."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.logical_not((max_y <= y) | (max_x <= x) | (min_y >= y) | (min_x >= x))


# alias: the vectorized form is identical (numpy broadcasting)
points_in_box = point_in_box


def poly_is_convex(xs, ys) -> bool:
    """poly_ops.rs:117-147 — all adjacent cross products share a sign."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    got_neg = got_pos = False
    for a in range(n):
        b = (a + 1) % n
        c = (b + 1) % n
        cp = (xs[a] - xs[b]) * (ys[c] - ys[b]) - (ys[a] - ys[b]) * (xs[c] - xs[b])
        if cp < 0.0:
            got_neg = True
        elif cp > 0.0:
            got_pos = True
        if got_neg and got_pos:
            return False
    return True


def interior_point(xs, ys) -> tuple[float, float]:
    """A point guaranteed inside the closed ring (poly_ops.rs:interior_point)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    if n > 4:
        for a in range(1, n - 1):
            if abs(is_left(xs[a - 1], ys[a - 1], xs[a + 1], ys[a + 1], xs[a], ys[a])) > 2.2e-16:
                mx = (xs[a - 1] + xs[a + 1]) / 2.0
                my = (ys[a - 1] + ys[a + 1]) / 2.0
                if point_in_poly(mx, my, xs, ys):
                    return (mx, my)
        return (float(xs[0]), float(ys[0]))
    if n == 4:
        mx = float(np.mean(xs[:3]))
        my = float(np.mean(ys[:3]))
        if point_in_poly(mx, my, xs, ys):
            return (mx, my)
        return (float(xs[0]), float(ys[0]))
    raise ValueError("polygon needs at least 4 vertices (closed ring)")


def convex_hull(xs, ys) -> np.ndarray:
    """Andrew's monotone-chain hull (convex_hull.rs semantics).

    Returns indices into the input arrays, CCW order, without repeating the
    first point.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    order = np.lexsort((ys, xs))
    pts = np.stack([xs[order], ys[order]], axis=1)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[int] = []
    for i in range(len(pts)):
        while len(lower) >= 2 and cross(pts[lower[-2]], pts[lower[-1]], pts[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in range(len(pts) - 1, -1, -1):
        while len(upper) >= 2 and cross(pts[upper[-2]], pts[upper[-1]], pts[i]) <= 0:
            upper.pop()
        upper.append(i)
    hull_local = lower[:-1] + upper[:-1]
    return order[np.array(hull_local, dtype=np.int64)]


def minimum_bounding_box(xs, ys) -> tuple[np.ndarray, float]:
    """Rotating-calipers minimum-area bounding box over the convex hull.

    minimum_bounding_box.rs:28 semantics (min-area criterion). Returns
    (4x2 corner array, box area).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    hidx = convex_hull(xs, ys)
    hx, hy = xs[hidx], ys[hidx]
    n = len(hx)
    if n == 1:
        c = np.array([[hx[0], hy[0]]] * 4)
        return c, 0.0
    best_area = math.inf
    best_corners = None
    for i in range(n):
        j = (i + 1) % n
        ex, ey = hx[j] - hx[i], hy[j] - hy[i]
        elen = math.hypot(ex, ey)
        if elen == 0.0:
            continue
        ux, uy = ex / elen, ey / elen  # edge direction
        vx, vy = -uy, ux  # normal
        proj_u = hx * ux + hy * uy
        proj_v = hx * vx + hy * vy
        u0, u1 = proj_u.min(), proj_u.max()
        v0, v1 = proj_v.min(), proj_v.max()
        area = (u1 - u0) * (v1 - v0)
        if area < best_area:
            best_area = area
            best_corners = np.array(
                [
                    [u0 * ux + v0 * vx, u0 * uy + v0 * vy],
                    [u1 * ux + v0 * vx, u1 * uy + v0 * vy],
                    [u1 * ux + v1 * vx, u1 * uy + v1 * vy],
                    [u0 * ux + v1 * vx, u0 * uy + v1 * vy],
                ]
            )
    return best_corners, float(best_area)


def smallest_enclosing_circle(xs, ys, seed: int = 42) -> tuple[float, float, float]:
    """Welzl's smallest enclosing circle (smallest_enclosing_circle.rs:20).

    Deterministic shuffle (fixed seed) → expected O(n). Returns (cx, cy, r).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    pts = list(zip(xs.tolist(), ys.tolist()))
    rng = np.random.RandomState(seed)
    rng.shuffle(pts)

    def in_circle(c, p):
        return c is not None and math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * (1 + 1e-14)

    def circle_two(p, q):
        cx, cy = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
        return (cx, cy, math.hypot(p[0] - cx, p[1] - cy))

    def circle_three(p, q, r):
        ax, ay, bx, by, cx_, cy_ = p[0], p[1], q[0], q[1], r[0], r[1]
        d = 2.0 * (ax * (by - cy_) + bx * (cy_ - ay) + cx_ * (ay - by))
        if d == 0.0:
            return None
        ux = ((ax * ax + ay * ay) * (by - cy_) + (bx * bx + by * by) * (cy_ - ay) + (cx_ * cx_ + cy_ * cy_) * (ay - by)) / d
        uy = ((ax * ax + ay * ay) * (cx_ - bx) + (bx * bx + by * by) * (ax - cx_) + (cx_ * cx_ + cy_ * cy_) * (bx - ax)) / d
        return (ux, uy, math.hypot(ax - ux, ay - uy))

    c = None
    for i, p in enumerate(pts):
        if not in_circle(c, p):
            c = (p[0], p[1], 0.0)
            for j, q in enumerate(pts[: i + 1]):
                if not in_circle(c, q):
                    c = circle_two(p, q)
                    for r_ in pts[: j + 1]:
                        if not in_circle(c, r_):
                            c3 = circle_three(p, q, r_)
                            if c3 is not None:
                                c = c3
    return c if c is not None else (float("nan"), float("nan"), 0.0)
