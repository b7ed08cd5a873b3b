"""Planar-arrangement polygon overlay kernel (pure NumPy).

The reference implements its whole vector-overlay family — Intersect
(gis_analysis/intersect.rs), Union (union.rs), Difference
(difference.rs), SymmetricalDifference (symmetrical_difference.rs), the
polygon branches of Clip (clip.rs:574-1600) / Erase, SplitWithLines
(split_with_lines.rs) and Polygonize (polygonize.rs) — on one shared
pattern: split all edges at mutual intersections
(src/algorithms/line_ops.rs:86-199 find_split_points_at_line_intersections),
re-assemble rings, and classify fragments by point-in-polygon tests of
interior points.  This module is a from-scratch implementation of that
pattern as a planar arrangement with half-edge face tracing:

1. collect the segments of every input ring (plus optional bare line
   segments), split each at every intersection with every other
   (including collinear-overlap endpoints), snap endpoints to a quantum
   grid, and dedupe undirected edges — shared borders collapse to one
   edge;
2. trace the directed-edge cycles of the arrangement (next(h) = the
   rotational predecessor of twin(h) around head(h)), so every cycle
   bounds exactly one region on its LEFT; bounded regions trace CCW
   (positive signed area), hole boundaries and the outer face trace CW;
3. classify the left region of each cycle with one sample point nudged
   left of the cycle's longest edge, tested even-odd against every input
   group independently (so a group = one polygon record, holes and all);
4. select regions via a caller predicate over the per-group membership
   vector; keep exactly the directed edges whose left region is selected
   and whose right region is not — internal edges between two selected
   regions vanish (dissolve) — and re-trace cycles in that boundary
   subgraph;
5. positive output cycles are shells, negative ones holes; each hole is
   attached to the smallest enclosing shell.

Coordinates are float64 throughout with configurable snapping; the
membership tests reuse this repo's boundary-exclusive even-odd kernel
semantics (poly_ops.rs parity, kernels/geometry.py).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "overlay_groups",
    "polygon_overlay",
    "polygonize_segments",
    "ring_signed_area",
]


def ring_signed_area(ring: np.ndarray) -> float:
    """Shoelace signed area of an (N,2) ring (auto-closed); CCW > 0."""
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _even_odd(px: float, py: float, rings: list[np.ndarray]) -> bool:
    """Even-odd membership of a point in a multi-ring polygon (holes via
    parity). Boundary-inclusive here is irrelevant: sample points are
    strictly interior to arrangement faces by construction."""
    inside = False
    for ring in rings:
        x, y = ring[:, 0], ring[:, 1]
        x1, y1 = x, y
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        cond = (y1 <= py) != (y2 <= py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
        crossings = int(np.count_nonzero(cond & (px < xi)))
        if crossings % 2:
            inside = not inside
    return inside


def _collect_segments(groups, extra_segments):
    """Flatten rings of all groups (+ bare segments) into an (S,4) array."""
    segs = []
    for rings in groups:
        for ring in rings:
            r = np.asarray(ring, dtype=np.float64)
            if len(r) and (r[0] != r[-1]).any():
                r = np.vstack([r, r[:1]])
            a = r[:-1]
            b = r[1:]
            keep = (a != b).any(axis=1)
            if keep.any():
                segs.append(np.hstack([a[keep], b[keep]]))
    if extra_segments is not None:
        for seg in extra_segments:
            s = np.asarray(seg, dtype=np.float64)
            if s.ndim == 1:
                s = s.reshape(2, 2)
            if s.shape == (2, 2):
                if (s[0] != s[1]).any():
                    segs.append(np.hstack([s[:1], s[1:]]))
            else:  # polyline (N,2)
                a, b = s[:-1], s[1:]
                keep = (a != b).any(axis=1)
                if keep.any():
                    segs.append(np.hstack([a[keep], b[keep]]))
    if not segs:
        return np.empty((0, 4))
    return np.vstack(segs)


def _split_segments(segs: np.ndarray, quantum: float) -> np.ndarray:
    """Split every segment at its intersections with every other segment
    (proper crossings, T-junctions and collinear overlaps), returning the
    (E,4) array of elementary edges snapped to the quantum grid."""
    n = len(segs)
    if n == 0:
        return segs
    ax, ay, bx, by = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    dx, dy = bx - ax, by - ay
    minx = np.minimum(ax, bx)
    maxx = np.maximum(ax, bx)
    miny = np.minimum(ay, by)
    maxy = np.maximum(ay, by)
    tol = quantum
    tvals: list[list[float]] = [[] for _ in range(n)]

    for i in range(n):
        # bbox prune against the remaining segments (vectorized)
        j = np.arange(i + 1, n)
        if len(j) == 0:
            continue
        ok = (
            (minx[j] <= maxx[i] + tol)
            & (maxx[j] >= minx[i] - tol)
            & (miny[j] <= maxy[i] + tol)
            & (maxy[j] >= miny[i] - tol)
        )
        j = j[ok]
        if len(j) == 0:
            continue
        # r x s cross products (orientation form)
        rx, ry = dx[i], dy[i]
        qpx, qpy = ax[j] - ax[i], ay[j] - ay[i]
        sx, sy = dx[j], dy[j]
        denom = rx * sy - ry * sx
        qpxs = qpx * sy - qpy * sx  # (q-p) x s
        qpxr = qpx * ry - qpy * rx  # (q-p) x r ... note sign
        rlen2 = rx * rx + ry * ry
        rlen = np.sqrt(max(rlen2, 1e-300))
        slen = np.hypot(sx, sy)
        para = np.abs(denom) <= 1e-12 * rlen * np.maximum(slen, 1e-300)
        # --- proper / touching intersections (non-parallel) ---
        npj = ~para
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(npj, qpxs / denom, np.nan)  # along segment i
            u = np.where(npj, qpxr / denom, np.nan)  # along segment j
        hit = npj & (t >= -1e-12) & (t <= 1 + 1e-12) & (u >= -1e-12) & (u <= 1 + 1e-12)
        for k, jj in enumerate(j):
            if hit[k]:
                tvals[i].append(min(max(float(t[k]), 0.0), 1.0))
                tvals[jj].append(min(max(float(u[k]), 0.0), 1.0))
        # --- collinear overlaps: project each other's endpoints ---
        # |qpxr| / rlen = perpendicular distance of segment j's start
        # from line i → collinear iff within the snapping quantum
        col = para & (np.abs(qpxr) <= tol * rlen)
        if col.any() and rlen2 > 0:
            for k, jj in enumerate(j):
                if not col[k]:
                    continue
                # endpoints of j projected on i
                for ex, ey in ((ax[jj], ay[jj]), (bx[jj], by[jj])):
                    t0 = ((ex - ax[i]) * rx + (ey - ay[i]) * ry) / rlen2
                    if -1e-12 <= t0 <= 1 + 1e-12:
                        tvals[i].append(min(max(t0, 0.0), 1.0))
                slen2 = sx[k] * sx[k] + sy[k] * sy[k]
                if slen2 > 0:
                    for ex, ey in ((ax[i], ay[i]), (bx[i], by[i])):
                        u0 = ((ex - ax[jj]) * sx[k] + (ey - ay[jj]) * sy[k]) / slen2
                        if -1e-12 <= u0 <= 1 + 1e-12:
                            tvals[jj].append(min(max(u0, 0.0), 1.0))

    pieces = []
    for i in range(n):
        ts = np.unique(np.concatenate([[0.0, 1.0], np.asarray(tvals[i], dtype=np.float64)]))
        pts = np.column_stack([ax[i] + ts * dx[i], ay[i] + ts * dy[i]])
        pts = np.round(pts / quantum) * quantum
        a, b = pts[:-1], pts[1:]
        keep = (a != b).any(axis=1)
        if keep.any():
            pieces.append(np.hstack([a[keep], b[keep]]))
    if not pieces:
        return np.empty((0, 4))
    return np.vstack(pieces)


class _HalfEdges:
    """Directed-edge structure over the snapped elementary edges."""

    def __init__(self, edges: np.ndarray):
        # dedupe undirected edges
        a = edges[:, :2]
        b = edges[:, 2:]
        lo = np.where(
            (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] < b[:, 1])),
            True,
            False,
        )
        canon = np.where(lo[:, None], np.hstack([a, b]), np.hstack([b, a]))
        canon = np.unique(canon, axis=0)
        a, b = canon[:, :2], canon[:, 2:]
        m = len(canon)
        # directed edges: 2k = a->b, 2k+1 = b->a
        self.tail = np.vstack([a, b]).reshape(2, m, 2).transpose(1, 0, 2).reshape(2 * m, 2)
        self.head = np.vstack([b, a]).reshape(2, m, 2).transpose(1, 0, 2).reshape(2 * m, 2)
        self.m = m
        # node ids
        pts, inv = np.unique(np.vstack([self.tail, self.head]), axis=0, return_inverse=True)
        self.points = pts
        self.tail_n = inv[: 2 * m]
        self.head_n = inv[2 * m :]
        # angle of each directed edge leaving its tail
        d = self.head - self.tail
        self.angle = np.arctan2(d[:, 1], d[:, 0])
        self.length = np.hypot(d[:, 0], d[:, 1])
        # per-node CCW-sorted outgoing edges + each edge's rank
        order = np.lexsort((self.angle, self.tail_n))
        self.out_sorted = order  # edge ids grouped by tail node, angle asc
        self.node_start = np.searchsorted(self.tail_n[order], np.arange(len(pts) + 1))
        self.rank = np.empty(2 * m, dtype=np.int64)
        for nid in range(len(pts)):
            s, e = self.node_start[nid], self.node_start[nid + 1]
            self.rank[order[s:e]] = np.arange(e - s)

    def twin(self, h: int) -> int:
        return h ^ 1

    def next_in_face(self, h: int, active: np.ndarray | None = None) -> int:
        """Standard DCEL successor: at head(h), take twin(h)'s rotational
        PREDECESSOR (clockwise next) among outgoing edges — restricted to
        ``active`` directed edges when given."""
        t = h ^ 1
        nid = self.tail_n[t]
        s, e = self.node_start[nid], self.node_start[nid + 1]
        ring = self.out_sorted[s:e]
        k = int(self.rank[t])
        cnt = e - s
        for step in range(1, cnt + 1):
            cand = ring[(k - step) % cnt]
            if active is None or active[cand]:
                return int(cand)
        return t  # dangling: bounce back


def _trace_cycles(he: _HalfEdges, active: np.ndarray | None = None):
    """Partition (active) directed edges into cycles; returns a list of
    edge-id arrays."""
    total = 2 * he.m
    seen = np.zeros(total, dtype=bool)
    if active is not None:
        seen[~active] = True
    cycles = []
    for h0 in range(total):
        if seen[h0]:
            continue
        cyc = []
        h = h0
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = he.next_in_face(h, active)
        cycles.append(np.asarray(cyc, dtype=np.int64))
    return cycles


def _cycle_polygon(he: _HalfEdges, cyc: np.ndarray) -> np.ndarray:
    return he.tail[cyc]


def _remove_spikes(ring: np.ndarray, quantum: float) -> np.ndarray:
    """Drop immediate backtracks (u→v→u) produced by dangling edges."""
    changed = True
    while changed and len(ring) > 2:
        nxt = np.roll(ring, -1, axis=0)
        prv = np.roll(ring, 1, axis=0)
        spike = (np.abs(prv - nxt) <= quantum).all(axis=1)
        if spike.any():
            # removing a spike apex also removes one of its duplicated
            # neighbors on the next pass
            ring = ring[~spike]
        else:
            changed = False
    return ring


def _nudge_left(p: np.ndarray, q: np.ndarray, all_points: np.ndarray, quantum: float):
    """A point just left of directed edge p→q, with the nudge bounded by
    the clearance to the nearest non-incident arrangement vertex so it
    cannot jump across a skinny face."""
    mid = (p + q) / 2.0
    d = q - p
    L = float(np.hypot(d[0], d[1]))
    nrm = np.array([-d[1], d[0]]) / L  # left normal
    eps = L * 1e-3
    if len(all_points):
        dist = np.hypot(all_points[:, 0] - mid[0], all_points[:, 1] - mid[1])
        dist = dist[dist > quantum]
        if len(dist):
            eps = min(eps, 0.25 * float(dist.min()))
    eps = max(eps, quantum * 4)
    return float(mid[0] + nrm[0] * eps), float(mid[1] + nrm[1] * eps)


def _sample_left(he: _HalfEdges, cyc: np.ndarray, quantum: float):
    """A point strictly inside the region left of the cycle: nudge off
    the midpoint of the cycle's longest edge."""
    lens = he.length[cyc]
    h = int(cyc[int(np.argmax(lens))])
    return _nudge_left(he.tail[h], he.head[h], he.points, quantum)


def _sample_left_ring(ring: np.ndarray, all_points: np.ndarray, quantum: float):
    """Sample just left of the longest edge of a standalone ring."""
    nxt = np.roll(ring, -1, axis=0)
    lens = np.hypot(nxt[:, 0] - ring[:, 0], nxt[:, 1] - ring[:, 1])
    k = int(np.argmax(lens))
    return _nudge_left(ring[k], nxt[k], all_points, quantum)


def overlay_groups(
    groups: list[list[np.ndarray]],
    select_fn,
    extra_segments=None,
    quantum: float = 1e-9,
    dissolve: bool = True,
):
    """Overlay N polygon groups; emit the region where ``select_fn``
    holds.

    groups       — list of polygon records; each a list of (N,2) rings
                   (even-odd semantics inside a group, i.e. holes are
                   just rings).
    select_fn    — callable(membership: np.ndarray[bool] of len(groups))
                   → bool; evaluated once per arrangement region.
    extra_segments — optional bare segments/polylines that further split
                   faces (SplitWithLines) without affecting membership.
    dissolve     — drop internal edges between two selected regions.
                   When False, each selected face is emitted separately
                   (fragment form — SplitWithLines output).

    Returns list of polygons, each ``{"shell": (N,2) CCW ring,
    "holes": [(M,2) CW rings]}`` in arrangement orientation (shells CCW
    in a y-up frame). Callers converting to this repo's shapefile-parity
    record convention (shells CW / holes CCW, Bourke test) should
    reverse ring order.
    """
    segs = _collect_segments(groups, extra_segments)
    if len(segs) == 0:
        return []
    # scale-aware DYADIC quantum: a power of two ≈ 1e-12 × the span, so
    # snapping (round(x/q)*q) is exact binary arithmetic and already-
    # representable coordinates (integers, halves, …) are unchanged
    import math

    span = max(float(segs.max() - segs.min()), 1.0)
    q = 2.0 ** (math.floor(math.log2(span)) - 40)
    if quantum > q:
        q = 2.0 ** math.ceil(math.log2(quantum))
    edges = _split_segments(segs, q)
    if len(edges) == 0:
        return []
    he = _HalfEdges(edges)
    cycles = _trace_cycles(he)

    # classify the left region of each cycle
    n_cyc = len(cycles)
    sel = np.zeros(n_cyc, dtype=bool)
    grp_rings = [[np.asarray(r, dtype=np.float64) for r in rings] for rings in groups]
    cyc_of_edge = np.empty(2 * he.m, dtype=np.int64)
    for ci, cyc in enumerate(cycles):
        cyc_of_edge[cyc] = ci
    for ci, cyc in enumerate(cycles):
        px, py = _sample_left(he, cyc, q)
        membership = np.fromiter(
            (_even_odd(px, py, rings) for rings in grp_rings), dtype=bool, count=len(grp_rings)
        )
        sel[ci] = bool(select_fn(membership))

    # boundary subgraph: left selected, right (twin's region) not
    left_sel = sel[cyc_of_edge]
    if dissolve:
        active = left_sel & ~left_sel[np.arange(2 * he.m) ^ 1]
        out_cycles = _trace_cycles(he, active) if active.any() else []
    else:
        out_cycles = [cycles[ci] for ci in range(n_cyc) if sel[ci]]

    shells: list[tuple[np.ndarray, float]] = []
    holes: list[np.ndarray] = []
    for cyc in out_cycles:
        ring = _remove_spikes(_cycle_polygon(he, cyc), q)
        if len(ring) < 3:
            continue
        area = ring_signed_area(ring)
        if abs(area) <= (q * q):
            continue
        if area > 0:
            shells.append((ring, area))
        else:
            holes.append(ring)

    polys = [{"shell": s, "holes": [], "area": a} for s, a in shells]
    for hring in holes:
        # sample just LEFT of the hole cycle = strictly inside the face
        # it bounds (never on a shared vertex), then pick the smallest
        # enclosing shell
        hx, hy = _sample_left_ring(hring, he.points, q)
        cand = []
        for pi, poly in enumerate(polys):
            if _even_odd_on_ring(hx, hy, poly["shell"]):
                cand.append((poly["area"], pi))
        if cand:
            polys[min(cand)[1]]["holes"].append(hring)
    for p in polys:
        del p["area"]
    return polys


def _even_odd_on_ring(px: float, py: float, ring: np.ndarray) -> bool:
    return _even_odd(px, py, [ring])


def polygon_overlay(
    a_rings: list[np.ndarray],
    b_groups: list[list[np.ndarray]],
    op: str,
    quantum: float = 1e-9,
):
    """Binary overlay of one subject polygon A against a list of overlay
    polygons B (each its own even-odd group).

    op ∈ {"intersect", "difference", "union", "symdiff"} — reference
    parity: intersect.rs / difference.rs / union.rs /
    symmetrical_difference.rs (per overlapping pair; our output is the
    dissolved region, equal as a point set)."""
    groups = [a_rings] + list(b_groups)

    if op == "intersect":
        fn = lambda m: bool(m[0] and m[1:].any())
    elif op == "difference":
        fn = lambda m: bool(m[0] and not m[1:].any())
    elif op == "union":
        fn = lambda m: bool(m.any())
    elif op == "symdiff":
        fn = lambda m: bool(m[0] != m[1:].any())
    else:
        raise ValueError(f"unknown overlay op: {op}")
    return overlay_groups(groups, fn, quantum=quantum)


def polygonize_segments(segments, quantum: float = 1e-9):
    """Polygonize (polygonize.rs): all bounded faces of a line
    arrangement become polygons (fragment form — each face its own
    record, annular faces keep their hole rings)."""
    return overlay_groups(
        [], lambda m: True, extra_segments=segments, quantum=quantum, dissolve=False
    )
