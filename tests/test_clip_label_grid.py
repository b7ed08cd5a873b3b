"""Property test for the label-grid interior filter of the broadcast point
clip (``stages.spatial_join.clip_filter``): bit-equal to the exact
``clip_kernel`` scan, and the clip/erase task body keeps exactly the
kernel's rows or their complement."""

import math
from unittest import mock

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from whitebox_tools_ray.stages import spatial_join as sj

FILTER_SET = settings(max_examples=200, deadline=None, derandomize=True)

NONFINITE = [math.nan, math.inf, -math.inf]


def make_parts(rings, holes):
    """ClipParts in scan order from (xs, ys) rings, as prepare_clip_parts
    lays them out."""
    out = []
    for i, ((xs, ys), hole) in enumerate(zip(rings, holes)):
        xs, ys = np.asarray(xs, np.float64), np.asarray(ys, np.float64)
        out.append(sj.ClipPart(i + 1, i, xs, ys, xs.min(), xs.max(), ys.min(), ys.max(), hole))
    return out


@st.composite
def layers(draw):
    """1-5 parts over a frame of side 1 to 1e4 at an origin up to 5e6:
    lattice, drawn or generic vertices, closed or open rings, zero-width
    bboxes, holes and overlaps (random is_hole flags, scanned last-wins),
    and now and then one part with a non-finite vertex (no grid at all)."""
    side = draw(st.sampled_from([1.0, 3.0, 1000.0]) | st.floats(1.0, 1e4))
    # half the frames end just past 0, where (x - x_min) loses low bits
    near_zero = st.floats(0.0, 2.0).map(lambda d: d - side)
    ox = draw(near_zero if draw(st.booleans()) else st.sampled_from([0.0, -1234.5, 5e6, -5e6]) | st.floats(-5e6, 5e6))
    oy = draw(near_zero if draw(st.booleans()) else st.sampled_from([0.0, 987.25, 5e6, -5e6]) | st.floats(-5e6, 5e6))
    lattice = side / 8.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat_x = draw(st.integers(0, 7)) == 0  # every bbox zero-width: zero-width frame
    rings, holes = [], []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 7))
        xs, ys = [], []
        for _ in range(n):
            where = draw(st.integers(0, 3))
            if where == 0:
                xs.append(ox + draw(st.integers(0, 8)) * lattice)
                ys.append(oy + draw(st.integers(0, 8)) * lattice)
            elif where == 1:
                xs.append(ox + draw(st.floats(0.0, 1.0)) * side)
                ys.append(oy + draw(st.floats(0.0, 1.0)) * side)
            else:  # generic: off every lattice and grid line
                xs.append(ox + rng.uniform() * side)
                ys.append(oy + rng.uniform() * side)
        if draw(st.integers(0, 2)) == 0:
            # out to the frame's far corner: a rectangle with its lower-left
            # corner cut off, or (left open) a C whose x_min side is no edge
            a, b, c, d = xs[0], ox + side, ys[0], oy + side
            xs, ys, n = [(a + b) / 2, b, b, a], [c, c, d, d], 4
        if flat_x or draw(st.integers(0, 5)) == 0:
            xs = [ox if flat_x else xs[0]] * n  # zero-width bbox
        if draw(st.integers(0, 2)) != 0:  # most rings are closed
            xs.append(xs[0])
            ys.append(ys[0])
        rings.append((xs, ys))
        holes.append(draw(st.booleans()))
    if draw(st.integers(0, 5)) == 0:
        rings[-1][0][0] = draw(st.sampled_from(NONFINITE))
    return make_parts(rings, holes)


def probe_points(draw, parts, grid):
    """Points on vertices, on edges (and where edges cross grid lines), on
    bbox sides, on grid-cell boundaries and centres, at the level of a
    ring's end vertices (where an open ring's parity flips), anywhere in
    and beyond the frame, and non-finite ones; some moved one ulp in x
    and/or y. Then a dense random cloud over the frame."""
    xs, ys = (np.concatenate(c) for c in zip(*((p.xs, p.ys) for p in parts)))
    lo_x, hi_x = xs[np.isfinite(xs)].min(), xs[np.isfinite(xs)].max()
    lo_y, hi_y = ys[np.isfinite(ys)].min(), ys[np.isfinite(ys)].max()
    span = max(hi_x - lo_x, hi_y - lo_y, 1.0)
    finite_grid = math.isfinite(grid.cw)
    px, py = [], []
    for _ in range(draw(st.integers(20, 60))):
        kind = draw(st.integers(0, 7))
        p = parts[draw(st.integers(0, len(parts) - 1))]
        if kind == 0:  # vertex or on an edge
            i = draw(st.integers(0, len(p.xs) - 1))
            j = min(i + 1, len(p.xs) - 1)
            t = draw(st.sampled_from([0.0, 0.5, 0.25]) | st.floats(0.0, 1.0))
            x, y = p.xs[i] + t * (p.xs[j] - p.xs[i]), p.ys[i] + t * (p.ys[j] - p.ys[i])
        elif kind == 1 and finite_grid:  # an edge crossing a vertical grid line
            i = draw(st.integers(0, len(p.xs) - 1))
            j = min(i + 1, len(p.xs) - 1)
            x = grid.x0 + draw(st.integers(0, sj.LABEL_GRID)) * grid.cw
            dx = p.xs[j] - p.xs[i]
            t = (x - p.xs[i]) / dx if dx else 0.5
            y = p.ys[i] + min(max(t, 0.0), 1.0) * (p.ys[j] - p.ys[i])
        elif kind == 2:  # on a bbox side
            t = draw(st.floats(0.0, 1.0))
            side = draw(st.integers(0, 3))
            x = [p.x_min, p.x_max][side] if side < 2 else p.x_min + t * (p.x_max - p.x_min)
            y = [p.y_min, p.y_max][side - 2] if side >= 2 else p.y_min + t * (p.y_max - p.y_min)
        elif kind == 3 and finite_grid:  # grid-cell corner, boundary or centre
            x = grid.x0 + draw(st.integers(-1, 2 * sj.LABEL_GRID + 1)) * 0.5 * grid.cw
            y = grid.y0 + draw(st.integers(-1, 2 * sj.LABEL_GRID + 1)) * 0.5 * grid.ch
        elif kind == 4:  # non-finite in one or both coordinates
            x = draw(st.sampled_from(NONFINITE) | st.just(lo_x))
            y = draw(st.sampled_from(NONFINITE))
            if draw(st.booleans()):
                x, y = y, x
        elif kind == 5:  # just inside the layer's far sides, where (x - x_min) rounds most
            t = draw(st.floats(0.0, 1.0))
            x, y = math.nextafter(hi_x, -math.inf), lo_y + t * (hi_y - lo_y)
            if draw(st.booleans()):
                x, y = lo_x + t * (hi_x - lo_x), math.nextafter(hi_y, -math.inf)
        elif kind == 6 and finite_grid:  # on or beside the level of a ring's end vertex
            x = p.x_min + draw(st.floats(0.0, 1.0)) * (p.x_max - p.x_min)
            y = p.ys[draw(st.sampled_from([0, -1]))] + draw(st.sampled_from([0.0, -0.25, 0.25])) * grid.ch
        else:  # anywhere in the frame or well beyond it
            x = lo_x + draw(st.floats(-0.2, 1.2)) * span
            y = lo_y + draw(st.floats(-0.2, 1.2)) * span
        # one ulp either way, in x, y or both
        nx, ny = draw(st.sampled_from([0, 0, -1, 1])), draw(st.sampled_from([0, 0, -1, 1]))
        if nx and math.isfinite(x):
            x = math.nextafter(x, nx * math.inf)
        if ny and math.isfinite(y):
            y = math.nextafter(y, ny * math.inf)
        px.append(x)
        py.append(y)
    # then, from a drawn seed: a dense cloud over the frame, to reach every
    # kind of cell, and for every part points on its bbox sides and at its
    # end vertices' levels; each with its one-ulp neighbours
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fx, fy = [lo_x + rng.uniform(-0.1, 1.1, 2000) * span], [lo_y + rng.uniform(-0.1, 1.1, 2000) * span]
    for p in parts:
        t = rng.uniform(size=16)
        along_x, along_y = p.x_min + t * (p.x_max - p.x_min), p.y_min + t * (p.y_max - p.y_min)
        fx += [np.full(16, p.x_min), np.full(16, p.x_max), along_x, along_x]
        fy += [along_y, along_y, np.full(16, p.y_min), np.full(16, p.y_max)]
        if finite_grid:  # left of an end vertex, on, above and below its level
            for x, y in ((p.xs[0], p.ys[0]), (p.xs[-1], p.ys[-1])):
                fx.append(p.x_min + t * (x - p.x_min))
                fy.append(y + rng.choice([0.0, -0.25, -0.01, 0.01, 0.25], 16) * grid.ch)
    fx, fy = np.concatenate(fx), np.concatenate(fy)
    down, up = np.nextafter(fx, -np.inf), np.nextafter(fy, np.inf)
    fx, fy = np.r_[fx, down, np.nextafter(fx, np.inf), fx, fx], np.r_[fy, fy, fy, np.nextafter(fy, -np.inf), up]
    return np.r_[np.array(px, dtype=np.float64), fx], np.r_[np.array(py, dtype=np.float64), fy]


class TestLabelGridFilter:
    @FILTER_SET
    @given(layers(), st.data())
    def test_filter_matches_clip_kernel(self, parts, data):
        grid = sj.build_label_grid(parts)
        # layers with a non-finite vertex overflow inside the kernel
        with np.errstate(invalid="ignore", over="ignore"), mock.patch.object(sj, "get_cached", lambda ref: ref):
            px, py = probe_points(data.draw, parts, grid)
            expect = sj.clip_kernel(px, py, parts)
            np.testing.assert_array_equal(sj.clip_filter(px, py, parts, grid), expect)
            # the task body: clip keeps the kernel's rows, erase the complement
            batch = pa.table({"record_id": pa.array(np.arange(len(px))), "x": px, "y": py})
            for keep_inside in (True, False):
                got = sj._ClipFn((parts, grid), keep_inside, "x", "y")(batch)
                want = np.flatnonzero(expect == keep_inside)
                np.testing.assert_array_equal(got["record_id"].to_numpy(), want)

    def test_empty_layer_has_no_grid(self):
        grid = sj.build_label_grid([])
        px = np.array([0.0, 1e6, math.nan, math.inf])
        assert not math.isfinite(grid.cw)
        assert not sj.clip_filter(px, px, [], grid).any()

    def test_zero_width_frame(self):
        # every part is a vertical line at x = 5e6: nothing is strictly
        # inside a zero-width bbox, on the line or off it
        parts = make_parts([([5e6] * 3, [0.0, 2.0, 0.0]), ([5e6] * 2, [1.0, 3.0])], [False, False])
        grid = sj.build_label_grid(parts)
        px = np.array([5e6, 5e6, np.nextafter(5e6, 0.0), 5e6 + 1.0, 5e6])
        py = np.array([1.0, 2.5, 1.0, 1.0, -1.0])
        np.testing.assert_array_equal(sj.clip_filter(px, py, parts, grid), sj.clip_kernel(px, py, parts))
        assert not sj.clip_filter(px, py, parts, grid).any()

    def test_most_cells_resolve_on_the_fixture_layer(self):
        from whitebox_tools_ray.sources.vectors import fixture_polygons

        parts = sj.prepare_clip_parts(fixture_polygons())
        grid = sj.build_label_grid(parts)
        inner = grid.labels[1:-1, 1:-1]
        assert (inner == sj.UNRESOLVED).mean() < 0.1
        assert (inner == sj.INSIDE).any() and (inner == sj.OUTSIDE).any()
