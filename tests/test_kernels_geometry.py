"""Kernel-parity layer: the reference's unit tests re-expressed in pytest.

Sources (semantics only, no code copied):
poly_ops.rs:180-257, poly_area.rs tests, poly_perimeter.rs tests,
is_clockwise_order.rs, bounding_box.rs:217-219, geometry.rs:305-412.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitebox_tools_ray.kernels import geometry as g
from whitebox_tools_ray.kernels.grid import GridSpec


TRI = ([0.0, 5.0, 5.0, 0.0], [0.0, 0.0, 5.0, 0.0])  # the reference's test "rectangle" (a closed triangle)
SQ = ([0.0, 5.0, 5.0, 0.0, 0.0], [0.0, 0.0, 5.0, 5.0, 0.0])


class TestPointInPoly:
    # poly_ops.rs:184-196
    def test_inside_outside(self):
        xs, ys = TRI
        assert g.point_in_poly(2.0, 2.0, xs, ys)
        assert not g.point_in_poly(12.0, 12.0, xs, ys)

    # poly_ops.rs:198-211 — boundary is outside
    def test_winding_number_boundary(self):
        xs, ys = TRI
        assert g.winding_number(5.0, 2.0, np.array(xs), np.array(ys)) == 0
        assert g.winding_number(4.0, 2.0, np.array(xs), np.array(ys)) == 1
        assert g.winding_number(6.0, 2.0, np.array(xs), np.array(ys)) == 0

    def test_vectorized_matches_scalar(self):
        xs, ys = TRI
        rng = np.random.RandomState(0)
        px = rng.uniform(-2, 8, 500)
        py = rng.uniform(-2, 8, 500)
        vec = g.points_in_poly(px, py, xs, ys)
        ref = np.array([g.point_in_poly(x, y, xs, ys) for x, y in zip(px, py)])
        assert np.array_equal(vec, ref)

    def test_vectorized_boundary_cases(self):
        # The reference's own boundary cases (poly_ops.rs:198-211): right-edge
        # point outside, interior point inside, exterior point outside. Other
        # boundary points (bottom edge / corners) follow whatever the winding
        # arithmetic yields — parity = match the algorithm, so the vectorized
        # kernel is checked against the scalar port for those.
        xs, ys = SQ
        px = np.array([5.0, 4.0, 6.0, 0.0, 2.5, 2.5])
        py = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 5.0])
        out = g.points_in_poly(px, py, xs, ys)
        assert out.tolist()[:3] == [False, True, False]
        ref = [g.point_in_poly(x, y, xs, ys) for x, y in zip(px, py)]
        assert out.tolist() == ref


class TestPolyInPoly:
    # poly_ops.rs:213-231
    def test_poly_in_poly(self):
        x1, y1 = np.array(TRI[0]), np.array(TRI[1])
        x2 = np.array([-1.0, 6.0, 6.0, -1.0])
        y2 = np.array([-1.0, -1.0, 6.0, -1.0])
        inside = all(g.point_in_poly(px, py, x2, y2) for px, py in zip(x1, y1))
        assert inside
        inside_rev = all(g.point_in_poly(px, py, x1, y1) for px, py in zip(x2, y2))
        assert not inside_rev


class TestConvex:
    # poly_ops.rs:233-257
    def test_square_convex(self):
        assert g.poly_is_convex(np.array(SQ[0]), np.array(SQ[1]))

    def test_notch_not_convex(self):
        xs = np.array([0.0, 5.0, 5.0, 2.5, 0.0, 0.0])
        ys = np.array([0.0, 0.0, 5.0, 3.0, 5.0, 0.0])
        assert not g.poly_is_convex(xs, ys)


class TestAreaPerimeter:
    # poly_area.rs tests
    def test_closed_area(self):
        assert g.polygon_area(SQ[0], SQ[1]) == 25.0

    def test_open_area(self):
        assert g.polygon_area([0.0, 5.0, 5.0, 0.0], [0.0, 0.0, 5.0, 5.0]) == 25.0

    # poly_perimeter.rs tests
    def test_closed_perimeter(self):
        assert g.polygon_perimeter(SQ[0], SQ[1]) == 20.0

    def test_open_perimeter(self):
        assert g.polygon_perimeter([0.0, 5.0, 5.0, 0.0], [0.0, 0.0, 5.0, 5.0]) == 20.0


class TestOrientation:
    def test_clockwise(self):
        # y-up frame: (0,0)→(0,5)→(5,5)→(5,0) is clockwise
        xs = np.array([0.0, 0.0, 5.0, 5.0, 0.0])
        ys = np.array([0.0, 5.0, 5.0, 0.0, 0.0])
        assert g.is_clockwise_order(xs, ys)
        assert not g.is_clockwise_order(xs[::-1], ys[::-1])

    def test_is_hole_ring(self):
        # counter-clockwise ring (unclosed) = hole
        xs = np.array([0.0, 5.0, 5.0, 0.0])
        ys = np.array([0.0, 0.0, 5.0, 5.0])
        assert g.is_hole_ring(xs, ys)
        assert not g.is_hole_ring(xs[::-1], ys[::-1])

    def test_is_hole_concave(self):
        # concave CCW ring
        xs = np.array([0.0, 5.0, 5.0, 2.5, 0.0])
        ys = np.array([0.0, 0.0, 5.0, 3.0, 5.0])
        assert g.is_hole_ring(xs, ys)
        assert not g.is_hole_ring(xs[::-1], ys[::-1])


class TestBBox:
    # bounding_box.rs:217-219 — strict inequalities
    def test_boundary_excluded(self):
        assert g.point_in_box(2.0, 2.0, 0.0, 5.0, 0.0, 5.0)
        assert not g.point_in_box(5.0, 2.0, 0.0, 5.0, 0.0, 5.0)
        assert not g.point_in_box(0.0, 2.0, 0.0, 5.0, 0.0, 5.0)
        assert not g.point_in_box(2.0, 0.0, 0.0, 5.0, 0.0, 5.0)

    def test_vectorized(self):
        x = np.array([2.0, 5.0, -1.0])
        y = np.array([2.0, 2.0, 2.0])
        out = g.points_in_box(x, y, 0.0, 5.0, 0.0, 5.0)
        assert out.tolist() == [True, False, False]


class TestHull:
    def test_square_hull(self):
        xs = np.array([0.0, 5.0, 5.0, 0.0, 2.5])
        ys = np.array([0.0, 0.0, 5.0, 5.0, 2.5])
        idx = g.convex_hull(xs, ys)
        assert set(idx.tolist()) == {0, 1, 2, 3}

    def test_mbb(self):
        xs = np.array([0.0, 5.0, 5.0, 0.0])
        ys = np.array([0.0, 0.0, 5.0, 5.0])
        corners, area = g.minimum_bounding_box(xs, ys)
        assert area == pytest.approx(25.0)

    def test_rotated_mbb(self):
        # diamond: mbb area = 2 (rotated square side sqrt(2))
        xs = np.array([0.0, 1.0, 0.0, -1.0])
        ys = np.array([1.0, 0.0, -1.0, 0.0])
        _, area = g.minimum_bounding_box(xs, ys)
        assert area == pytest.approx(2.0)

    def test_welzl(self):
        xs = np.array([0.0, 2.0, 1.0, 1.0])
        ys = np.array([0.0, 0.0, 1.0, -1.0])
        cx, cy, r = g.smallest_enclosing_circle(xs, ys)
        assert cx == pytest.approx(1.0)
        assert cy == pytest.approx(0.0)
        assert r == pytest.approx(1.0)

    def test_interior_point(self):
        xs = np.array(SQ[0])
        ys = np.array(SQ[1])
        px, py = g.interior_point(xs, ys)
        assert g.point_in_poly(px, py, xs, ys)


# --- scanline runs vs the per-cell winding test --------------------------

RUNS_SET = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def ring_on_grid(draw):
    """A random closed ring on a random grid: vertices on cell centres or
    anywhere near the grid, repeated y values (horizontal edges), free
    self-intersection; negative or offset origins; res 0.5 to 30."""
    res = draw(st.sampled_from([0.5, 1.0, 2.5, 7.3, 30.0]) | st.floats(0.5, 30.0))
    west = draw(st.sampled_from([0.0, -1234.5, 6.0e5]) | st.floats(-1e6, 1e6))
    north = draw(st.sampled_from([0.0, -987.25, 4.5e6]) | st.floats(-1e6, 5e6))
    gs = GridSpec(west=west, north=north, res_x=res, res_y=res, rows=24, columns=24, nodata=-32768.0)
    n = draw(st.integers(3, 12))
    xs, ys = [], []
    for i in range(n):
        if draw(st.booleans()):
            x = float(gs.x_from_col(draw(st.integers(-3, 27))))
            y = float(gs.y_from_row(draw(st.integers(-3, 27))))
        else:
            x = west + draw(st.floats(-3.0, 27.0)) * res
            y = north - draw(st.floats(-3.0, 27.0)) * res
        if i and draw(st.integers(0, 3)) == 0:
            y = ys[-1]  # horizontal edge
        xs.append(x)
        ys.append(y)
    xs.append(xs[0])
    ys.append(ys[0])
    r0 = draw(st.integers(-2, 24))
    r1 = draw(st.integers(r0 + 1, 26))
    c0 = draw(st.integers(-2, 24))
    c1 = draw(st.integers(c0 + 1, 26))
    return gs, np.array(xs), np.array(ys), (r0, r1, c0, c1)


class TestRingRuns:
    @RUNS_SET
    @given(ring_on_grid(), st.data())
    def test_runs_mask_matches_points_in_poly(self, case, data):
        gs, xs, ys, (r0, r1, c0, c1) = case
        rows, ks = g.ring_runs(xs, ys, gs, r0, r1, c0, c1)
        gx, gy = np.meshgrid(gs.x_from_col(np.arange(c0, c1)), gs.y_from_row(np.arange(r0, r1)))
        expect = g.points_in_poly(gx.ravel(), gy.ravel(), xs, ys).reshape(gx.shape)
        np.testing.assert_array_equal(g.runs_mask(rows, ks, r0, r1, c0, c1), expect)
        # any sub-window (a tile cutting the window) reads the same cells
        a0 = data.draw(st.integers(r0, r1 - 1))
        a1 = data.draw(st.integers(a0 + 1, r1))
        b0 = data.draw(st.integers(c0, c1 - 1))
        b1 = data.draw(st.integers(b0 + 1, c1))
        np.testing.assert_array_equal(
            g.runs_mask(rows, ks, a0, a1, b0, b1), expect[a0 - r0 : a1 - r0, b0 - c0 : b1 - c0]
        )

    def test_vertex_on_cell_centre_row(self):
        # a vertex exactly on a row centre: the half-open y rule decides
        gs = GridSpec(west=0.0, north=10.0, res_x=1.0, res_y=1.0, rows=10, columns=10, nodata=-1.0)
        xs = np.array([1.5, 8.5, 4.5, 1.5])
        ys = np.array([1.5, 1.5, 8.5, 1.5])
        rows, ks = g.ring_runs(xs, ys, gs, 0, 10, 0, 10)
        gx, gy = np.meshgrid(gs.x_from_col(np.arange(10)), gs.y_from_row(np.arange(10)))
        expect = g.points_in_poly(gx.ravel(), gy.ravel(), xs, ys).reshape(10, 10)
        np.testing.assert_array_equal(g.runs_mask(rows, ks, 0, 10, 0, 10), expect)
        assert rows.dtype == np.int32 and np.all(np.diff(rows) >= 0)

    def test_empty_window(self):
        gs = GridSpec(west=0.0, north=10.0, res_x=1.0, res_y=1.0, rows=10, columns=10, nodata=-1.0)
        xs, ys = np.array(SQ[0]), np.array(SQ[1])
        rows, ks = g.ring_runs(xs, ys, gs, 4, 4, 0, 10)
        assert len(rows) == len(ks) == 0
