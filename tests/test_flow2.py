"""Multi-direction flow family: tiled BSP engine vs whole-grid oracles."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.sources import tiles as tsrc
from whitebox_tools_ray.stages import flow2
from whitebox_tools_ray.stages.flow2 import _fractions
from whitebox_tools_ray.stages.focal import DX8, DY8


def tiles_from_grid(full, spec, fmt="f32"):
    rows = []
    tpx = spec.tile_px
    for tr in range(spec.tiles_y):
        for tc in range(spec.tiles_x):
            g = full[tr * tpx : (tr + 1) * tpx, tc * tpx : (tc + 1) * tpx]
            rows.append(
                {
                    "tile_row": tr,
                    "tile_col": tc,
                    "bytes": codecs.encode_tile(np.ascontiguousarray(g), fmt),
                    "fmt": fmt,
                }
            )
    return rd.from_pandas(pd.DataFrame(rows))


def assemble(df, spec):
    full = np.full((spec.rows, spec.columns), spec.nodata)
    for _, row in df.iterrows():
        g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
        r0 = int(row["tile_row"]) * spec.tile_px
        c0 = int(row["tile_col"]) * spec.tile_px
        full[r0 : r0 + g.shape[0], c0 : c0 + g.shape[1]] = g
    return full


def whole_grid_fractions(full, spec, method, exponent=1.1):
    pad = np.full((full.shape[0] + 2, full.shape[1] + 2), spec.nodata)
    pad[1:-1, 1:-1] = full
    return _fractions(pad, spec.nodata, spec, method, exponent)


def whole_grid_accum(full, spec, method, exponent=1.1):
    """Push-based accumulation in decreasing-z order (valid because every
    receiving neighbour is strictly lower for fd8/dinf/d8)."""
    frac = whole_grid_fractions(full, spec, method, exponent)
    acc = np.ones_like(full)
    order = np.argsort(-full.ravel(), kind="stable")
    rows, cols = full.shape
    for idx in order:
        r, c = idx // cols, idx % cols
        for i in range(8):
            f = frac[i, r, c]
            if f > 0:
                acc[r + DY8[i], c + DX8[i]] += acc[r, c] * f
    return acc


@pytest.fixture(scope="module")
def dem(ray_session):
    """A depression-free synthetic DEM: a tilted plane + smooth bumps,
    then single-cell pit filling applied analytically is unnecessary —
    monotone tilt dominates."""
    spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=16, seed=3)
    yy, xx = np.meshgrid(np.arange(32, dtype=np.float64), np.arange(32, dtype=np.float64), indexing="ij")
    full = 100.0 - 0.9 * yy - 0.7 * xx + 2.0 * np.sin(yy / 5.0) * np.cos(xx / 7.0)
    return spec, full


class TestFractions:
    def test_fd8_fractions_sum_to_one(self, dem):
        spec, full = dem
        frac = whole_grid_fractions(full, spec, "fd8")
        tot = frac.sum(axis=0)
        interior_pits = (tot == 0).sum()
        assert interior_pits < 8  # tilted plane: almost every cell drains
        nz = tot > 0
        np.testing.assert_allclose(tot[nz], 1.0, atol=1e-12)

    def test_dinf_fractions_sum_to_one_and_descend(self, dem):
        spec, full = dem
        frac = whole_grid_fractions(full, spec, "dinf")
        tot = frac.sum(axis=0)
        nz = tot > 0
        np.testing.assert_allclose(tot[nz], 1.0, atol=1e-9)
        rr, cc = np.nonzero(nz)
        for r, c in zip(rr[:50], cc[:50]):
            for i in range(8):
                if frac[i, r, c] > 0:
                    assert full[r + DY8[i], c + DX8[i]] < full[r, c]


class TestAccumulation:
    def test_fd8_tiled_matches_whole_grid(self, dem):
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.fd8_flow_accumulation(ds, spec, num_workers=2).to_pandas(), spec)
        want = whole_grid_accum(full, spec, "fd8")
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)

    def test_dinf_tiled_matches_whole_grid(self, dem):
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.dinf_flow_accumulation(ds, spec, num_workers=2).to_pandas(), spec)
        want = whole_grid_accum(full, spec, "dinf")
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-3)

    def test_mass_conservation(self, dem):
        """Total outflow over scene-edge draining cells + pit totals must
        equal the cell count (every cell contributes 1)."""
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.fd8_flow_accumulation(ds, spec, num_workers=2).to_pandas(), spec)
        # cells whose fractions all exit the scene or none: accumulate mass;
        # instead check the whole-grid oracle conserves too and matches
        want = whole_grid_accum(full, spec, "fd8")
        assert got.sum() == pytest.approx(want.sum(), rel=1e-6)


class TestMassFlux:
    def test_d8_mass_flux_uniform_efficiency(self, dem):
        """With loading=1, eff=1, absorption=0, D8 mass flux == D8
        accumulation (cells counting)."""
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        ones = tiles_from_grid(np.ones_like(full), spec)
        zeros = tiles_from_grid(np.zeros_like(full), spec)
        eff = tiles_from_grid(np.ones_like(full), spec)
        got = assemble(
            flow2.d8_mass_flux(ds, ones, eff, zeros, spec, num_workers=2).to_pandas(), spec
        )
        want = whole_grid_accum(full, spec, "d8")
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-4)

    def test_d8_mass_flux_reads_f64_layers(self, dem):
        """Each layer decodes in its own tile format: f64 layers give the
        same result as f32 layers holding the same values."""
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        loading = 1.0 + (np.indices(full.shape).sum(axis=0) % 3)

        def run(fmt):
            layers = [tiles_from_grid(g, spec, fmt) for g in (loading, np.full_like(full, 0.5), np.zeros_like(full))]
            return assemble(flow2.d8_mass_flux(ds, *layers, spec, num_workers=2).to_pandas(), spec)

        np.testing.assert_array_equal(run("f64"), run("f32"))


class TestPathLengths:
    def test_maxlen_monotone_downstream(self, dem):
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.max_upslope_flowpath_length(ds, spec, num_workers=2).to_pandas(), spec)
        frac = whole_grid_fractions(full, spec, "d8")
        # brute-force: L(c) = max over senders (L(s) + step)
        want = np.zeros_like(full)
        order = np.argsort(-full.ravel(), kind="stable")
        cols = full.shape[1]
        for idx in order:
            r, c = idx // cols, idx % cols
            for i in range(8):
                if frac[i, r, c] > 0:
                    step = spec.res * (np.sqrt(2.0) if DY8[i] and DX8[i] else 1.0)
                    nr, nc = r + DY8[i], c + DX8[i]
                    want[nr, nc] = max(want[nr, nc], want[r, c] + step)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_avglen_tiled_matches_whole_grid(self, dem):
        """Average upslope flowpath length: each cell carries (Σ length,
        number of paths); a head cell counts as one path of length 0."""
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.average_upslope_flowpath_length(ds, spec, num_workers=2).to_pandas(), spec)
        frac = whole_grid_fractions(full, spec, "d8")
        total = np.zeros_like(full)
        paths = np.zeros_like(full)
        order = np.argsort(-full.ravel(), kind="stable")
        cols = full.shape[1]
        for idx in order:
            r, c = idx // cols, idx % cols
            n = paths[r, c] if paths[r, c] > 0 else 1.0
            for i in range(8):
                if frac[i, r, c] > 0:
                    step = spec.res * (np.sqrt(2.0) if DY8[i] and DX8[i] else 1.0)
                    nr, nc = r + DY8[i], c + DX8[i]
                    total[nr, nc] += total[r, c] + n * step
                    paths[nr, nc] += n
        want = total / np.maximum(paths, 1.0)
        assert (want > 0).sum() > full.size // 2
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestTrace:
    def test_trace_marks_downstream_path(self, dem):
        spec, full = dem
        ds = tiles_from_grid(full, spec)
        seeds = np.zeros_like(full)
        seeds[3, 3] = 1.0
        sds = tiles_from_grid(seeds, spec)
        got = assemble(flow2.trace_downslope_flowpaths(ds, sds, spec, num_workers=2).to_pandas(), spec)
        assert got[3, 3] == 1.0
        assert 1 < (got == 1.0).sum() < full.size  # a path, not the scene
        # every marked cell (except the seed) has a marked sender
        frac = whole_grid_fractions(full, spec, "d8")
        rr, cc = np.nonzero(got == 1.0)
        for r, c in zip(rr, cc):
            if (r, c) == (3, 3):
                continue
            has_marked_sender = False
            for i in range(8):
                sr, sc = r - DY8[i], c - DX8[i]
                if 0 <= sr < full.shape[0] and 0 <= sc < full.shape[1]:
                    if frac[i, sr, sc] > 0 and got[sr, sc] == 1.0:
                        has_marked_sender = True
            assert has_marked_sender


class TestPitFixes:
    def test_fill_single_cell_pit(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = 50.0 - yy
        full[7, 7] = 10.0  # single-cell pit
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.fill_single_cell_pits(ds, spec).to_pandas(), spec)
        nb = [full[7 + dy, 7 + dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)]
        assert got[7, 7] == pytest.approx(min(nb))
        mask = np.ones_like(full, dtype=bool)
        mask[7, 7] = False
        np.testing.assert_allclose(got[mask], full[mask])

    def test_breach_leaves_a_pit_free_plane_alone(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        _, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = 100.0 - xx
        got = assemble(flow2.breach_single_cell_pits(tiles_from_grid(full, spec), spec).to_pandas(), spec)
        np.testing.assert_array_equal(got, full)

    def test_breach_single_cell_pit_across_a_seam(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        full = np.full((16, 16), 50.0)
        full[7, 7] = 10.0  # pit in tile (0, 0)
        full[7, 9] = 5.0  # lower cell two steps east, in tile (0, 1)
        got = assemble(flow2.breach_single_cell_pits(tiles_from_grid(full, spec), spec).to_pandas(), spec)
        want = full.copy()
        want[7, 8] = (10.0 + 5.0) / 2.0
        np.testing.assert_array_equal(got, want)


class TestPointers:
    def test_dinf_pointer_plane_east(self, ray_session):
        """A plane tilted purely to the east flows at angle 0° (east)."""
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = 100.0 - xx
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.dinf_pointer(ds, spec).to_pandas(), spec)
        interior = got[1:-1, 1:-2]
        assert np.allclose(interior, 0.0, atol=1e-6)

    def test_fd8_pointer_bitfield(self, ray_session):
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = 100.0 - xx
        ds = tiles_from_grid(full, spec)
        got = assemble(flow2.fd8_pointer(ds, spec).to_pandas(), spec)
        # pure east tilt: E plus both east diagonals are lower (FD8
        # disperses) — ring idx 0=NE, 1=E, 2=SE
        assert got[5, 5] == float((1 << 0) | (1 << 1) | (1 << 2))


class TestSubbasins:
    def test_two_streams_split_the_plane(self, ray_session):
        """Two vertical stream lines with link ids 1, 2 on an east-tilted
        plane: every cell joins the subbasin of the stream it hits."""
        spec = tsrc.SceneSpec(tiles_x=2, tiles_y=2, tile_px=8, seed=1)
        yy, xx = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        full = 100.0 - xx
        from whitebox_tools_ray.stages.flow import d8_pointer_masked

        dem_ds = tiles_from_grid(full, spec)
        ptr_ds = d8_pointer_masked(dem_ds, spec)
        links = np.zeros_like(full)
        links[:, 5] = 1.0
        links[:, 12] = 2.0
        link_ds = tiles_from_grid(links, spec)
        got = assemble(flow2.subbasins(ptr_ds, link_ds, spec, num_workers=2).to_pandas(), spec)
        # cells west of col 5 flow east into stream 1; cols 6-11 into stream 2
        assert (got[:, 0:5] == 1.0).all()
        assert (got[:, 6:12] == 2.0).all()
