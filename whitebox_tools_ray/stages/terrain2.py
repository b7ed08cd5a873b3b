"""Terrain analysis part 2 — curvatures, texture, landform class,
pointwise hydro indices.

All single-halo kernels run on the focal halo engine; texture measures
that need a derived surface (aspect, slope, normals) inside a window
compute the derivative on the padded array with an enlarged halo, so
one shuffle still suffices. Two-layer indices (SPI, wetness, STI)
compose with ``band_math.overlay_fn`` over aligned tile layers.

- prof/tan/total curvature — ProfCurvature (prof_curvature.rs:285-300),
  TangentialCurvature (tan_curvature.rs:277-290), TotalCurvature
  (total_curvature.rs:267-271): Evans finite differences, degrees ×100.
- relative_aspect — RelativeAspect (relative_aspect.rs): |aspect − az|
  folded to [0, 180].
- num_downslope/upslope_neighbours — (num_downslope_neighbours.rs):
  count of strictly lower / higher 8-neighbours.
- max/min_downslope_elev_change — (max_downslope_elev_change.rs:228-234)
- find_ridges — FindRidges (find_ridges.rs): lower neighbours both N+S
  or both E+W.
- surface_area_ratio — SurfaceAreaRatio (surface_area_ratio.rs,
  Jenness 2004 eight-triangle method).
- circular_variance_of_aspect — (circular_variance_of_aspect.rs):
  1 − R̄ of windowed aspect angles.
- stdev_of_slope — StandardDeviationOfSlope: window σ of slope.
- edge_density — EdgeDensity (edge_density.rs): proportion of window
  cells whose normal differs from a neighbour by > threshold.
- pennock_landform_class — PennockLandformClass
  (pennock_landform_class.rs:43-54, classes 1-7).
- stream_power_index / wetness_index / sediment_transport_index —
  (relative_stream_power_index.rs, wetness_index.rs,
  sediment_transport_index.rs): ln(SCA^p·tanβ), ln(SCA/tanβ),
  (n+1)(SCA/22.13)^n(sinβ/0.0896)^m.
- elev_above_pit — ElevAbovePit (elev_above_pit.rs): z − z(flowpath
  terminal pit), terminal gids from the Dataset-native BSP resolver.
"""

from __future__ import annotations

import numpy as np

from .focal import DX8, DY8, _shifted, focal_op


def _nbrs(pad, halo, tpx, z, nodata, replace_center=True):
    n = []
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        n.append(np.where(zi != nodata, zi, z) if replace_center else zi)
    return n


def _partials(pad, nodata, spec):
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    n = _nbrs(pad, halo, tpx, z, nodata)
    c2 = spec.res * 2.0
    c_sq = spec.res * spec.res
    zx = (n[1] - n[5]) / c2
    zy = (n[7] - n[3]) / c2
    zxx = (n[1] - 2.0 * z + n[5]) / c_sq
    zyy = (n[7] - 2.0 * z + n[3]) / c_sq
    zxy = (-n[6] + n[0] + n[4] - n[2]) / (4.0 * c_sq)
    return z, zx, zy, zxx, zyy, zxy


def prof_curvature_kernel(pad, nodata, spec):
    z, zx, zy, zxx, zyy, zxy = _partials(pad, nodata, spec)
    zx2, zy2 = zx * zx, zy * zy
    p = zx2 + zy2
    q = p + 1.0
    with np.errstate(all="ignore"):
        val = np.degrees((zxx * zx2 + 2.0 * zxy * zx * zy + zyy * zy2) / (p * q**1.5)) * 100.0
    out = np.where(p > 0.0, val, nodata)
    return np.where(z != nodata, out, nodata)


def tan_curvature_kernel(pad, nodata, spec):
    z, zx, zy, zxx, zyy, zxy = _partials(pad, nodata, spec)
    zx2, zy2 = zx * zx, zy * zy
    p = zx2 + zy2
    q = p + 1.0
    with np.errstate(all="ignore"):
        val = np.degrees((zxx * zy2 + 2.0 * zxy * zx * zy + zyy * zx2) / (p * np.sqrt(q))) * 100.0
    out = np.where(p > 0.0, val, nodata)
    return np.where(z != nodata, out, nodata)


def total_curvature_kernel(pad, nodata, spec):
    z, _zx, _zy, zxx, zyy, zxy = _partials(pad, nodata, spec)
    val = np.degrees(zxx * zxx + 2.0 * zxy * zxy + zyy * zyy) * 100.0
    return np.where(z != nodata, val, nodata)


def prof_curvature(tiles_ds, spec):
    return focal_op(tiles_ds, spec, prof_curvature_kernel, 1)


def tan_curvature(tiles_ds, spec):
    return focal_op(tiles_ds, spec, tan_curvature_kernel, 1)


def total_curvature(tiles_ds, spec):
    return focal_op(tiles_ds, spec, total_curvature_kernel, 1)


def _aspect_grid(grid, nodata, res):
    """Aspect in degrees (azimuth clockwise from north) over a full
    padded array; interior cells only (1-cell margin invalid)."""
    z = grid[1:-1, 1:-1]
    n = {}
    for i, (dy, dx) in enumerate(zip(DY8, DX8)):
        zi = grid[1 + dy : grid.shape[0] - 1 + dy, 1 + dx : grid.shape[1] - 1 + dx]
        n[i] = np.where(zi != nodata, zi, z)
    eight = res * 8.0
    fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight
    fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight
    # aspect.rs:256-283 branch (matches focal.aspect_kernel)
    with np.errstate(all="ignore"):
        val = 180.0 - np.degrees(np.arctan(fy / np.where(fx != 0, fx, 1.0))) + 90.0 * np.sign(fx)
    asp = np.where(fx > 0.0, val, -1.0)
    return np.where(z != nodata, asp, nodata)


def relative_aspect(tiles_ds, spec, azimuth: float = 0.0, out_fmt: str = "f32"):
    """RelativeAspect: angular distance of aspect from ``azimuth``."""

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        sub = pad[halo - 1 : halo + tpx + 1, halo - 1 : halo + tpx + 1]
        asp = _aspect_grid(sub, nodata, spec_.res)
        z = _shifted(pad, halo, tpx, 0, 0)
        d = np.abs(asp - azimuth) % 360.0
        d = np.where(d > 180.0, 360.0 - d, d)
        out = np.where(asp == -1.0, -1.0, d)
        return np.where((z != nodata) & (asp != nodata), out, nodata)

    return focal_op(tiles_ds, spec, kernel, 2, out_fmt=out_fmt)


def _count_kernel(cmp):
    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        cnt = np.zeros_like(z)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            cnt += (cmp(zi, z) & (zi != nodata)).astype(np.float64)
        return np.where(z != nodata, cnt, nodata)

    return kernel


def num_downslope_neighbours(tiles_ds, spec):
    return focal_op(tiles_ds, spec, _count_kernel(lambda zi, z: zi < z), 1)


def num_upslope_neighbours(tiles_ds, spec):
    return focal_op(tiles_ds, spec, _count_kernel(lambda zi, z: zi > z), 1)


def _elev_change_kernel(which: str):
    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        best = np.full(z.shape, -np.inf if which == "max" else np.inf)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            drop = np.where((zi != nodata) & (zi < z), z - zi, np.nan)
            with np.errstate(all="ignore"):
                if which == "max":
                    best = np.fmax(best, np.where(np.isnan(drop), -np.inf, drop))
                else:
                    best = np.fmin(best, np.where(np.isnan(drop), np.inf, drop))
        out = np.where(np.isfinite(best), best, 0.0)
        return np.where(z != nodata, out, nodata)

    return kernel


def max_downslope_elev_change(tiles_ds, spec):
    return focal_op(tiles_ds, spec, _elev_change_kernel("max"), 1)


def min_downslope_elev_change(tiles_ds, spec):
    return focal_op(tiles_ds, spec, _elev_change_kernel("min"), 1)


def find_ridges(tiles_ds, spec, line_thin: bool = False):
    """FindRidges: z with strictly lower N AND S neighbours, or strictly
    lower E AND W neighbours → 1 else 0."""

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        north = _shifted(pad, halo, tpx, -1, 0)
        south = _shifted(pad, halo, tpx, 1, 0)
        east = _shifted(pad, halo, tpx, 0, 1)
        west = _shifted(pad, halo, tpx, 0, -1)
        ns = (north != nodata) & (south != nodata) & (north < z) & (south < z)
        ew = (east != nodata) & (west != nodata) & (east < z) & (west < z)
        out = np.where(ns | ew, 1.0, 0.0)
        return np.where(z != nodata, out, nodata)

    out = focal_op(tiles_ds, spec, kernel, 1)
    if line_thin:
        from .filters2 import line_thinning

        out = line_thinning(out, spec)
    return out


def surface_area_ratio(tiles_ds, spec):
    """Jenness (2004) eight-triangle surface area / planar area."""

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        n = _nbrs(pad, halo, tpx, z, nodata)
        res = spec_.res
        cell_area = res * res
        # half-distances from centre to each neighbour in 3-D
        diag = np.sqrt(2.0) * res
        dists = []
        for i in range(8):
            horiz = diag if i % 2 == 0 else res
            dz = n[i] - z
            dists.append(0.5 * np.sqrt(horiz * horiz + dz * dz))
        # neighbour-to-neighbour half-edges (between adjacent ring cells)
        side = []
        for i in range(8):
            j = (i + 1) % 8
            dz = n[j] - n[i]
            side.append(0.5 * np.sqrt(res * res + dz * dz))
        area = np.zeros_like(z)
        for i in range(8):
            j = (i + 1) % 8
            a, b, c = dists[i], dists[j], side[i]
            s = 0.5 * (a + b + c)
            with np.errstate(all="ignore"):
                area += np.sqrt(np.maximum(s * (s - a) * (s - b) * (s - c), 0.0))
        out = np.maximum(area / cell_area, 1.0)
        return np.where(z != nodata, out, nodata)

    return focal_op(tiles_ds, spec, kernel, 1)


def circular_variance_of_aspect(tiles_ds, spec, radius: int = 2):
    """1 − mean resultant length of windowed aspect vectors."""
    from numpy.lib.stride_tricks import sliding_window_view

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        m = radius + 1
        sub = pad[halo - m : halo + tpx + m, halo - m : halo + tpx + m]
        asp = _aspect_grid(sub, nodata, spec_.res)  # (tpx+2r, tpx+2r)
        rad = np.radians(np.where(asp >= 0, asp, 0.0))
        ok = (asp != nodata) & (asp >= 0)
        sin = np.where(ok, np.sin(rad), 0.0)
        cos = np.where(ok, np.cos(rad), 0.0)
        k = 2 * radius + 1
        sw = sliding_window_view(sin, (k, k)).sum(axis=(-2, -1))
        cw = sliding_window_view(cos, (k, k)).sum(axis=(-2, -1))
        nw = sliding_window_view(ok.astype(np.float64), (k, k)).sum(axis=(-2, -1))
        z = _shifted(pad, halo, tpx, 0, 0)
        with np.errstate(all="ignore"):
            rbar = np.sqrt(sw * sw + cw * cw) / np.maximum(nw, 1.0)
        out = np.where(nw > 0, 1.0 - rbar, nodata)
        return np.where(z != nodata, out, nodata)

    return focal_op(tiles_ds, spec, kernel, radius + 2)


def stdev_of_slope(tiles_ds, spec, radius: int = 2):
    """Window standard deviation of Horn slope (degrees)."""
    from numpy.lib.stride_tricks import sliding_window_view

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        m = radius + 1
        sub = pad[halo - m : halo + tpx + m, halo - m : halo + tpx + m]
        zc = sub[1:-1, 1:-1]
        n = {}
        for i, (dy, dx) in enumerate(zip(DY8, DX8)):
            zi = sub[1 + dy : sub.shape[0] - 1 + dy, 1 + dx : sub.shape[1] - 1 + dx]
            n[i] = np.where(zi != nodata, zi, zc)
        eight = spec_.res * 8.0
        fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight
        fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight
        slope = np.degrees(np.arctan(np.sqrt(fx * fx + fy * fy)))
        ok = zc != nodata
        slope = np.where(ok, slope, 0.0)
        k = 2 * radius + 1
        s = sliding_window_view(slope, (k, k)).sum(axis=(-2, -1))
        ss = sliding_window_view(slope * slope, (k, k)).sum(axis=(-2, -1))
        c = sliding_window_view(ok.astype(np.float64), (k, k)).sum(axis=(-2, -1))
        z = _shifted(pad, halo, tpx, 0, 0)
        with np.errstate(all="ignore"):
            mean = s / np.maximum(c, 1.0)
            var = np.maximum(ss / np.maximum(c, 1.0) - mean * mean, 0.0)
        out = np.where(c > 0, np.sqrt(var), nodata)
        return np.where(z != nodata, out, nodata)

    return focal_op(tiles_ds, spec, kernel, radius + 2)


def edge_density(tiles_ds, spec, radius: int = 2, norm_diff: float = 5.0):
    """Proportion of window cells that are breaks-in-slope: normal-vector
    angular difference to ANY 8-neighbour > norm_diff degrees."""
    from numpy.lib.stride_tricks import sliding_window_view

    cos_thresh = np.cos(np.radians(norm_diff))

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        m = radius + 2
        sub = pad[halo - m : halo + tpx + m, halo - m : halo + tpx + m]
        zc = sub[1:-1, 1:-1]
        n = {}
        for i, (dy, dx) in enumerate(zip(DY8, DX8)):
            zi = sub[1 + dy : sub.shape[0] - 1 + dy, 1 + dx : sub.shape[1] - 1 + dx]
            n[i] = np.where(zi != nodata, zi, zc)
        eight = spec_.res * 8.0
        fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight
        fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight
        norm = np.sqrt(fx * fx + fy * fy + 1.0)
        a, b, c = -fx / norm, -fy / norm, 1.0 / norm
        ok = zc != nodata
        edge = np.zeros(zc.shape, dtype=bool)
        for dy, dx in ((0, 1), (1, 0), (1, 1), (1, -1)):
            dot = (
                a * np.roll(np.roll(a, -dy, 0), -dx, 1)
                + b * np.roll(np.roll(b, -dy, 0), -dx, 1)
                + c * np.roll(np.roll(c, -dy, 0), -dx, 1)
            )
            both = ok & np.roll(np.roll(ok, -dy, 0), -dx, 1)
            hit = both & (dot < cos_thresh)
            edge |= hit
            edge |= np.roll(np.roll(hit, dy, 0), dx, 1)
        k = 2 * radius + 1
        # crop 1-cell margin (normals invalid at the sub edge)
        e = edge[1:-1, 1:-1]
        o = ok[1:-1, 1:-1]
        ec = sliding_window_view(np.where(o, e, False).astype(np.float64), (k, k)).sum(axis=(-2, -1))
        oc = sliding_window_view(o.astype(np.float64), (k, k)).sum(axis=(-2, -1))
        z = _shifted(pad, halo, tpx, 0, 0)
        out = np.where(oc > 0, ec / np.maximum(oc, 1.0), nodata)
        return np.where(z != nodata, out, nodata)

    return focal_op(tiles_ds, spec, kernel, radius + 2)


def pennock_landform_class(tiles_ds, spec, slope_threshold: float = 3.0,
                           prof_threshold: float = 0.1, plan_threshold: float = 0.0):
    """PennockLandformClass (pennock_landform_class.rs:43-54):
    1=CFS 2=DFS 3=CSH 4=DSH 5=CBS 6=DBS 7=Level."""
    from .focal import plan_curvature_kernel

    def kernel(pad, nodata, spec_):
        z, zx, zy, zxx, zyy, zxy = _partials(pad, nodata, spec_)
        slope = np.degrees(np.arctan(np.sqrt(zx * zx + zy * zy)))
        prof = prof_curvature_kernel(pad, nodata, spec_)
        plan = plan_curvature_kernel(pad, nodata, spec_)
        prof = np.where(prof == nodata, 0.0, prof)
        plan = np.where(plan == nodata, 0.0, plan)
        out = np.full(z.shape, 7.0)
        high = slope > slope_threshold
        out[high & (prof < -prof_threshold) & (plan <= -plan_threshold)] = 1.0
        out[high & (prof < -prof_threshold) & (plan > plan_threshold)] = 2.0
        out[high & (prof > prof_threshold) & (plan <= plan_threshold)] = 3.0
        out[high & (prof > prof_threshold) & (plan > plan_threshold)] = 4.0
        lin = (prof >= -prof_threshold) & (prof <= prof_threshold)
        out[high & lin & (plan <= plan_threshold)] = 5.0
        out[high & lin & (plan > plan_threshold)] = 6.0
        return np.where(z != nodata, out, nodata)

    return focal_op(tiles_ds, spec, kernel, 1)


# ------------------------------------------------- two-layer indices


def stream_power_index(sca_ds, slope_ds, spec, exponent: float = 1.0):
    from . import band_math

    def fn(sca, slope):
        with np.errstate(all="ignore"):
            return np.log(np.maximum(sca, 1e-12) ** exponent
                          * np.tan(np.radians(slope)) + 1e-12)

    return band_math.overlay_fn(sca_ds, slope_ds, spec, fn)


def wetness_index(sca_ds, slope_ds, spec, out_fmt: str = "f32"):
    from . import band_math

    def fn(sca, slope):
        with np.errstate(all="ignore"):
            t = np.tan(np.radians(slope))
            return np.log(np.maximum(sca, 1e-12) / np.maximum(t, 1e-12))

    return band_math.overlay_fn(sca_ds, slope_ds, spec, fn, out_fmt=out_fmt)


def sediment_transport_index(sca_ds, slope_ds, spec, sca_exponent: float = 0.4,
                             slope_exponent: float = 1.3):
    from . import band_math

    def fn(sca, slope):
        with np.errstate(all="ignore"):
            return (
                (sca_exponent + 1.0)
                * (np.maximum(sca, 0.0) / 22.13) ** sca_exponent
                * (np.sin(np.radians(slope)) / 0.0896) ** slope_exponent
            )

    return band_math.overlay_fn(sca_ds, slope_ds, spec, fn)


def elev_above_pit(dem_ds, spec, num_workers: int = 4):
    """ElevAbovePit: z − z(terminal pit of the D8 flowpath).

    Pointer from the DEM (one focal pass) → Dataset-native terminal
    resolution (BSP shards) → term_gid tiles; pit elevations are read
    with one broadcast-probe pass over the DEM (distinct terminals are
    few), then subtracted via the keyed tile zip."""
    import pyarrow as pa

    from ..kernels import codecs
    from . import band_math
    from .basins import _run_terminal_resolution
    from .focal import d8_pointer

    gid_ds = _run_terminal_resolution(d8_pointer(dem_ds, spec), spec, num_workers, "term_gid")

    # distinct terminal gids (small: one per pit/outlet)
    def gids(batch: pa.Table) -> pa.Table:
        out = set()
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            v = g[(g != spec.nodata) & (g >= 0)]
            out.update(np.unique(v).astype(np.int64).tolist())
        return pa.table({"gid": pa.array(sorted(out), pa.int64())})

    distinct = set(gid_ds.map_batches(gids, batch_format="pyarrow").to_pandas()["gid"])
    cols = spec.tiles_x * spec.tile_px

    def probe(batch: pa.Table) -> pa.Table:
        hits_g, hits_z = [], []
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            r0, c0 = tr * spec.tile_px, tc * spec.tile_px
            for gid in distinct:
                r, c = gid // cols, gid % cols
                if r0 <= r < r0 + g.shape[0] and c0 <= c < c0 + g.shape[1]:
                    hits_g.append(gid)
                    hits_z.append(float(g[r - r0, c - c0]))
        return pa.table({"gid": pa.array(hits_g, pa.int64()), "z": pa.array(hits_z, pa.float64())})

    pz = dem_ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    lut_g = np.array(sorted(pz["gid"]), dtype=np.int64)
    lut_z = pz.set_index("gid").loc[lut_g, "z"].to_numpy()

    def fn(z, gid):
        if len(lut_g) == 0:
            return np.zeros_like(z)
        g = gid.astype(np.int64)
        idx = np.clip(np.searchsorted(lut_g, g), 0, len(lut_g) - 1)
        pit = np.where(lut_g[idx] == g, lut_z[idx], z)
        return z - pit

    return band_math.overlay_fn(dem_ds, gid_ds, spec, fn, out_fmt="f64")
