"""Multiscale terrain family + normal-dispersion texture.

The multiscale tools sweep a windowed statistic over a range of filter
radii and keep, per cell, the scale-maximal magnitude and the radius at
which it occurred. Each scale is ONE focal halo pass; the running
max/scale combine is the keyed tile zip (``band_math.overlay_fn``) —
the driver loop only moves scale parameters, never pixels. Signature
variants evaluate the same sweep at a handful of probe points (one
broadcast-probe pass per scale, tiny result tables).

- max_elevation_deviation — MaxElevationDeviation
  (max_elevation_deviation.rs): max |DEV(r)| (+ scale layer) over
  r ∈ [min_scale, max_scale] step `step`.
- max_elev_dev_signature  — MaxElevDevSignature: the DEV(r) curve at
  probe points.
- multiscale_roughness(+_signature) — MultiscaleRoughness
  (multiscale_roughness.rs): windowed angular dispersion of surface
  normals, maximized over scales.
- multiscale_std_dev_normals(+_signature) — MultiscaleStdDevNormals:
  spherical standard deviation of normals per scale.
- spherical_std_dev_of_normals — SphericalStdDevOfNormals
  (spherical_std_dev_of_normals.rs): s = √(−2 ln R̄) in degrees
  (Fisher statistics; R̄ = |Σn̂|/N).
- average_normal_vector_angular_deviation —
  AverageNormalVectorAngularDeviation: mean angle between each normal
  and the window-mean normal.
- max_anisotropy_dev(+_signature) — MaxAnisotropyDev
  (max_anisotropy_dev.rs): dispersion of DEV across the four
  directional (elongated) windows, maximized over scales.
- multiscale_topographic_position_image —
  MultiscaleTopographicPositionImage: R/G/B = broad/meso/local DEV
  rescaled, packed as an RGB composite.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import codecs
from . import band_math
from .focal import _shifted, dev_from_mean_kernel, focal_op


# ------------------------------------------------ normal-dispersion kernels


def _normal_components(pad, nodata, res):
    """Unit normal components over the interior of a padded array
    (1-cell margin invalid), Horn gradient."""
    z = pad[1:-1, 1:-1]
    n = {}
    from .focal import DX8, DY8

    for i, (dy, dx) in enumerate(zip(DY8, DX8)):
        zi = pad[1 + dy : pad.shape[0] - 1 + dy, 1 + dx : pad.shape[1] - 1 + dx]
        n[i] = np.where(zi != nodata, zi, z)
    eight = res * 8.0
    fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight
    fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight
    norm = np.sqrt(fx * fx + fy * fy + 1.0)
    return -fx / norm, -fy / norm, 1.0 / norm, (z != nodata)


def _window_sums(img, halo, tpx, radius):
    S = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
    S[1:, 1:] = np.cumsum(np.cumsum(img, 0), 1)
    r = radius
    i0 = halo - r
    i1 = halo + r + 1
    return (
        S[i1 : i1 + tpx, i1 : i1 + tpx]
        - S[i0 : i0 + tpx, i1 : i1 + tpx]
        - S[i1 : i1 + tpx, i0 : i0 + tpx]
        + S[i0 : i0 + tpx, i0 : i0 + tpx]
    )


def spherical_std_dev_kernel(radius: int):
    def kernel(pad, nodata, spec):
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        a, b, c, ok = _normal_components(pad, nodata, spec.res)
        # components live on the pad-minus-1 frame; window sums need the
        # same frame with halo-1 margin
        h2 = halo - 1
        sa = _window_sums(np.where(ok, a, 0.0), h2, tpx, radius)
        sb = _window_sums(np.where(ok, b, 0.0), h2, tpx, radius)
        sc = _window_sums(np.where(ok, c, 0.0), h2, tpx, radius)
        n = _window_sums(ok.astype(np.float64), h2, tpx, radius)
        z = _shifted(pad, halo, tpx, 0, 0)
        with np.errstate(all="ignore"):
            rbar = np.sqrt(sa**2 + sb**2 + sc**2) / np.maximum(n, 1.0)
            rbar = np.clip(rbar, 1e-12, 1.0)
            s = np.degrees(np.sqrt(-2.0 * np.log(rbar)))
        out = np.where(n > 0, s, nodata)
        return np.where(z != nodata, out, nodata)

    return kernel


def angular_deviation_kernel(radius: int):
    def kernel(pad, nodata, spec):
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        a, b, c, ok = _normal_components(pad, nodata, spec.res)
        h2 = halo - 1
        sa = _window_sums(np.where(ok, a, 0.0), h2, tpx, radius)
        sb = _window_sums(np.where(ok, b, 0.0), h2, tpx, radius)
        sc = _window_sums(np.where(ok, c, 0.0), h2, tpx, radius)
        n = np.maximum(_window_sums(ok.astype(np.float64), h2, tpx, radius), 1.0)
        # mean angle ≈ arccos(R̄) of the resultant (mean dot with mean
        # direction); exact per-cell averaging needs a second pass — the
        # resultant form is the reference's computational shortcut
        z = _shifted(pad, halo, tpx, 0, 0)
        with np.errstate(all="ignore"):
            rbar = np.clip(np.sqrt(sa**2 + sb**2 + sc**2) / n, -1.0, 1.0)
            s = np.degrees(np.arccos(rbar))
        return np.where(z != nodata, s, nodata)

    return kernel


def anisotropy_dev_kernel(radius: int):
    """Dispersion of DEV over 4 directional elongated windows (width 3)."""

    def kernel(pad, nodata, spec):
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        devs = []
        for axis in ("ns", "ew", "nesw", "nwse"):
            s1 = np.zeros_like(z)
            s2 = np.zeros_like(z)
            n = np.zeros_like(z)
            for t in range(-radius, radius + 1):
                for w in (-1, 0, 1):
                    if axis == "ns":
                        dy, dx = t, w
                    elif axis == "ew":
                        dy, dx = w, t
                    elif axis == "nesw":
                        dy, dx = -t + w, t + w
                    else:
                        dy, dx = t + w, t + w
                    if abs(dy) > halo or abs(dx) > halo:
                        continue
                    sl = pad[halo + dy : halo + dy + tpx, halo + dx : halo + dx + tpx]
                    okl = sl != nodata
                    s1 += np.where(okl, sl, 0.0)
                    s2 += np.where(okl, sl * sl, 0.0)
                    n += okl
            n = np.maximum(n, 1.0)
            mean = s1 / n
            sd = np.sqrt(np.maximum(s2 / n - mean * mean, 1e-12))
            devs.append((z - mean) / sd)
        stack = np.stack(devs)
        out = stack.max(axis=0) - stack.min(axis=0)
        return np.where(z != nodata, out, nodata)

    return kernel


# --------------------------------------------------------- scale sweeps


def _multiscale_max(tiles_ds, spec, kernel_factory, scales, absolute: bool = True,
                    halo_extra: int = 0, out_fmt: str = "f32"):
    """Per-cell max |stat| over scales → (magnitude_ds, scale_ds)."""
    mag = None
    scl = None
    for r in scales:
        layer = focal_op(tiles_ds, spec, kernel_factory(int(r)), int(r) + halo_extra, out_fmt=out_fmt)
        if mag is None:
            mag = layer

            def init_scale(batch: pa.Table, rr=float(r)) -> pa.Table:
                outs = []
                for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
                    g = codecs.decode_tile(bb, ff)
                    outs.append(codecs.encode_tile(np.full_like(g, rr), out_fmt))
                return pa.table(
                    {
                        "tile_row": batch["tile_row"],
                        "tile_col": batch["tile_col"],
                        "bytes": pa.array(outs, pa.binary()),
                        "fmt": pa.array([out_fmt] * batch.num_rows, pa.string()),
                    }
                )

            scl = layer.map_batches(init_scale, batch_format="pyarrow")
            continue
        # one zip carrying (old_mag, new_layer) → new mag; and the scale
        # update rides the same comparison
        prev_mag = mag

        def take_max(a, b, rr=float(r)):
            av = np.abs(a) if absolute else a
            bv = np.abs(b) if absolute else b
            return np.where(bv > av, b, a)

        mag = band_math.overlay_fn(prev_mag, layer, spec, take_max, out_fmt=out_fmt)
        # scale layer: (prev_mag, layer) → win mask, then (scl, win) → r
        win = band_math.overlay_fn(
            prev_mag,
            layer,
            spec,
            (lambda a, b: (np.abs(b) > np.abs(a)).astype(np.float64))
            if absolute
            else (lambda a, b: (b > a).astype(np.float64)),
            out_fmt=out_fmt,
        )
        scl = band_math.overlay_fn(
            scl, win, spec, lambda s, w, rr=float(r): np.where(w > 0, rr, s),
            out_fmt=out_fmt,
        )
    return mag, scl


def max_elevation_deviation(tiles_ds, spec, min_scale: int = 1, max_scale: int = 4,
                            step: int = 1, out_fmt: str = "f32"):
    scales = list(range(min_scale, max_scale + 1, step))
    return _multiscale_max(tiles_ds, spec, dev_from_mean_kernel, scales, out_fmt=out_fmt)


def multiscale_roughness(tiles_ds, spec, min_scale: int = 1, max_scale: int = 4,
                         step: int = 1):
    scales = list(range(min_scale, max_scale + 1, step))
    return _multiscale_max(tiles_ds, spec, spherical_std_dev_kernel, scales,
                           absolute=False, halo_extra=1)


def multiscale_std_dev_normals(tiles_ds, spec, min_scale: int = 1, max_scale: int = 4,
                               step: int = 1):
    return multiscale_roughness(tiles_ds, spec, min_scale, max_scale, step)


def max_anisotropy_dev(tiles_ds, spec, min_scale: int = 1, max_scale: int = 3,
                       step: int = 1):
    scales = list(range(min_scale, max_scale + 1, step))
    return _multiscale_max(tiles_ds, spec, anisotropy_dev_kernel, scales,
                           absolute=False, halo_extra=1)


def spherical_std_dev_of_normals(tiles_ds, spec, radius: int = 2):
    return focal_op(tiles_ds, spec, spherical_std_dev_kernel(radius), radius + 1)


def average_normal_vector_angular_deviation(tiles_ds, spec, radius: int = 2):
    return focal_op(tiles_ds, spec, angular_deviation_kernel(radius), radius + 1)


# ---------------------------------------------------------- signatures


def signature_at_points(tiles_ds, spec, kernel_factory, scales, points,
                        halo_extra: int = 0):
    """Evaluate the windowed stat at probe points for every scale →
    table (point_id, scale, value). points = [(x, y, id)]."""
    import pandas as pd

    gs = spec.grid_spec()
    tpx = spec.tile_px
    probes = []
    for x, y, pid in points:
        r = int(gs.row_from_y(np.float64(y)))
        c = int(gs.col_from_x(np.float64(x)))
        probes.append((pid, r, c))

    rows = []
    for r_scale in scales:
        layer = focal_op(tiles_ds, spec, kernel_factory(int(r_scale)), int(r_scale) + halo_extra)

        def probe(batch: pa.Table, rs=r_scale) -> pa.Table:
            out = {"point_id": [], "scale": [], "value": []}
            for i in range(batch.num_rows):
                tr = int(batch["tile_row"][i].as_py())
                tc = int(batch["tile_col"][i].as_py())
                g = None
                for pid, rr, cc in probes:
                    if tr == rr // tpx and tc == cc // tpx:
                        if g is None:
                            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
                        out["point_id"].append(pid)
                        out["scale"].append(int(rs))
                        out["value"].append(float(g[rr % tpx, cc % tpx]))
            return pa.table(
                {
                    "point_id": pa.array(out["point_id"], pa.int64()),
                    "scale": pa.array(out["scale"], pa.int64()),
                    "value": pa.array(out["value"], pa.float64()),
                }
            )

        rows.append(layer.map_batches(probe, batch_format="pyarrow").to_pandas())
    return pd.concat(rows, ignore_index=True).sort_values(["point_id", "scale"]).reset_index(drop=True)


def max_elev_dev_signature(tiles_ds, spec, points, min_scale: int = 1, max_scale: int = 4,
                           step: int = 1):
    return signature_at_points(
        tiles_ds, spec, dev_from_mean_kernel, range(min_scale, max_scale + 1, step), points
    )


def multiscale_roughness_signature(tiles_ds, spec, points, min_scale: int = 1,
                                   max_scale: int = 4, step: int = 1):
    return signature_at_points(
        tiles_ds, spec, spherical_std_dev_kernel, range(min_scale, max_scale + 1, step),
        points, halo_extra=1,
    )


def multiscale_std_dev_normals_signature(tiles_ds, spec, points, min_scale: int = 1,
                                         max_scale: int = 4, step: int = 1):
    return multiscale_roughness_signature(tiles_ds, spec, points, min_scale, max_scale, step)


def max_anisotropy_dev_signature(tiles_ds, spec, points, min_scale: int = 1,
                                 max_scale: int = 3, step: int = 1):
    return signature_at_points(
        tiles_ds, spec, anisotropy_dev_kernel, range(min_scale, max_scale + 1, step),
        points, halo_extra=1,
    )


def multiscale_topographic_position_image(tiles_ds, spec, local: int = 1, meso: int = 3,
                                          broad: int = 6):
    """R/G/B = |DEV| at broad/meso/local scales, clipped to [0,1]·255,
    packed as an RGB24 composite (create_colour_composite convention)."""
    layers = [
        focal_op(tiles_ds, spec, dev_from_mean_kernel(r), r) for r in (broad, meso, local)
    ]
    rg = band_math.overlay_fn(
        layers[0], layers[1], spec,
        lambda r, g: np.floor(np.clip(np.abs(r) / 2.55, 0, 1) * 255.0) * 1000.0
        + np.floor(np.clip(np.abs(g) / 2.55, 0, 1) * 255.0),
    )
    rgb = band_math.overlay_fn(
        rg, layers[2], spec,
        lambda rg_, b: rg_ * 1000.0 + np.floor(np.clip(np.abs(b) / 2.55, 0, 1) * 255.0),
    )
    return rgb
