"""Focal (neighborhood) operators over the tile table — axis-A core.

The reference's filter/terrain toolboxes (SURVEY.md §2.6/§2.10) are
whole-raster row-striped scans with out-of-bounds reads returning the
nodata sentinel. The engine form is the HALO EXCHANGE pattern:

1. per batch of 16 tiles (``map_batches``): decode once, emit (a) the
   tile itself and (b) margin strips of width ``halo`` keyed to each of
   its 8 neighbors;
2. ``groupby(tile_key).map_groups``: assemble the padded array — tile in
   the middle, neighbor margins around it, missing neighbors = nodata
   (exactly the reference's out-of-bounds semantics,
   raster/mod.rs:364-412) — and run the vectorized kernel on the
   interior;
3. re-encode the result tile.

One shuffle whose payload is margins + one tile copy — at 100 TB the
margin fraction is 2*halo/tile_px (≈3% for halo 2 at 128²). Kernels are
NumPy-vectorized over the whole padded array (shifted-view arithmetic,
no per-pixel Python). :func:`halo_map` is that exchange; ``focal_op``
and every other halo pass (flow in-degree, multi-flow fractions, stream
cells, raster-to-lines) call it.

The exchange is the only path. A margin-store variant (tile bodies stay
in their blocks, only the strips move through store actors) was
measured against it with ``slope_kernel`` on 2 Ray CPUs of a 4-vCPU
host, seconds, exchange → store:

=============================  ==========================
scene (input blocks)           halo 1 focal
=============================  ==========================
16 tiles of 16² (16)           0.24–0.35 → 1.07–1.66
256 tiles of 128² (~200)       2.3–3.1 → 5.9–7.7
256 tiles of 128² (8)          1.3–1.8 → 1.6–1.7
1024 tiles of 64² (8)          2.3–2.4 → 2.2–2.6
1024 tiles of 64² (64)         7.5 → 4.1–4.3
=============================  ==========================

The store pays 0.6–1.3 s of actor start-up per call, so it loses at
gate scale and ties at 8 blocks; it wins only at many blocks, where the
exchange's M×N sort-shuffle dominates. The block count, not the tile
count, picks the winner, so a tile-count switch cannot choose well.

Kernels provided (reference semantics, file:line in each):
- slope / aspect / hillshade — terrain_analysis/slope.rs:256-292 Horn
  8-neighbor weighted differences, nodata neighbors replaced by center z.
- mean / min / max / range / total / stdev filters — image_analysis/
  *_filter.rs square windows (kernel size 2r+1).
- laplacian / sobel / prewitt edge filters — fixed 3×3 stencils.
- d8_pointer — hydro_analysis/d8_pointer.rs + d8_flow_accum.rs:261-321
  steepest positive drop of 8 neighbors (dir 0..7, -1 for pits/nodata).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs

# the reference's neighbor order (slope.rs / d8_flow_accum.rs):
# i:      0   1   2   3   4   5   6   7
DX8 = np.array([1, 1, 1, 0, -1, -1, -1, 0])
DY8 = np.array([-1, 0, 1, 1, 1, 0, -1, -1])



def f32_tiles(batch: pa.Table, grids) -> pa.Table:
    """One f32 tile payload per grid, keyed by the batch's own
    ``tile_row`` / ``tile_col`` arrays (their type passes through)."""
    return pa.table(
        {
            "tile_row": batch["tile_row"],
            "tile_col": batch["tile_col"],
            "bytes": pa.array([codecs.encode_tile(g, "f32") for g in grids], pa.binary()),
            "fmt": pa.array(["f32"] * batch.num_rows, pa.string()),
        }
    )

def _emit_tile_and_margins(batch: pa.Table, halo: int, tiles_x: int, tiles_y: int) -> pa.Table:
    """Flat-map one batch of tiles into self + 8 margin records."""
    trows = batch["tile_row"].to_numpy(zero_copy_only=False)
    tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
    blobs = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    tgt_key: list[int] = []
    rel: list[int] = []  # (drow+1)*3 + (dcol+1); 4 = self
    payload: list[bytes] = []
    pay_fmt: list[str] = []
    for i in range(batch.num_rows):
        tr, tc = int(trows[i]), int(tcols[i])
        grid = codecs.decode_tile(blobs[i], fmts[i])
        h, w = grid.shape
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                ntr, ntc = tr + dr, tc + dc
                if not (0 <= ntr < tiles_y and 0 <= ntc < tiles_x):
                    continue
                if dr == 0 and dc == 0:
                    # self record: forward the ORIGINAL encoded payload —
                    # no re-encode, and the shuffle carries the (usually
                    # compressed) source bytes instead of raw f32
                    tgt_key.append(ntr * tiles_x + ntc)
                    rel.append(4)
                    payload.append(blobs[i])
                    pay_fmt.append(fmts[i])
                    continue
                # send the edge NEAREST the neighbor: the tile below me
                # (dr=+1) needs my BOTTOM rows as its top halo, etc.
                rs = slice(h - halo, h) if dr == 1 else (slice(0, halo) if dr == -1 else slice(None))
                cs = slice(w - halo, w) if dc == 1 else (slice(0, halo) if dc == -1 else slice(None))
                strip = grid[rs, cs]
                tgt_key.append(ntr * tiles_x + ntc)
                rel.append((1 - dr) * 3 + (1 - dc))  # position of the STRIP in target's frame
                payload.append(codecs.encode_tile(np.ascontiguousarray(strip), "f32"))
                pay_fmt.append("f32")
    return pa.table(
        {
            "tkey": pa.array(tgt_key, pa.int64()),
            "rel": pa.array(rel, pa.int64()),
            "data": pa.array(payload, pa.binary()),
            "pfmt": pa.array(pay_fmt, pa.string()),
        }
    )


def _assemble_padded(g: pd.DataFrame, halo: int, tile_px: int, nodata: float) -> tuple[int, np.ndarray]:
    """Rebuild the (tile_px + 2*halo)² padded grid from margin records."""
    pad = np.full((tile_px + 2 * halo, tile_px + 2 * halo), nodata, dtype=np.float64)
    tkey = int(g["tkey"].iloc[0])
    for rel, data, pfmt in zip(g["rel"], g["data"], g["pfmt"]):
        strip = codecs.decode_tile(bytes(data), pfmt)
        rr = int(rel) // 3 - 1  # -1, 0, 1 = strip sits above/at/below
        cc = int(rel) % 3 - 1
        if rr == 0 and cc == 0:
            pad[halo : halo + tile_px, halo : halo + tile_px] = strip
            continue
        rs = slice(0, halo) if rr == -1 else (slice(halo + tile_px, None) if rr == 1 else slice(halo, halo + tile_px))
        cs = slice(0, halo) if cc == -1 else (slice(halo + tile_px, None) if cc == 1 else slice(halo, halo + tile_px))
        pad[rs, cs] = strip
    return tkey, pad


def halo_map(tiles_ds, spec, halo: int, fn: Callable, fill: float | None = None):
    """The halo exchange every focal pass runs on.

    Each tile's margins (and the tile itself) are emitted in batches of
    16 tiles and grouped by tile key; per tile, ``fn(tile_row, tile_col,
    pad)`` gets the (tile_px + 2·halo)² padded grid, with ``fill``
    (default ``spec.nodata``) where the scene ends, and returns that
    tile's output rows as an Arrow table or a DataFrame. Output blocks
    are Arrow with no schema metadata: Ray's ``unify_schemas`` hashes
    schemas, and a schema that carries metadata (a dict) cannot be
    hashed."""
    fill = spec.nodata if fill is None else fill
    tpx, tiles_x, tiles_y = spec.tile_px, spec.tiles_x, spec.tiles_y
    margins = tiles_ds.map_batches(
        lambda b: _emit_tile_and_margins(b, halo, tiles_x, tiles_y),
        batch_format="pyarrow",
        batch_size=16,
    )

    def per_tile(g: pd.DataFrame) -> pa.Table:
        tkey, pad = _assemble_padded(g, halo, tpx, fill)
        out = fn(tkey // tiles_x, tkey % tiles_x, pad)
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, preserve_index=False)
        return out.replace_schema_metadata(None)

    return margins.groupby("tkey").map_groups(per_tile, batch_format="pandas")


def focal_op(
    tiles_ds,
    spec,
    kernel: Callable[[np.ndarray, float, "SceneSpecLike"], np.ndarray],
    halo: int,
    out_fmt: str = "f32",
):
    """Generic halo-exchange focal stage.

    ``kernel(padded, nodata, spec) -> (tile_px, tile_px) output`` runs on
    the padded array; out-of-scene area arrives as nodata.
    Returns Dataset[tile_row, tile_col, bytes, fmt].
    """

    def per_tile(tr: int, tc: int, pad: np.ndarray) -> pa.Table:
        out = kernel(pad, spec.nodata, spec)
        return codecs.tile_row_table(tr, tc, codecs.encode_tile(out, out_fmt), out_fmt)

    return halo_map(tiles_ds, spec, halo, per_tile)


def _shifted(pad: np.ndarray, halo: int, tpx: int, dy: int, dx: int) -> np.ndarray:
    return pad[halo + dy : halo + dy + tpx, halo + dx : halo + dx + tpx]


def slope_kernel(pad: np.ndarray, nodata: float, spec, z_factor: float = 1.0) -> np.ndarray:
    """Slope in degrees — slope.rs:256-292 exact arithmetic (each valid
    neighbour multiplied by z_factor, :273-279)."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    n = []
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        n.append(np.where(zi != nodata, zi, z) * z_factor)
    eight_res = spec.res * 8.0
    fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight_res
    fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight_res
    out = np.degrees(np.arctan(np.sqrt(fx * fx + fy * fy)))
    return np.where(z != nodata, out, nodata)


def hillshade_kernel(pad: np.ndarray, nodata: float, spec, azimuth: float = 315.0, altitude: float = 30.0,
                     z_factor: float = 1.0):
    """Hillshade (terrain_analysis/hillshade.rs): Horn derivatives +
    sun-angle illumination, output scaled to [0, 32767]."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    n = []
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        n.append(np.where(zi != nodata, zi, z) * z_factor)
    eight_res = spec.res * 8.0
    fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight_res
    fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight_res
    az = np.radians(azimuth - 90.0)
    alt = np.radians(altitude)
    slope = np.arctan(np.sqrt(fx * fx + fy * fy))
    aspect = np.arctan2(-fx, fy)
    hs = np.sin(alt) * np.cos(slope) + np.cos(alt) * np.sin(slope) * np.cos(az - aspect)
    # hillshade.rs:316-326 parity: fx == 0 short-circuits to 0.5 (the
    # reference's aspect formula divides by fx), regardless of fy; and
    # only the LOWER bound is clamped (the upper is implicit, |hs| <= 1)
    hs = np.where(fx == 0.0, 0.5, hs)
    out = np.round(np.maximum(hs, 0.0) * 32767.0)
    return np.where(z != nodata, out, nodata)


def _window_stat(pad, nodata, spec, stat: str, radius: int):
    from numpy.lib.stride_tricks import sliding_window_view

    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    k = 2 * radius + 1
    lo = halo - radius
    sub = pad[lo : lo + tpx + 2 * radius, lo : lo + tpx + 2 * radius]
    win = sliding_window_view(sub, (k, k))
    valid = win != nodata
    z = _shifted(pad, halo, tpx, 0, 0)
    with np.errstate(all="ignore"):
        if stat == "mean":
            s = np.where(valid, win, 0.0).sum(axis=(-2, -1))
            c = valid.sum(axis=(-2, -1))
            out = np.where(c > 0, s / np.maximum(c, 1), nodata)
        elif stat == "total":
            out = np.where(valid, win, 0.0).sum(axis=(-2, -1))
        elif stat == "min":
            out = np.where(valid, win, np.inf).min(axis=(-2, -1))
            out = np.where(np.isfinite(out), out, nodata)
        elif stat == "max":
            out = np.where(valid, win, -np.inf).max(axis=(-2, -1))
            out = np.where(np.isfinite(out), out, nodata)
        elif stat == "range":
            mx = np.where(valid, win, -np.inf).max(axis=(-2, -1))
            mn = np.where(valid, win, np.inf).min(axis=(-2, -1))
            out = np.where(np.isfinite(mx) & np.isfinite(mn), mx - mn, nodata)
        elif stat == "stdev":
            c = valid.sum(axis=(-2, -1)).astype(np.float64)
            s = np.where(valid, win, 0.0).sum(axis=(-2, -1))
            ss = np.where(valid, win**2, 0.0).sum(axis=(-2, -1))
            m = s / np.maximum(c, 1)
            out = np.where(c > 0, np.sqrt(np.maximum(ss / np.maximum(c, 1) - m**2, 0.0)), nodata)
        elif stat == "median":
            masked = np.where(valid, win, np.nan)
            out = np.nanmedian(masked.reshape(*masked.shape[:2], -1), axis=-1)
            out = np.where(np.isnan(out), nodata, out)
        elif stat.startswith("percentile"):
            q = float(stat.split(":")[1]) if ":" in stat else 50.0
            masked = np.where(valid, win, np.nan)
            out = np.nanpercentile(masked.reshape(*masked.shape[:2], -1), q, axis=-1)
            out = np.where(np.isnan(out), nodata, out)
        elif stat == "olympic":
            # mean excluding one min and one max (olympic_filter.rs)
            c = valid.sum(axis=(-2, -1)).astype(np.float64)
            s = np.where(valid, win, 0.0).sum(axis=(-2, -1))
            mx = np.where(valid, win, -np.inf).max(axis=(-2, -1))
            mn = np.where(valid, win, np.inf).min(axis=(-2, -1))
            out = np.where(c > 2, (s - mx - mn) / np.maximum(c - 2, 1), nodata)
        elif stat in ("majority", "diversity"):
            # Vectorized mode/distinct-count: sort each window (invalid →
            # +inf sorts last), find value-run boundaries, then either
            # count runs (diversity) or take the value of the longest run
            # (majority; ties → smallest value, matching np.unique order).
            flat = np.where(valid, win, np.inf).reshape(*win.shape[:2], -1)
            c = valid.reshape(*valid.shape[:2], -1).sum(axis=-1)
            srt = np.sort(flat, axis=-1)
            k = srt.shape[-1]
            idx = np.arange(k)
            validk = idx < c[..., None]
            isnew = np.ones(srt.shape, dtype=bool)
            isnew[..., 1:] = srt[..., 1:] != srt[..., :-1]
            if stat == "diversity":
                out = (isnew & validk).sum(axis=-1).astype(np.float64)
            else:
                run_start = np.maximum.accumulate(np.where(isnew, idx, 0), axis=-1)
                score = np.where(validk, idx - run_start + 1, 0)
                best = np.argmax(score, axis=-1)
                out = np.take_along_axis(srt, best[..., None], axis=-1)[..., 0]
            out = np.where(c > 0, out, nodata)
        else:
            raise ValueError(stat)
    return np.where(z != nodata, out, nodata)


def make_window_kernel(stat: str, radius: int):
    def kernel(pad, nodata, spec):
        return _window_stat(pad, nodata, spec, stat, radius)

    kernel.__name__ = f"{stat}_filter_r{radius}"
    return kernel


def _stencil3(pad, nodata, spec, weights: np.ndarray):
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    out = np.zeros_like(z)
    for (dy, dx), wgt in np.ndenumerate(weights):
        if wgt == 0:
            continue
        zi = _shifted(pad, halo, tpx, dy - 1, dx - 1)
        out += wgt * np.where(zi != nodata, zi, z)
    return np.where(z != nodata, out, nodata)


LAPLACIAN = np.array([[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]])
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
PREWITT_X = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
PREWITT_Y = np.array([[-1.0, -1.0, -1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def laplacian_kernel(pad, nodata, spec):
    return _stencil3(pad, nodata, spec, LAPLACIAN)


def sobel_kernel(pad, nodata, spec):
    gx = _stencil3(pad, nodata, spec, SOBEL_X)
    gy = _stencil3(pad, nodata, spec, SOBEL_Y)
    z = _shifted(pad, (pad.shape[0] - spec.tile_px) // 2, spec.tile_px, 0, 0)
    return np.where(z != nodata, np.hypot(gx, gy), nodata)


def prewitt_kernel(pad, nodata, spec):
    gx = _stencil3(pad, nodata, spec, PREWITT_X)
    gy = _stencil3(pad, nodata, spec, PREWITT_Y)
    z = _shifted(pad, (pad.shape[0] - spec.tile_px) // 2, spec.tile_px, 0, 0)
    return np.where(z != nodata, np.hypot(gx, gy), nodata)


def d8_pointer_kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
    """D8 flow direction — d8_flow_accum.rs:261-321 exact: steepest
    POSITIVE drop over the 8 neighbors (distance-weighted), dir 0..7 in
    the reference's neighbor order, -1 for pits/flats/nodata."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    res = spec.res
    diag = np.sqrt(res * res + res * res)
    lengths = [diag, res, diag, res, diag, res, diag, res]
    max_slope = np.full(z.shape, -np.inf)
    best = np.full(z.shape, -1, dtype=np.int8)
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        ok = zi != nodata
        slope = np.where(ok, (z - zi) / lengths[i], -np.inf)
        better = (slope > max_slope) & (slope > 0.0)
        best = np.where(better, np.int8(i), best)
        max_slope = np.where(better, slope, max_slope)
    out = np.where(z != nodata, best, np.int8(-1)).astype(np.float64)
    return out


def slope(tiles_ds, spec, z_factor: float = 1.0):
    def k(pad, nodata, sp):
        return slope_kernel(pad, nodata, sp, z_factor=z_factor)

    return focal_op(tiles_ds, spec, k, halo=1)


def hillshade(tiles_ds, spec, azimuth: float = 315.0, altitude: float = 30.0,
              z_factor: float = 1.0):
    def k(pad, nodata, sp):
        return hillshade_kernel(pad, nodata, sp, azimuth=azimuth,
                                altitude=altitude, z_factor=z_factor)

    return focal_op(tiles_ds, spec, k, halo=1)


def d8_pointer(tiles_ds, spec):
    return focal_op(tiles_ds, spec, d8_pointer_kernel, halo=1, out_fmt="i8")


def window_filter(tiles_ds, spec, stat: str = "mean", radius: int = 2):
    return focal_op(tiles_ds, spec, make_window_kernel(stat, radius), halo=radius)


def aspect_kernel(pad: np.ndarray, nodata: float, spec, z_factor: float = 1.0) -> np.ndarray:
    """Aspect — terrain_analysis/aspect.rs:256-283 verbatim: Horn fx/fy;
    output only where fx > 0 (the reference's literal branch), else -1."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    n = []
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        n.append(np.where(zi != nodata, zi, z) * z_factor)
    eight_res = spec.res * 8.0
    fx = (n[2] - n[4] + 2.0 * (n[1] - n[5]) + n[0] - n[6]) / eight_res
    fy = (n[6] - n[4] + 2.0 * (n[7] - n[3]) + n[0] - n[2]) / eight_res
    with np.errstate(all="ignore"):
        val = 180.0 - np.degrees(np.arctan(fy / np.where(fx != 0, fx, 1.0))) + 90.0 * np.sign(fx)
    out = np.where(fx > 0.0, val, -1.0)
    return np.where(z != nodata, out, nodata)


def plan_curvature_kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
    """PlanCurvature — terrain_analysis/plan_curvature.rs:276-297: finite
    differences zx/zy/zxx/zyy/zxy, curvature in degrees × 100."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    n = []
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        n.append(np.where(zi != nodata, zi, z))
    c2 = spec.res * 2.0
    c_sq = spec.res * spec.res
    c4sq = 4.0 * c_sq
    zx = (n[1] - n[5]) / c2
    zy = (n[7] - n[3]) / c2
    zxx = (n[1] - 2.0 * z + n[5]) / c_sq
    zyy = (n[7] - 2.0 * z + n[3]) / c_sq
    zxy = (-n[6] + n[0] + n[4] - n[2]) / c4sq
    zx2 = zx * zx
    zy2 = zy * zy
    p = zx2 + zy2
    with np.errstate(all="ignore"):
        val = np.degrees((zxx * zy2 - 2.0 * zxy * zx * zy + zyy * zx2) / p**1.5) * 100.0
    out = np.where(p > 0.0, val, nodata)
    return np.where(z != nodata, out, nodata)


def ruggedness_kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
    """RuggednessIndex (terrain_analysis/ruggedness_index.rs): RMS of the
    elevation differences to the 8 neighbors (Riley et al. TRI)."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    acc = np.zeros_like(z)
    for i in range(8):
        zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        d = np.where(zi != nodata, zi - z, 0.0)
        acc += d * d
    return np.where(z != nodata, np.sqrt(acc / 8.0), nodata)


def aspect(tiles_ds, spec, z_factor: float = 1.0):
    def k(pad, nodata, sp):
        return aspect_kernel(pad, nodata, sp, z_factor=z_factor)

    return focal_op(tiles_ds, spec, k, halo=1)


def plan_curvature(tiles_ds, spec):
    return focal_op(tiles_ds, spec, plan_curvature_kernel, halo=1)


def ruggedness(tiles_ds, spec):
    return focal_op(tiles_ds, spec, ruggedness_kernel, halo=1)


# ---------------------------------------------------------------------------
# Round 2: terrain multiscale / windowed-stat family (SURVEY §2.10).
# All run through focal_op with halo = filter radius; windowed mean/std
# use an integral image over the padded tile (the reference's Crow 1984
# approach, dev_from_mean_elev.rs:27), min/max use the iterated-3×3
# Chebyshev erosion, percentile counts shifted comparisons.
# ---------------------------------------------------------------------------


def _window_mean_std(pad: np.ndarray, halo: int, tpx: int, radius: int, nodata: float):
    """Windowed mean/std/count over (2r+1)² neighborhoods of interior
    cells via summed-area tables (nodata cells excluded)."""
    valid = pad != nodata
    v = np.where(valid, pad, 0.0)

    def sat(img):
        S = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
        S[1:, 1:] = np.cumsum(np.cumsum(img, 0), 1)
        return S

    def wsum(S):
        r = radius
        i0 = halo - r
        j0 = halo - r
        i1 = halo + r + 1
        j1 = halo + r + 1
        return (
            S[i1 : i1 + tpx, j1 : j1 + tpx]
            - S[i0 : i0 + tpx, j1 : j1 + tpx]
            - S[i1 : i1 + tpx, j0 : j0 + tpx]
            + S[i0 : i0 + tpx, j0 : j0 + tpx]
        )

    n = wsum(sat(valid.astype(np.float64)))
    s1 = wsum(sat(v))
    s2 = wsum(sat(v * v))
    n = np.maximum(n, 1.0)
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    return mean, np.sqrt(var), n


def _window_min_max(pad: np.ndarray, halo: int, tpx: int, radius: int, nodata: float):
    """Windowed min/max via r iterated 3×3 erosions/dilations (a
    Chebyshev ball of radius r = the (2r+1)² square window)."""
    lo = np.where(pad != nodata, pad, np.inf)
    hi = np.where(pad != nodata, pad, -np.inf)
    for _ in range(radius):
        lo_n, hi_n = lo.copy(), hi.copy()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                sl = np.full_like(lo, np.inf)
                sh = np.full_like(hi, -np.inf)
                ys = slice(max(0, dy), lo.shape[0] + min(0, dy))
                xs = slice(max(0, dx), lo.shape[1] + min(0, dx))
                yd = slice(max(0, -dy), lo.shape[0] + min(0, -dy))
                xd = slice(max(0, -dx), lo.shape[1] + min(0, -dx))
                sl[yd, xd] = lo[ys, xs]
                sh[yd, xd] = hi[ys, xs]
                lo_n = np.minimum(lo_n, sl)
                hi_n = np.maximum(hi_n, sh)
        lo, hi = lo_n, hi_n
    c = slice(halo, halo + tpx)
    return lo[c, c], hi[c, c]


def dev_from_mean_kernel(radius: int):
    """DevFromMeanElev (dev_from_mean_elev.rs): (z − μ)/σ over the
    (2r+1)² window — the local z-score of topographic position."""

    def kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        mean, std, _n = _window_mean_std(pad, halo, tpx, radius, nodata)
        out = np.where(std > 0, (z - mean) / np.where(std > 0, std, 1.0), 0.0)
        return np.where(z != nodata, out, nodata)

    return kernel


def diff_from_mean_kernel(radius: int):
    """DiffFromMeanElev (diff_from_mean_elev.rs): z − μ."""

    def kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        mean, _std, _n = _window_mean_std(pad, halo, tpx, radius, nodata)
        return np.where(z != nodata, z - mean, nodata)

    return kernel


def percent_elev_range_kernel(radius: int):
    """PercentElevRange (percent_elev_range.rs:25): z0 / (zmax − zmin) ×
    100 over the neighboring window."""

    def kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        lo, hi = _window_min_max(pad, halo, tpx, radius, nodata)
        rng = hi - lo
        out = np.where(np.isfinite(rng) & (rng > 0), z / np.where(rng > 0, rng, 1.0) * 100.0, 0.0)
        return np.where(z != nodata, out, nodata)

    return kernel


def relative_topographic_position_kernel(radius: int):
    """RelativeTopographicPosition (relative_topographic_position.rs:
    26-34): (z−μ)/(μ−zmin) below the mean, (z−μ)/(zmax−μ) at/above —
    bounded to [−1, 1]."""

    def kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        mean, _std, _n = _window_mean_std(pad, halo, tpx, radius, nodata)
        lo, hi = _window_min_max(pad, halo, tpx, radius, nodata)
        below = np.where(mean - lo > 0, (z - mean) / np.where(mean - lo > 0, mean - lo, 1.0), 0.0)
        above = np.where(hi - mean > 0, (z - mean) / np.where(hi - mean > 0, hi - mean, 1.0), 0.0)
        out = np.where(z < mean, below, above)
        return np.where(z != nodata, np.clip(out, -1.0, 1.0), nodata)

    return kernel


def elev_percentile_kernel(radius: int):
    """ElevPercentile (elev_percentile.rs): percent of window cells with
    elevation strictly below z0."""

    def kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
        tpx = spec.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        below = np.zeros(z.shape)
        n = np.zeros(z.shape)
        for dy in range(-radius, radius + 1):
            for dx in range(-radius, radius + 1):
                zi = _shifted(pad, halo, tpx, dy, dx)
                ok = zi != nodata
                below += (ok & (zi < z)).astype(np.float64)
                n += ok.astype(np.float64)
        out = below / np.maximum(n, 1.0) * 100.0
        return np.where(z != nodata, out, nodata)

    return kernel


def window_stat_op(tiles_ds, spec, stat: str, radius: int = 3):
    """Dispatch for the windowed-stat family. halo = radius, so the
    filter radius is bounded by tile_px (128-512 cells at production tile
    sizes — covers the reference's documented filter ranges)."""
    factories = {
        "dev_from_mean": dev_from_mean_kernel,
        "diff_from_mean": diff_from_mean_kernel,
        "percent_elev_range": percent_elev_range_kernel,
        "relative_topographic_position": relative_topographic_position_kernel,
        "elev_percentile": elev_percentile_kernel,
    }
    if stat not in factories:
        raise ValueError(f"unknown windowed stat {stat!r}")
    return focal_op(tiles_ds, spec, factories[stat](radius), halo=radius, out_fmt="f32")
