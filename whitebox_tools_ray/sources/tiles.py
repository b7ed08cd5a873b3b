"""Deterministic synthetic tile-table generator + writer.

Produces the input table of BASELINE.json ``input_hint`` shape:

    image_id: string, bytes: binary, w: int32, h: int32, fmt: string,
    caption: string, phash: int64

extended (FIXTURES.md F1) with georeferencing + tile grid coords:

    west, north, res_x, res_y, nodata: float64, epsg: int32,
    tile_row, tile_col: int32, scene: int32

The decoded content is a synthetic DEM-like field — a deterministic sum
of 2-D gaussians plus a planar gradient sampled from a global virtual
grid (seed-fixed), so every tile of a scene is a window into ONE
consistent raster. That makes whole-raster reference semantics (focal
ops, flow accumulation, clip-raster) reproducible tile-by-tile.

Storage: Parquet via pyarrow; ``write_tiles`` writes Lance instead when
the ``lance`` package imports (identical schema).

Grid frame mirrors the reference fixture DEM (testdata/DEM.dep:3-6):
origin (664737.05, 4895782.59), res 90.0, nodata -32768.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels import codecs, phash
from ..kernels.grid import DEFAULT_NODATA, DEFAULT_RES, DEFAULT_WEST, DEFAULT_NORTH, GridSpec

try:  # pragma: no cover - not present in this container
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False

TILE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("west", pa.float64()),
        ("north", pa.float64()),
        ("res_x", pa.float64()),
        ("res_y", pa.float64()),
        ("nodata", pa.float64()),
        ("epsg", pa.int32()),
        ("tile_row", pa.int32()),
        ("tile_col", pa.int32()),
        ("scene", pa.int32()),
    ]
)


@dataclass(frozen=True)
class SceneSpec:
    """One synthetic scene: a virtual raster of tiles_y × tiles_x tiles of
    tile_px² cells each, on the reference DEM frame."""

    scene: int = 0
    tiles_x: int = 8
    tiles_y: int = 8
    tile_px: int = 64
    res: float = DEFAULT_RES
    west: float = DEFAULT_WEST
    north: float = DEFAULT_NORTH
    nodata: float = DEFAULT_NODATA
    seed: int = 42
    n_gauss: int = 12

    @property
    def rows(self) -> int:
        return self.tiles_y * self.tile_px

    @property
    def columns(self) -> int:
        return self.tiles_x * self.tile_px

    def grid_spec(self) -> GridSpec:
        return GridSpec(
            west=self.west,
            north=self.north,
            res_x=self.res,
            res_y=self.res,
            rows=self.rows,
            columns=self.columns,
            nodata=self.nodata,
        )

    def _params(self):
        rng = np.random.RandomState(self.seed + 1000 * self.scene)
        ext_x = self.columns * self.res
        ext_y = self.rows * self.res
        cx = self.west + rng.uniform(0.1, 0.9, self.n_gauss) * ext_x
        cy = self.north - rng.uniform(0.1, 0.9, self.n_gauss) * ext_y
        amp = rng.uniform(50.0, 400.0, self.n_gauss) * rng.choice([-1.0, 1.0], self.n_gauss)
        sig = rng.uniform(0.05, 0.25, self.n_gauss) * min(ext_x, ext_y)
        gx = rng.uniform(-0.02, 0.02)
        gy = rng.uniform(-0.02, 0.02)
        base = rng.uniform(200.0, 500.0)
        return cx, cy, amp, sig, gx, gy, base

    def field(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Evaluate the scene's elevation field at global (row, col) grids.

        rows/cols broadcast; uses cell-center world coords (the reference's
        ±res/2 convention, raster/mod.rs:620-633).
        """
        g = self.grid_spec()
        x = g.x_from_col(cols)
        y = g.y_from_row(rows)
        cx, cy, amp, sig, gx, gy, base = self._params()
        z = base + gx * (x - self.west) + gy * (y - (self.north - self.rows * self.res))
        for i in range(self.n_gauss):
            d2 = (x - cx[i]) ** 2 + (y - cy[i]) ** 2
            z = z + amp[i] * np.exp(-d2 / (2.0 * sig[i] ** 2))
        return z

    def tile_grid(self, tile_row: int, tile_col: int) -> np.ndarray:
        """(tile_px, tile_px) float64 pixel grid of one tile."""
        r0 = tile_row * self.tile_px
        c0 = tile_col * self.tile_px
        rr = np.arange(r0, r0 + self.tile_px)[:, None]
        cc = np.arange(c0, c0 + self.tile_px)[None, :]
        return self.field(rr, cc)


def caption_for(tile_row: int, tile_col: int, scene: int) -> str:
    """FIXTURES.md F1 caption rule — checked for exact equality per row."""
    return f"tile r{tile_row} c{tile_col} of scene {scene}"


def generate_tiles(spec: SceneSpec, fmt_cycle: tuple[str, ...] = ("png", "f32", "q16")) -> pa.Table:
    """Build the full tile table for a scene (deterministic)."""
    rows = []
    idx = 0
    cols: dict[str, list] = {name: [] for name in TILE_SCHEMA.names}
    for tr in range(spec.tiles_y):
        for tc in range(spec.tiles_x):
            grid = spec.tile_grid(tr, tc)
            fmt = fmt_cycle[idx % len(fmt_cycle)]
            payload = codecs.encode_tile(grid, fmt)
            cols["image_id"].append(f"img{spec.scene:02d}{idx:06d}")
            cols["bytes"].append(payload)
            cols["w"].append(spec.tile_px)
            cols["h"].append(spec.tile_px)
            cols["fmt"].append(fmt)
            cols["caption"].append(caption_for(tr, tc, spec.scene))
            cols["phash"].append(phash.phash64(grid))
            cols["west"].append(spec.west + tc * spec.tile_px * spec.res)
            cols["north"].append(spec.north - tr * spec.tile_px * spec.res)
            cols["res_x"].append(spec.res)
            cols["res_y"].append(spec.res)
            cols["nodata"].append(spec.nodata)
            cols["epsg"].append(26918)
            cols["tile_row"].append(tr)
            cols["tile_col"].append(tc)
            cols["scene"].append(spec.scene)
            idx += 1
    rows = [pa.array(cols[n], type=TILE_SCHEMA.field(n).type) for n in TILE_SCHEMA.names]
    return pa.Table.from_arrays(rows, schema=TILE_SCHEMA)


def write_tiles(table: pa.Table, path: str) -> str:
    """Write a tile table; Lance when available, else Parquet (same schema)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if HAVE_LANCE:  # pragma: no cover
        import lance

        lance.write_dataset(table, path)
    else:
        pq.write_table(table, path)
    return path


def assemble_scene(table: pa.Table, spec: SceneSpec) -> np.ndarray:
    """Decode all tiles of a scene back into one (rows, columns) grid —
    test helper for whole-raster parity checks (drives nothing at scale)."""
    full = np.full((spec.rows, spec.columns), spec.nodata, dtype=np.float64)
    cols = table.to_pydict()
    for i in range(table.num_rows):
        if cols["scene"][i] != spec.scene:
            continue
        grid = codecs.decode_tile(cols["bytes"][i], cols["fmt"][i])
        r0 = cols["tile_row"][i] * spec.tile_px
        c0 = cols["tile_col"][i] * spec.tile_px
        full[r0 : r0 + grid.shape[0], c0 : c0 + grid.shape[1]] = grid
    return full
