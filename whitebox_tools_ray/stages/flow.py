"""D8 flow accumulation over tiles — the cross-tile-state (IT) exemplar.

Reference (/root/reference/src/tools/hydro_analysis/d8_flow_accum.rs):

1. per-cell D8 direction = steepest positive drop of 8 neighbors
   (:261-321) — engine: ``focal.d8_pointer`` (halo'd tile map);
2. per-cell num_inflowing = count of neighbors whose direction points at
   the cell (:343-397) — engine: second halo exchange over the pointer
   grid;
3. sequential topological propagation seeded at in-degree-0 cells
   (:399-431): pop, add accumulated value to the downstream neighbor,
   decrement its in-degree, push when 0. With ``out_type=cells`` the
   accumulated values are exact integers, so distributed processing order
   cannot change the result.

Engine phase 3 = BSP over tile-owning actors (``bsp.run_bsp``): each
:class:`FlowShardDS` owns a split of the tiles and runs the reference's
stack algorithm WITHIN its tiles; flow crossing a tile edge becomes a
message (tile_id, local_row, local_col, amount, indegree_dec) sent to
the owner shard for the next round. Rounds continue until no messages
remain — the fixed point. Skewed accumulation cells (large drainage)
cost messages, not memory: a shard sums its outbound amounts per
destination cell before sending.

Engine-internal pointer encoding: dir 0..7 as the reference; -1 = pit or
flat (no downstream); -2 = nodata cell (the reference keeps a separate
elevation array for this distinction; a single grid crosses the wire
cheaper).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import codecs
from .focal import DX8, DY8, _shifted, focal_op

INFLOW_OF = np.array([4, 5, 6, 7, 0, 1, 2, 3], dtype=np.int8)  # d8_flow_accum.rs:355


def d8_pointer_kernel_masked(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
    """Pointer kernel distinguishing nodata (-2) from pits/flats (-1)."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    z = _shifted(pad, halo, tpx, 0, 0)
    res = spec.res
    diag = float(np.sqrt(res * res + res * res))
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
    out = np.where(z != nodata, best, np.int8(-2)).astype(np.float64)
    return out


def d8_pointer_masked(tiles_ds, spec):
    return focal_op(tiles_ds, spec, d8_pointer_kernel_masked, halo=1, out_fmt="i8")


def _num_inflowing_kernel(pad: np.ndarray, nodata: float, spec) -> np.ndarray:
    """num_inflowing from a padded POINTER grid (d8_flow_accum.rs:343-397).
    Padded out-of-scene area arrives as nodata-valued float; treat any
    value outside 0..7 as non-contributing."""
    tpx = spec.tile_px
    halo = (pad.shape[0] - tpx) // 2
    d = _shifted(pad, halo, tpx, 0, 0)
    count = np.zeros(d.shape, dtype=np.int8)
    for i in range(8):
        di = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
        count += (di == INFLOW_OF[i]).astype(np.int8)
    return np.where(d != -2.0, count, np.int8(-1)).astype(np.float64)


# ---------------------------------------------------------------------------
# Dataset-native path (VERDICT r1 item 2): pointer Dataset in → indeg via the
# focal halo pass → shard actors ingest Dataset splits → BSP → accumulation
# tiles Dataset out. The driver never touches pixel data.
# ---------------------------------------------------------------------------


def pointer_with_indegree(pointer_ds, spec):
    """One halo exchange over the POINTER tiles Dataset producing rows
    (tile_row, tile_col, ptr, ind): the tile's i8 pointer plus its
    num_inflowing grid (d8_flow_accum.rs:343-397) — the distributed form
    of the reference's phase 2, replacing the old driver-side 9-decode
    loop."""
    import pandas as pd

    from .focal import _assemble_padded, _emit_tile_and_margins

    tiles_x, tiles_y, tpx = spec.tiles_x, spec.tiles_y, spec.tile_px
    nodata = spec.nodata

    margins = pointer_ds.map_batches(
        lambda b: _emit_tile_and_margins(b, 1, tiles_x, tiles_y),
        batch_format="pyarrow",
        batch_size=16,
    )

    def per_tile(g: pd.DataFrame) -> pd.DataFrame:
        tkey, pad = _assemble_padded(g, 1, tpx, nodata)
        d = pad[1:-1, 1:-1]
        count = np.zeros(d.shape, dtype=np.int8)
        for i in range(8):
            di = pad[1 + DY8[i] : 1 + DY8[i] + tpx, 1 + DX8[i] : 1 + DX8[i] + tpx]
            count += (di == INFLOW_OF[i]).astype(np.int8)
        ind = np.where(d != -2.0, count, -1).astype(np.float64)
        return pa.table(
            {
                "tile_row": pa.array([tkey // tiles_x], pa.int32()),
                "tile_col": pa.array([tkey % tiles_x], pa.int32()),
                "ptr": pa.array([codecs.encode_tile(d, "i8")], pa.binary()),
                "ind": pa.array([codecs.encode_tile(ind, "i8")], pa.binary()),
            }
        )

    return margins.groupby("tkey").map_groups(per_tile, batch_format="pandas")


class FlowShardDS:
    """Shard actor for the Dataset-native accumulation: owns the flow
    state of the tiles in its Dataset split and runs the reference stack
    algorithm within them."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata_out: float):
        from .bsp import ShardBase

        self._base = ShardBase(tile_px, tiles_x, tiles_y)
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.nodata_out = nodata_out
        self.dirs: dict[int, np.ndarray] = {}
        self.indeg: dict[int, np.ndarray] = {}
        self.accum: dict[int, np.ndarray] = {}

    def ingest(self, split_ds) -> list[int]:
        owned = []
        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            trows = batch["tile_row"].to_numpy(zero_copy_only=False)
            tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
            for i in range(batch.num_rows):
                tid = int(trows[i]) * self.tiles_x + int(tcols[i])
                self.dirs[tid] = codecs.decode_tile(batch["ptr"][i].as_py(), "i8").astype(np.int8)
                self.indeg[tid] = codecs.decode_tile(batch["ind"][i].as_py(), "i8").astype(np.int8)
                self.accum[tid] = np.ones((self.tpx, self.tpx), dtype=np.float64)
                owned.append(tid)
        return owned

    def _drain(self, seeds: list[tuple[int, int, int]]):
        """Run the reference stack algorithm from the given ready cells;
        returns cross-tile messages [(tid, r, c, amount)]."""
        out_msgs: list[tuple[int, int, int, float]] = []
        stack = list(seeds)
        tpx = self.tpx
        while stack:
            tid, r, c = stack.pop()
            dgrid = self.dirs[tid]
            fa = self.accum[tid][r, c]
            self.indeg[tid][r, c] -= 1
            d = int(dgrid[r, c])
            if d < 0:
                continue
            rn = r + int(DY8[d])
            cn = c + int(DX8[d])
            tr, tc = tid // self.tiles_x, tid % self.tiles_x
            if 0 <= rn < tpx and 0 <= cn < tpx:
                self.accum[tid][rn, cn] += fa
                self.indeg[tid][rn, cn] -= 1
                if self.indeg[tid][rn, cn] == 0:
                    stack.append((tid, rn, cn))
            else:
                ntr = tr + (rn // tpx if rn >= 0 else -1) if (rn < 0 or rn >= tpx) else tr
                ntc = tc + (cn // tpx if cn >= 0 else -1) if (cn < 0 or cn >= tpx) else tc
                if 0 <= ntr < self.tiles_y and 0 <= ntc < self.tiles_x:
                    out_msgs.append((ntr * self.tiles_x + ntc, rn % tpx, cn % tpx, fa))
        return out_msgs

    def _combined(self, raw):
        """Combine per-destination-cell messages: (tid, r, c, sum, n_edges)."""
        agg: dict[tuple[int, int, int], list] = {}
        for tid, r, c, amount in raw:
            k = (tid, r, c)
            if k in agg:
                agg[k][0] += amount
                agg[k][1] += 1
            else:
                agg[k] = [amount, 1]
        return [(tid, r, c, s, n) for (tid, r, c), (s, n) in agg.items()]

    def start(self):
        seeds = []
        for tid, ind in self.indeg.items():
            rr, cc = np.nonzero(ind == 0)
            seeds.extend((tid, int(r), int(c)) for r, c in zip(rr, cc))
        return self._combined(self._drain(seeds))

    def push(self, msgs):
        seeds = []
        for tid, r, c, amount, n_edges in msgs:
            self.accum[tid][r, c] += amount
            self.indeg[tid][r, c] -= n_edges
            if self.indeg[tid][r, c] == 0:
                seeds.append((tid, r, c))
        return self._combined(self._drain(seeds))

    def dump(self, path: str):
        from .bsp import ShardBase

        out = {}
        for tid, acc in self.accum.items():
            a = acc.copy()
            a[self.dirs[tid] == -2] = self.nodata_out
            out[tid] = a
        ShardBase._dump_tiles(self._base, path, out, "f32")


def flow_accumulation_ds(pointer_ds, spec, num_workers: int = 4, out_dir: str | None = None,
                         nodata_out: float | None = None):
    """Dataset-native D8 accumulation (out_type=cells,
    d8_flow_accum.rs:399-431): pointer tiles Dataset →
    indeg halo pass → BSP shard actors → accumulation tiles Dataset."""
    import tempfile

    from .bsp import run_bsp

    nodata_out = spec.nodata if nodata_out is None else nodata_out
    out_dir = out_dir or tempfile.mkdtemp(prefix="flowaccum_", dir="/tmp")
    combined = pointer_with_indegree(pointer_ds, spec)
    return run_bsp(
        combined,
        FlowShardDS,
        (spec.tile_px, spec.tiles_x, spec.tiles_y, nodata_out),
        num_workers,
        out_dir,
    )
