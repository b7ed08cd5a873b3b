"""Cost distance / allocation / pathway — weighted Dijkstra over the grid.

Reference: gis_analysis/cost_distance.rs (724 LoC) — accumulated cost
from source cells across a cost surface: moving between adjacent cells
costs ``(cost(a) + cost(b))/2 × distance`` (diagonal √2·res); plus
cost_allocation.rs (nearest-source id) and cost_pathway.rs (backlink
trace).

The accumulated-cost field is the fixed point of

    A(c) = min(A_source(c), min_n A(n) + (cost(n)+cost(c))/2 · d(n,c))

— same structure as depression filling, so the TILED form reuses the
from-above iteration of stages/fill.py: per-tile Dijkstra with border
seed costs (round 0: internal borders blocked at +inf), rounds exchange
border accumulated costs which only DECREASE, converging to the global
field. Backlink directions fall out of the final relaxation.
"""

from __future__ import annotations

import heapq

import numpy as np

from .bsp import ShardBase, combine_tile_layers, decode, launch_shards, run_bsp
from .focal import DX8, DY8


def cost_distance(
    cost: np.ndarray,
    sources: np.ndarray,
    nodata: float,
    res: float,
    seed_costs: np.ndarray | None = None,
    mark_unreached_inf: bool = False,
    seed_alloc: np.ndarray | None = None,
):
    """Single-grid accumulated cost + backlink + allocation.

    ``sources``: int array, 0 = not a source, else source id.
    Returns (accum, backlink, alloc): backlink = direction index 0..7 of
    the cell one step BACK toward the source (-1 at sources/unreached),
    alloc = id of the cheapest source."""
    rows, cols = cost.shape
    diag = float(np.sqrt(2.0)) * res
    step = [diag, res, diag, res, diag, res, diag, res]
    INF = np.inf
    accum = np.full((rows, cols), INF)
    backlink = np.full((rows, cols), -1, dtype=np.int8)
    alloc = np.zeros((rows, cols), dtype=np.int64)
    heap: list[tuple[float, int, int, int, int]] = []  # (cost, r, c, src, blink)
    rr, cc = np.nonzero(sources > 0)
    for r, c in zip(rr, cc):
        heapq.heappush(heap, (0.0, int(r), int(c), int(sources[r, c]), -1))
    if seed_costs is not None:
        sr, sc = np.nonzero(np.isfinite(seed_costs))
        for r, c in zip(sr, sc):
            sa = int(seed_alloc[r, c]) if seed_alloc is not None else 0
            heapq.heappush(heap, (float(seed_costs[r, c]), int(r), int(c), sa, -1))
    nod = cost == nodata
    done = nod.copy()
    while heap:
        a, r, c, src, blink = heapq.heappop(heap)
        if done[r, c]:
            continue
        done[r, c] = True
        accum[r, c] = a
        backlink[r, c] = blink
        alloc[r, c] = src
        for i in range(8):
            nr, nc = r + int(DY8[i]), c + int(DX8[i])
            if not (0 <= nr < rows and 0 <= nc < cols) or done[nr, nc]:
                continue
            na = a + (cost[r, c] + cost[nr, nc]) / 2.0 * step[i]
            # backlink points from the NEIGHBOR back to (r, c):
            heapq.heappush(heap, (na, nr, nc, src, (i + 4) % 8))
    if not mark_unreached_inf:
        accum[~np.isfinite(accum)] = nodata
    accum[nod] = nodata
    return accum, backlink, alloc


def cost_pathway(backlink: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Trace the least-cost path from ``start`` back to its source
    (cost_pathway.rs semantics)."""
    path = [start]
    r, c = start
    while backlink[r, c] >= 0:
        d = int(backlink[r, c])
        r, c = r + int(DY8[d]), c + int(DX8[d])
        path.append((r, c))
        if len(path) > backlink.size:
            raise RuntimeError("backlink cycle")
    return path


# ---------------------------------------------------------------------------
# Dataset-native path: (cost, sources) tile Datasets → shard actors → BSP
# with 1-cell border frames carrying (accumulated-cost, cost, source-id)
# strips → accumulated-cost / allocation / backlink tiles Dataset. The
# seed update is vectorized (8 shifted ring views).
# ---------------------------------------------------------------------------


class CostShardDS(ShardBase):
    """Shard actor for the tiled cost iteration; ``mode`` picks the
    layer ``dump`` writes: ``distance``, ``alloc`` or ``backlink``."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata: float,
                 res: float, out_fmt: str = "f32", mode: str = "distance"):
        super().__init__(tile_px, tiles_x, tiles_y)
        self.nodata = nodata
        self.res = res
        self.out_fmt = out_fmt
        self.mode = mode
        self.cost: dict[int, np.ndarray] = {}
        self.src: dict[int, np.ndarray] = {}
        self.seed: dict[int, np.ndarray] = {}
        self.seed_alloc: dict[int, np.ndarray] = {}
        self.seed_bl: dict[int, np.ndarray] = {}
        self.est: dict[int, np.ndarray] = {}
        self.alloc_out: dict[int, np.ndarray] = {}
        self.bl_out: dict[int, np.ndarray] = {}

    def load_tile(self, tid: int, batch, i: int):
        self.cost[tid] = decode(batch, "costl", i)
        self.src[tid] = decode(batch, "srcl", i).astype(np.int64)
        self.seed[tid] = np.full(self.cost[tid].shape, np.inf)
        self.seed_alloc[tid] = np.zeros(self.cost[tid].shape, dtype=np.int64)
        self.seed_bl[tid] = np.full(self.cost[tid].shape, -1, dtype=np.int8)

    def _run_tile(self, tid: int):
        a, bl, al = cost_distance(
            self.cost[tid],
            self.src[tid],
            self.nodata,
            self.res,
            seed_costs=self.seed[tid],
            mark_unreached_inf=True,
            seed_alloc=self.seed_alloc[tid],
        )
        self.est[tid] = a
        self.alloc_out[tid] = al
        # kernel leaves backlink −1 at its seeds; inter-tile entry cells
        # instead point at the neighbouring tile that fed them (the
        # direction recorded when the border frame improved the cell)
        ext_seed = (bl == -1) & (self.src[tid] == 0) & (self.seed_bl[tid] >= 0)
        self.bl_out[tid] = np.where(ext_seed, self.seed_bl[tid], bl).astype(np.int8)
        return self.frames_out(tid, a, self.cost[tid], al)

    def start(self):
        out = []
        for tid in self.cost:
            out.extend(self._run_tile(tid))
        return out

    def push(self, msgs):
        out = []
        h = w = self.tpx
        diag = float(np.sqrt(2.0)) * self.res
        for tid, (ext_a, ext_c, ext_l) in self.frames_in(msgs, np.inf, np.inf, 0).items():
            cg = self.cost[tid]
            ext_a[ext_c == self.nodata] = np.inf  # nodata cost blocks travel
            best = np.full((h, w), np.inf)
            best_l = np.zeros((h, w), dtype=np.int64)
            best_d = np.full((h, w), -1, dtype=np.int8)
            for i in range(8):
                dy, dx = int(DY8[i]), int(DX8[i])
                sh_a = ext_a[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
                sh_c = ext_c[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
                sh_l = ext_l[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
                step = diag if (dy != 0 and dx != 0) else self.res
                with np.errstate(invalid="ignore"):
                    cand = sh_a + (sh_c + cg) / 2.0 * step
                win = cand < best
                best = np.where(win, cand, best)
                best_l = np.where(win, sh_l, best_l)
                # predecessor sits at offset (dy, dx) = direction i
                best_d = np.where(win, np.int8(i), best_d)
            cur = self.seed[tid]
            upd = np.isfinite(best) & (best < cur - 1e-9)
            if upd.any():
                self.seed[tid] = np.where(upd, best, cur)
                self.seed_alloc[tid] = np.where(upd, best_l, self.seed_alloc[tid])
                self.seed_bl[tid] = np.where(upd, best_d, self.seed_bl[tid])
                out.extend(self._run_tile(tid))
        return out

    def dump(self, path: str):
        layer = {"alloc": self.alloc_out, "backlink": self.bl_out}.get(self.mode, self.est)
        tiles = {}
        for tid, a in self.est.items():
            g = layer[tid].astype(np.float64)
            g[~np.isfinite(a) | (self.cost[tid] == self.nodata)] = self.nodata
            tiles[tid] = g
        self._dump_tiles(path, tiles, self.out_fmt)


def _cost_ds(cost_ds, source_ds, spec, num_workers: int, out_dir: str | None,
             out_fmt: str, mode: str):
    """Cost + source tile Datasets zip on the tile key, stream into the
    shard actors and iterate from above with (accum, cost, source id)
    border frames until no seed improves; ``mode`` picks the layer."""
    combined = combine_tile_layers(spec, costl=cost_ds, srcl=source_ds)
    args = (spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata, spec.res, out_fmt, mode)
    return run_bsp(combined, CostShardDS, args, num_workers, out_dir)


def cost_distance_ds(cost_ds, source_ds, spec, num_workers: int = 4,
                     out_dir: str | None = None, out_fmt: str = "f32"):
    """Dataset-native CostDistance (cost_distance.rs): accumulated cost
    tiles from the BSP cost shards."""
    return _cost_ds(cost_ds, source_ds, spec, num_workers, out_dir, out_fmt, "distance")


def cost_allocation_ds(cost_ds, source_ds, spec, num_workers: int = 4,
                       out_dir: str | None = None):
    """Dataset-native CostAllocation (cost_allocation.rs): the BSP cost
    engine tracks, per cell, the SOURCE ID of the cheapest path (source
    ids ride the border frames with the accumulated-cost strips). Written
    as f64: f32 rounds ids above 2**24."""
    return _cost_ds(cost_ds, source_ds, spec, num_workers, out_dir, "f64", "alloc")


def cost_backlink_ds(cost_ds, source_ds, spec, num_workers: int = 4,
                     out_dir: str | None = None):
    """Dataset-native cost BACKLINK raster (cost_distance.rs emits it
    alongside the accumulated cost): per cell the direction index 0-7 one
    step back toward the cheapest source (-1 at sources/unreached). The
    same BSP shards; inter-tile entry cells point at the neighbouring
    tile that fed them."""
    return _cost_ds(cost_ds, source_ds, spec, num_workers, out_dir, "f32", "backlink")


class _TileStoreActor(ShardBase):
    """Holds a shard of decoded tiles; the pathway walk fetches only the
    O(path / tile_px) tiles the least-cost path actually crosses."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int):
        super().__init__(tile_px, tiles_x, tiles_y)
        self.tiles: dict[int, np.ndarray] = {}

    def load_tile(self, tid: int, batch, i: int):
        self.tiles[tid] = decode(batch, "bytes", i)

    def get(self, tid: int):
        return self.tiles.get(tid)


def cost_pathway_ds(backlink_ds, spec, start: tuple[int, int],
                    num_stores: int = 4) -> list[tuple[int, int]]:
    """CostPathway (cost_pathway.rs) over a backlink TILE DATASET — the
    registered surface. Backlink tiles shard into store actors (pixel
    grids never reach the driver); the walk from ``start`` (row, col)
    pulls one tile at a time, so a path of length L touches
    O(L / tile_px) tiles out of the whole scene. Returns the path as
    [(row, col), ...] ending at the source cell."""
    import ray

    tpx, tiles_x = spec.tile_px, spec.tiles_x
    stores, store_of = launch_shards(backlink_ds, _TileStoreActor, (tpx, tiles_x, spec.tiles_y), num_stores)

    r, c = int(start[0]), int(start[1])
    path = [(r, c)]
    cur_tid, g = -1, None
    limit = spec.rows * spec.columns + 1
    while len(path) <= limit:
        tid = (r // tpx) * tiles_x + c // tpx
        if tid != cur_tid:
            if tid not in store_of:
                break
            g = ray.get(stores[store_of[tid]].get.remote(tid))
            cur_tid = tid
        d = int(g[r % tpx, c % tpx])
        if d < 0:
            break
        r += int(DY8[d])
        c += int(DX8[d])
        path.append((r, c))
    else:
        raise RuntimeError("backlink cycle")
    return path
