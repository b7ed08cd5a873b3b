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
# with 1-cell border frames carrying (accumulated-cost, cost) strips →
# accumulated-cost tiles Dataset. The seed update is vectorized (8
# shifted ring views).
# ---------------------------------------------------------------------------


class CostShardDS:
    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata: float,
                 res: float, out_fmt: str = "f32"):
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.nodata = nodata
        self.res = res
        self.out_fmt = out_fmt
        self.cost: dict[int, np.ndarray] = {}
        self.src: dict[int, np.ndarray] = {}
        self.seed: dict[int, np.ndarray] = {}
        self.seed_alloc: dict[int, np.ndarray] = {}
        self.seed_bl: dict[int, np.ndarray] = {}
        self.est: dict[int, np.ndarray] = {}
        self.alloc_out: dict[int, np.ndarray] = {}
        self.bl_out: dict[int, np.ndarray] = {}
        self.frames: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def ingest(self, split_ds) -> list[int]:
        from ..kernels import codecs

        owned = []
        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            trows = batch["tile_row"].to_numpy(zero_copy_only=False)
            tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
            for i in range(batch.num_rows):
                tid = int(trows[i]) * self.tiles_x + int(tcols[i])
                self.cost[tid] = codecs.decode_tile(
                    batch["costl"][i].as_py(), batch["costl_fmt"][i].as_py()
                )
                self.src[tid] = codecs.decode_tile(
                    batch["srcl"][i].as_py(), batch["srcl_fmt"][i].as_py()
                ).astype(np.int64)
                self.seed[tid] = np.full(self.cost[tid].shape, np.inf)
                self.seed_alloc[tid] = np.zeros(self.cost[tid].shape, dtype=np.int64)
                self.seed_bl[tid] = np.full(self.cost[tid].shape, -1, dtype=np.int8)
                owned.append(tid)
        return owned

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
        h, w = a.shape
        msgs = []
        tr, tc = tid // self.tiles_x, tid % self.tiles_x
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                ntr, ntc = tr + dr, tc + dc
                if not (0 <= ntr < self.tiles_y and 0 <= ntc < self.tiles_x):
                    continue
                rs = slice(h - 1, h) if dr == 1 else (slice(0, 1) if dr == -1 else slice(None))
                cs = slice(w - 1, w) if dc == 1 else (slice(0, 1) if dc == -1 else slice(None))
                est_strip = np.ascontiguousarray(a[rs, cs]).ravel().copy()
                cost_strip = np.ascontiguousarray(self.cost[tid][rs, cs]).ravel().copy()
                alloc_strip = np.ascontiguousarray(self.alloc_out[tid][rs, cs]).ravel().copy()
                rel = (1 - dr) * 3 + (1 - dc)
                msgs.append((ntr * self.tiles_x + ntc, rel, est_strip, cost_strip, alloc_strip))
        return msgs

    def start(self):
        out = []
        for tid in self.cost:
            out.extend(self._run_tile(tid))
        return out

    def push(self, msgs):
        touched = set()
        for tid, rel, est_strip, cost_strip, alloc_strip in msgs:
            self.frames[(tid, rel)] = (est_strip, cost_strip, alloc_strip)
            touched.add(tid)
        out = []
        h = w = self.tpx
        diag = float(np.sqrt(2.0)) * self.res
        for tid in touched:
            cg = self.cost[tid]
            ext_a = np.full((h + 2, w + 2), np.inf)
            ext_c = np.full((h + 2, w + 2), np.inf)
            ext_l = np.zeros((h + 2, w + 2), dtype=np.int64)
            for (ftid, rel), (ea, ec, el) in self.frames.items():
                if ftid != tid:
                    continue
                rr = rel // 3 - 1
                cc = rel % 3 - 1
                rs = slice(0, 1) if rr == -1 else (slice(h + 1, h + 2) if rr == 1 else slice(1, h + 1))
                cs = slice(0, 1) if cc == -1 else (slice(w + 1, w + 2) if cc == 1 else slice(1, w + 1))
                ext_a[rs, cs] = ea.reshape(ext_a[rs, cs].shape)
                ext_c[rs, cs] = ec.reshape(ext_c[rs, cs].shape)
                ext_l[rs, cs] = el.reshape(ext_l[rs, cs].shape)
            ext_a[ext_c == self.nodata] = np.inf  # nodata cost blocks travel
            best = np.full((h, w), np.inf)
            best_l = np.zeros((h, w), dtype=np.int64)
            best_d = np.full((h, w), -1, dtype=np.int8)
            from .focal import DX8, DY8

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

    def dump(self, path: str, mode: str = "distance"):
        from .bsp import ShardBase

        base = ShardBase(self.tpx, self.tiles_x, self.tiles_y)
        tiles = {}
        for tid, a in self.est.items():
            if mode == "alloc":
                g = self.alloc_out[tid].astype(np.float64)
                g[~np.isfinite(a)] = self.nodata
            elif mode == "backlink":
                g = self.bl_out[tid].astype(np.float64)
                g[~np.isfinite(a)] = self.nodata
            else:
                g = a.copy()
                g[~np.isfinite(g)] = self.nodata
            g[self.cost[tid] == self.nodata] = self.nodata
            tiles[tid] = g
        ShardBase._dump_tiles(base, path, tiles, self.out_fmt)


def cost_distance_ds(cost_ds, source_ds, spec, num_workers: int = 4,
                     out_dir: str | None = None, out_fmt: str = "f32"):
    """Dataset-native CostDistance (cost_distance.rs): cost + source tile
    Datasets zip on the tile key, stream into shard actors, iterate
    from-above with (accum, cost) border frames until no seed improves."""
    import tempfile

    from .bsp import combine_tile_layers, run_bsp

    out_dir = out_dir or tempfile.mkdtemp(prefix="costdist_", dir="/tmp")
    combined = combine_tile_layers(spec, costl=cost_ds, srcl=source_ds)
    return run_bsp(
        combined,
        CostShardDS,
        (spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata, spec.res, out_fmt),
        num_workers,
        out_dir,
    )


def _cost_engine_ds(cost_ds, source_ds, spec, num_workers: int,
                    out_dir: str | None, mode: str, prefix: str):
    """Drive the BSP cost shards and dump one of their output layers
    (``distance`` / ``alloc`` / ``backlink``)."""
    import os as _os
    import tempfile

    import ray
    import ray.data as rd

    from .bsp import combine_tile_layers

    out_dir = out_dir or tempfile.mkdtemp(prefix=prefix, dir="/tmp")
    _os.makedirs(out_dir, exist_ok=True)
    combined = combine_tile_layers(spec, costl=cost_ds, srcl=source_ds)
    Worker = ray.remote(CostShardDS)
    workers = [
        Worker.remote(spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata, spec.res)
        for _ in range(num_workers)
    ]
    splits = combined.split(num_workers, locality_hints=workers)
    owned = ray.get([w.ingest.remote(s) for w, s in zip(workers, splits)])
    shard_of = {tid: i for i, tids in enumerate(owned) for tid in tids}
    pending = ray.get([w.start.remote() for w in workers])
    while True:
        routed: list[list] = [[] for _ in range(num_workers)]
        n = 0
        for msgs in pending:
            for msg in msgs:
                if msg[0] in shard_of:
                    routed[shard_of[msg[0]]].append(msg)
                    n += 1
        if n == 0:
            break
        busy = [(w, m) for w, m in zip(workers, routed) if m]
        pending = ray.get([w.push.remote(m) for w, m in busy])
    ray.get([
        w.dump.remote(_os.path.join(out_dir, f"shard_{i}.parquet"), mode)
        for i, w in enumerate(workers)
    ])
    return rd.read_parquet(out_dir)


def cost_allocation_ds(cost_ds, source_ds, spec, num_workers: int = 4,
                       out_dir: str | None = None):
    """Dataset-native CostAllocation (cost_allocation.rs): the BSP cost
    engine tracks, per cell, the SOURCE ID of the cheapest path (source
    ids ride the border frames with the accumulated-cost strips); the
    allocation grid is the second dump mode of the same shards."""
    return _cost_engine_ds(cost_ds, source_ds, spec, num_workers, out_dir,
                           "alloc", "costalloc_")


def cost_backlink_ds(cost_ds, source_ds, spec, num_workers: int = 4,
                     out_dir: str | None = None):
    """Dataset-native cost BACKLINK raster (cost_distance.rs emits it
    alongside the accumulated cost): per cell the direction index 0-7 one
    step back toward the cheapest source (-1 at sources/unreached). The
    same BSP shards; inter-tile entry cells point at the neighbouring
    tile that fed them."""
    return _cost_engine_ds(cost_ds, source_ds, spec, num_workers, out_dir,
                           "backlink", "costbl_")


class _TileStoreActor:
    """Holds a shard of decoded tiles; the pathway walk fetches only the
    O(path / tile_px) tiles the least-cost path actually crosses."""

    def __init__(self, tiles_x: int):
        self.tiles_x = tiles_x
        self.tiles: dict[int, np.ndarray] = {}

    def ingest(self, split_ds) -> list[int]:
        from ..kernels import codecs

        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            for i in range(batch.num_rows):
                tid = (int(batch["tile_row"][i].as_py()) * self.tiles_x
                       + int(batch["tile_col"][i].as_py()))
                self.tiles[tid] = codecs.decode_tile(
                    batch["bytes"][i].as_py(), batch["fmt"][i].as_py()
                )
        return sorted(self.tiles)

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
    Store = ray.remote(_TileStoreActor)
    stores = [Store.remote(tiles_x) for _ in range(num_stores)]
    splits = backlink_ds.split(num_stores, locality_hints=stores)
    owned = ray.get([st.ingest.remote(sp) for st, sp in zip(stores, splits)])
    store_of = {tid: i for i, tids in enumerate(owned) for tid in tids}

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
