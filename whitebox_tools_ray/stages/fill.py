"""FillDepressions — priority-flood depression filling.

Reference: hydro_analysis/fill_depressions.rs (656 LoC) — a global
priority queue seeded at the raster edge (and next to nodata); cells pop
in elevation order and any lower neighbor is raised to the popped level.
The filled surface F is the unique fixed point of

    F(c) = max(z(c), min over 8-neighbors n of F(n)),   F = z on seeds

(the minimax-path-to-edge characterization).

SURVEY.md §7 flags the global ordering as the hard part for tiling. The
engine uses the hierarchical scheme (Barnes 2016-flavored, iterative
Jacobi form):

1. per tile: priority-flood with the tile border as seeds at CURRENT
   seed levels (round 0: scene-INTERNAL tile borders are blocked, so
   cells with no drainage yet sit at +inf — an OVER-estimate of F; true
   scene edges and cells next to nodata seed at their own z);
2. exchange: each border cell's seed level becomes
   ``max(z, min of adjacent EXTERNAL cells' filled estimates)``, and
   external nodata cells drain freely like the scene edge;
3. repeat until no seed level changes. Levels only fall, and iterating
   from above is the direction that reaches the MINIMAL fixed point of
   F = max(z, min_n F(n)) — per-tile fills within a round are
   independent (the distributed map), only 1-cell border frames cross
   tiles.

Validated against the single-grid kernel (exact equality) in tests.
"""

from __future__ import annotations

import heapq

import numpy as np

from .focal import DX8, DY8


def priority_flood(
    grid: np.ndarray,
    nodata: float,
    seed_levels: np.ndarray | None = None,
    mark_unreached_inf: bool = False,
) -> np.ndarray:
    """Priority-flood one grid.

    ``seed_levels``: full-shape float array, ``-inf`` everywhere except
    seed cells, whose value is the FIXED water level there (≥ their z).
    Default: scene edge + next-to-nodata cells at their own elevation
    (the reference's seeding)."""
    rows, cols = grid.shape
    out = grid.astype(np.float64).copy()
    if seed_levels is None:
        seed_levels = np.full((rows, cols), -np.inf)
        edge = np.zeros((rows, cols), dtype=bool)
        edge[0, :] = edge[-1, :] = True
        edge[:, 0] = edge[:, -1] = True
        nod = grid == nodata
        if nod.any():
            pad = np.zeros((rows + 2, cols + 2), dtype=bool)
            pad[1:-1, 1:-1] = nod
            from numpy.lib.stride_tricks import sliding_window_view

            near_nod = sliding_window_view(pad, (3, 3)).any(axis=(-2, -1)) & ~nod
            edge |= near_nod
        seed_levels = np.where(edge, grid, -np.inf)
    # Dijkstra-form flood: heap holds CANDIDATE water levels; a cell's
    # final level = max(z, lowest candidate that reaches it) — so a seed
    # entered at a high external level can still be undercut by a lower
    # internal drainage path (essential for the tiled iteration).
    visited = np.zeros((rows, cols), dtype=bool)
    visited[grid == nodata] = True
    heap: list[tuple[float, int, int]] = []
    rr, cc = np.nonzero(np.isfinite(seed_levels) & (grid != nodata))
    for r, c in zip(rr, cc):
        heapq.heappush(heap, (max(float(grid[r, c]), float(seed_levels[r, c])), int(r), int(c)))
    while heap:
        lvl, r, c = heapq.heappop(heap)
        if visited[r, c]:
            continue
        visited[r, c] = True
        out[r, c] = max(float(grid[r, c]), lvl)
        for i in range(8):
            nr, nc = r + int(DY8[i]), c + int(DX8[i])
            if not (0 <= nr < rows and 0 <= nc < cols) or visited[nr, nc]:
                continue
            heapq.heappush(heap, (max(out[r, c], float(grid[nr, nc])), nr, nc))
    if mark_unreached_inf:
        out[~visited & (grid != nodata)] = np.inf
    return out


# ---------------------------------------------------------------------------
# Dataset-native path: DEM tiles Dataset → shard actors owning z tiles →
# per-round local priority floods with 1-cell border-frame exchange →
# filled tiles Dataset. The iteration of the module docstring; the border
# seed update is a vectorized min-pool of the external frame ring.
# ---------------------------------------------------------------------------


class FillShardDS:
    """Shard actor for hierarchical depression filling."""

    # frame rel codes: (dr+1)*3 + (dc+1) of the SENDING tile relative to
    # the receiver; 4 (self) unused.

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata: float):
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.nodata = nodata
        self.z: dict[int, np.ndarray] = {}
        self.seed: dict[int, np.ndarray] = {}
        self.est: dict[int, np.ndarray] = {}
        self.frames: dict[tuple[int, int], np.ndarray] = {}  # (tid, rel) → array

    def ingest(self, split_ds) -> list[int]:
        from ..kernels import codecs

        owned = []
        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            trows = batch["tile_row"].to_numpy(zero_copy_only=False)
            tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
            for i in range(batch.num_rows):
                tid = int(trows[i]) * self.tiles_x + int(tcols[i])
                self.z[tid] = codecs.decode_tile(
                    batch["bytes"][i].as_py(), batch["fmt"][i].as_py()
                ).astype(np.float64)
                owned.append(tid)
        for tid in owned:
            self.seed[tid] = self._initial_seeds(tid)
        return owned

    def _initial_seeds(self, tid: int) -> np.ndarray:
        g = self.z[tid]
        h, w = g.shape
        tr, tc = tid // self.tiles_x, tid % self.tiles_x
        sl = np.full(g.shape, -np.inf)
        if tr == 0:
            sl[0, :] = g[0, :]
        if tr == self.tiles_y - 1:
            sl[-1, :] = g[-1, :]
        if tc == 0:
            sl[:, 0] = g[:, 0]
        if tc == self.tiles_x - 1:
            sl[:, -1] = g[:, -1]
        nod = g == self.nodata
        if nod.any():
            from numpy.lib.stride_tricks import sliding_window_view

            pad = np.zeros((h + 2, w + 2), dtype=bool)
            pad[1:-1, 1:-1] = nod
            near = sliding_window_view(pad, (3, 3)).any(axis=(-2, -1)) & ~nod
            sl = np.where(near, np.maximum(sl, g), sl)
        return sl

    def _flood_and_frames(self, tid: int):
        """Re-flood one tile; return its 8 outgoing border frames."""
        self.est[tid] = priority_flood(
            self.z[tid], self.nodata, self.seed[tid], mark_unreached_inf=True
        )
        e = self.est[tid]
        h, w = e.shape
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
                strip = np.ascontiguousarray(e[rs, cs]).ravel().copy()
                rel = (1 - dr) * 3 + (1 - dc)  # position in RECEIVER's frame
                msgs.append((ntr * self.tiles_x + ntc, rel, strip))
        return msgs

    def start(self):
        out = []
        for tid in self.z:
            out.extend(self._flood_and_frames(tid))
        return out

    def push(self, msgs):
        from numpy.lib.stride_tricks import sliding_window_view

        touched = set()
        for tid, rel, strip in msgs:
            self.frames[(tid, rel)] = strip
            touched.add(tid)
        out = []
        h = w = self.tpx
        for tid in touched:
            g = self.z[tid]
            # assemble external ring: +inf where no frame yet (blocked)
            ext = np.full((h + 2, w + 2), np.inf)
            for (ftid, rel), strip in self.frames.items():
                if ftid != tid:
                    continue
                rr = rel // 3 - 1
                cc = rel % 3 - 1
                rs = slice(0, 1) if rr == -1 else (slice(h + 1, h + 2) if rr == 1 else slice(1, h + 1))
                cs = slice(0, 1) if cc == -1 else (slice(w + 1, w + 2) if cc == 1 else slice(1, w + 1))
                ext[rs, cs] = strip.reshape(ext[rs, cs].shape)
            # external nodata drains freely (scene hole = scene edge)
            ext[ext == self.nodata] = -np.inf
            # min external estimate over each cell's 8-neighborhood —
            # interior stays +inf so only border cells see finite values
            m = sliding_window_view(ext, (3, 3)).min(axis=(-2, -1))
            cand = np.maximum(g, m)
            cur = self.seed[tid]
            upd = np.isfinite(m) & (~np.isfinite(cur) | (cand < cur - 1e-12))
            if upd.any():
                self.seed[tid] = np.where(upd, cand, cur)
                out.extend(self._flood_and_frames(tid))
        return out

    def dump(self, path: str):
        from .bsp import ShardBase

        base = ShardBase(self.tpx, self.tiles_x, self.tiles_y)
        ShardBase._dump_tiles(base, path, self.est, "f32")


def fill_depressions_ds(dem_ds, spec, num_workers: int = 4, out_dir: str | None = None):
    """Dataset-native FillDepressions (fill_depressions.rs semantics via
    the hierarchical Barnes-style iteration): DEM tiles Dataset in,
    filled tiles Dataset out; only 1-cell border frames cross shards."""
    import tempfile

    from .bsp import run_bsp

    out_dir = out_dir or tempfile.mkdtemp(prefix="filldep_", dir="/tmp")
    return run_bsp(
        dem_ds,
        FillShardDS,
        (spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata),
        num_workers,
        out_dir,
    )


def depth_in_sink_ds(dem_ds, spec, zero_background: bool = False,
                     num_workers: int = 4):
    """DepthInSink (hydro_analysis/depth_in_sink.rs): filled − dem per
    cell; cells outside sinks get 0 (``zero_background``) or nodata.
    Composition: Dataset-native fill, then a keyed tile zip with the DEM
    (one groupby — both layers stream)."""
    import pandas as pd

    from ..kernels import codecs
    from .bsp import combine_tile_layers

    filled = fill_depressions_ds(dem_ds, spec, num_workers=num_workers)
    combined = combine_tile_layers(spec, deml=dem_ds, filll=filled)
    nodata = spec.nodata
    bg = 0.0 if zero_background else nodata

    def depth(g: pd.DataFrame) -> pd.DataFrame:
        row = g.iloc[0]
        dem = codecs.decode_tile(bytes(row["deml"]), row["deml_fmt"])
        fil = codecs.decode_tile(bytes(row["filll"]), row["filll_fmt"])
        d = fil - dem
        out = np.where(d > 1e-9, d, bg)
        out[dem == nodata] = nodata
        return codecs.tile_row_table(
            row["tile_row"], row["tile_col"], codecs.encode_tile(out, "f32"), "f32"
        )

    return combined.map_batches(
        lambda b: pd.concat([depth(b.iloc[[i]]) for i in range(len(b))], ignore_index=True),
        batch_format="pandas",
    )


def sink_ds(dem_ds, spec, num_workers: int = 4):
    """Sink (hydro_analysis/sink.rs): label each distinct depression —
    cells where the filled surface exceeds the DEM — with a unique id
    (connected-component labeling of the depth mask via the
    Dataset-native clump). Returns (labels Dataset, n_sinks)."""
    from .cc import clump_ds

    depth = depth_in_sink_ds(dem_ds, spec, zero_background=True, num_workers=num_workers)

    # binarize the depth tiles (clump groups by VALUE equality)
    import pandas as pd

    from ..kernels import codecs

    nodata = spec.nodata

    def binarize(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, row in b.iterrows():
            g = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            m = np.where(g == nodata, nodata, (g > 0).astype(np.float64))
            out.append(
                {
                    "tile_row": int(row["tile_row"]),
                    "tile_col": int(row["tile_col"]),
                    "bytes": codecs.encode_tile(m, "f32"),
                    "fmt": "f32",
                }
            )
        return pd.DataFrame(out)

    mask = depth.map_batches(binarize, batch_format="pandas")
    return clump_ds(mask, spec, diag=True, zero_background=True)


def breach_depressions(grid: np.ndarray, nodata: float, epsilon: float = 1e-5,
                       max_rounds: int = 8) -> np.ndarray:
    """BreachDepressions (hydro_analysis/breach_depressions.rs, Lindsay
    2016): for each pit (ascending z), least-cost search (dig cost =
    positive height above the pit) to the nearest cell lower than the
    pit (or a scene/nodata edge), then carve the path so it descends by
    ε per step. Cells are only ever LOWERED; afterwards every cell has a
    descending path to the edge (no depressions remain).

    Single-grid kernel: runs per partition inside map_batches; the exact
    cross-tile form is open (fill_depressions_ds is the Dataset-native
    DEM conditioner)."""
    rows, cols = grid.shape
    z = grid.astype(np.float64).copy()
    nod = z == nodata

    def is_edge(r, c):
        if r == 0 or r == rows - 1 or c == 0 or c == cols - 1:
            return True
        for i in range(8):
            nr, nc = r + int(DY8[i]), c + int(DX8[i])
            if nod[nr, nc]:
                return True
        return False

    for _round in range(max_rounds):
        # pits: valid cells with no strictly-lower valid neighbor and no
        # edge/nodata drain
        pits = []
        for r in range(rows):
            for c in range(cols):
                if nod[r, c] or is_edge(r, c):
                    continue
                lower = False
                for i in range(8):
                    nr, nc = r + int(DY8[i]), c + int(DX8[i])
                    if not nod[nr, nc] and z[nr, nc] < z[r, c]:
                        lower = True
                        break
                if not lower:
                    pits.append((z[r, c], r, c))
        if not pits:
            break
        pits.sort()
        carved_any = False
        for pz, pr, pc in pits:
            if z[pr, pc] != pz:
                continue  # already carved by an earlier path
            # re-check pit-ness (a prior carve may have drained it)
            still = True
            for i in range(8):
                nr, nc = pr + int(DY8[i]), pc + int(DX8[i])
                if nod[nr, nc] or z[nr, nc] < z[pr, pc]:
                    still = False
                    break
            if not still or is_edge(pr, pc):
                continue
            # Dijkstra: cost of entering cell n = max(0, z[n] - pz)
            import heapq as _hq

            dist = {(pr, pc): 0.0}
            prev: dict[tuple[int, int], tuple[int, int]] = {}
            pq = [(0.0, pr, pc)]
            target = None
            while pq:
                d, r, c = _hq.heappop(pq)
                if d > dist.get((r, c), np.inf):
                    continue
                if (r, c) != (pr, pc) and (nod[r, c] or z[r, c] < pz or is_edge(r, c)):
                    target = (r, c)
                    break
                for i in range(8):
                    nr, nc = r + int(DY8[i]), c + int(DX8[i])
                    if not (0 <= nr < rows and 0 <= nc < cols):
                        continue
                    stepc = 0.0 if nod[nr, nc] else max(0.0, float(z[nr, nc]) - pz) + 1e-9
                    ndist = d + stepc
                    if ndist < dist.get((nr, nc), np.inf):
                        dist[(nr, nc)] = ndist
                        prev[(nr, nc)] = (r, c)
                        _hq.heappush(pq, (ndist, nr, nc))
            if target is None:
                continue
            # carve the path pit → target, descending ε per step
            path = [target]
            cur = target
            while cur != (pr, pc):
                cur = prev[cur]
                path.append(cur)
            path.reverse()  # pit first
            lvl = pz
            for (r, c) in path[1:]:
                lvl -= epsilon
                if not nod[r, c]:
                    if z[r, c] > lvl:
                        z[r, c] = lvl
                        carved_any = True
                    else:
                        lvl = z[r, c]  # already lower — follow the terrain
        if not carved_any:
            break
    return z


def _breach_shard_round(z: np.ndarray, nod: np.ndarray, core: np.ndarray,
                        scene_edge: np.ndarray, epsilon: float):
    """One breach round over a shard subgrid: detect pits among CORE
    cells (ascending (z, r, c) — the reference's sort), carve those whose
    least-cost search never touches a non-core cell, defer the rest.

    Cores are disjoint across shards, so two accepted carves from
    different shards can never share a cell — acceptance order across
    shards needs no reconciliation beyond the global deferred-z cut
    (breach_hierarchical). Returns (proposals, deferred):
    proposals = [(pz, pr, pc, [(r, c, new_z), ...])] with LOCAL coords,
    already applied to ``z`` in order; deferred = [(pz, pr, pc)]."""
    import heapq as _hq

    rows, cols = z.shape
    pits = []
    rr, cc = np.nonzero(core & ~nod & ~scene_edge)
    for r, c in zip(rr, cc):
        lower = False
        for i in range(8):
            nr, nc = r + int(DY8[i]), c + int(DX8[i])
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            if not nod[nr, nc] and z[nr, nc] < z[r, c]:
                lower = True
                break
        if not lower:
            pits.append((float(z[r, c]), int(r), int(c)))
    pits.sort()
    proposals, deferred = [], []
    for pz, pr, pc in pits:
        if z[pr, pc] != pz:
            continue
        still = True
        for i in range(8):
            nr, nc = pr + int(DY8[i]), pc + int(DX8[i])
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            if nod[nr, nc] or z[nr, nc] < pz:
                still = False
                break
        if not still or scene_edge[pr, pc]:
            continue
        dist = {(pr, pc): 0.0}
        prev: dict = {}
        pq = [(0.0, pr, pc)]
        target = None
        out_of_core = False
        while pq:
            d, r, c = _hq.heappop(pq)
            if d > dist.get((r, c), np.inf):
                continue
            if (r, c) != (pr, pc) and (nod[r, c] or z[r, c] < pz or scene_edge[r, c]):
                target = (r, c)
                break
            for i in range(8):
                nr, nc = r + int(DY8[i]), c + int(DX8[i])
                if not (0 <= nr < rows and 0 <= nc < cols) or not core[nr, nc]:
                    # the true global search could continue through this
                    # cell — this shard cannot decide the pit this round
                    out_of_core = True
                    break
                stepc = 0.0 if nod[nr, nc] else max(0.0, float(z[nr, nc]) - pz) + 1e-9
                ndist = d + stepc
                if ndist < dist.get((nr, nc), np.inf):
                    dist[(nr, nc)] = ndist
                    prev[(nr, nc)] = (r, c)
                    _hq.heappush(pq, (ndist, nr, nc))
            if out_of_core:
                break
        if out_of_core:
            deferred.append((pz, pr, pc))
            continue
        if target is None:
            continue
        path = [target]
        cur = target
        while cur != (pr, pc):
            cur = prev[cur]
            path.append(cur)
        path.reverse()
        lvl = pz
        cells = []
        for (r, c) in path[1:]:
            lvl -= epsilon
            if not nod[r, c]:
                if z[r, c] > lvl:
                    z[r, c] = lvl
                    cells.append((r, c, float(lvl)))
                else:
                    lvl = z[r, c]
        if cells:
            proposals.append((pz, pr, pc, cells))
    return proposals, deferred


def breach_hierarchical(dem_ds, spec, epsilon: float = 1e-5,
                        shard_tiles: int = 8, max_global_rounds: int = 16,
                        fill_fallback: bool = True, num_workers: int = 4):
    """Exact Lindsay-2016 breach past the single-task cap.

    Per global round: the tile grid shards into ``shard_tiles``² blocks
    (offset rotates per round so every pit is eventually core-interior);
    each shard assembles its block + a 1-tile halo, detects pits in its
    core and carves the ones whose least-cost search stays in-core
    (``_breach_shard_round``); searches that touch a shard border defer.
    Exactness: cores are disjoint, so accepted carve regions from
    different shards never overlap — the only cross-shard ordering
    hazard is a deferred (unresolved) pit with LOWER z than an accepted
    one, so the driver applies a global cut: only proposals with
    pz < min(deferred pz) land this round; everything above waits for
    the deferred pit to resolve under a shifted shard grid. Patches are
    O(carve-path cells), broadcast back to the tile Dataset (no extra
    shuffle of pixel data beyond the per-round shard routing).

    Pits whose search region exceeds a shard core under every offset
    cannot be localized; after ``max_global_rounds`` the remaining
    depressions fall back to fill (raise-to-spill — the documented
    semantics difference) when ``fill_fallback``."""
    import ray

    from ..kernels import codecs

    nodata, tpx = spec.nodata, spec.tile_px
    tiles_x, tiles_y = spec.tiles_x, spec.tiles_y
    rows_tot, cols_tot = spec.rows, spec.columns
    # B >= 2: with 1-tile shards every tile boundary is a shard boundary
    # under EVERY offset, so border pits could never become interior
    B = max(2, shard_tiles)
    offsets = [(0, 0), (B // 2, B // 2), (0, B // 2), (B // 2, 0),
               (B // 4, B // 4), (3 * B // 4, B // 4)]
    offsets = list(dict.fromkeys(offsets))
    tiles = dem_ds
    last_min_def = None
    stuck = 0
    for rnd in range(max_global_rounds):
        offr, offc = offsets[rnd % len(offsets)]

        def route(row, offr=offr, offc=offc):
            tr, tc = int(row["tile_row"]), int(row["tile_col"])
            out = []
            seen = set()
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    ntr, ntc = tr + dr, tc + dc
                    if not (0 <= ntr < tiles_y and 0 <= ntc < tiles_x):
                        continue
                    sk = ((ntr + offr) // B) * 10_000 + (ntc + offc) // B
                    if sk in seen:
                        continue
                    seen.add(sk)
                    core = sk == ((tr + offr) // B) * 10_000 + (tc + offc) // B
                    out.append({"skey": sk, "tile_row": tr, "tile_col": tc,
                                "bytes": row["bytes"], "fmt": row["fmt"],
                                "is_core": core})
            return out

        def shard_round(g, offr=offr, offc=offc):
            trs = g["tile_row"].to_numpy()
            tcs = g["tile_col"].to_numpy()
            tr0, tr1 = int(trs.min()), int(trs.max())
            tc0, tc1 = int(tcs.min()), int(tcs.max())
            h = (tr1 - tr0 + 1) * tpx
            w = (tc1 - tc0 + 1) * tpx
            z = np.full((h, w), nodata, dtype=np.float64)
            core = np.zeros((h, w), dtype=bool)
            for _, row in g.iterrows():
                t = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
                r0 = (int(row["tile_row"]) - tr0) * tpx
                c0 = (int(row["tile_col"]) - tc0) * tpx
                z[r0 : r0 + tpx, c0 : c0 + tpx] = t
                if bool(row["is_core"]):
                    core[r0 : r0 + tpx, c0 : c0 + tpx] = True
            nod = z == nodata
            # true scene edge: global boundary or nodata-adjacent
            gr0, gc0 = tr0 * tpx, tc0 * tpx
            edge = np.zeros((h, w), dtype=bool)
            if gr0 == 0:
                edge[0, :] = True
            if gc0 == 0:
                edge[:, 0] = True
            if gr0 + h >= rows_tot:
                edge[h - (gr0 + h - rows_tot) - 1, :] = True
            if gc0 + w >= cols_tot:
                edge[:, w - (gc0 + w - cols_tot) - 1] = True
            pad = np.zeros((h + 2, w + 2), dtype=bool)
            pad[1:-1, 1:-1] = nod
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr or dc:
                        edge |= pad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            props, defs = _breach_shard_round(z, nod, core, edge, epsilon)
            recs = {"kind": [], "pz": [], "payload": []}
            for pz, pr, pc, cells in props:
                arr = np.array([(gr0 + r, gc0 + c, v) for r, c, v in cells],
                               dtype=np.float64)
                recs["kind"].append("p")
                recs["pz"].append(pz)
                recs["payload"].append(arr.tobytes())
            for pz, pr, pc in defs:
                recs["kind"].append("d")
                recs["pz"].append(pz)
                recs["payload"].append(b"")
            import pandas as pd

            return pd.DataFrame(recs)

        res = (
            tiles.flat_map(route)
            .groupby("skey")
            .map_groups(shard_round, batch_format="pandas")
            .to_pandas()
        )
        if res.empty:
            break
        defs = res[res["kind"] == "d"]
        props = res[res["kind"] == "p"].sort_values("pz")
        min_def = float(defs["pz"].min()) if len(defs) else np.inf
        acc = props[props["pz"] < min_def]
        if not len(acc):
            if not len(defs):
                break  # proposals all carved nothing new
            if last_min_def is not None and min_def == last_min_def:
                stuck += 1
            else:
                stuck = 0
            last_min_def = min_def
            if stuck >= len(offsets):
                break  # lowest pit cannot be localized under any offset
            continue
        stuck = 0
        last_min_def = None
        # patch tiles: broadcast the (small) accepted carve cells
        patch: dict[int, list] = {}
        for blob in acc["payload"]:
            arr = np.frombuffer(blob, dtype=np.float64).reshape(-1, 3)
            for r, c, v in arr:
                tk = (int(r) // tpx) * tiles_x + int(c) // tpx
                patch.setdefault(tk, []).append((int(r), int(c), v))
        patch_ref = ray.put(patch)

        def apply_patch(batch, patch_ref=patch_ref):
            import pyarrow as pa

            p = ray.get(patch_ref)
            outs = []
            for i in range(batch.num_rows):
                tr = int(batch["tile_row"][i].as_py())
                tc = int(batch["tile_col"][i].as_py())
                blob = batch["bytes"][i].as_py()
                fmt = batch["fmt"][i].as_py()
                cells = p.get(tr * tiles_x + tc)
                if cells:
                    t = codecs.decode_tile(blob, fmt).astype(np.float64)
                    for r, c, v in cells:
                        # carves only lower — min keeps any apply order exact
                        t[r - tr * tpx, c - tc * tpx] = min(t[r - tr * tpx, c - tc * tpx], v)
                    blob, fmt = codecs.encode_tile(t, "f64"), "f64"
                outs.append((tr, tc, blob, fmt))
            return pa.table(
                {
                    "tile_row": pa.array([o[0] for o in outs], pa.int32()),
                    "tile_col": pa.array([o[1] for o in outs], pa.int32()),
                    "bytes": pa.array([o[2] for o in outs], pa.binary()),
                    "fmt": pa.array([o[3] for o in outs], pa.string()),
                }
            )

        tiles = tiles.map_batches(apply_patch, batch_format="pyarrow").materialize()
    else:
        res = None  # rounds exhausted
    # unresolved pits remain if the loop broke on `stuck` or exhausted
    remaining = res is None or (res is not None and not res.empty and (res["kind"] == "d").any()
                                and stuck >= len(offsets))
    if remaining and fill_fallback:
        return fill_depressions_ds(tiles, spec, num_workers=num_workers)
    return tiles


def breach_depressions_ds(dem_ds, spec, epsilon: float = 1e-5,
                          max_rounds: int = 8, num_workers: int = 4,
                          exact_cell_cap: int = 16_000_000):
    """Dataset-native BreachDepressions.

    The exact Lindsay-2016 carve is globally sequential — each carve
    lowers cells and therefore changes the dig cost of every later
    pit's least-cost search — so it does not decompose into
    independent tile tasks. Two routes:

    - scenes up to ``exact_cell_cap`` cells (128 MB of f64): the tile
      table groups under one constant key and a SINGLE worker task
      assembles the scene, runs the exact kernel, and re-emits tiles.
      Pixel data never touches the driver, but the kernel is one task
      (breach_depressions.rs itself is a whole-raster in-memory pass).
    - larger scenes route to ``breach_hierarchical`` — the exact carve
      sharded by tile blocks with per-round offset rotation; only pits
      whose search region cannot be localized in any shard fall back to
      fill (raise-to-spill), the documented semantics difference.
    """
    import pandas as pd
    import pyarrow as pa

    from ..kernels import codecs

    if spec.rows * spec.columns > exact_cell_cap:
        return breach_hierarchical(dem_ds, spec, epsilon=epsilon,
                                   num_workers=num_workers)

    nodata, tpx, tiles_x = spec.nodata, spec.tile_px, spec.tiles_x

    def carve(g: pd.DataFrame) -> pd.DataFrame:
        full = np.full((spec.rows, spec.columns), nodata, dtype=np.float64)
        for _, row in g.iterrows():
            t = codecs.decode_tile(bytes(row["bytes"]), row["fmt"])
            r0 = int(row["tile_row"]) * tpx
            c0 = int(row["tile_col"]) * tpx
            full[r0 : r0 + t.shape[0], c0 : c0 + t.shape[1]] = t
        z = breach_depressions(full, nodata, epsilon=epsilon, max_rounds=max_rounds)
        out = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
        for _, row in g.iterrows():
            tr, tc = int(row["tile_row"]), int(row["tile_col"])
            r0, c0 = tr * tpx, tc * tpx
            out["tile_row"].append(tr)
            out["tile_col"].append(tc)
            out["bytes"].append(
                codecs.encode_tile(z[r0 : r0 + tpx, c0 : c0 + tpx], "f32")
            )
            out["fmt"].append("f32")
        return codecs.tile_table(out["tile_row"], out["tile_col"], out["bytes"], out["fmt"])

    keyed = dem_ds.map_batches(
        lambda b: b.append_column("__one", pa.array(np.zeros(b.num_rows, np.int8))),
        batch_format="pyarrow",
    )
    return keyed.groupby("__one").map_groups(carve, batch_format="pandas")
