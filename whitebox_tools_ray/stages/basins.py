"""Basins / Watershed — terminal-labeling over the D8 pointer grid.

Reference: hydro_analysis/basins.rs / watershed.rs — every cell receives
the label of the terminal it drains to (Basins: each outlet/pit gets its
own id; Watershed: labels seeded from pour points, unseeded cells 0).
The reference propagates labels upstream cell-by-cell.

Engine form: **pointer doubling** — build ``next[i]`` = flat index of
each cell's downstream neighbor (self for terminals), then repeat
``next = next[next]`` until fixed point: O(log longest-flow-path) fully
vectorized rounds instead of per-cell chasing. After convergence every
cell indexes its terminal directly; labels are a single gather.

Distribution note: pointer doubling is exactly the BSP-friendly form —
each doubling round is a gather that crosses tiles only through the
boundary cells' ``next`` entries, so the tiled version exchanges
per-tile (cell → next) tables for log(path) rounds. The whole-grid
functions at the top run the doubling on the assembled pointer grid and
serve as the tests' oracles; the registered ``*_ds`` forms below shard
it (``TermShardDS``).
"""

from __future__ import annotations

import numpy as np

from ..kernels import codecs
from .bsp import ShardBase, combine_tile_layers, decode, dump_shards, launch_shards
from .focal import DX8, DY8


def _pointer_mosaic(pointer_tiles: dict[int, bytes], spec) -> np.ndarray:
    tpx = spec.tile_px
    ptr = np.full((spec.rows, spec.columns), -2, dtype=np.int8)
    for tid, blob in pointer_tiles.items():
        g = codecs.decode_tile(blob, "i8").astype(np.int8)
        r0 = (tid // spec.tiles_x) * tpx
        c0 = (tid % spec.tiles_x) * tpx
        ptr[r0 : r0 + tpx, c0 : c0 + tpx] = g
    return ptr


def terminal_index(ptr: np.ndarray) -> np.ndarray:
    """Flat index of each cell's drainage terminal via pointer doubling."""
    rows, cols = ptr.shape
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    nxt = idx.copy()
    valid = ptr >= 0
    d = np.where(valid, ptr, 0).astype(np.int64)
    nr = rr + DY8[d]
    nc = cc + DX8[d]
    in_grid = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
    move = valid & in_grid
    nxt[move] = (nr[move] * cols + nc[move]).astype(np.int64)
    flat = nxt.ravel()
    while True:
        nxt2 = flat[flat]
        if np.array_equal(nxt2, flat):
            break
        flat = nxt2
    return flat.reshape(rows, cols)


def basins(pointer_tiles: dict[int, bytes], spec) -> dict[int, np.ndarray]:
    """Basins: unique 1-based id per terminal, ids in row-major terminal
    order (the reference's discovery ordering); nodata cells → nodata."""
    ptr = _pointer_mosaic(pointer_tiles, spec)
    term = terminal_index(ptr)
    rows, cols = ptr.shape
    valid = ptr != -2
    terms = np.unique(term[valid])
    label_of = np.zeros(rows * cols, dtype=np.int64)
    label_of[np.sort(terms)] = np.arange(1, len(terms) + 1)
    lab = label_of[term].astype(np.float64)
    lab[~valid] = spec.nodata
    tpx = spec.tile_px
    return {
        tid: lab[(tid // spec.tiles_x) * tpx : (tid // spec.tiles_x) * tpx + tpx,
                 (tid % spec.tiles_x) * tpx : (tid % spec.tiles_x) * tpx + tpx]
        for tid in pointer_tiles
    }


def watershed(pointer_tiles: dict[int, bytes], spec, pour_points: list[tuple[float, float, int]]):
    """Watershed: pour points (x, y, id) snap to their cell; every cell
    whose flow PATH passes through a pour cell gets that id (nearest pour
    point downstream wins, i.e. the FIRST one encountered walking
    downstream — watershed.rs semantics); others 0.

    Implemented as doubling over a modified pointer field where pour
    cells are made terminal first."""
    gs = spec.grid_spec()
    ptr = _pointer_mosaic(pointer_tiles, spec)
    rows, cols = ptr.shape
    pour = np.zeros((rows, cols), dtype=np.int64)
    ptr_mod = ptr.copy()
    for x, y, pid in pour_points:
        r = int(gs.row_from_y(np.float64(y)))
        c = int(gs.col_from_x(np.float64(x)))
        if 0 <= r < rows and 0 <= c < cols:
            pour[r, c] = pid
            ptr_mod[r, c] = -1  # pour cells become terminals
    term = terminal_index(ptr_mod)
    lab = pour.ravel()[term.ravel()].reshape(rows, cols).astype(np.float64)
    lab[ptr == -2] = spec.nodata
    tpx = spec.tile_px
    return {
        tid: lab[(tid // spec.tiles_x) * tpx : (tid // spec.tiles_x) * tpx + tpx,
                 (tid % spec.tiles_x) * tpx : (tid % spec.tiles_x) * tpx + tpx]
        for tid in pointer_tiles
    }


def _doubling_to_targets(ptr: np.ndarray, is_target: np.ndarray, step_values: np.ndarray):
    """Additive pointer doubling: for every cell, the SUM of step_values
    along its flow path until a target cell (or terminal) is reached.

    Returns (total, reached_target, terminal_index). log(path) rounds,
    each fully vectorized — the BSP-friendly form of the reference's
    per-cell downslope walks."""
    rows, cols = ptr.shape
    idx = np.arange(rows * cols, dtype=np.int64)
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    valid = ptr >= 0
    d = np.where(valid, ptr, 0).astype(np.int64)
    nr = rr + DY8[d]
    nc = cc + DX8[d]
    in_grid = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
    move = valid & in_grid & ~is_target  # targets are absorbing
    nxt = idx.reshape(rows, cols).copy()
    nxt[move] = (nr[move] * cols + nc[move]).astype(np.int64)
    nxt = nxt.ravel()
    acc = np.where(move, step_values, 0.0).ravel()
    while True:
        nxt2 = nxt[nxt]
        if np.array_equal(nxt2, nxt):
            break
        # absorbing cells (targets/terminals) carry acc = 0, so the
        # classic doubling update is exact everywhere:
        acc = acc + acc[nxt]
        nxt = nxt2
    term = nxt.reshape(rows, cols)
    reached = is_target.ravel()[nxt].reshape(rows, cols)
    return acc.reshape(rows, cols), reached, term


def downslope_distance_to_stream(pointer_tiles: dict[int, bytes], stream_tiles: dict[int, np.ndarray], spec):
    """DownslopeDistanceToStream (hydro_analysis/
    downslope_distance_to_stream.rs): flow-path length from each cell to
    the first stream cell; stream cells 0; paths that never reach a
    stream → nodata."""
    ptr = _pointer_mosaic(pointer_tiles, spec)
    rows, cols = ptr.shape
    stream = np.zeros((rows, cols), dtype=bool)
    tpx = spec.tile_px
    for tid, s in stream_tiles.items():
        r0 = (tid // spec.tiles_x) * tpx
        c0 = (tid % spec.tiles_x) * tpx
        stream[r0 : r0 + tpx, c0 : c0 + tpx] = s == 1.0
    res = spec.res
    diag = float(np.sqrt(2.0)) * res
    lengths = np.where((DY8 != 0) & (DX8 != 0), diag, res)
    step = np.where(ptr >= 0, lengths[np.where(ptr >= 0, ptr, 0)], 0.0)
    dist, reached, _term = _doubling_to_targets(ptr, stream, step)
    out = np.where(stream, 0.0, np.where(reached, dist, spec.nodata))
    out[ptr == -2] = spec.nodata
    return {
        tid: out[(tid // spec.tiles_x) * tpx : (tid // spec.tiles_x) * tpx + tpx,
                 (tid % spec.tiles_x) * tpx : (tid % spec.tiles_x) * tpx + tpx]
        for tid in pointer_tiles
    }


# ---------------------------------------------------------------------------
# Dataset-native terminal resolution (VERDICT r1 item 2).
#
# The primitive behind Basins / Watershed / DownslopeDistanceToStream /
# ElevationAboveStream: each shard actor ingests its tiles, runs WITHIN-TILE
# pointer doubling (vectorized, log rounds), and reports only its BORDER
# cells' condensed resolutions — (border gid → exit gid | terminal gid,
# partial sum). The driver resolves that condensed O(perimeter) graph by
# memoized chasing, broadcasts it, and workers finalize every interior cell
# with one gather. Pixel grids never leave the actors; driver traffic is the
# border fraction (2·tile_px/tile_px² ≈ 3% at 128²; recurse the condensation
# for another 32× reduction when scenes outgrow one driver).
# ---------------------------------------------------------------------------


class TermShardDS(ShardBase):
    """Shard actor for distributed terminal resolution. Ingests pointer
    tiles (``ptr``/``ptr_fmt`` columns, or a plain tiles Dataset's
    ``bytes``/``fmt``) and optional ``tgt``/``tgt_fmt`` target tiles."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata: float, res: float):
        super().__init__(tile_px, tiles_x, tiles_y)
        self.nodata = nodata
        self.res = res
        self.W = tiles_x * tile_px
        self.H = tiles_y * tile_px
        self.ptr: dict[int, np.ndarray] = {}
        self.tgt: dict[int, np.ndarray] = {}
        self.local: dict[int, tuple] = {}  # tid → (absorb, acc, kind, dest_gid, step_out)

    def load_tile(self, tid: int, batch, i: int):
        names = batch.schema.names
        self.ptr[tid] = decode(batch, "ptr" if "ptr" in names else "bytes", i, "i8").astype(np.int8)
        tgt = decode(batch, "tgt", i, "f64") if "tgt" in names else None
        if tgt is not None:
            self.tgt[tid] = tgt

    def _gid(self, tid: int, r, c):
        tr, tc = tid // self.tiles_x, tid % self.tiles_x
        return (tr * self.tpx + r) * self.W + (tc * self.tpx + c)

    def local_resolve(self):
        """Per-tile doubling; returns border-cell condensed entries
        [(border_gid, kind, dest_gid, acc)] — kind 0 pit/offscene,
        1 target, 2 exits-into-another-tile."""
        t = self.tpx
        out = []
        for tid, ptr in self.ptr.items():
            tr, tc = tid // self.tiles_x, tid % self.tiles_x
            n = t * t
            rr, cc = np.meshgrid(np.arange(t), np.arange(t), indexing="ij")
            valid = ptr >= 0
            tgt = self.tgt.get(tid)
            is_tgt = (tgt > 0) if tgt is not None else np.zeros((t, t), dtype=bool)
            d = np.where(valid, ptr, 0).astype(np.int64)
            nr = rr + DY8[d]
            nc = cc + DX8[d]
            g_r = tr * t + nr
            g_c = tc * t + nc
            in_tile = (nr >= 0) & (nr < t) & (nc >= 0) & (nc < t)
            in_scene = (g_r >= 0) & (g_r < self.H) & (g_c >= 0) & (g_c < self.W)
            move = valid & in_tile & ~is_tgt
            exits = valid & ~in_tile & in_scene & ~is_tgt
            diag = float(np.sqrt(2.0)) * self.res
            lengths = np.where((DY8 != 0) & (DX8 != 0), diag, self.res)
            stepg = np.where(valid, lengths[d], 0.0)
            nxt = np.arange(n, dtype=np.int64).reshape(t, t)
            nxt[move] = (nr[move] * t + nc[move]).astype(np.int64)
            nxt = nxt.ravel()
            acc = np.where(move, stepg, 0.0).ravel()
            while True:
                nxt2 = nxt[nxt]
                if np.array_equal(nxt2, nxt):
                    break
                acc = acc + acc[nxt]
                nxt = nxt2
            kind = np.where(is_tgt.ravel(), 1, np.where(exits.ravel(), 2, 0)).astype(np.int8)
            dest_gid = np.full(n, -1, dtype=np.int64)
            e = exits.ravel()
            dest_gid[e] = (g_r.ravel()[e] * self.W + g_c.ravel()[e]).astype(np.int64)
            step_out = np.where(e, stepg.ravel(), 0.0)
            self.local[tid] = (nxt, acc, kind, dest_gid, step_out)
            # border-cell entries
            br = np.zeros((t, t), dtype=bool)
            br[0, :] = br[-1, :] = True
            br[:, 0] = br[:, -1] = True
            bidx = np.nonzero(br.ravel())[0]
            a = nxt[bidx]
            gids = self._gid(tid, bidx // t, bidx % t)
            a_gid = self._gid(tid, a // t, a % t)
            for j in range(len(bidx)):
                aj = a[j]
                if kind[aj] == 2:
                    out.append((int(gids[j]), 2, int(dest_gid[aj]), float(acc[bidx[j]] + step_out[aj])))
                else:
                    out.append((int(gids[j]), int(kind[aj]), int(a_gid[j]), float(acc[bidx[j]])))
        return out

    def finalize(self, resolved_ref):
        """Apply the driver-resolved border map; store per-tile
        (term_gid, total_acc, final_kind) grids."""
        # ObjectRef args are auto-dereferenced by Ray before the method
        # runs — resolved_ref arrives as the dict itself
        resolved = resolved_ref
        t = self.tpx
        self.term: dict[int, np.ndarray] = {}
        self.acc_out: dict[int, np.ndarray] = {}
        self.kind_out: dict[int, np.ndarray] = {}
        for tid, (nxt, acc, kind, dest_gid, step_out) in self.local.items():
            a = nxt
            ak = kind[a]
            a_gid = self._gid(tid, a // t, a % t)
            term = a_gid.copy()
            total = acc.copy()
            fkind = ak.copy()
            ex = ak == 2
            if ex.any():
                dests = dest_gid[a[ex]]
                f_gid = np.empty(len(dests), dtype=np.int64)
                f_add = np.empty(len(dests), dtype=np.float64)
                f_k = np.empty(len(dests), dtype=np.int8)
                for j, dg in enumerate(dests):
                    fg, fa, fk = resolved[int(dg)]
                    f_gid[j] = fg
                    f_add[j] = fa
                    f_k[j] = fk
                term[ex] = f_gid
                total[ex] = acc[ex] + step_out[a[ex]] + f_add
                fkind[ex] = f_k
            self.term[tid] = term.reshape(t, t)
            self.acc_out[tid] = total.reshape(t, t)
            self.kind_out[tid] = fkind.reshape(t, t)
        return True

    def distinct_terminals(self) -> list[int]:
        out = set()
        for tid, term in self.term.items():
            valid = self.ptr[tid] != -2
            out.update(np.unique(term[valid]).tolist())
        return sorted(out)

    def target_ids(self) -> dict[int, float]:
        """(gid → target id) for every target cell this shard owns."""
        out = {}
        t = self.tpx
        for tid, tgt in self.tgt.items():
            rr, cc = np.nonzero(tgt > 0)
            for r, c in zip(rr, cc):
                out[int(self._gid(tid, r, c))] = float(tgt[r, c])
        return out

    def dump(self, path: str, mode: str, aux=None):
        """Write output tiles: mode = 'basins' (dense terminal rank),
        'watershed' (target id or 0), 'distance' (acc where reached
        target, 0 at targets, nodata else), 'acc' (acc for every cell),
        'term_gid' (raw). ``aux`` (an ObjectRef, dereferenced by Ray) is
        the sorted terminal gids for 'basins', gid → target id for
        'watershed'."""
        tiles = {}
        for tid, term in self.term.items():
            valid = self.ptr[tid] != -2
            kind = self.kind_out[tid]
            if mode == "basins":
                keys = np.array(sorted(aux), dtype=np.int64)
                ranks = np.searchsorted(keys, term) + 1
                g = ranks.astype(np.float64)
                g[~valid] = self.nodata
            elif mode == "watershed":
                g = np.zeros(term.shape)
                m = kind == 1
                if m.any():
                    flat = term[m]
                    g[m] = [aux.get(int(x), 0.0) for x in flat]
                tgt = self.tgt.get(tid)
                if tgt is not None:
                    g = np.where(tgt > 0, tgt, g)
                g[~valid] = self.nodata
            elif mode == "distance":
                g = np.where(kind == 1, self.acc_out[tid], self.nodata)
                tgt = self.tgt.get(tid)
                if tgt is not None:
                    g = np.where(tgt > 0, 0.0, g)
                g[~valid] = self.nodata
            elif mode == "acc":
                # total accumulated step to the flowpath terminal for EVERY
                # cell, regardless of kind (DownslopeFlowpathLength)
                g = self.acc_out[tid].copy()
                g[~valid] = self.nodata
            else:  # raw terminal gid
                g = term.astype(np.float64)
                g[~valid] = self.nodata
            tiles[tid] = g
        self._dump_tiles(path, tiles, "f64")


def _resolve_border_graph(entries: list[tuple]) -> dict[int, tuple[int, float, int]]:
    """Memoized resolution of the condensed border graph.

    entries: (gid, kind, dest, acc) — kind 0/1: ``dest`` is the final
    terminal gid and ``acc`` the total sum from gid to it; kind 2:
    ``dest`` is the entry border cell of the next tile and ``acc`` the
    sum up to (and including the hop onto) that cell.
    Returns gid → (final_gid, total_acc_from_gid, final_kind)."""
    table = {gid: (kind, dest, acc) for gid, kind, dest, acc in entries}
    resolved: dict[int, tuple[int, float, int]] = {}
    for gid0 in table:
        if gid0 in resolved:
            continue
        chain: list[tuple[int, float]] = []
        gid = gid0
        while gid not in resolved:
            ent = table.get(gid)
            if ent is None:  # missing tile: treat as terminal at gid
                resolved[gid] = (gid, 0.0, 0)
                break
            kind, dest, acc = ent
            if kind != 2:
                resolved[gid] = (dest, acc, kind)
                break
            chain.append((gid, acc))
            gid = dest
            if len(chain) > len(table) + 1:
                raise RuntimeError("cycle in border flow graph")
        if chain:
            fg, total, fk = resolved[gid]
            for g, acc in reversed(chain):
                total = acc + total
                resolved[g] = (fg, total, fk)
    return resolved


def _run_terminal_resolution(rows_ds, spec, num_workers: int, mode: str, out_dir: str | None = None):
    """Shared driver flow: ingest → local resolve → driver border graph →
    finalize → ``TermShardDS.dump(mode)`` tiles Dataset."""
    import ray

    args = (spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata, spec.res)
    workers, _ = launch_shards(rows_ds, TermShardDS, args, num_workers)
    entries = []
    for part in ray.get([w.local_resolve.remote() for w in workers]):
        entries.extend(part)
    resolved_ref = ray.put(_resolve_border_graph(entries))
    ray.get([w.finalize.remote(resolved_ref) for w in workers])
    aux = None
    if mode == "basins":
        aux = sorted(set().union(*ray.get([w.distinct_terminals.remote() for w in workers])))
    elif mode == "watershed":
        aux = {}
        for part in ray.get([w.target_ids.remote() for w in workers]):
            aux.update(part)
    return dump_shards(workers, out_dir, mode, ray.put(aux))


def basins_ds(pointer_ds, spec, num_workers: int = 4, out_dir: str | None = None):
    """Dataset-native Basins (hydro_analysis/basins.rs): dense 1-based
    terminal ids in row-major terminal order; driver sees only border
    resolutions + the distinct-terminal set."""
    return _run_terminal_resolution(pointer_ds, spec, num_workers, "basins", out_dir)


def watershed_ds(pointer_ds, spec, pour_points, num_workers: int = 4, out_dir: str | None = None):
    """Dataset-native Watershed (watershed.rs): labels from pour points;
    pour cells become targets (first pour point downstream wins)."""
    import pyarrow as pa
    import ray

    gs = spec.grid_spec()
    tpx = spec.tile_px
    pour_by_tile: dict[int, list] = {}
    for x, y, pid in pour_points:
        r = int(gs.row_from_y(np.float64(y)))
        c = int(gs.col_from_x(np.float64(x)))
        if 0 <= r < spec.rows and 0 <= c < spec.columns:
            tid = (r // tpx) * spec.tiles_x + (c // tpx)
            pour_by_tile.setdefault(tid, []).append((r % tpx, c % tpx, pid))
    pour_ref = ray.put(pour_by_tile)

    def add_tgt(batch: pa.Table) -> pa.Table:
        pours = ray.get(pour_ref)
        trows = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
        tgts, fmts = [], []
        for i in range(batch.num_rows):
            tid = int(trows[i]) * spec.tiles_x + int(tcols[i])
            if tid in pours:
                g = np.zeros((tpx, tpx))
                for r, c, pid in pours[tid]:
                    g[r, c] = pid
                tgts.append(codecs.encode_tile(g, "f64"))
                fmts.append("f64")
            else:
                tgts.append(b"")
                fmts.append("")
        return batch.append_column("tgt", pa.array(tgts, pa.binary())).append_column(
            "tgt_fmt", pa.array(fmts, pa.string())
        )

    rows = pointer_ds.map_batches(add_tgt, batch_format="pyarrow")
    return _run_terminal_resolution(rows, spec, num_workers, "watershed", out_dir)


def downslope_distance_to_stream_ds(pointer_ds, stream_ds, spec, num_workers: int = 4,
                                    out_dir: str | None = None):
    """Dataset-native DownslopeDistanceToStream: stream tiles become
    target grids via the keyed tile zip; distance = additive doubling
    with the D8 step lengths."""
    rows = combine_tile_layers(spec, ptr=pointer_ds, tgt=stream_ds)
    return _run_terminal_resolution(rows, spec, num_workers, "distance", out_dir)
