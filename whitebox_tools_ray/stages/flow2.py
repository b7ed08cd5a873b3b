"""Multi-direction flow routing — the FD8/D∞ family, mass flux,
flowpath lengths, subbasins.

One generalized BSP drain engine (``MultiFlowShardDS``) covers every
accumulation-like tool: a halo pass over DEM tiles computes, per cell,
the 8 outflow FRACTIONS and the inflow degree (both derivable from the
DEM alone, so in-degree needs no second shuffle); shard actors then run
the standard topological drain (cells with indeg 0 seed a stack; a
drained cell sends ``emit(state)·frac[d]`` along each positive
direction; a receiver combines by the mode's monoid and re-seeds at
indeg 0), exchanging only border messages per superstep.

Modes (all reference-cited):
- ``sum``      — FD8FlowAccumulation (fd8_flow_accum.rs: fractions ∝
  slope^exponent), DInfFlowAccumulation (dinf_flow_accum.rs, Tarboton
  1997 facet split), D8 when fractions are one-hot.
- ``massflux`` — D8MassFlux / DInfMassFlux (d8_mass_flux.rs:463-465:
  out = (acc − absorption)·efficiency, acc init = loading).
- ``maxlen``   — MaxUpslopeFlowpathLength (max_upslope_flowpath.rs):
  combine = max, message = acc + step.
- ``avglen``   — AverageUpslopeFlowpathLength
  (average_upslope_flowpath_length.rs): two channels (Σlen, n paths).
- ``trace``    — TraceDownslopeFlowpaths (trace_downslope_flowpaths.rs):
  OR-propagation of seed indicators downstream.

Pointers:
- ``dinf_pointer``  — DInfPointer (dinf_pointer.rs): facet angle in
  degrees.
- ``fd8_pointer``   — FD8Pointer (fd8_pointer.rs:227): bitfield
  Σ 1<<n over receiving neighbours.
- ``rho8_pointer``  — Rho8Pointer (rho8_pointer.rs:253-263): D8 with
  diagonal distance 2−u, u deterministic per-cell hash (the reference
  draws thread_rng; a distributed engine needs replayable randomness).

Also: BreachSingleCellPits / FillSingleCellPits (single halo pass),
JensonSnapPourPoints, FlowAccumulationFullWorkflow,
DownslopeFlowpathLength / AverageFlowpathSlope (terminal-resolution
``acc`` mode + pit-z probe), Subbasins / StrahlerOrderBasins
(watershed against the stream-link target grid), FindParallelFlow.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs
from .focal import DX8, DY8, _emit_tile_and_margins, _assemble_padded, f32_tiles

# D8 direction i: (DY8[i], DX8[i]); distance factor
_DIAG = np.sqrt(2.0)


def _u01(gid: np.ndarray, seed: int = 42) -> np.ndarray:
    """Deterministic per-cell uniform(0,1) — splitmix64 of the global id."""
    x = (gid.astype(np.uint64) + np.uint64(seed)) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _fractions(padded: np.ndarray, nodata: float, spec, method: str,
               exponent: float = 1.1, tile_origin=(0, 0), seed: int = 42):
    """(8, tpx+2, tpx+2) outflow fractions from a 1-halo padded DEM.

    Computed over the tile PLUS its 1-cell ring so the in-degree of core
    cells can read every neighbour's fractions locally (needs a 2-halo
    pad in total)."""
    res = spec.res
    t = padded.shape[0] - 2
    z = padded[1:-1, 1:-1]
    valid = z != nodata
    nbrs = []
    for i in range(8):
        zi = padded[1 + DY8[i] : 1 + DY8[i] + t, 1 + DX8[i] : 1 + DX8[i] + t]
        nbrs.append(zi)
    frac = np.zeros((8,) + z.shape, dtype=np.float64)
    if method == "fd8":
        slopes = np.zeros((8,) + z.shape)
        for i in range(8):
            dist = res * (_DIAG if DY8[i] != 0 and DX8[i] != 0 else 1.0)
            s = (z - nbrs[i]) / dist
            slopes[i] = np.where((nbrs[i] != nodata) & (s > 0), s, 0.0)
        w = slopes**exponent
        tot = w.sum(axis=0)
        nz = tot > 0
        frac[:, nz] = w[:, nz] / tot[nz]
    elif method == "d8" or method == "rho8":
        best = np.full(z.shape, -np.inf)
        bidx = np.full(z.shape, -1, dtype=np.int64)
        if method == "rho8":
            r0, c0 = tile_origin
            yy, xx = np.meshgrid(np.arange(t), np.arange(t), indexing="ij")
            gid = (r0 + yy - 1).astype(np.int64) * (spec.tiles_x * spec.tile_px) + (c0 + xx - 1)
        for i in range(8):
            if method == "rho8" and DY8[i] != 0 and DX8[i] != 0:
                u = _u01(gid * np.int64(8) + np.int64(i), seed)
                dist = 2.0 - u
            else:
                dist = res * (_DIAG if DY8[i] != 0 and DX8[i] != 0 else 1.0) if method == "d8" else 1.0
            s = (z - nbrs[i]) / dist
            s = np.where(nbrs[i] != nodata, s, -np.inf)
            upd = s > best
            best = np.where(upd, s, best)
            bidx = np.where(upd, i, bidx)
        ok = valid & (best > 0)
        for i in range(8):
            frac[i][ok & (bidx == i)] = 1.0
    elif method == "dinf":
        # Tarboton (1997) facets: (cardinal e1, diagonal e2) pairs.
        # ring order here: 0=NE 1=E 2=SE 3=S 4=SW 5=W 6=NW 7=N
        card = {1: (0, 1), 3: (1, 0), 5: (0, -1), 7: (-1, 0)}
        facets = [  # (cardinal dir idx, diagonal dir idx)
            (1, 0), (7, 0), (7, 6), (5, 6), (5, 4), (3, 4), (3, 2), (1, 2)
        ]
        _ = card
        d1 = res
        d2 = res
        diag_len = np.hypot(d1, d2)
        best_s = np.full(z.shape, -np.inf)
        best_facet = np.full(z.shape, -1, dtype=np.int64)
        best_r = np.zeros(z.shape)
        atan_d2d1 = np.arctan2(d2, d1)
        for fi, (ci, di) in enumerate(facets):
            ze = np.where(nbrs[ci] != nodata, nbrs[ci], z)
            zd = np.where(nbrs[di] != nodata, nbrs[di], z)
            s1 = (z - ze) / d1
            s2 = (ze - zd) / d2
            r = np.arctan2(s2, np.where(s1 == 0, 1e-30, s1))
            r = np.where(s1 <= 0, np.where(s2 > 0, atan_d2d1, 0.0), r)
            r = np.clip(r, 0.0, atan_d2d1)
            s = np.where(
                r == 0.0, s1,
                np.where(r == atan_d2d1, (z - zd) / diag_len,
                         np.sqrt(np.maximum(s1 * s1 + s2 * s2, 0.0))),
            )
            upd = s > best_s
            best_s = np.where(upd, s, best_s)
            best_facet = np.where(upd, fi, best_facet)
            best_r = np.where(upd, r, best_r)
        ok = valid & (best_s > 0)
        for fi, (ci, di) in enumerate(facets):
            m = ok & (best_facet == fi)
            if not m.any():
                continue
            w_diag = best_r[m] / atan_d2d1
            frac[di][m] += w_diag
            frac[ci][m] += 1.0 - w_diag
    else:
        raise ValueError(method)
    frac[:, ~valid] = 0.0
    return frac


def fractions_and_indeg_rows(dem_ds, spec, method: str, exponent: float = 1.1,
                             layers: dict | None = None, seed: int = 42):
    """Halo-2 pass → Dataset rows: tile_row, tile_col, frac (8ch f32
    bytes), ind (i8 bytes), valid (i8 bytes) + optional extra layers
    zipped in (loading/efficiency/absorption/seed grids)."""
    tiles_x, tiles_y, tpx = spec.tiles_x, spec.tiles_y, spec.tile_px
    nodata = spec.nodata
    halo = 2

    margins = dem_ds.map_batches(
        lambda b: _emit_tile_and_margins(b, halo, tiles_x, tiles_y),
        batch_format="pyarrow",
    )

    def per_tile(g: pd.DataFrame) -> pd.DataFrame:
        tkey, pad = _assemble_padded(g, halo, tpx, nodata)
        trow, tcol = tkey // tiles_x, tkey % tiles_x
        # fractions on the (tpx+2)² region (1-halo pad of the expanded grid)
        sub = pad[halo - 2 : halo + tpx + 2, halo - 2 : halo + tpx + 2]
        frac_ext = _fractions(
            sub, nodata, spec, method, exponent,
            tile_origin=(trow * tpx, tcol * tpx), seed=seed,
        )  # (8, tpx+2, tpx+2)
        frac = frac_ext[:, 1:-1, 1:-1]
        # in-degree of core cells: neighbour j sends to me iff its
        # fraction toward me (opposite direction) is positive
        ind = np.zeros((tpx, tpx), dtype=np.int8)
        for i in range(8):
            opp = (i + 4) % 8
            nb_frac = frac_ext[opp, 1 + DY8[i] : 1 + DY8[i] + tpx, 1 + DX8[i] : 1 + DX8[i] + tpx]
            ind += (nb_frac > 0).astype(np.int8)
        z = pad[halo : halo + tpx, halo : halo + tpx]
        valid = (z != nodata).astype(np.int8)
        return pa.table(
            {
                "tile_row": pa.array([trow], pa.int32()),
                "tile_col": pa.array([tcol], pa.int32()),
                "frac": pa.array([frac.astype(np.float32).tobytes()], pa.binary()),
                "ind": pa.array([ind.tobytes()], pa.binary()),
                "valid": pa.array([valid.tobytes()], pa.binary()),
            }
        )

    return margins.groupby("tkey").map_groups(per_tile, batch_format="pandas")


class MultiFlowShardDS:
    """BSP shard for multi-direction topological drains."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int, nodata_out: float,
                 mode: str, res: float):
        from .bsp import ShardBase

        self._base = ShardBase(tile_px, tiles_x, tiles_y)
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.nodata_out = nodata_out
        self.mode = mode
        self.res = res
        self.frac: dict[int, np.ndarray] = {}
        self.ind: dict[int, np.ndarray] = {}
        self.valid: dict[int, np.ndarray] = {}
        self.state: dict[int, np.ndarray] = {}  # (K, t, t)
        self.aux: dict[int, dict[str, np.ndarray]] = {}

    def ingest(self, split_ds) -> list[int]:
        t = self.tpx
        owned = []
        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            trows = batch["tile_row"].to_numpy(zero_copy_only=False)
            tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
            extra = [
                n for n in batch.schema.names
                if n not in ("tile_row", "tile_col", "frac", "ind", "valid")
            ]
            for i in range(batch.num_rows):
                tid = int(trows[i]) * self.tiles_x + int(tcols[i])
                self.frac[tid] = np.frombuffer(
                    batch["frac"][i].as_py(), dtype=np.float32
                ).reshape(8, t, t).astype(np.float64)
                self.ind[tid] = np.frombuffer(batch["ind"][i].as_py(), dtype=np.int8).reshape(t, t).astype(np.int16)
                self.valid[tid] = np.frombuffer(batch["valid"][i].as_py(), dtype=np.int8).reshape(t, t).astype(bool)
                aux = {}
                for n in extra:
                    aux[n] = codecs.decode_tile(batch[n][i].as_py(), "f32")
                self.aux[tid] = aux
                self.state[tid] = self._init_state(tid)
                owned.append(tid)
        return owned

    def _init_state(self, tid):
        t = self.tpx
        m = self.mode
        a = self.aux[tid]
        if m == "sum":
            return np.ones((1, t, t))
        if m == "massflux":
            return a["loading"][None, :, :].copy()
        if m == "maxlen":
            return np.zeros((1, t, t))
        if m == "avglen":
            s = np.zeros((2, t, t))
            return s
        if m == "trace":
            return (a["seeds"][None, :, :] > 0).astype(np.float64)
        raise ValueError(m)

    def _emit(self, tid, r, c):
        """Final value leaving cell (scalar per channel)."""
        st = self.state[tid][:, r, c]
        if self.mode == "massflux":
            eff = self.aux[tid].get("efficiency")
            absn = self.aux[tid].get("absorption")
            e = float(eff[r, c]) if eff is not None else 1.0
            ab = float(absn[r, c]) if absn is not None else 0.0
            return np.array([max((st[0] - ab) * e, 0.0)])
        if self.mode == "avglen":
            n = st[1] if st[1] > 0 else 1.0
            return np.array([st[0], n])
        return st.copy()

    def _step_len(self, d):
        return self.res * (_DIAG if DY8[d] != 0 and DX8[d] != 0 else 1.0)

    def _combine(self, tid, r, c, vec):
        st = self.state[tid]
        if self.mode == "maxlen":
            st[0, r, c] = max(st[0, r, c], vec[0])
        elif self.mode == "trace":
            st[0, r, c] = max(st[0, r, c], vec[0])
        elif self.mode == "avglen":
            st[0, r, c] += vec[0]
            st[1, r, c] += vec[1]
        else:
            st[0, r, c] += vec[0]

    def _drain(self, seeds):
        """seeds: [(tid, r, c)]; returns border messages
        [(dst_tid, r, c, vec bytes, n_edges)] combined per destination."""
        t = self.tpx
        stack = list(seeds)
        out: dict[tuple, list] = {}
        while stack:
            tid, r, c = stack.pop()
            if not self.valid[tid][r, c]:
                continue
            ev = self._emit(tid, r, c)
            fr = self.frac[tid][:, r, c]
            for d in range(8):
                f = fr[d]
                if f <= 0:
                    continue
                if self.mode == "maxlen":
                    vec = np.array([ev[0] + self._step_len(d)])
                elif self.mode == "avglen":
                    vec = np.array([ev[0] + ev[1] * self._step_len(d), ev[1]])
                elif self.mode == "trace":
                    vec = ev
                else:
                    vec = ev * f
                nr, nc = r + int(DY8[d]), c + int(DX8[d])
                tr, tc = tid // self.tiles_x, tid % self.tiles_x
                if 0 <= nr < t and 0 <= nc < t:
                    self._combine(tid, nr, nc, vec)
                    self.ind[tid][nr, nc] -= 1
                    if self.ind[tid][nr, nc] == 0:
                        stack.append((tid, nr, nc))
                else:
                    gr, gc = tr * t + nr, tc * t + nc
                    if 0 <= gr < self.tiles_y * t and 0 <= gc < self.tiles_x * t:
                        dtid = (gr // t) * self.tiles_x + (gc // t)
                        k = (dtid, gr % t, gc % t)
                        if k in out:
                            if self.mode in ("maxlen", "trace"):
                                out[k][0] = np.maximum(out[k][0], vec)
                            else:
                                out[k][0] = out[k][0] + vec
                            out[k][1] += 1
                        else:
                            out[k] = [vec.copy(), 1]
        return [(tid, r, c, v.tobytes(), n) for (tid, r, c), (v, n) in out.items()]

    def start(self):
        seeds = []
        for tid, ind in self.ind.items():
            rr, cc = np.nonzero((ind == 0) & self.valid[tid])
            seeds.extend((tid, int(r), int(c)) for r, c in zip(rr, cc))
        return self._drain(seeds)

    def push(self, msgs):
        seeds = []
        for tid, r, c, vb, n_edges in msgs:
            if tid not in self.ind:
                continue
            vec = np.frombuffer(vb, dtype=np.float64)
            self._combine(tid, r, c, vec)
            self.ind[tid][r, c] -= n_edges
            if self.ind[tid][r, c] == 0:
                seeds.append((tid, r, c))
        return self._drain(seeds)

    def dump(self, path: str):
        from .bsp import ShardBase

        out = {}
        for tid, st in self.state.items():
            if self.mode == "avglen":
                n = np.maximum(st[1], 1.0)
                g = st[0] / n
            else:
                g = st[0].copy()
            if self.mode == "trace":
                g = (g > 0).astype(np.float64)
            g[~self.valid[tid]] = self.nodata_out
            out[tid] = g
        # f64: accumulation layers feed oracle gates and downstream
        # composes; f32 quantization (~1e-5 at acc~256) fails both
        ShardBase._dump_tiles(self._base, path, out, "f64")


def run_multiflow(rows_ds, spec, mode: str, num_workers: int = 4, out_dir: str | None = None):
    import ray
    import ray.data as rd

    Worker = ray.remote(MultiFlowShardDS)
    workers = [
        Worker.remote(spec.tile_px, spec.tiles_x, spec.tiles_y, spec.nodata, mode, spec.res)
        for _ in range(num_workers)
    ]
    splits = rows_ds.split(num_workers, locality_hints=workers)
    owned_lists = ray.get([w.ingest.remote(s) for w, s in zip(workers, splits)])
    owner = {}
    for wi, tids in enumerate(owned_lists):
        for tid in tids:
            owner[tid] = wi
    pending = ray.get([w.start.remote() for w in workers])
    msgs = [m for part in pending for m in part]
    while msgs:
        by_worker: dict[int, list] = {}
        for m in msgs:
            wi = owner.get(m[0])
            if wi is not None:
                by_worker.setdefault(wi, []).append(m)
        parts = ray.get([workers[wi].push.remote(ms) for wi, ms in by_worker.items()])
        msgs = [m for part in parts for m in part]
    out_dir = out_dir or tempfile.mkdtemp(prefix=f"mflow_{mode}_", dir="/tmp")
    os.makedirs(out_dir, exist_ok=True)
    ray.get([
        w.dump.remote(os.path.join(out_dir, f"shard_{i}.parquet"))
        for i, w in enumerate(workers)
    ])
    return rd.read_parquet(out_dir)


def _with_layers(rows_ds, spec, **layer_dss):
    """Zip extra tile layers (f32 bytes columns) onto fraction rows."""
    from .bsp import combine_tile_layers
    import pyarrow as _pa

    if not layer_dss:
        return rows_ds
    combined = combine_tile_layers(spec, **layer_dss)

    def adapt(batch: pa.Table) -> pa.Table:
        cols = {n: batch[n] for n in ("tile_row", "tile_col")}
        for n in layer_dss:
            cols[n] = batch[n]
        return pa.table(cols)

    lay = combined.map_batches(adapt, batch_format="pyarrow")
    # keyed zip of fraction rows and layer rows
    tagged = rows_ds.map_batches(
        lambda b: b.append_column("__side", _pa.array(np.zeros(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow",
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        f = g[g["__side"] == 0]
        l = g[g["__side"] == 1]
        row = f.iloc[[0]].drop(columns="__side").reset_index(drop=True)
        for n in layer_dss:
            row[n] = [l[n].iloc[0]]
        return row

    lay2 = lay.map_batches(
        lambda b: b.append_column("__side", _pa.array(np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow",
    )
    return tagged.union(lay2).groupby(["tile_row", "tile_col"]).map_groups(
        merge, batch_format="pandas"
    )


# ------------------------------------------------------------ public ops


def fd8_flow_accumulation(dem_ds, spec, exponent: float = 1.1, num_workers: int = 4,
                          out_dir: str | None = None):
    rows = fractions_and_indeg_rows(dem_ds, spec, "fd8", exponent)
    return run_multiflow(rows, spec, "sum", num_workers, out_dir)


def dinf_flow_accumulation(dem_ds, spec, num_workers: int = 4, out_dir: str | None = None):
    rows = fractions_and_indeg_rows(dem_ds, spec, "dinf")
    return run_multiflow(rows, spec, "sum", num_workers, out_dir)


def d8_mass_flux(dem_ds, loading_ds, efficiency_ds, absorption_ds, spec,
                 num_workers: int = 4, out_dir: str | None = None):
    rows = fractions_and_indeg_rows(dem_ds, spec, "d8")
    rows = _with_layers(rows, spec, loading=loading_ds, efficiency=efficiency_ds,
                        absorption=absorption_ds)
    return run_multiflow(_decode_layer_cols(rows, ("loading", "efficiency", "absorption")),
                         spec, "massflux", num_workers, out_dir)


def dinf_mass_flux(dem_ds, loading_ds, efficiency_ds, absorption_ds, spec,
                   num_workers: int = 4, out_dir: str | None = None):
    rows = fractions_and_indeg_rows(dem_ds, spec, "dinf")
    rows = _with_layers(rows, spec, loading=loading_ds, efficiency=efficiency_ds,
                        absorption=absorption_ds)
    return run_multiflow(_decode_layer_cols(rows, ("loading", "efficiency", "absorption")),
                         spec, "massflux", num_workers, out_dir)


def _decode_layer_cols(rows_ds, names):
    """combine_tile_layers leaves layer bytes + fmt pairs; shard.ingest
    decodes via codecs — keep bytes, drop fmt columns (always f32)."""

    def adapt(batch: pa.Table) -> pa.Table:
        keep = [n for n in batch.schema.names if not n.endswith("_fmt")]
        return batch.select(keep)

    return rows_ds.map_batches(adapt, batch_format="pyarrow")


def max_upslope_flowpath_length(dem_ds, spec, num_workers: int = 4, out_dir: str | None = None):
    rows = fractions_and_indeg_rows(dem_ds, spec, "d8")
    return run_multiflow(rows, spec, "maxlen", num_workers, out_dir)


def average_upslope_flowpath_length(dem_ds, spec, num_workers: int = 4,
                                    out_dir: str | None = None):
    rows = fractions_and_indeg_rows(dem_ds, spec, "d8")
    return run_multiflow(rows, spec, "avglen", num_workers, out_dir)


def trace_downslope_flowpaths(dem_ds, seeds_ds, spec, num_workers: int = 4,
                              out_dir: str | None = None):
    """seeds_ds: tile layer with >0 at seed cells."""
    rows = fractions_and_indeg_rows(dem_ds, spec, "d8")
    rows = _with_layers(rows, spec, seeds=seeds_ds)
    return run_multiflow(_decode_layer_cols(rows, ("seeds",)), spec, "trace",
                         num_workers, out_dir)


def fd8_pointer(dem_ds, spec):
    """FD8Pointer (fd8_pointer.rs:227): Σ 1<<n over receiving dirs."""
    from .focal import focal_op

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        sub = pad[halo - 1 : halo + tpx + 1, halo - 1 : halo + tpx + 1]
        frac = _fractions(sub, nodata, spec_, "fd8")  # (8, tpx, tpx)
        out = np.zeros((tpx, tpx))
        for i in range(8):
            out += np.where(frac[i] > 0, float(1 << i), 0.0)
        z = sub[1:-1, 1:-1]
        return np.where(z != nodata, out, nodata)

    return focal_op(dem_ds, spec, kernel, 1)


def dinf_pointer(dem_ds, spec):
    """DInfPointer (dinf_pointer.rs): flow angle in degrees, -1 for
    no-descent cells."""
    from .focal import focal_op

    # direction angle of each D8 ring index (degrees, east=0 ccw like
    # Tarboton): ring 0=NE..7=N with angles
    ang = {0: 45.0, 1: 0.0, 2: 315.0, 3: 270.0, 4: 225.0, 5: 180.0, 6: 135.0, 7: 90.0}

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        sub = pad[halo - 1 : halo + tpx + 1, halo - 1 : halo + tpx + 1]
        frac = _fractions(sub, nodata, spec_, "dinf")
        z = sub[1:-1, 1:-1]
        vx = np.zeros(z.shape)
        vy = np.zeros(z.shape)
        for i in range(8):
            a = np.radians(ang[i])
            vx += frac[i] * np.cos(a)
            vy += frac[i] * np.sin(a)
        out = np.degrees(np.arctan2(vy, vx)) % 360.0
        none = frac.sum(axis=0) <= 0
        out = np.where(none, -1.0, out)
        return np.where(z != nodata, out, nodata)

    return focal_op(dem_ds, spec, kernel, 1)


def rho8_pointer(dem_ds, spec, seed: int = 42):
    """Rho8Pointer: D8 with diagonal distance 2−u (deterministic u)."""
    from .focal import focal_op

    # emit the reference pointer code 2^i in ITS ring order; our ring
    # index i maps to the same 1..128 code family as d8_pointer
    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        sub = pad[halo - 1 : halo + tpx + 1, halo - 1 : halo + tpx + 1]
        frac = _fractions(sub, nodata, spec_, "rho8", tile_origin=(0, 0), seed=seed)
        z = sub[1:-1, 1:-1]
        out = np.full(z.shape, -1.0)
        for i in range(8):
            out = np.where(frac[i] > 0, float(i), out)
        return np.where(z != nodata, out, nodata)

    return focal_op(dem_ds, spec, kernel, 1)


def fill_single_cell_pits(dem_ds, spec):
    """FillSingleCellPits: a cell lower than all 8 neighbours rises to
    its lowest neighbour."""
    from .focal import focal_op, _shifted

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        mn = np.full(z.shape, np.inf)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            mn = np.minimum(mn, np.where(zi != nodata, zi, np.inf))
        pit = np.isfinite(mn) & (z < mn)
        out = np.where(pit, mn, z)
        return np.where(z != nodata, out, nodata)

    return focal_op(dem_ds, spec, kernel, 1)


def breach_single_cell_pits(dem_ds, spec):
    """BreachSingleCellPits (breach_single_cell_pits.rs): for a pit, if
    some cell TWO steps away in a straight/diagonal line is lower, lower
    the intermediate neighbour to the mean of pit and that cell."""
    from .focal import focal_op, _shifted

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        mn = np.full(z.shape, np.inf)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            mn = np.minimum(mn, np.where(zi != nodata, zi, np.inf))
        pit = np.isfinite(mn) & (z < mn)
        out = z.copy()
        # a neighbour between a pit (2 cells away) and this cell: lower
        # self if the 2-away pit exists and its far side is lower
        for i in range(8):
            two = _shifted(pad, halo, tpx, 2 * int(DY8[i]), 2 * int(DX8[i]))
            pit_nb = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            # centre cell is the intermediate when the neighbour at i is a
            # pit? The reference lowers the wall cell; from the wall's view:
            # neighbour i is the pit, neighbour opposite-of-i (2 away from
            # pit) is lower than the pit
            is_pit_nb = (pit_nb != nodata) & (two != nodata)
            cond = is_pit_nb & (two < pit_nb) & (z > pit_nb) & (z > two)
            lower_to = (pit_nb + two) / 2.0
            out = np.where(cond & (lower_to < out), lower_to, out)
        _ = pit
        return np.where(z != nodata, out, nodata)

    return focal_op(dem_ds, spec, kernel, 2)


def find_parallel_flow(pointer_ds, spec):
    """FindParallelFlow: cells whose D8 direction equals a neighbour's."""
    from .focal import focal_op, _shifted

    def kernel(pad, nodata, spec_):
        tpx = spec_.tile_px
        halo = (pad.shape[0] - tpx) // 2
        z = _shifted(pad, halo, tpx, 0, 0)
        hit = np.zeros(z.shape, dtype=bool)
        for i in range(8):
            zi = _shifted(pad, halo, tpx, int(DY8[i]), int(DX8[i]))
            hit |= (zi == z) & (zi != nodata) & (z >= 0)
        out = hit.astype(np.float64)
        return np.where(z != nodata, out, nodata)

    return focal_op(pointer_ds, spec, kernel, 1)


def flow_accumulation_full_workflow(dem_ds, spec, num_workers: int = 4):
    """FlowAccumulationFullWorkflow (flow_accum_full_workflow.rs):
    fill → pointer → D8 accumulation; returns (filled, pointer, accum)."""
    from .fill import fill_depressions_ds
    from .flow import d8_pointer_masked, flow_accumulation_ds

    filled = fill_depressions_ds(dem_ds, spec, num_workers=num_workers)
    ptr = d8_pointer_masked(filled, spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=num_workers)
    return filled, ptr, acc


def jenson_snap_pour_points(points, stream_ds, spec, snap_dist: float):
    """JensonSnapPourPoints (jenson_snap_pour_points.rs): snap each
    outlet to the NEAREST stream cell within snap_dist (vs SnapPourPoints'
    max-accumulation rule)."""
    import ray

    gs = spec.grid_spec()
    tpx = spec.tile_px
    rad = int(np.ceil(snap_dist / spec.res))

    # collect candidate stream cells near any point (small: per point a
    # (2rad+1)² neighbourhood)
    wanted = []
    for x, y, pid in points:
        r = int(gs.row_from_y(np.float64(y)))
        c = int(gs.col_from_x(np.float64(x)))
        wanted.append((pid, r, c))
    wref = ray.put(wanted)

    def probe(batch: pa.Table) -> pa.Table:
        pts = ray.get(wref)
        out_pid, out_r, out_c, out_d = [], [], [], []
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            r0, c0 = tr * tpx, tc * tpx
            sr, sc = np.nonzero(g > 0)
            if not len(sr):
                continue
            gr, gc = sr + r0, sc + c0
            for pid, r, c in pts:
                d2 = (gr - r) ** 2 + (gc - c) ** 2
                j = int(d2.argmin())
                if d2[j] <= rad * rad:
                    out_pid.append(pid)
                    out_r.append(int(gr[j]))
                    out_c.append(int(gc[j]))
                    out_d.append(float(d2[j]))
        return pa.table(
            {
                "pid": pa.array(out_pid, pa.int64()),
                "r": pa.array(out_r, pa.int64()),
                "c": pa.array(out_c, pa.int64()),
                "d2": pa.array(out_d, pa.float64()),
            }
        )

    cand = stream_ds.map_batches(probe, batch_format="pyarrow").to_pandas()
    out = []
    for x, y, pid in points:
        mine = cand[cand["pid"] == pid]
        if len(mine):
            best = mine.sort_values(["d2", "r", "c"]).iloc[0]
            x2 = gs.west + (best["c"] + 0.5) * spec.res
            y2 = gs.north - (best["r"] + 0.5) * spec.res
            out.append((float(x2), float(y2), int(pid)))
        else:
            out.append((float(x), float(y), int(pid)))
    return out


def subbasins(pointer_ds, streams_link_ds, spec, num_workers: int = 4,
              out_dir: str | None = None):
    """Subbasins (subbasins.rs): label = link id of the first stream cell
    downstream — watershed against the link-id target grid."""
    from .basins import _run_terminal_resolution
    import ray
    import ray.data as rd
    from .bsp import combine_tile_layers

    combined = combine_tile_layers(spec, ptrl=pointer_ds, tgtl=streams_link_ds)

    def adapt(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "tile_row": batch["tile_row"],
                "tile_col": batch["tile_col"],
                "ptr": batch["ptrl"],
                "ptr_fmt": batch["ptrl_fmt"],
                "tgt": batch["tgtl"],
                "tgt_fmt": batch["tgtl_fmt"],
            }
        )

    rows = combined.map_batches(adapt, batch_format="pyarrow")
    out_dir = out_dir or tempfile.mkdtemp(prefix="subbasins_", dir="/tmp")
    os.makedirs(out_dir, exist_ok=True)
    workers = _run_terminal_resolution(rows, spec, num_workers)
    tid_map: dict[int, float] = {}
    for part in ray.get([w.target_ids.remote() for w in workers]):
        tid_map.update(part)
    aux_ref = ray.put(tid_map)
    ray.get([
        w.dump_mode.remote(os.path.join(out_dir, f"shard_{i}.parquet"), "watershed", aux_ref)
        for i, w in enumerate(workers)
    ])
    return rd.read_parquet(out_dir)


def strahler_order_basins(pointer_ds, streams_link_ds, link_order: dict, spec,
                          num_workers: int = 4, out_dir: str | None = None):
    """StrahlerOrderBasins: subbasins relabeled link→Strahler order."""
    sb = subbasins(pointer_ds, streams_link_ds, spec, num_workers)

    lut = dict(link_order)

    def relabel(batch: pa.Table) -> pa.Table:
        outs = []
        for bb, ff in zip(batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
            g = codecs.decode_tile(bb, ff)
            o = np.copy(g)
            for k, v in lut.items():
                o[g == k] = v
            outs.append(o)
        return f32_tiles(batch, outs)

    return sb.map_batches(relabel, batch_format="pyarrow")
