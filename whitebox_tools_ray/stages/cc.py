"""Clump — connected-component labeling of a categorical raster, tiled.

Reference: gis_analysis/clump.rs:246-281 — whole-raster DFS flood fill,
4- or 8-connectivity, cells group when they share the same VALUE; output
labels are 1-based in discovery (row-major) order; nodata (and
optionally zero) cells excluded.

Engine form — the classic 2-pass distributed CC (SURVEY.md §2.4):
1. per tile: local label pass (vectorized two-pass union-find on the
   tile), labels offset by tile id so they're globally unique;
2. boundary merge: adjacent tiles' edge strips meet in a groupby on the
   shared-edge key; same-value touching cells emit label-equivalence
   pairs; a driver-side union-find over the (small) equivalence set maps
   local → global labels;
3. relabel pass broadcasting the final mapping; labels renumbered
   1..n_components by the minimum (row-major) cell position of each
   component so the output matches the reference's discovery ordering.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels import codecs


def _local_labels(grid: np.ndarray, nodata: float, diag: bool, zero_background: bool) -> np.ndarray:
    """Two-pass union-find CC on one tile. Returns int64 labels (0 = no
    label), locally dense 1..k."""
    h, w = grid.shape
    labels = np.zeros((h, w), dtype=np.int64)
    parent: list[int] = [0]

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    nxt = 1
    valid = grid != nodata
    if zero_background:
        valid &= grid != 0.0
    for r in range(h):
        for c in range(w):
            if not valid[r, c]:
                continue
            v = grid[r, c]
            up = labels[r - 1, c] if r > 0 and grid[r - 1, c] == v and valid[r - 1, c] else 0
            left = labels[r, c - 1] if c > 0 and grid[r, c - 1] == v and valid[r, c - 1] else 0
            ul = labels[r - 1, c - 1] if diag and r > 0 and c > 0 and grid[r - 1, c - 1] == v and valid[r - 1, c - 1] else 0
            ur = labels[r - 1, c + 1] if diag and r > 0 and c + 1 < w and grid[r - 1, c + 1] == v and valid[r - 1, c + 1] else 0
            neigh = [x for x in (up, left, ul, ur) if x > 0]
            if not neigh:
                labels[r, c] = nxt
                parent.append(nxt)
                nxt += 1
            else:
                m = min(neigh)
                labels[r, c] = m
                for x in neigh:
                    union(m, x)
    # flatten
    remap = np.zeros(nxt, dtype=np.int64)
    dense = 0
    roots: dict[int, int] = {}
    for lbl in range(1, nxt):
        root = find(lbl)
        if root not in roots:
            dense += 1
            roots[root] = dense
        remap[lbl] = roots[root]
    return remap[labels]


# ---------------------------------------------------------------------------
# Round-2 rework (VERDICT r1): vectorized local labels + Dataset-native
# distributed merge — only O(perimeter) equivalence PAIRS ever reach the
# driver; label grids stay in the object store end to end.
# ---------------------------------------------------------------------------


def _local_labels_vec(grid: np.ndarray, nodata: float, diag: bool, zero_background: bool) -> np.ndarray:
    """Vectorized tile CC: labels = min cell index of the component
    (row-major), computed by pointer-jumping min-label propagation over
    the 4/8-neighbor equality pairs. O(log diameter) numpy rounds, no
    per-pixel Python. Returns int64 grid; -1 = unlabeled."""
    h, w = grid.shape
    n = h * w
    valid = grid != nodata
    if zero_background:
        valid &= grid != 0.0
    g = grid.ravel()
    v = valid.ravel()
    idx = np.arange(n, dtype=np.int64)
    # neighbor pair lists (a < b by construction: up/left/ul/ur of b)
    pairs_a = []
    pairs_b = []
    ii = idx.reshape(h, w)
    offsets = [(-1, 0), (0, -1)] + ([(-1, -1), (-1, 1)] if diag else [])
    for dr, dc in offsets:
        # cell (r, c) pairs with neighbor (r+dr, c+dc)
        r0, r1 = max(0, -dr), h - max(0, dr)
        c0, c1 = max(0, -dc), w - max(0, dc)
        a = ii[r0:r1, c0:c1].ravel()
        b = ii[r0 + dr : r1 + dr, c0 + dc : c1 + dc].ravel()
        m = v[a] & v[b] & (g[a] == g[b])
        pairs_a.append(a[m])
        pairs_b.append(b[m])
    a = np.concatenate(pairs_a) if pairs_a else np.empty(0, np.int64)
    b = np.concatenate(pairs_b) if pairs_b else np.empty(0, np.int64)
    lab = idx.copy()
    lab[~v] = -1
    while True:
        prev = lab
        lab = lab.copy()
        if len(a):
            np.minimum.at(lab, a, prev[b])
            np.minimum.at(lab, b, prev[a])
        # pointer jumping (labels are cell indices → chase them)
        lv = lab[v]
        for _ in range(2):
            lv = lab[lv]
        lab[v] = lv
        if np.array_equal(lab, prev):
            break
    return lab.reshape(h, w)


def clump_ds(tiles_ds, spec, diag: bool = True, zero_background: bool = False,
             out_dir: str | None = None):
    """Dataset-native Clump (clump.rs:246-281 semantics).

    1. ``map_batches`` local pass: per-tile vectorized CC with GLOBAL
       cell-index labels; emits the label tile (f64 payload — labels can
       exceed f32's int range) plus 1-cell edge strips keyed to each
       shared tile edge / 4-tile corner.
    2. edge strips groupby(edge key) → same-value touching cells emit
       label-equivalence pairs (the ONLY data that reaches the driver —
       O(perimeter) ints).
    3. driver union-find over pairs → final dense numbering by the
       component's minimum global row-major position (= the reference's
       row-major discovery order) → broadcast map → vectorized relabel
       pass over the label tiles.

    Returns (labels Dataset[tile_row, tile_col, bytes, fmt], n_components).
    """
    import ray

    tpx = spec.tile_px
    nodata = spec.nodata
    tiles_x, tiles_y = spec.tiles_x, spec.tiles_y
    W = tiles_x * tpx  # scene width in cells

    def local_pass(batch: pa.Table) -> pa.Table:
        out = {"kind": [], "key": [], "tile_row": [], "tile_col": [],
               "labels": [], "vals": [], "side": []}
        trows = batch["tile_row"].to_numpy(zero_copy_only=False)
        tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
        for i in range(batch.num_rows):
            grid = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            tr, tc = int(trows[i]), int(tcols[i])
            lab = _local_labels_vec(grid, nodata, diag, zero_background)
            # local cell idx -> global row-major position
            rr, cc_ = np.divmod(lab, tpx)
            glob = np.where(lab >= 0, (tr * tpx + rr) * W + tc * tpx + cc_, -1)
            out["kind"].append(0)
            out["key"].append(tr * tiles_x + tc)
            out["tile_row"].append(tr)
            out["tile_col"].append(tc)
            out["labels"].append(codecs.encode_tile(glob.astype(np.float64), "f64"))
            out["vals"].append(b"")
            out["side"].append("")
            # edge strips: key = shared edge id; sides L/R (vertical
            # edge, two columns) and T/B (horizontal edge, two rows);
            # corner key for diagonal 4-tile junctions
            edges = []
            if tc + 1 < tiles_x:  # vertical edge to the right: key V(tr, tc)
                edges.append((("V", tr, tc), "L", grid[:, -1], glob[:, -1]))
            if tc > 0:
                edges.append((("V", tr, tc - 1), "R", grid[:, 0], glob[:, 0]))
            if tr + 1 < tiles_y:  # horizontal edge below
                edges.append((("H", tr, tc), "T", grid[-1, :], glob[-1, :]))
            if tr > 0:
                edges.append((("H", tr - 1, tc), "B", grid[0, :], glob[0, :]))
            if diag:
                # 4-tile corner junctions: key C(tr_junction, tc_junction)
                if tr + 1 < tiles_y and tc + 1 < tiles_x:
                    edges.append((("C", tr, tc), "BR", grid[-1:, -1], glob[-1:, -1]))
                if tr + 1 < tiles_y and tc > 0:
                    edges.append((("C", tr, tc - 1), "BL", grid[-1:, 0], glob[-1:, 0]))
                if tr > 0 and tc + 1 < tiles_x:
                    edges.append((("C", tr - 1, tc), "TR", grid[:1, -1], glob[:1, -1]))
                if tr > 0 and tc > 0:
                    edges.append((("C", tr - 1, tc - 1), "TL", grid[:1, 0], glob[:1, 0]))
            kind_code = {"V": 0, "H": 1, "C": 2}
            for key, side, vals, labs in edges:
                out["kind"].append(1)
                # deterministic int key (hash() is per-process randomized)
                out["key"].append(
                    kind_code[key[0]] * (tiles_x * tiles_y + tiles_x + 1)
                    + key[1] * tiles_x + key[2]
                )
                out["tile_row"].append(tr)
                out["tile_col"].append(tc)
                out["labels"].append(np.ascontiguousarray(labs, dtype=np.int64).tobytes())
                out["vals"].append(np.ascontiguousarray(vals, dtype=np.float64).tobytes())
                out["side"].append(side)
        return pa.table(
            {
                "kind": pa.array(out["kind"], pa.int8()),
                "key": pa.array(out["key"], pa.int64()),
                "tile_row": pa.array(out["tile_row"], pa.int32()),
                "tile_col": pa.array(out["tile_col"], pa.int32()),
                "labels": pa.array(out["labels"], pa.binary()),
                "vals": pa.array(out["vals"], pa.binary()),
                "side": pa.array(out["side"], pa.string()),
            }
        )

    local = tiles_ds.map_batches(local_pass, batch_format="pyarrow", batch_size=8).materialize()
    label_tiles = local.filter(lambda row: row["kind"] == 0)
    edge_rows = local.filter(lambda row: row["kind"] == 1)

    # distributed pair extraction: groupby edge key, same-value touching
    # cells (with ±1 offsets for diagonal connectivity along strips)
    def strip_pairs(g: pd.DataFrame) -> pd.DataFrame:
        recs = {
            s: (np.frombuffer(bytes(v), dtype=np.float64), np.frombuffer(bytes(l), dtype=np.int64))
            for s, v, l in zip(g["side"], g["vals"], g["labels"])
        }
        pa_, pb_ = [], []

        def touch(va, la, vb, lb, offs):
            n = len(va)
            for off in offs:
                ia = np.arange(n)
                ib = ia + off
                ok = (ib >= 0) & (ib < len(vb))
                ia, ib = ia[ok], ib[ok]
                m = (va[ia] == vb[ib]) & (la[ia] >= 0) & (lb[ib] >= 0)
                pa_.extend(la[ia][m].tolist())
                pb_.extend(lb[ib][m].tolist())

        offs = [0, -1, 1] if diag else [0]
        if "L" in recs and "R" in recs:
            touch(*recs["L"], *recs["R"], offs)
        if "T" in recs and "B" in recs:
            touch(*recs["T"], *recs["B"], offs)
        if "BR" in recs and "TL" in recs:
            touch(*recs["BR"], *recs["TL"], [0])
        if "BL" in recs and "TR" in recs:
            touch(*recs["BL"], *recs["TR"], [0])
        return pd.DataFrame({"a": pa_, "b": pb_})

    pairs = (
        edge_rows.groupby("key").map_groups(strip_pairs, batch_format="pandas").to_pandas()
    )

    # driver union-find over the pair set (O(perimeter) ints)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    if len(pairs) and "a" in pairs.columns:  # empty groups drop their columns
        for x, y in zip(pairs["a"], pairs["b"]):
            rx, ry = find(int(x)), find(int(y))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

    # collect every distinct label (from tiles, distributed) to build the
    # dense numbering: labels are global min-cell positions, so the root
    # of a merged component is its global minimum position
    def tile_labels(batch: pa.Table) -> pa.Table:
        outs = []
        for blob in batch["labels"].to_pylist():
            lab = codecs.decode_tile(blob, "f64").astype(np.int64)
            u = np.unique(lab[lab >= 0])
            outs.append(u)
        u = np.unique(np.concatenate(outs)) if outs else np.empty(0, np.int64)
        return pa.table({"lbl": pa.array(u, pa.int64())})

    distinct = label_tiles.map_batches(tile_labels, batch_format="pyarrow").to_pandas()["lbl"].unique()
    roots = sorted({find(int(l)) for l in distinct})
    final = {root: i + 1 for i, root in enumerate(roots)}
    # full label→final map (every distinct local label)
    full_map = {int(l): final[find(int(l))] for l in distinct}
    map_ref = ray.put(full_map)

    class Relabel:
        def __init__(self):
            self.map = ray.get(map_ref)
            self.keys = np.array(sorted(self.map), dtype=np.int64)
            self.vals = np.array([self.map[k] for k in self.keys], dtype=np.float64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            out = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
            for i in range(batch.num_rows):
                lab = codecs.decode_tile(batch["labels"][i].as_py(), "f64").astype(np.int64)
                o = np.full(lab.shape, nodata, dtype=np.float64)
                m = lab >= 0
                if m.any():
                    pos = np.searchsorted(self.keys, lab[m])
                    o[m] = self.vals[pos]
                out["tile_row"].append(batch["tile_row"][i].as_py())
                out["tile_col"].append(batch["tile_col"][i].as_py())
                out["bytes"].append(codecs.encode_tile(o, "f64"))
                out["fmt"].append("f64")
            return pa.table(
                {
                    "tile_row": pa.array(out["tile_row"], pa.int32()),
                    "tile_col": pa.array(out["tile_col"], pa.int32()),
                    "bytes": pa.array(out["bytes"], pa.binary()),
                    "fmt": pa.array(out["fmt"], pa.string()),
                }
            )

    labeled = label_tiles.map_batches(Relabel, batch_format="pyarrow", concurrency=(1, 4))
    return labeled, len(roots)
