"""Stream-network analysis over the D8 flow DAG.

Reference family (SURVEY.md §2.9, stream_network_analysis/): all tools
consume a streams raster (cells above an accumulation threshold) + a D8
pointer raster, extract the LINK GRAPH (junction-to-junction segments),
then traverse it. The reference walks whole-raster arrays; the engine:

1. ``extract_streams_ds`` — threshold the accumulation tiles (**M**,
   extract_streams.rs:254: ``accum > threshold`` strictly; background
   NODATA unless --zero_background);
2. ``stream_links_ds`` — build the link table: per stream cell follow the
   pointer; junctions = stream cells with ≥2 inflowing stream neighbors
   or outlets. Link identification (stream_link_id.rs) assigns each
   junction-free run one id. The link TABLE is tiny relative to the
   raster (≈ drainage density × cells), so per-link graph traversal
   (orders, lengths, slopes) runs driver-side exactly like the
   reference's link phase — the raster-scale work stays distributed.
3. ``strahler_order`` / ``shreve_magnitude`` — classic orders on the
   link DAG (strahler_order.rs / shreve_magnitude.rs semantics).

The registered forms take tile Datasets (``*_ds``). The ``*_small``
functions are whole-scene, driver-side forms over dict-of-tiles inputs
(tid → grid, plus i8 pointer tiles); tests use them as oracles.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pandas as pd

from ..kernels import codecs
from .focal import DX8, DY8


_SMALL_SCENE_CELL_CAP = 64_000_000  # ~512 MB of f64 — driver-side ceiling


def _guard_small(n_cells: int, fn: str) -> None:
    if n_cells > _SMALL_SCENE_CELL_CAP:
        raise ValueError(
            f"{fn} is the SMALL-SCENE parity reference: it materializes the "
            f"whole scene driver-side ({n_cells} cells > "
            f"{_SMALL_SCENE_CELL_CAP}). Use the registered Dataset form "
            "(extract_streams_ds / stream_links_ds / distance_to_outlet_ds / "
            "farthest_channel_head_ds) for large scenes."
        )


def _mosaic(tiles: dict[int, np.ndarray], spec) -> np.ndarray:
    _guard_small(spec.rows * spec.columns, "_mosaic (small-scene path)")
    tpx = spec.tile_px
    full = np.full((spec.rows, spec.columns), spec.nodata)
    for tid, g in tiles.items():
        r0 = (tid // spec.tiles_x) * tpx
        c0 = (tid % spec.tiles_x) * tpx
        full[r0 : r0 + tpx, c0 : c0 + tpx] = g
    return full


def stream_links_small(stream_tiles: dict[int, np.ndarray], pointer_tiles: dict[int, bytes], spec):
    """Link identification (stream_link_id.rs semantics).

    Returns (link_id_grid, links) where links is a list of dicts
    {link_id, cells, ds_link (downstream link id or -1), length}.
    The link phase runs on the assembled stream mask — the stream set is
    O(channel cells), far smaller than the raster; the distributed part
    already happened (accumulation + threshold).
    """
    stream = _mosaic(stream_tiles, spec)
    tpx = spec.tile_px
    ptr = np.full((spec.rows, spec.columns), -2, dtype=np.int8)
    for tid, blob in pointer_tiles.items():
        g = codecs.decode_tile(blob, "i8").astype(np.int8)
        r0 = (tid // spec.tiles_x) * tpx
        c0 = (tid % spec.tiles_x) * tpx
        ptr[r0 : r0 + tpx, c0 : c0 + tpx] = g

    rows, cols = stream.shape
    is_stream = stream == 1.0
    # inflowing stream-neighbor count per stream cell
    inflow = np.zeros((rows, cols), dtype=np.int8)
    INFLOW_OF = np.array([4, 5, 6, 7, 0, 1, 2, 3], dtype=np.int8)
    ptr_pad = np.full((rows + 2, cols + 2), -2, dtype=np.int8)
    ptr_pad[1:-1, 1:-1] = ptr
    stream_pad = np.zeros((rows + 2, cols + 2), dtype=bool)
    stream_pad[1:-1, 1:-1] = is_stream
    for i in range(8):
        neigh_ptr = ptr_pad[1 + DY8[i] : 1 + DY8[i] + rows, 1 + DX8[i] : 1 + DX8[i] + cols]
        neigh_stream = stream_pad[1 + DY8[i] : 1 + DY8[i] + rows, 1 + DX8[i] : 1 + DX8[i] + cols]
        inflow += ((neigh_ptr == INFLOW_OF[i]) & neigh_stream).astype(np.int8)
    # heads: stream cells with 0 stream inflows; junctions: ≥2
    link_id = np.zeros((rows, cols), dtype=np.int64)
    links: list[dict] = []
    next_id = 1
    diag = float(np.sqrt(2.0) * spec.res)
    lengths = [diag, spec.res, diag, spec.res, diag, spec.res, diag, spec.res]

    starts = [(r, c) for r, c in zip(*np.nonzero(is_stream & ((inflow == 0) | (inflow >= 2))))]
    for sr, sc in starts:
        # each start begins one link downstream (junction cells start a NEW link)
        lid = next_id
        next_id += 1
        cells_in_link = []
        length = 0.0
        r, c = sr, sc
        while True:
            if link_id[r, c] != 0:
                break
            link_id[r, c] = lid
            cells_in_link.append((r, c))
            d = int(ptr[r, c])
            if d < 0:
                break
            rn, cn = r + int(DY8[d]), c + int(DX8[d])
            if not (0 <= rn < rows and 0 <= cn < cols) or not is_stream[rn, cn]:
                break
            length += lengths[d]
            if inflow[rn, cn] >= 2:  # next cell is a junction → link ends
                break
            r, c = rn, cn
        if cells_in_link:
            links.append({"link_id": lid, "cells": cells_in_link, "length": length})
    # downstream link pointers
    by_cell = {cell: lk["link_id"] for lk in links for cell in lk["cells"]}
    for lk in links:
        r, c = lk["cells"][-1]
        d = int(ptr[r, c])
        lk["ds_link"] = -1
        if d >= 0:
            rn, cn = r + int(DY8[d]), c + int(DX8[d])
            if 0 <= rn < rows and 0 <= cn < cols and is_stream[rn, cn]:
                ds = by_cell.get((rn, cn), -1)
                lk["ds_link"] = ds if ds != lk["link_id"] else -1
    return link_id, links


def strahler_order(links: list[dict]) -> dict[int, int]:
    """Strahler stream order on the link DAG (strahler_order.rs):
    leaves = 1; a link's order = max upstream order, +1 when ≥2 upstream
    links share that max."""
    ups: dict[int, list[int]] = defaultdict(list)
    for lk in links:
        if lk["ds_link"] != -1:
            ups[lk["ds_link"]].append(lk["link_id"])
    order: dict[int, int] = {}

    def compute(lid: int) -> int:
        if lid in order:
            return order[lid]
        u = ups.get(lid, [])
        if not u:
            order[lid] = 1
        else:
            ords = sorted((compute(x) for x in u), reverse=True)
            order[lid] = ords[0] + 1 if len(ords) > 1 and ords[0] == ords[1] else ords[0]
        return order[lid]

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(links) + 100))
    for lk in links:
        compute(lk["link_id"])
    sys.setrecursionlimit(old)
    return order


def shreve_magnitude(links: list[dict]) -> dict[int, int]:
    """Shreve magnitude (shreve_magnitude.rs): leaves = 1; links sum
    their upstream magnitudes."""
    ups: dict[int, list[int]] = defaultdict(list)
    for lk in links:
        if lk["ds_link"] != -1:
            ups[lk["ds_link"]].append(lk["link_id"])
    mag: dict[int, int] = {}

    def compute(lid: int) -> int:
        if lid in mag:
            return mag[lid]
        u = ups.get(lid, [])
        mag[lid] = 1 if not u else sum(compute(x) for x in u)
        return mag[lid]

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, len(links) + 100))
    for lk in links:
        compute(lk["link_id"])
    sys.setrecursionlimit(old)
    return mag


# ---------------------------------------------------------------------------
# Round 2: the stream-network remainder on the link DAG. All consume the
# ``links`` table from ``stream_links_small`` (junction-to-junction link graph
# with lengths + downstream pointers) — the reference walks whole-raster
# arrays; the link table is O(drainage density × cells), so the graph
# phase is tiny and the raster-scale work stayed distributed upstream.
# ---------------------------------------------------------------------------


def _ups_map(links: list[dict]) -> dict[int, list[int]]:
    ups: dict[int, list[int]] = defaultdict(list)
    for lk in links:
        if lk["ds_link"] != -1:
            ups[lk["ds_link"]].append(lk["link_id"])
    return ups


def _topo_order_links(links: list[dict]) -> list[dict]:
    """Links in upstream→downstream topological order (iterative)."""
    ups = _ups_map(links)
    by_id = {lk["link_id"]: lk for lk in links}
    indeg = {lk["link_id"]: len(ups.get(lk["link_id"], [])) for lk in links}
    stack = [lid for lid, d in indeg.items() if d == 0]
    out = []
    while stack:
        lid = stack.pop()
        out.append(by_id[lid])
        ds = by_id[lid]["ds_link"]
        if ds != -1 and ds in indeg:
            indeg[ds] -= 1
            if indeg[ds] == 0:
                stack.append(ds)
    return out


def upstream_channel_distance(links: list[dict]) -> dict[int, float]:
    """Furthest-upstream channel distance at each link's TOP node — the
    reference's ``trib_length`` trunk criterion (horton_order.rs:397-399,
    hack_order.rs:285-399)."""
    updist: dict[int, float] = {}
    ups = _ups_map(links)
    by_id = {lk["link_id"]: lk for lk in links}
    for lk in _topo_order_links(links):
        u = ups.get(lk["link_id"], [])
        updist[lk["link_id"]] = (
            max(updist[x] + by_id[x]["length"] for x in u) if u else 0.0
        )
    return updist


def _trunk_child(links: list[dict]) -> dict[int, int]:
    """For each link with upstreams: the TRUNK upstream link — max
    furthest-upstream distance (ties → lower link id)."""
    ups = _ups_map(links)
    updist = upstream_channel_distance(links)
    by_id = {lk["link_id"]: lk for lk in links}
    trunk = {}
    for lid, u in ups.items():
        trunk[lid] = min(u, key=lambda x: (-(updist[x] + by_id[x]["length"]), x))
    return trunk


def horton_order(links: list[dict]) -> dict[int, int]:
    """Horton order (horton_order.rs): Strahler, then the main trunk —
    chosen by furthest upstream channel distance at each junction —
    carries the outlet's order upstream; tributaries restart with their
    own Strahler order (which propagates up THEIR trunks)."""
    strah = strahler_order(links)
    trunk = _trunk_child(links)
    horton: dict[int, int] = {}
    # downstream→upstream topological order
    for lk in reversed(_topo_order_links(links)):
        lid = lk["link_id"]
        ds = lk["ds_link"]
        if ds != -1 and trunk.get(ds) == lid:
            horton[lid] = horton[ds]
        else:
            horton[lid] = strah[lid]
    return horton


def hack_order(links: list[dict]) -> dict[int, int]:
    """Hack order (hack_order.rs): outlet link = 1; the trunk upstream
    (furthest-upstream-distance rule) continues the order; other
    tributaries get parent + 1."""
    trunk = _trunk_child(links)
    hack: dict[int, int] = {}
    for lk in reversed(_topo_order_links(links)):
        lid = lk["link_id"]
        ds = lk["ds_link"]
        if ds == -1:
            hack[lid] = 1
        elif trunk.get(ds) == lid:
            hack[lid] = hack[ds]
        else:
            hack[lid] = hack[ds] + 1
    return hack


def topological_order(links: list[dict]) -> dict[int, int]:
    """TopologicalStreamOrder (topological_stream_order.rs:16-19): the
    link draining to the outlet = 1; every tributary = parent + 1."""
    topo: dict[int, int] = {}
    for lk in reversed(_topo_order_links(links)):
        lid = lk["link_id"]
        ds = lk["ds_link"]
        topo[lid] = 1 if ds == -1 else topo[ds] + 1
    return topo


def stream_link_slope(links: list[dict], dem: np.ndarray, res: float) -> dict[int, float]:
    """StreamLinkSlope (stream_link_slope.rs): (z_top − z_bottom) /
    link length, as percent-free gradient (radians-free ratio)."""
    out = {}
    for lk in links:
        r0, c0 = lk["cells"][0]
        r1, c1 = lk["cells"][-1]
        out[lk["link_id"]] = (
            (float(dem[r0, c0]) - float(dem[r1, c1])) / lk["length"] if lk["length"] > 0 else 0.0
        )
    return out


def length_of_upstream_channels(links: list[dict]) -> dict[int, float]:
    """LengthOfUpstreamChannels (total_length_channels.rs): per link, the
    total channel length upstream of (and including) the link."""
    ups = _ups_map(links)
    total: dict[int, float] = {}
    for lk in _topo_order_links(links):
        lid = lk["link_id"]
        total[lid] = lk["length"] + sum(total[x] for x in ups.get(lid, []))
    return total


def distance_to_outlet_small(stream_tiles: dict[int, np.ndarray], pointer_tiles: dict[int, bytes], spec):
    """DistanceToOutlet (dist_to_outlet.rs): per stream cell, flow-path
    distance to the network outlet; non-stream cells → nodata."""
    from .basins import _doubling_to_targets, _pointer_mosaic

    ptr = _pointer_mosaic(pointer_tiles, spec)
    stream = _mosaic(stream_tiles, spec) == 1.0
    diag = float(np.sqrt(2.0)) * spec.res
    lengths = np.where((DY8 != 0) & (DX8 != 0), diag, spec.res)
    d = np.where(ptr >= 0, ptr, 0).astype(np.int64)
    step = np.where(ptr >= 0, lengths[d], 0.0)
    dist, _reached, _term = _doubling_to_targets(ptr, np.zeros(ptr.shape, dtype=bool), step)
    out = np.where(stream, dist, spec.nodata)
    out[ptr == -2] = spec.nodata
    return out


def farthest_channel_head_small(stream_tiles: dict[int, np.ndarray], pointer_tiles: dict[int, bytes], spec):
    """FarthestChannelHead (farthest_channel_head.rs): per stream cell,
    the maximum upstream channel distance to any head."""
    from .basins import _pointer_mosaic

    ptr = _pointer_mosaic(pointer_tiles, spec)
    stream = _mosaic(stream_tiles, spec) == 1.0
    rows, cols = ptr.shape
    diag = float(np.sqrt(2.0)) * spec.res
    lengths = [diag, spec.res, diag, spec.res, diag, spec.res, diag, spec.res]
    INFLOW_OF = np.array([4, 5, 6, 7, 0, 1, 2, 3], dtype=np.int8)
    # in-degree over STREAM cells only
    indeg = np.zeros((rows, cols), dtype=np.int32)
    out = np.full((rows, cols), spec.nodata)
    out[stream] = 0.0
    ptr_pad = np.full((rows + 2, cols + 2), -2, dtype=np.int8)
    ptr_pad[1:-1, 1:-1] = ptr
    s_pad = np.zeros((rows + 2, cols + 2), dtype=bool)
    s_pad[1:-1, 1:-1] = stream
    for i in range(8):
        np_ = ptr_pad[1 + DY8[i] : 1 + DY8[i] + rows, 1 + DX8[i] : 1 + DX8[i] + cols]
        ns = s_pad[1 + DY8[i] : 1 + DY8[i] + rows, 1 + DX8[i] : 1 + DX8[i] + cols]
        indeg += ((np_ == INFLOW_OF[i]) & ns).astype(np.int32)
    stack = [(int(r), int(c)) for r, c in zip(*np.nonzero(stream & (indeg == 0)))]
    while stack:
        r, c = stack.pop()
        dcur = int(ptr[r, c])
        if dcur < 0:
            continue
        rn, cn = r + int(DY8[dcur]), c + int(DX8[dcur])
        if not (0 <= rn < rows and 0 <= cn < cols) or not stream[rn, cn]:
            continue
        cand = out[r, c] + lengths[dcur]
        if cand > out[rn, cn]:
            out[rn, cn] = cand
        indeg[rn, cn] -= 1
        if indeg[rn, cn] == 0:
            stack.append((rn, cn))
    return out


def distance_to_outlet_ds(stream_ds, pointer_ds, spec, num_workers: int = 4):
    """DistanceToOutlet (stream_network_analysis/dist_to_outlet.rs),
    Dataset form — the registered surface. Downslope flowpath length to
    the terminal via the BSP terminal resolution, masked to stream
    cells: on a stream cell the D8 path stays in-network (accumulation
    is monotone non-decreasing downstream), so the flowpath length to
    the terminal IS the distance to the outlet. The single-grid
    ``distance_to_outlet_small`` is kept as the small-scene parity reference.

    Inputs/outputs are tile Datasets [tile_row, tile_col, bytes, fmt];
    nothing materializes on the driver."""
    from . import band_math
    from .hydro2 import _term_acc_ds

    length, _w = _term_acc_ds(pointer_ds, spec, num_workers)
    nod = spec.nodata

    def mask(ln, st):
        return np.where(st == 1.0, ln, nod)

    return band_math.overlay_fn(length, stream_ds, spec, mask, out_fmt="f64")


def farthest_channel_head_ds(stream_ds, pointer_ds, spec, num_workers: int = 4):
    """FarthestChannelHead (stream_network_analysis/
    farthest_channel_head.rs), Dataset form — the registered surface.

    Identity: with L = downslope flowpath length to the terminal
    (strictly increasing upstream along any flowpath), the farthest
    upstream channel-head distance at stream cell c is

        far(c) = max_{heads h upstream of c} (L(h) − L(c))
               = maxHeadL(link(c)) − L(c)

    where ``maxHeadL`` propagates down the O(links) link DAG: a link
    with no upstream links starts at a head (maxHeadL = L(head gid));
    a junction-topped link takes the max of its upstream links. Cell
    work stays in Datasets (terminal-resolution L + the distributed
    ``stream_links_ds`` paint); the driver holds only the link table
    (SURVEY §2.9 sanction)."""
    import ray

    from . import band_math
    from .hydro2 import _term_acc_ds

    length, _w = _term_acc_ds(pointer_ds, spec, num_workers)
    painted, links = stream_links_ds(stream_ds, pointer_ds, spec)

    W = spec.tiles_x * spec.tile_px
    tpx = spec.tile_px
    head_gids = np.array(
        sorted({lk["cells"][0][0] * W + lk["cells"][0][1] for lk in links}), dtype=np.int64
    )
    head_ref = ray.put(head_gids)

    def head_l(batch):
        import pyarrow as pa

        hg = ray.get(head_ref)
        gs, ls = [], []
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            sel = hg[(hg // W // tpx == tr) & ((hg % W) // tpx == tc)]
            if not len(sel):
                continue
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            rr = sel // W - tr * tpx
            cc = sel % W - tc * tpx
            gs.append(sel)
            ls.append(g[rr, cc])
        if not gs:
            return pa.table({"hgid": pa.array([], pa.int64()),
                             "hl": pa.array([], pa.float64())})
        return pa.table({"hgid": pa.array(np.concatenate(gs), pa.int64()),
                         "hl": pa.array(np.concatenate(ls), pa.float64())})

    head_tbl = length.map_batches(head_l, batch_format="pyarrow").to_pandas()
    l_head = dict(zip(head_tbl["hgid"].astype(np.int64), head_tbl["hl"].astype(np.float64)))

    ups = _ups_map(links)
    max_head_l: dict[int, float] = {}
    for lk in _topo_order_links(links):
        lid = lk["link_id"]
        u = ups.get(lid, [])
        if u:
            max_head_l[lid] = max(max_head_l[x] for x in u)
        else:
            hg = lk["cells"][0][0] * W + lk["cells"][0][1]
            max_head_l[lid] = float(l_head.get(hg, 0.0))

    max_lid = max(max_head_l) if max_head_l else 0
    lut = np.zeros(max_lid + 1)
    for lid, v in max_head_l.items():
        lut[lid] = v
    nod = spec.nodata

    def far(lid_g, ln):
        lid = np.clip(lid_g.astype(np.int64), 0, max_lid)
        return np.where(lid_g > 0, np.maximum(lut[lid] - ln, 0.0), nod)

    return band_math.overlay_fn(painted, length, spec, far, out_fmt="f64")


def _link_peel_ds(links_ds, agg_fn, leaf_val: float, n_buckets: int = 2):
    """Topological peel over the Dataset link DAG: round r resolves every
    link whose upstream links are all resolved (heads in round 1), via a
    bucketed join of edges against the resolved table + a groupby on the
    downstream id. Rounds = junction depth of the network (Horton ratios
    keep that ~log(#links) for natural drainage); each round touches only
    O(links) rows. ``agg_fn(vals: np.ndarray) -> float`` combines resolved
    upstream values."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .joins import hash_join_bucketed

    base = links_ds.map_batches(
        lambda b: pa.table({"link_id": b["link_id"].cast(pa.int64()),
                            "ds_link": b["ds_link"].cast(pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    total = base.count()

    def edge_rows(b: pa.Table) -> pa.Table:
        m = b.filter(pc.greater_equal(b["ds_link"], 0))
        return pa.table({"up": m["link_id"], "down": m["ds_link"]})

    edges = base.map_batches(edge_rows, batch_format="pyarrow").materialize()
    ups_n = edges.groupby("down").count().map_batches(
        lambda b: pa.table({"nid": b["down"], "ups_n": b["count()"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    with_n = hash_join_bucketed(base, ups_n, key="link_id", right_key="nid", how="left",
                                num_buckets=n_buckets)

    def seed(g: pd.DataFrame):
        heads = g[g["ups_n"].isna()]
        return pa.table({"link_id": pa.array(heads["link_id"].to_numpy(np.int64)),
                         "val": pa.array(np.full(len(heads), leaf_val))})

    # heads resolve immediately (no shuffle key needed — row-local filter)
    resolved = with_n.map_batches(seed, batch_format="pandas").materialize()
    n_need = with_n.map_batches(
        lambda g: pd.DataFrame({"nid": g[g["ups_n"].notna()]["link_id"].astype(np.int64),
                                "need": g[g["ups_n"].notna()]["ups_n"].astype(np.int64)}),
        batch_format="pandas",
    ).materialize()
    done = resolved.count()
    while done < total:
        contrib = hash_join_bucketed(edges, resolved, key="up", right_key="link_id",
                                     how="inner", num_buckets=n_buckets)

        def stat(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"nid": [int(g["down"].iloc[0])],
                                 "n_res": [len(g)],
                                 "val": [float(agg_fn(g["val"].to_numpy()))]})

        stats = contrib.groupby("down").map_groups(stat, batch_format="pandas")
        ready = hash_join_bucketed(stats, n_need, key="nid", how="inner",
                                   num_buckets=n_buckets)

        def pick(g: pd.DataFrame) -> pd.DataFrame:
            m = g[g["n_res"] == g["need"]]
            return pd.DataFrame({"link_id": m["nid"].astype(np.int64),
                                 "val": m["val"].astype(np.float64),
                                 "new": np.ones(len(m), dtype=bool)})

        new_rows = ready.map_batches(pick, batch_format="pandas")
        # drop already-resolved ids (their stats recompute every round) —
        # anti-join probes a MARKER column: the join key itself is
        # consumed by the merge, so it can't be the null probe
        merged = hash_join_bucketed(
            new_rows,
            resolved.map_batches(
                lambda b: pd.DataFrame({"rid": b["link_id"].astype(np.int64),
                                        "seen": np.ones(len(b), dtype=np.float64)}),
                batch_format="pandas",
            ),
            key="link_id", right_key="rid", how="left", num_buckets=n_buckets,
        )

        def only_fresh(g: pd.DataFrame):
            m = g[g["seen"].isna()] if "seen" in g.columns else g
            return pa.table({"link_id": pa.array(m["link_id"].to_numpy(np.int64)),
                             "val": pa.array(m["val"].to_numpy(np.float64))})

        fresh = merged.map_batches(only_fresh, batch_format="pandas")
        # from_arrow_refs: blocks stay in the object store; the rebuild
        # cuts Ray Data's per-round stats lineage, whose parent chain
        # otherwise deepens every round until a RecursionError
        import ray.data as rd

        resolved = rd.from_arrow_refs(
            resolved.union(fresh).materialize().to_arrow_refs()
        )
        new_done = resolved.count()
        if new_done == done:
            raise RuntimeError("link DAG peel made no progress (cycle in ds_link?)")
        done = new_done
    return resolved


def strahler_order_links_ds(links_ds):
    """StrahlerStreamOrder on the DATASET link table (strahler_order.rs):
    heads 1; a link takes max upstream order, +1 when >=2 ups share that
    max. Returns Dataset[link_id, val]. For link tables that outgrow the
    driver — the small-scene path is ``strahler_order(links list)``. Per
    round: O(links) rows through 3 bucketed joins; raise ``n_buckets``
    toward #blocks at continental scale (2 keeps scheduling overhead low
    on small tables)."""

    def agg(vals: np.ndarray) -> float:
        m = vals.max()
        return m + 1.0 if (vals == m).sum() >= 2 else m

    return _link_peel_ds(links_ds, agg, leaf_val=1.0)


def shreve_magnitude_links_ds(links_ds):
    """ShreveStreamMagnitude on the DATASET link table
    (shreve_magnitude.rs): heads 1; links sum upstream magnitudes."""
    return _link_peel_ds(links_ds, lambda v: float(v.sum()), leaf_val=1.0)


def find_main_stem(links: list[dict]) -> set[int]:
    """FindMainStem (find_main_stem.rs): link ids on the trunk path from
    each outlet, following the furthest-upstream-distance rule."""
    trunk = _trunk_child(links)
    main: set[int] = set()
    for lk in links:
        if lk["ds_link"] == -1:
            lid = lk["link_id"]
            while lid is not None:
                main.add(lid)
                lid = trunk.get(lid)
    return main


def tributary_identifier(links: list[dict]) -> dict[int, int]:
    """TributaryIdentifier (tributary_id.rs): links on the same
    tributary (trunk continuation) share an id; each non-trunk upstream
    link starts a new tributary id (ids 1..n in outlet-first order)."""
    trunk = _trunk_child(links)
    trib: dict[int, int] = {}
    next_id = 1
    for lk in reversed(_topo_order_links(links)):
        lid = lk["link_id"]
        ds = lk["ds_link"]
        if ds == -1 or trunk.get(ds) != lid:
            trib[lid] = next_id
            next_id += 1
        else:
            trib[lid] = trib[ds]
    return trib


def remove_short_streams(links: list[dict], min_length: float) -> list[dict]:
    """RemoveShortStreams (remove_short_streams.rs): drop HEADWATER links
    shorter than ``min_length`` (interior links always stay)."""
    ups = _ups_map(links)
    return [
        lk
        for lk in links
        if ups.get(lk["link_id"]) or lk["length"] >= min_length
    ]


def stream_link_class(links: list[dict]) -> dict[int, int]:
    """StreamLinkClass (stream_link_class.rs link-level form): exterior
    (headwater) links = 1, interior links = 2. (Cell-level node codes:
    3 head, 4 junction, 5 outlet — see the reference's per-cell pass.)"""
    ups = _ups_map(links)
    return {lk["link_id"]: (1 if not ups.get(lk["link_id"]) else 2) for lk in links}


def max_branch_length(links: list[dict]) -> dict[int, float]:
    """MaxBranchLength-style metric on links: the longest upstream
    channel path THROUGH each link (updist + own length)."""
    updist = upstream_channel_distance(links)
    return {lk["link_id"]: updist[lk["link_id"]] + lk["length"] for lk in links}


# ---------------------------------------------------------------------------
# Dataset-native stream network (round 2): the raster-sized inputs stay
# Datasets end to end; only the STREAM-CELL table (O(channel cells) —
# 1-5% of the raster) reaches the driver, where the link walk is pure
# graph work. At basin-spanning scale the same walk runs on the
# terminal-resolution shards; the driver form is the documented
# small-graph path.
# ---------------------------------------------------------------------------


def stream_link_slope_ds(links: list[dict], dem_ds, spec) -> dict[int, float]:
    """StreamLinkSlope (stream_link_slope.rs), Dataset form — the
    registered surface: (z_top − z_bottom) / link length. The DEM stays
    a tile Dataset; z at the O(links) head/terminal cells gathers in one
    filtered pass (broadcast gid set), same pattern as
    ``farthest_channel_head_ds``."""
    import ray
    import pyarrow as pa

    W = spec.tiles_x * spec.tile_px
    tpx = spec.tile_px
    gids = set()
    for lk in links:
        gids.add(lk["cells"][0][0] * W + lk["cells"][0][1])
        gids.add(lk["cells"][-1][0] * W + lk["cells"][-1][1])
    gid_ref = ray.put(np.array(sorted(gids), dtype=np.int64))

    def gather(batch):
        hg = ray.get(gid_ref)
        gs_, zs_ = [], []
        for i in range(batch.num_rows):
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            sel = hg[(hg // W // tpx == tr) & ((hg % W) // tpx == tc)]
            if not len(sel):
                continue
            g = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            gs_.append(sel)
            zs_.append(g[sel // W - tr * tpx, sel % W - tc * tpx])
        if not gs_:
            return pa.table({"gid": pa.array([], pa.int64()),
                             "z": pa.array([], pa.float64())})
        return pa.table({"gid": pa.array(np.concatenate(gs_), pa.int64()),
                         "z": pa.array(np.concatenate(zs_).astype(np.float64), pa.float64())})

    tbl = dem_ds.map_batches(gather, batch_format="pyarrow").to_pandas()
    z_of = dict(zip(tbl["gid"].astype(np.int64), tbl["z"].astype(np.float64)))
    out = {}
    for lk in links:
        hg = lk["cells"][0][0] * W + lk["cells"][0][1]
        tg = lk["cells"][-1][0] * W + lk["cells"][-1][1]
        out[lk["link_id"]] = (
            (z_of.get(hg, 0.0) - z_of.get(tg, 0.0)) / lk["length"] if lk["length"] > 0 else 0.0
        )
    return out


def raster_streams_to_vector_ds(stream_ds, pointer_ds, spec, num_workers: int = 4):
    """RasterStreamsToVector (raster_streams_to_vector.rs), Dataset form —
    the registered surface. Each link's cell run becomes a polyline
    through the cell centers (FID = link id), with the whole composition
    distributed: painted link ids (links_table_ds) zip with the
    terminal-resolution flowpath length L, cells group by link id, and
    within a link the run order is L DESCENDING (L strictly decreases
    one step-length per cell downstream, so descending L is exactly
    head -> terminal walk order). Returns a Dataset of polyline records
    (record_id, parts, xs, ys, ds_link, length)."""
    import pyarrow as pa

    from .hydro2 import _term_acc_ds
    from .bsp import combine_tile_layers
    from .joins import hash_join_bucketed

    painted, link_ds = links_table_ds(stream_ds, pointer_ds, spec)
    length, _w = _term_acc_ds(pointer_ds, spec, num_workers)
    combined = combine_tile_layers(spec, lk=painted, ln=length)
    gs = spec.grid_spec()
    tpx, tiles_x = spec.tile_px, spec.tiles_x
    W = tiles_x * tpx

    def cells(batch: pa.Table) -> pa.Table:
        lids, rr, cc, ll = [], [], [], []
        for i in range(batch.num_rows):
            lk = codecs.decode_tile(batch["lk"][i].as_py(), batch["lk_fmt"][i].as_py())
            ln = codecs.decode_tile(batch["ln"][i].as_py(), batch["ln_fmt"][i].as_py())
            tr = int(batch["tile_row"][i].as_py())
            tc = int(batch["tile_col"][i].as_py())
            r_idx, c_idx = np.nonzero(lk > 0)
            lids.append(lk[r_idx, c_idx].astype(np.int64))
            rr.append(r_idx.astype(np.int64) + tr * tpx)
            cc.append(c_idx.astype(np.int64) + tc * tpx)
            ll.append(ln[r_idx, c_idx])
        if not lids:
            return pa.table({"link_id": pa.array([], pa.int64()),
                             "row": pa.array([], pa.int64()),
                             "col": pa.array([], pa.int64()),
                             "L": pa.array([], pa.float64())})
        return pa.table({"link_id": pa.array(np.concatenate(lids), pa.int64()),
                         "row": pa.array(np.concatenate(rr), pa.int64()),
                         "col": pa.array(np.concatenate(cc), pa.int64()),
                         "L": pa.array(np.concatenate(ll), pa.float64())})

    rows = combined.map_batches(cells, batch_format="pyarrow")
    meta = link_ds.map_batches(
        lambda b: pa.table({"mid": b["link_id"].cast(pa.int64()),
                            "ds_link": b["ds_link"].cast(pa.int64()),
                            "length": b["length"].cast(pa.float64())}),
        batch_format="pyarrow",
    )
    joined = hash_join_bucketed(rows, meta, key="link_id", right_key="mid", how="inner")

    def per_link(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("L", ascending=False, kind="mergesort")
        xs = gs.x_from_col(g["col"].to_numpy(np.int64)).tolist()
        ys = gs.y_from_row(g["row"].to_numpy(np.int64)).tolist()
        return pd.DataFrame({
            "record_id": [int(g["link_id"].iloc[0])],
            "parts": [[0]],
            "xs": [xs],
            "ys": [ys],
            "ds_link": [int(g["ds_link"].iloc[0])],
            "length": [float(g["length"].iloc[0])],
        })

    return joined.groupby("link_id").map_groups(per_link, batch_format="pandas")


def stream_cell_rows(stream_ds, pointer_ds, spec):
    """One keyed zip + halo pass → stream-cell rows
    (gid, ptr_dir, inflow, down_gid, down_is_stream).

    inflow counts INFLOWING STREAM neighbours (needs each neighbour's
    pointer + stream flag — recovered from a 1-cell halo on both
    layers)."""
    import pandas as pd
    import pyarrow as pa

    from .bsp import combine_tile_layers
    from .focal import _assemble_padded, _emit_tile_and_margins

    tpx = spec.tile_px
    tiles_x, tiles_y = spec.tiles_x, spec.tiles_y
    W = tiles_x * tpx
    H = tiles_y * tpx
    INFLOW_OF = np.array([4, 5, 6, 7, 0, 1, 2, 3], dtype=np.int8)

    combined = combine_tile_layers(spec, st=stream_ds, pt=pointer_ds)

    # re-encode the pair as a single complex payload for the halo pass:
    # value = stream_flag * 16 + (ptr + 2)  (ptr in [-2, 7] → [0, 9])
    def pack(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            st = codecs.decode_tile(batch["st"][i].as_py(), batch["st_fmt"][i].as_py())
            pt = codecs.decode_tile(batch["pt"][i].as_py(), batch["pt_fmt"][i].as_py() or "i8")
            packed = (st == 1.0).astype(np.float64) * 16.0 + (pt.astype(np.float64) + 2.0)
            outs.append(codecs.encode_tile(packed, "f32"))
        return pa.table(
            {
                "tile_row": batch["tile_row"],
                "tile_col": batch["tile_col"],
                "bytes": pa.array(outs, pa.binary()),
                "fmt": pa.array(["f32"] * batch.num_rows, pa.string()),
            }
        )

    packed_ds = combined.map_batches(pack, batch_format="pyarrow")
    margins = packed_ds.map_batches(
        lambda b: _emit_tile_and_margins(b, 1, tiles_x, tiles_y), batch_format="pyarrow"
    )

    def per_tile(g: pd.DataFrame) -> pd.DataFrame:
        tkey, pad = _assemble_padded(g, 1, tpx, 0.0)
        trow, tcol = tkey // tiles_x, tkey % tiles_x
        stream = pad >= 16.0
        ptr = np.round(pad % 16.0).astype(np.int8) - 2
        core_s = stream[1:-1, 1:-1]
        if not core_s.any():
            return pd.DataFrame(
                {"gid": [], "ptr": [], "inflow": [], "down_gid": [], "down_is_stream": []}
            )
        inflow = np.zeros((tpx, tpx), dtype=np.int8)
        for i in range(8):
            np_n = ptr[1 + DY8[i] : 1 + DY8[i] + tpx, 1 + DX8[i] : 1 + DX8[i] + tpx]
            ns_n = stream[1 + DY8[i] : 1 + DY8[i] + tpx, 1 + DX8[i] : 1 + DX8[i] + tpx]
            inflow += ((np_n == INFLOW_OF[i]) & ns_n).astype(np.int8)
        rr, cc = np.nonzero(core_s)
        gr = rr + trow * tpx
        gc = cc + tcol * tpx
        d = ptr[1:-1, 1:-1][rr, cc].astype(np.int64)
        nr = gr + np.where(d >= 0, DY8[np.clip(d, 0, 7)], 0)
        nc = gc + np.where(d >= 0, DX8[np.clip(d, 0, 7)], 0)
        inb = (d >= 0) & (nr >= 0) & (nr < H) & (nc >= 0) & (nc < W)
        down_gid = np.where(inb, nr * W + nc, -1)
        # downstream stream-ness readable from the padded halo
        dis = np.zeros(len(rr), dtype=bool)
        ok = d >= 0
        dis[ok] = stream[1 + rr[ok] + DY8[d[ok]], 1 + cc[ok] + DX8[d[ok]]]
        return pd.DataFrame(
            {
                "gid": gr.astype(np.int64) * W + gc,
                "ptr": d,
                "inflow": inflow[rr, cc].astype(np.int64),
                "down_gid": down_gid.astype(np.int64),
                "down_is_stream": dis & inb,
            }
        )

    return margins.groupby("tkey").map_groups(per_tile, batch_format="pandas")


def stream_links_ds(stream_ds, pointer_ds, spec):
    """Dataset-native link identification — (painted raster Dataset,
    links LIST). Thin wrapper over ``links_table_ds`` that pulls the
    O(links) table to the driver for the SURVEY-sanctioned small-scene
    link-DAG walks."""
    painted, link_ds = links_table_ds(stream_ds, pointer_ds, spec)
    W = spec.tiles_x * spec.tile_px
    link_tbl = link_ds.to_pandas()
    links = [
        {
            "link_id": int(r.link_id),
            "cells": [(int(r.head_gid) // W, int(r.head_gid) % W),
                      (int(r.term_gid) // W, int(r.term_gid) % W)],
            "length": float(r.length),
            "ds_link": int(r.ds_link),
        }
        for r in link_tbl.itertuples()
    ]
    return painted, links


def links_table_ds(stream_ds, pointer_ds, spec):
    """Dataset-native link identification with NO O(stream cells) driver
    materialization. Returns (link_id_ds — painted raster Dataset,
    links_ds — Dataset[link_id, length, ds_link, head_gid, term_gid])
    — BOTH stay distributed; continental-scale link tables never touch
    the driver (pair with ``strahler_order_links_ds`` /
    ``shreve_magnitude_links_ds``).

    Phases (all Dataset ops):
      1. ``stream_cell_rows`` — per-cell (gid, ptr, inflow, down_gid,
         down_is_stream), distributed halo extraction;
      2. run roots: every non-start cell (inflow==1) has a unique
         upstream run predecessor → pointer-doubling root resolution
         (``dedup.functional_roots``, O(log run length) rounds);
      3. link ids = 1 + rank of start gid (order index,
         ``ordering.zip_with_order_index`` — matches the reference's
         scan-order numbering);
      4. per-link length / ds_link by native groupby aggregates on the
         labeled cell table;
      5. paint: labeled cells co-shuffle with blank tile rows on the
         tile key (``groupby(tkey)``) — never a driver broadcast of the
         cell set."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .dedup import functional_roots
    from .joins import hash_join_bucketed
    from .ordering import zip_with_order_index

    W = spec.tiles_x * spec.tile_px
    tpx = spec.tile_px
    # join parallelism sized to the scene: stream cells are ~1-3% of
    # cells; small gate scenes are pure scheduling overhead at the
    # default 32 buckets (measured 22 s -> a few s at 64x64)
    nb = int(min(max(spec.rows * spec.columns // 500_000, 4), 256))
    diag = float(np.sqrt(2.0) * spec.res)
    lengths = np.array([diag, spec.res, diag, spec.res, diag, spec.res, diag, spec.res])

    def annotate(batch):
        ptr = batch["ptr"].to_numpy(zero_copy_only=False).astype(np.int64)
        inflow = batch["inflow"].to_numpy(zero_copy_only=False).astype(np.int64)
        dis = batch["down_is_stream"].to_numpy(zero_copy_only=False)
        cont = (ptr >= 0) & dis
        is_start = (inflow == 0) | (inflow >= 2)
        len_c = np.where(cont, lengths[np.clip(ptr, 0, 7)], 0.0)
        return pa.table(
            {
                "gid": batch["gid"],
                "ptr": batch["ptr"],
                "down_gid": batch["down_gid"],
                "cont": pa.array(cont),
                "is_start": pa.array(is_start),
                "len_c": pa.array(len_c, pa.float64()),
            }
        )

    cells = (
        stream_cell_rows(stream_ds, pointer_ds, spec)
        .map_batches(annotate, batch_format="pyarrow")
        .materialize()
    )

    # 2. parent pointers: starts self-parent; run continuations u→down
    #    give the down cell (inflow==1, non-start) its unique parent
    def self_parents(b: pa.Table) -> pa.Table:
        m = b.filter(b["is_start"])
        return pa.table({"node": m["gid"], "parent": m["gid"]})

    def cont_edges(b: pa.Table) -> pa.Table:
        m = b.filter(b["cont"])
        return pa.table({"child": m["down_gid"], "parent_gid": m["gid"]})

    non_start = cells.map_batches(
        lambda b: pa.table({"k": (m := b.filter(pc.invert(b["is_start"])))["gid"],
                            "node_": m["gid"]}),
        batch_format="pyarrow",
    )
    edges = cells.map_batches(cont_edges, batch_format="pyarrow")
    child_parents = hash_join_bucketed(
        non_start, edges, key="k", right_key="child", how="inner", num_buckets=nb
    ).map_batches(
        lambda b: pa.table({"node": b["node_"], "parent": b["parent_gid"]}),
        batch_format="pyarrow",
    )
    parents = cells.map_batches(self_parents, batch_format="pyarrow").union(child_parents)
    roots = functional_roots(parents)  # (node → root), root = run start

    # 3. link ids: rank of start gid in ascending order (+1)
    starts = cells.map_batches(
        lambda b: pa.table({"sgid": b.filter(b["is_start"])["gid"]}),
        batch_format="pyarrow",
    )
    # rank is 1-based (start=1 default) → link_id = rank directly
    start_ids = zip_with_order_index(starts, "sgid", "rank").map_batches(
        lambda b: pa.table({"root_k": b["sgid"], "link_id": b["rank"]}),
        batch_format="pyarrow",
    )

    # the (root gid → link id) map is O(links) — BROADCAST it instead of
    # two extra bucketed joins (the remaining joins are the genuinely
    # large–large ones on the O(stream cells) tables). At 10^7+ links
    # this dict is ~hundreds of MB in the object store, still one put.
    import ray as _ray

    sid = start_ids.to_pandas()
    lut_ref = _ray.put(dict(zip(sid["root_k"].astype(np.int64),
                                sid["link_id"].astype(np.int64))))

    def add_link_id(b: pd.DataFrame) -> pd.DataFrame:
        lut = _ray.get(lut_ref)
        b["link_id"] = b["root"].map(lut).astype(np.int64)
        return b

    labeled = (
        hash_join_bucketed(cells, roots, key="gid", right_key="node",
                           how="inner", num_buckets=nb)
        .map_batches(add_link_id, batch_format="pandas")
        .materialize()
    )

    # 4. per-link aggregates: length, head (root gid), terminal cell +
    #    downstream link. Terminal: cont==false OR down in another run.
    down_roots = roots.map_batches(
        lambda b: pa.table({"dk": b["node"], "down_root": b["root"]}),
        batch_format="pyarrow",
    )
    with_down = hash_join_bucketed(
        labeled, down_roots, key="down_gid", right_key="dk", how="left", num_buckets=nb
    )

    # left-join misses leave NaN in the int key; sentinel −1 keeps the
    # dtypes plain (no start has gid −1); the downstream LINK id comes
    # from the broadcast lut, NaN where the run has no downstream link
    def add_down_link(b: pd.DataFrame) -> pd.DataFrame:
        lut = _ray.get(lut_ref)
        b["down_root"] = b["down_root"].fillna(-1).astype(np.int64)
        b["down_link"] = b["down_root"].map(lut)
        return b

    with_down = with_down.map_batches(add_down_link, batch_format="pandas")

    def per_link(g: pd.DataFrame) -> pd.DataFrame:
        lid = int(g["link_id"].iloc[0])
        head = int(g["root"].iloc[0])
        length = float(g["len_c"].sum())
        term = g[(~g["cont"]) | (g["down_root"].isna()) | (g["down_root"] != g["root"])]
        ds_link = -1
        tg = head
        if len(term):
            t = term.iloc[0]
            tg = int(t["gid"])
            if bool(t["cont"]) and pd.notna(t["down_link"]) and int(t["down_link"]) != lid:
                ds_link = int(t["down_link"])
        return pd.DataFrame(
            {"link_id": [lid], "length": [length], "ds_link": [ds_link],
             "head_gid": [head], "term_gid": [tg]}
        )

    link_ds = with_down.groupby("link_id").map_groups(per_link, batch_format="pandas")

    # 5. paint: labeled cells + one blank row per tile, co-shuffled on tkey
    def cell_tkeys(b: pa.Table) -> pa.Table:
        g = b["gid"].to_numpy(zero_copy_only=False).astype(np.int64)
        tk = (g // W // tpx) * spec.tiles_x + (g % W) // tpx
        return pa.table(
            {"tkey": pa.array(tk, pa.int64()), "gid": b["gid"],
             "link_id": b["link_id"].cast(pa.int64())}
        )

    def blank_rows(b: pa.Table) -> pa.Table:
        tr = b["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64)
        tc = b["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"tkey": pa.array(tr * spec.tiles_x + tc, pa.int64()),
             "gid": pa.array(np.full(len(tr), -1), pa.int64()),
             "link_id": pa.array(np.zeros(len(tr)), pa.int64())}
        )

    def paint(g: pd.DataFrame) -> pd.DataFrame:
        tk = int(g["tkey"].iloc[0])
        tr, tc = tk // spec.tiles_x, tk % spec.tiles_x
        grid = np.zeros((tpx, tpx))
        m = g[g["gid"] >= 0]
        gg = m["gid"].to_numpy(dtype=np.int64)
        grid[gg // W - tr * tpx, gg % W - tc * tpx] = m["link_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {"tile_row": [tr], "tile_col": [tc],
             "bytes": [codecs.encode_tile(grid, "f32")], "fmt": ["f32"]}
        )

    painted = (
        labeled.map_batches(cell_tkeys, batch_format="pyarrow")
        .union(stream_ds.map_batches(blank_rows, batch_format="pyarrow"))
        .groupby("tkey")
        .map_groups(paint, batch_format="pandas")
    )
    return painted, link_ds


def extract_streams_ds(accum_ds, spec, threshold: float, zero_background: bool = False):
    """ExtractStreams, Dataset-native (extract_streams.rs:254-259):
    accumulation STRICTLY ABOVE threshold → 1; background is NODATA
    unless ``zero_background`` (the reference's --zero_background)."""
    import pyarrow as pa

    nodata = spec.nodata
    bg = 0.0 if zero_background else nodata

    def fn(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            a = codecs.decode_tile(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            o = np.where(a == nodata, nodata, np.where(a > threshold, 1.0, bg))
            outs.append(codecs.encode_tile(o, "f32"))
        return pa.table(
            {
                "tile_row": batch["tile_row"],
                "tile_col": batch["tile_col"],
                "bytes": pa.array(outs, pa.binary()),
                "fmt": pa.array(["f32"] * batch.num_rows, pa.string()),
            }
        )

    return accum_ds.map_batches(fn, batch_format="pyarrow")
