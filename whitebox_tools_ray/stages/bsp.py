"""Generic BSP harness for iterative cross-tile operators (the IT
pattern, SURVEY.md §2.11): shard actors own tiles for the whole
computation; only small per-border messages cross shards between rounds.

This module is the only place that starts shard actors or runs a round
loop. Operators on ``run_bsp``: FillDepressions (``fill.FillShardDS``),
D8 accumulation (``flow.FlowShardDS``), CostDistance / CostAllocation /
CostBacklink (``cost.CostShardDS``), the multi-flow drains — FD8, D∞,
both mass fluxes, max/avg upslope flowpath length, trace
(``flow2.MultiFlowShardDS``) — and DownslopeIndex
(``hydro2._WalkShard``). Terminal resolution (``basins.TermShardDS``)
and the CostPathway tile store (``cost._TileStoreActor``) start their
shards through ``launch_shards`` and finish without rounds.

Dataset-native contract (no ``dict[tile_id → ndarray]`` driver mosaics):

- input tiles arrive as a ``ray.data.Dataset`` and stream INTO the shard
  actors via ``Dataset.split(n)`` — the driver never touches pixel data;
- per-round messages are tuples led by the tile they are bound for,
  routed worker→worker by a tile→shard map built from what each shard
  actually ingested;
- output tiles are written by each shard directly to partitioned parquet
  (one file per shard — the resumable layout) and handed back as a
  ``read_parquet`` Dataset.

Workers subclass :class:`ShardBase` and implement::

    load_tile(tid, batch, i) -> None   # keep row i of an ingest batch
    start() -> list[msg]               # initial messages
    push(msgs: list[msg]) -> list[msg] # one BSP round
    dump(path: str) -> None            # write shard parquet (_dump_tiles)

Sender order: round k's ``push`` input is what peers sent in round k−1,
concatenated in sending-shard order (shard 0's messages first), each
sender's messages in the order it sent them — not in arrival order.
That fixes every round's input for a given tile→shard layout. The
layout itself comes from ``Dataset.split`` and may differ between runs,
so an operator whose combine is not associative in floating point (the
multi-flow sums) must also not depend on it: ``MultiFlowShardDS`` keys
its messages by source tile and applies them sorted.

At 100 TB the per-round driver traffic is O(num shards), not O(scene)
— borders are ~2·tile_px floats per tile edge; pixel payloads never leave
the actors after ingest.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa

from ..kernels import codecs
from .focal import DX8, DY8

# tile-edge strip of a tile (frames out) and of its 1-cell ring (frames in),
# by offset -1 / 0 / +1 along one axis
_EDGE = {-1: slice(0, 1), 0: slice(None), 1: slice(-1, None)}
_RING = {-1: slice(0, 1), 0: slice(1, -1), 1: slice(-1, None)}


class _PeerMixin:
    """Worker→worker message plumbing composed onto any BSP worker class
    by ``run_bsp`` (workers duck-type start/push; this adds inbox +
    direct routing so border payloads never pass through the driver).

    Each delivery is tagged with the round it was sent in and the
    sender's shard index. Round k consumes only what was sent in round
    k−1, in sender order: a fast peer's round-k messages can reach a
    shard before that shard has run round k, and they wait for round
    k+1 instead of joining the wrong round."""

    def set_peers(self, peers: list, shard_of: dict[int, int], me: int):
        self._peers = peers
        self._shard_of = shard_of
        self._me = me
        self._round = 0
        self._inbox: dict[tuple[int, int], list] = {}  # (round sent, sender) → msgs

    def enqueue(self, sent: int, sender: int, msgs: list) -> bool:
        self._inbox.setdefault((sent, sender), []).extend(msgs)
        return True

    def _route(self, msgs: list):
        """Send messages straight to the owning peers; return (count,
        ack refs) for the driver's barrier. Self-sends go through the
        same handle (they queue behind this call — no deadlock, nothing
        here blocks on a peer). Messages bound for a tile no shard owns
        are dropped."""
        by: dict[int, list] = {}
        for m in msgs:
            sid = self._shard_of.get(m[0])
            if sid is not None:
                by.setdefault(sid, []).append(m)
        refs = [self._peers[sid].enqueue.remote(self._round, self._me, ms) for sid, ms in by.items()]
        return sum(len(ms) for ms in by.values()), refs

    def bsp_start(self):
        return self._route(self.start())

    def bsp_round(self):
        self._round += 1
        ready = sorted(k for k in self._inbox if k[0] < self._round)
        msgs = [m for k in ready for m in self._inbox.pop(k)]
        if not msgs:
            return 0, []
        return self._route(self.push(msgs))


def launch_shards(tiles_ds, worker_cls, worker_args: tuple, num_workers: int):
    """Start ``num_workers`` actors of ``worker_cls``, stream one split of
    ``tiles_ds`` into each (``ShardBase.ingest``), and return (actors,
    tile id → index of the actor that owns it)."""
    import ray

    Worker = ray.remote(worker_cls)
    workers = [Worker.remote(*worker_args) for _ in range(num_workers)]
    splits = tiles_ds.split(num_workers, locality_hints=workers)
    owned = ray.get([w.ingest.remote(s) for w, s in zip(workers, splits)])
    return workers, {tid: i for i, tids in enumerate(owned) for tid in tids}


def dump_shards(workers, out_dir: str | None, *args):
    """Have each shard write ``out_dir/shard_<i>.parquet`` with
    ``dump(path, *args)``, end the shard actors, and read the tiles back
    as one Dataset; a temporary directory when ``out_dir`` is None. The
    kill matters for ``run_bsp`` shards: each holds handles to all its
    peers, so they never go out of scope on their own."""
    import tempfile

    import ray
    import ray.data as rd

    out_dir = out_dir or tempfile.mkdtemp(prefix="bsp_")
    os.makedirs(out_dir, exist_ok=True)
    ray.get([w.dump.remote(os.path.join(out_dir, f"shard_{i}.parquet"), *args) for i, w in enumerate(workers)])
    for w in workers:
        ray.kill(w)
    return rd.read_parquet(out_dir)


def run_bsp(tiles_ds, worker_cls, worker_args: tuple, num_workers: int, out_dir: str | None = None):
    """Drive a BSP worker class over a tiles Dataset; returns the output
    tiles Dataset (read back from the shard parquet files).

    Border messages flow WORKER→WORKER: each shard routes its outbound
    messages straight to the owning peer's inbox (actor-to-actor calls,
    payloads through the object store), and the driver only collects a
    per-round routed-message count plus the delivery ack refs — O(num
    shards) driver traffic per round, not O(boundary cells). Deadlock
    freedom: a shard never blocks on a peer inside its own round — it
    returns the enqueue ack refs to the driver, which awaits them before
    launching the next round (so every message sent in round k is
    delivered before any shard starts round k+1)."""
    import ray

    host_cls = type(worker_cls.__name__, (_PeerMixin, worker_cls), {})
    workers, shard_of = launch_shards(tiles_ds, host_cls, worker_args, num_workers)
    ray.get([w.set_peers.remote(workers, shard_of, i) for i, w in enumerate(workers)])

    results = ray.get([w.bsp_start.remote() for w in workers])
    while True:
        ray.get([r for _, refs in results for r in refs])  # deliveries land
        if sum(n for n, _ in results) == 0:
            break
        results = ray.get([w.bsp_round.remote() for w in workers])
    return dump_shards(workers, out_dir)


def decode(batch: pa.Table, col: str, i: int, fmt: str | None = None):
    """Tile of column ``col`` in row ``i``, in the format its
    ``<col>_fmt`` column names (``fmt`` for ``bytes``), else ``fmt``;
    None for an empty payload."""
    data = batch[col][i].as_py()
    if not data:
        return None
    fcol = "fmt" if col == "bytes" else col + "_fmt"
    if fcol in batch.schema.names:
        fmt = batch[fcol][i].as_py() or fmt
    return codecs.decode_tile(data, fmt)


class ShardBase:
    """Tile-owning shard worker: ingest, D8 seam steps, border frames and
    the parquet dump that every BSP shard shares."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int):
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self._frames: dict[int, dict[int, tuple]] = {}  # tid → {rel → strips}

    def ingest(self, split_ds) -> list[int]:
        owned = []
        for batch in split_ds.iter_batches(batch_format="pyarrow", batch_size=64):
            trows = batch["tile_row"].to_numpy(zero_copy_only=False)
            tcols = batch["tile_col"].to_numpy(zero_copy_only=False)
            for i in range(batch.num_rows):
                tid = int(trows[i]) * self.tiles_x + int(tcols[i])
                self.load_tile(tid, batch, i)
                owned.append(tid)
        return owned

    def load_tile(self, tid: int, batch: pa.Table, i: int):  # pragma: no cover
        raise NotImplementedError

    def seam_step(self, tid: int, r: int, c: int, d: int):
        """(tile, row, col) of the D8 neighbour ``d`` of cell (r, c) of
        tile ``tid``, crossing into the next tile at a seam; None when
        the step leaves the scene."""
        t = self.tpx
        gr = (tid // self.tiles_x) * t + r + int(DY8[d])
        gc = (tid % self.tiles_x) * t + c + int(DX8[d])
        if 0 <= gr < self.tiles_y * t and 0 <= gc < self.tiles_x * t:
            return (gr // t) * self.tiles_x + gc // t, gr % t, gc % t
        return None

    def frames_out(self, tid: int, *grids: np.ndarray) -> list[tuple]:
        """Border frames of tile ``tid`` for each in-scene neighbour:
        (neighbour tid, rel, one edge strip per grid), where rel =
        3·(r+1) + (c+1) for the sender's tile offset (r, c) from the
        receiver."""
        tr, tc = tid // self.tiles_x, tid % self.tiles_x
        msgs = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                ntr, ntc = tr + dr, tc + dc
                if (dr or dc) and 0 <= ntr < self.tiles_y and 0 <= ntc < self.tiles_x:
                    strips = [g[_EDGE[dr], _EDGE[dc]].flatten() for g in grids]
                    msgs.append((ntr * self.tiles_x + ntc, (1 - dr) * 3 + (1 - dc), *strips))
        return msgs

    def frames_in(self, msgs, *fills) -> dict[int, list[np.ndarray]]:
        """Keep the frames in ``msgs`` (newest per tile and side) and
        return, per tile they touch, one (tpx+2)² ring per frame channel
        built from every frame held for that tile; ``fills[k]`` fills
        channel k where no frame has arrived."""
        touched = set()
        for tid, rel, *strips in msgs:
            self._frames.setdefault(tid, {})[rel] = strips
            touched.add(tid)
        rings = {}
        for tid in sorted(touched):
            ext = [np.full((self.tpx + 2, self.tpx + 2), f) for f in fills]
            for rel, strips in self._frames[tid].items():
                rs, cs = _RING[rel // 3 - 1], _RING[rel % 3 - 1]
                for e, strip in zip(ext, strips):
                    e[rs, cs] = strip.reshape(e[rs, cs].shape)
            rings[tid] = ext
        return rings

    def _dump_tiles(self, path: str, tiles: dict[int, np.ndarray], fmt: str = "f32"):
        import pyarrow.parquet as pq

        order = sorted(tiles)
        pq.write_table(
            pa.table(
                {
                    "tile_row": pa.array([tid // self.tiles_x for tid in order], pa.int32()),
                    "tile_col": pa.array([tid % self.tiles_x for tid in order], pa.int32()),
                    "bytes": pa.array(
                        [codecs.encode_tile(np.asarray(tiles[tid], dtype=np.float64), fmt) for tid in order],
                        pa.binary(),
                    ),
                    "fmt": pa.array([fmt] * len(order), pa.string()),
                }
            ),
            path,
        )


def _arrow(block) -> pa.Table:
    # to_arrow_refs converts no block when the Dataset's schema is Arrow,
    # so a layer that mixes Arrow and pandas blocks still yields DataFrames
    return block if isinstance(block, pa.Table) else pa.Table.from_pandas(block, preserve_index=False)


def _tile_keys(batch: pa.Table, tiles_x: int) -> np.ndarray:
    tr = batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64)
    tc = batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
    return tr * tiles_x + tc


def _block_keys(block, tiles_x: int) -> np.ndarray:
    block = _arrow(block)  # an empty block may have no columns at all
    return _tile_keys(block, tiles_x) if block.num_rows else np.zeros(0, np.int64)


def _key_index(name: str, tiles_x: int, *block_keys: np.ndarray):
    """(tile key, block, row) of every row of one layer's blocks, sorted
    by tile key; ValueError on a tile key that appears twice."""
    keys = np.concatenate([np.zeros(0, np.int64), *block_keys])
    blk = np.repeat(np.arange(len(block_keys)), [len(k) for k in block_keys])
    row = np.concatenate([np.zeros(0, np.int64)] + [np.arange(len(k)) for k in block_keys])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    dup = np.flatnonzero(np.diff(keys) == 0)
    if len(dup):
        k = int(keys[dup[0]])
        raise ValueError(f"tile ({k // tiles_x},{k % tiles_x}) appears twice in layer {name!r}")
    return keys, blk[order], row[order]


def combine_tile_layers(spec, **layers):
    """Zip N tile Datasets on (tile_row, tile_col) into one Dataset with
    a bytes column per layer name. Each secondary layer must be
    Dataset[tile_row, tile_col, bytes, fmt]; output rows carry the first
    layer's columns (a ``bytes``/``fmt`` pair on it renamed to
    ``<name>``/``<name>_fmt``), then ``<name>`` bytes + ``<name>_fmt``
    columns for every other layer (payloads keep their fmt strings),
    int32 tile keys and no schema metadata.

    The FIRST layer's blocks stream through in place. Every other layer
    is materialized once; one small task per block reads its tile keys
    and one task builds that layer's sorted (tile key, block, row)
    index, so the driver holds only object refs. Each first-layer batch
    then fetches the index and ``ray.get``s only the blocks that hold
    its keys. This moves N−1 of N layers once, starts no actor and pays
    no union fan-in or groupby sort. The n block refs of a layer sit in
    √n boxes: a task pays for every ref it unpickles (about 35 µs), and
    a batch opens only the boxes that hold its blocks.
    Measured with 2 materialized f32 layers of 64² tiles on 2 Ray CPUs
    of a 4-vCPU host, 5 runs a size, against the store-actor zip it
    replaced and a union + ``groupby`` zip (3 runs): 4 tiles in 1 block
    0.05–0.07 s (1.0–1.2 s, 0.13 s); 64 tiles in 1 block 0.06–0.08 s
    (1.0–1.4 s, 0.19–0.20 s); 256 tiles in 200 blocks 3.0–3.8 s
    (4.6–5.4 s, 60–66 s); 1024 tiles in 64 blocks 0.9–1.7 s (3.0–3.3 s,
    11.6–11.7 s).

    Precondition: every output tile is in the first layer — true for
    all engine callers, where each layer is a per-tile map over the
    same scene tiling. A tile missing from a secondary layer gets a
    ``b""`` payload and a ``""`` fmt; a tile only in a secondary layer
    is dropped; a tile twice in one secondary layer raises ValueError.
    A one-layer call is a column rename. The pull closure holds the
    block and index refs, so they live as long as the returned Dataset
    can execute."""
    import pyarrow.compute as pc
    import ray

    names = list(layers)
    tiles_x = spec.tiles_x
    rename = {"bytes": names[0], "fmt": names[0] + "_fmt"}

    block_keys = ray.remote(_block_keys)
    key_index = ray.remote(_key_index)
    sides = []
    for name in names[1:]:
        refs = layers[name].materialize().to_arrow_refs()
        index = key_index.remote(name, tiles_x, *[block_keys.remote(r, tiles_x) for r in refs])
        per = max(1, math.isqrt(len(refs)))
        sides.append((name, per, [ray.put(refs[i:i + per]) for i in range(0, len(refs), per)], index))

    def pull(batch: pa.Table) -> pa.Table:
        cols = {rename.get(c, c): batch[c] for c in batch.column_names}
        for c in ("tile_row", "tile_col"):
            cols[c] = batch[c].cast(pa.int32())
        keys = _tile_keys(batch, tiles_x)
        for name, per, boxes, index in sides:
            skeys, sblk, srow = ray.get(index)
            at = np.searchsorted(skeys, keys)
            hit = np.flatnonzero(at < len(skeys))
            hit = hit[skeys[at[hit]] == keys[hit]]
            hb, hr = sblk[at[hit]], srow[at[hit]]
            need = np.unique(hb)
            groups = np.unique(need // per)
            opened = dict(zip(groups, ray.get([boxes[g] for g in groups])))
            blocks = ray.get([opened[b // per][b % per] for b in need])
            pieces = [_arrow(t).select(["bytes", "fmt"]).take(hr[hb == b]) for b, t in zip(need, blocks)]
            src = np.full(len(keys), -1)
            src[hit[np.argsort(hb, kind="stable")]] = np.arange(len(hit))
            idx = pa.array(src, mask=src < 0)
            for col, out, typ, empty in (("bytes", name, pa.binary(), b""),
                                         ("fmt", name + "_fmt", pa.string(), "")):
                arr = pa.chunked_array([p[col].cast(typ) for p in pieces], typ).take(idx)
                cols[out] = pc.fill_null(arr, pa.scalar(empty, typ))
        return pa.table(cols)

    return layers[names[0]].map_batches(pull, batch_format="pyarrow")
