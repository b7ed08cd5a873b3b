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

    @staticmethod
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


class _MarginStore:
    """Actor holding the secondary-layer payloads of a
    ``combine_tile_layers`` zip for the tiles hashed to it. Puts are
    idempotent ((tile, layer) overwrites), so a re-executed push stage
    cannot register a payload twice."""

    def __init__(self):
        self._packs: dict[int, dict[int, tuple[bytes, str]]] = {}

    def put(self, items: list[tuple[int, int, bytes, str]]) -> int:
        for tkey, li, data, fmt in items:
            self._packs.setdefault(tkey, {})[li] = (data, fmt)
        return len(items)

    def get(self, tkeys: list[int]) -> dict[int, dict[int, tuple[bytes, str]]]:
        return {k: self._packs.get(k, {}) for k in tkeys}


def combine_tile_layers(spec, **layers):
    """Zip N tile Datasets on (tile_row, tile_col) into one Dataset with
    a bytes column per layer name. Each input must be
    Dataset[tile_row, tile_col, bytes, fmt]; output rows carry
    ``<name>`` bytes columns (payloads keep their original fmt strings
    in ``<name>_fmt``), int32 tile keys and no schema metadata.

    The FIRST layer's blocks stream through in place. Every other layer
    pushes (tile, layer index, bytes, fmt) once into a small pool of
    store actors, with a ``materialize()`` barrier per secondary layer,
    so every payload is registered before any first-layer block pulls.
    This moves N−1 of N layers exactly once and pays no union fan-in or
    groupby sort. It is the only zip: measured with 2 f32 layers on 2
    Ray CPUs of a 4-vCPU host, it was as fast as a union + ``groupby``
    zip or faster at every size tried (16 tiles: 1.3–1.5 s against
    1.9–2.6 s; 256 tiles in ~200 blocks: 6.0–7.5 s against 119–129 s;
    1024 tiles in 64 blocks: 3.2–3.8 s against 21 s).

    Precondition: every output tile is in the first layer — true for
    all engine callers, where each layer is a per-tile map over the
    same scene tiling. A tile missing from a secondary layer gets a
    ``b""`` payload and a ``""`` fmt; a tile only in a secondary layer
    is dropped. A one-layer call is a column rename and starts no
    actor. The pull closure holds the store handles, so the actors live
    as long as the returned Dataset can execute."""
    import ray

    names = list(layers)
    tiles_x = spec.tiles_x

    def keyed(batch: pa.Table, name: str) -> dict:
        return {
            "tile_row": batch["tile_row"].cast(pa.int32()),
            "tile_col": batch["tile_col"].cast(pa.int32()),
            name: batch["bytes"],
            name + "_fmt": batch["fmt"],
        }

    if len(names) == 1:
        return layers[names[0]].map_batches(
            lambda b: pa.table(keyed(b, names[0])), batch_format="pyarrow"
        )

    n_stores = max(1, min(64, spec.tiles_x * spec.tiles_y // 512 + 1))
    stores = [ray.remote(num_cpus=0)(_MarginStore).remote() for _ in range(n_stores)]

    def tile_keys(batch: pa.Table) -> list[int]:
        tr = batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64)
        tc = batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
        return (tr * tiles_x + tc).tolist()

    for li, name in enumerate(names[1:], start=1):
        def push(batch: pa.Table, li=li) -> pa.Table:
            per_store: dict[int, list] = {}
            for k, data, fmt in zip(tile_keys(batch), batch["bytes"].to_pylist(), batch["fmt"].to_pylist()):
                per_store.setdefault(k % n_stores, []).append((k, li, data, fmt))
            ray.get([stores[si].put.remote(items) for si, items in per_store.items()])
            return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

        layers[name].map_batches(push, batch_format="pyarrow").materialize()

    def pull(batch: pa.Table) -> pa.Table:
        tkeys = tile_keys(batch)
        per_store: dict[int, list[int]] = {}
        for k in tkeys:
            per_store.setdefault(k % n_stores, []).append(k)
        packs: dict[int, dict] = {}
        for res in ray.get([stores[si].get.remote(ks) for si, ks in per_store.items()]):
            packs.update(res)
        cols = keyed(batch, names[0])
        for li, name in enumerate(names[1:], start=1):
            hits = [packs[k].get(li, (b"", "")) for k in tkeys]
            cols[name] = pa.array([d for d, _ in hits], pa.binary())
            cols[name + "_fmt"] = pa.array([f for _, f in hits], pa.string())
        return pa.table(cols)

    return layers[names[0]].map_batches(pull, batch_format="pyarrow")
