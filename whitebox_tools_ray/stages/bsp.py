"""Generic BSP harness for iterative cross-tile operators (the IT
pattern, SURVEY.md §2.11): shard actors own tiles for the whole
computation; only small per-border messages cross shards between rounds.

Dataset-native contract (VERDICT r1 item 2 — no ``dict[tile_id →
ndarray]`` driver mosaics):

- input tiles arrive as a ``ray.data.Dataset`` and stream INTO the shard
  actors via ``Dataset.split(n)`` — the driver never touches pixel data;
- per-round messages are (tile_id, small payload) tuples routed by a
  tile→shard map built from what each shard actually ingested;
  amounts aggregate per destination before routing (skew control);
- output tiles are written by each shard directly to partitioned parquet
  (one file per shard — the resumable layout) and handed back as a
  ``read_parquet`` Dataset.

Workers implement::

    load(batches: list[pyarrow.Table]) -> list[int]   # owned tile_ids
    start() -> list[msg]                              # initial messages
    push(msgs: list[msg]) -> list[msg]                # one BSP round
    dump(out_path: str) -> None                       # write shard parquet

At 100 TB the per-round driver traffic is O(boundary cells), not O(scene)
— borders are ~2·tile_px floats per tile edge; pixel payloads never leave
the actors after ingest.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..kernels import codecs

TILE_OUT_SCHEMA = pa.schema(
    [
        ("tile_row", pa.int32()),
        ("tile_col", pa.int32()),
        ("bytes", pa.binary()),
        ("fmt", pa.string()),
    ]
)


class _PeerMixin:
    """Worker→worker message plumbing composed onto any BSP worker class
    by ``run_bsp`` (workers duck-type start/push; this adds inbox +
    direct routing so border payloads never pass through the driver)."""

    def set_peers(self, peers: list, shard_of: dict[int, int]):
        self._peers = peers
        self._shard_of = shard_of
        self._inbox: list = []

    def enqueue(self, msgs: list) -> bool:
        self._inbox.extend(msgs)
        return True

    def _route(self, msgs: list):
        """Send messages straight to the owning peers; return (count,
        ack refs) for the driver's barrier. Self-sends go through the
        same handle (they queue behind this call — no deadlock, nothing
        here blocks on a peer)."""
        by: dict[int, list] = {}
        for m in msgs:
            sid = self._shard_of.get(m[0])
            if sid is not None:
                by.setdefault(sid, []).append(m)
        refs = [self._peers[sid].enqueue.remote(ms) for sid, ms in by.items()]
        return sum(len(ms) for ms in by.values()), refs

    def bsp_start(self):
        return self._route(self.start())

    def bsp_round(self):
        msgs, self._inbox = self._inbox, []
        if not msgs:
            return 0, []
        return self._route(self.push(msgs))


def run_bsp(tiles_ds, worker_cls, worker_args: tuple, num_workers: int, out_dir: str):
    """Drive a BSP worker class over a tiles Dataset; returns the output
    tiles Dataset (read back from the shard parquet files).

    Border messages flow WORKER→WORKER: each shard routes its outbound
    messages straight to the owning peer's inbox (actor-to-actor calls,
    payloads through the object store), and the driver only collects a
    per-round routed-message count plus the delivery ack refs — O(num
    shards) driver traffic per round, not O(boundary cells). Deadlock
    freedom: a shard never blocks on a peer inside its own round — it
    returns the enqueue ack refs to the driver, which awaits them before
    launching the next round (so every round-k message is delivered
    before any shard consumes its round-k inbox)."""
    import ray
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    host_cls = type(worker_cls.__name__, (_PeerMixin, worker_cls), {})
    Worker = ray.remote(host_cls)
    workers = [Worker.remote(*worker_args) for _ in range(num_workers)]
    splits = tiles_ds.split(num_workers, locality_hints=workers)
    owned = ray.get([w.ingest.remote(s) for w, s in zip(workers, splits)])
    shard_of = {tid: i for i, tids in enumerate(owned) for tid in tids}
    ray.get([w.set_peers.remote(workers, shard_of) for w in workers])

    results = ray.get([w.bsp_start.remote() for w in workers])
    while True:
        ray.get([r for _, refs in results for r in refs])  # deliveries land
        if sum(n for n, _ in results) == 0:
            break
        results = ray.get([w.bsp_round.remote() for w in workers])

    ray.get([w.dump.remote(os.path.join(out_dir, f"shard_{i}.parquet")) for i, w in enumerate(workers)])
    return rd.read_parquet(out_dir)


class ShardBase:
    """Common ingest/dump plumbing for tile-owning shard workers."""

    def __init__(self, tile_px: int, tiles_x: int, tiles_y: int):
        self.tpx = tile_px
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y

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

    def _dump_tiles(self, path: str, tiles: dict[int, np.ndarray], fmt: str = "f32"):
        import pyarrow.parquet as pq

        rows = {"tile_row": [], "tile_col": [], "bytes": [], "fmt": []}
        for tid in sorted(tiles):
            rows["tile_row"].append(tid // self.tiles_x)
            rows["tile_col"].append(tid % self.tiles_x)
            rows["bytes"].append(codecs.encode_tile(np.asarray(tiles[tid], dtype=np.float64), fmt))
            rows["fmt"].append(fmt)
        pq.write_table(
            pa.table(
                {
                    "tile_row": pa.array(rows["tile_row"], pa.int32()),
                    "tile_col": pa.array(rows["tile_col"], pa.int32()),
                    "bytes": pa.array(rows["bytes"], pa.binary()),
                    "fmt": pa.array(rows["fmt"], pa.string()),
                }
            ),
            path,
        )

    # neighbor geometry helpers ------------------------------------------
    def tile_rc(self, tid: int) -> tuple[int, int]:
        return tid // self.tiles_x, tid % self.tiles_x

    def neighbor(self, tid: int, dr: int, dc: int) -> int | None:
        tr, tc = self.tile_rc(tid)
        ntr, ntc = tr + dr, tc + dc
        if 0 <= ntr < self.tiles_y and 0 <= ntc < self.tiles_x:
            return ntr * self.tiles_x + ntc
        return None


def _combine_store(spec, names: list[str], layers: dict, n_stores: int):
    """Shuffle-free zip: the FIRST layer's blocks stream through in
    place; every other layer pushes (tkey, layer_idx, bytes, fmt) once
    into a small pool of store actors (the focal ``_MarginStore`` —
    its schema fits verbatim with ``rel`` = layer index), with a
    ``materialize()`` barrier per secondary layer so every payload is
    registered before any primary block pulls. Moves N-1 of N layers
    exactly once and pays no union fan-in / groupby sort.

    Assumes every output tile is present in the first layer — true for
    all engine callers, where each layer is a per-tile map over the
    same scene tiling. Tiles missing from a secondary layer yield
    ``b""`` payloads, matching the exchange path."""
    import ray

    from .focal import _MarginStore

    tiles_x = spec.tiles_x
    stores = [ray.remote(num_cpus=0)(_MarginStore).remote() for _ in range(n_stores)]

    barriers = []
    for li, name in enumerate(names[1:], start=1):
        def push(batch: pa.Table, li=li) -> pa.Table:
            tr = batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64)
            tc = batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
            tkeys = tr * tiles_x + tc
            blobs = batch["bytes"].to_pylist()
            fmts = batch["fmt"].to_pylist()
            per_store: dict[int, list] = {}
            for i in range(batch.num_rows):
                k = int(tkeys[i])
                per_store.setdefault(k % n_stores, []).append((k, li, blobs[i], fmts[i]))
            ray.get([stores[si].put.remote(items) for si, items in per_store.items()])
            return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

        barriers.append(layers[name].map_batches(push, batch_format="pyarrow").materialize())

    def pull(batch: pa.Table) -> pa.Table:
        tr = batch["tile_row"].to_numpy(zero_copy_only=False).astype(np.int64)
        tc = batch["tile_col"].to_numpy(zero_copy_only=False).astype(np.int64)
        tkeys = tr * tiles_x + tc
        per_store: dict[int, list[int]] = {}
        for k in tkeys:
            per_store.setdefault(int(k) % n_stores, []).append(int(k))
        packs: dict[int, list] = {}
        for res in ray.get([stores[si].get.remote(ks) for si, ks in per_store.items()]):
            packs.update(res)
        cols = {
            "tile_row": pa.array(tr.astype(np.int32), pa.int32()),
            "tile_col": pa.array(tc.astype(np.int32), pa.int32()),
            names[0]: batch["bytes"],
            names[0] + "_fmt": batch["fmt"],
        }
        for li, name in enumerate(names[1:], start=1):
            data: list[bytes] = []
            fmt: list[str] = []
            for k in tkeys:
                hit = next(
                    ((d, f) for rel, d, f in packs.get(int(k), []) if rel == li), None
                )
                data.append(hit[0] if hit else b"")
                fmt.append(hit[1] if hit else "")
            cols[name] = pa.array(data, pa.binary())
            cols[name + "_fmt"] = pa.array(fmt, pa.string())
        return pa.table(cols)

    out = layers[names[0]].map_batches(pull, batch_format="pyarrow")
    # keep the actors alive for as long as the (lazy) result can execute
    out._combine_stores = (stores, barriers)
    return out


def combine_tile_layers(spec, mode: str = "auto", **layers):
    """Zip N tile Datasets on (tile_row, tile_col) into one Dataset with
    a bytes column per layer name. Each input must be
    Dataset[tile_row, tile_col, bytes, fmt]; output rows carry
    ``<name>`` bytes columns (payloads keep their original fmt strings
    in ``<name>_fmt``).

    ``mode``: "exchange" unions all layers and zips through one
    ``groupby(tkey)`` shuffle — simple, but the shuffle carries 100% of
    every layer's payload and the union fan-in measurably anti-scales;
    "store" streams the first layer in place and routes the others
    through a store-actor pool (see ``_combine_store``) — the 100-TB
    path. "auto" picks "store" for scenes of ≥ 64 tiles."""
    import pandas as pd

    names = list(layers)
    n_tiles = spec.tiles_x * spec.tiles_y
    if len(names) >= 2 and (mode == "store" or (mode == "auto" and n_tiles >= 64)):
        n_stores = max(1, min(64, n_tiles // 512 + 1))
        return _combine_store(spec, names, layers, n_stores)
    tagged = []
    for name, ds in layers.items():
        def tag(batch: pa.Table, name=name) -> pa.Table:
            return pa.table(
                {
                    "tkey": pa.compute.add(
                        pa.compute.multiply(
                            batch["tile_row"].cast(pa.int64()), pa.scalar(spec.tiles_x, pa.int64())
                        ),
                        batch["tile_col"].cast(pa.int64()),
                    ),
                    "role": pa.array([name] * batch.num_rows, pa.string()),
                    "data": batch["bytes"],
                    "fmt": batch["fmt"],
                }
            )

        tagged.append(ds.map_batches(tag, batch_format="pyarrow"))
    u = tagged[0]
    for t in tagged[1:]:
        u = u.union(t)

    def merge(g: pd.DataFrame):
        tkey = int(g["tkey"].iloc[0])
        cols = {
            "tile_row": pa.array([tkey // spec.tiles_x], pa.int32()),
            "tile_col": pa.array([tkey % spec.tiles_x], pa.int32()),
        }
        for name in names:
            sel = g[g["role"] == name]
            cols[name] = pa.array(
                [bytes(sel["data"].iloc[0]) if len(sel) else b""], pa.binary()
            )
            cols[name + "_fmt"] = pa.array(
                [sel["fmt"].iloc[0] if len(sel) else ""], pa.string()
            )
        return pa.table(cols)

    return u.groupby("tkey").map_groups(merge, batch_format="pandas")
