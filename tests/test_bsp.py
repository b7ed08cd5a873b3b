"""The BSP harness without Ray: round order, seam steps, frames, and the
shard classes driven by an in-process round loop."""

import types

import numpy as np
import pyarrow as pa
import pytest

from whitebox_tools_ray.kernels import codecs
from whitebox_tools_ray.stages import flow2
from whitebox_tools_ray.stages.bsp import ShardBase, _PeerMixin
from whitebox_tools_ray.stages.focal import DX8, DY8
from whitebox_tools_ray.stages.hydro2 import _WalkShard


class _Recorder(ShardBase):
    def __init__(self):
        super().__init__(4, 1, 1)
        self.seen = []

    def push(self, msgs):
        self.seen.append(list(msgs))
        return []


def _hosted(worker_cls):
    return type(worker_cls.__name__, (_PeerMixin, worker_cls), {})


def _run_local(shards, shard_of):
    """run_bsp's round loop in one process: peers are the shard objects
    themselves, so a send lands in the receiver's inbox at once, which
    is as early as any Ray delivery can land."""
    peers = [types.SimpleNamespace(enqueue=types.SimpleNamespace(remote=s.enqueue)) for s in shards]
    for i, s in enumerate(shards):
        s.set_peers(peers, shard_of, i)
    results = [s.bsp_start() for s in shards]
    while sum(n for n, _ in results):
        results = [s.bsp_round() for s in shards]


def test_round_input_follows_sender_order():
    shard = _hosted(_Recorder)()
    shard.set_peers([], {}, 0)
    shard.enqueue(0, 2, [("from", 2)])
    shard.enqueue(0, 0, [("from", 0), ("from", 0, "b")])
    shard.enqueue(0, 1, [("from", 1)])
    assert shard.bsp_round() == (0, [])
    assert shard.seen == [[("from", 0), ("from", 0, "b"), ("from", 1), ("from", 2)]]


def test_messages_sent_this_round_wait_for_the_next():
    shard = _hosted(_Recorder)()
    shard.set_peers([], {}, 0)
    shard.enqueue(0, 1, [("start",)])
    shard.enqueue(1, 0, [("early",)])  # a peer already ran round 1
    shard.bsp_round()
    shard.bsp_round()
    assert shard.seen == [[("start",)], [("early",)]]


def test_seam_step_matches_global_arithmetic():
    tpx, tiles_x, tiles_y = 4, 4, 3
    base = ShardBase(tpx, tiles_x, tiles_y)
    rows, cols = tiles_y * tpx, tiles_x * tpx
    ring = [(r, c) for r in range(tpx) for c in range(tpx) if r in (0, tpx - 1) or c in (0, tpx - 1)]
    for tid in range(tiles_x * tiles_y):
        r0, c0 = (tid // tiles_x) * tpx, (tid % tiles_x) * tpx
        for r, c in ring:
            for d in range(8):
                gr, gc = r0 + r + int(DY8[d]), c0 + c + int(DX8[d])
                want = None
                if 0 <= gr < rows and 0 <= gc < cols:
                    want = ((gr // tpx) * tiles_x + gc // tpx, gr % tpx, gc % tpx)
                assert base.seam_step(tid, r, c, d) == want, (tid, r, c, d)


def test_frames_round_trip_into_the_receivers_ring():
    """Each neighbour's edge strip lands on the matching side of the
    receiver's ring, whatever order the frames arrive in."""
    tpx = 3
    base = ShardBase(tpx, 3, 3)
    full = np.arange(81, dtype=np.float64).reshape(9, 9)
    tile = {tid: full[(tid // 3) * 3 : (tid // 3) * 3 + 3, (tid % 3) * 3 : (tid % 3) * 3 + 3] for tid in range(9)}
    to_centre = [m for tid in range(9) if tid != 4 for m in base.frames_out(tid, tile[tid]) if m[0] == 4]
    assert len(to_centre) == 8
    (ring,) = base.frames_in(to_centre[::-1], np.inf)[4]
    want = full[2:7, 2:7].copy()
    want[1:-1, 1:-1] = np.inf
    np.testing.assert_array_equal(ring, want)


def _fd8_rows(full, tpx, spec):
    """MultiFlowShardDS ingest rows of a whole grid: per tile the f32
    fractions, in-degree and valid mask the halo pass ships."""
    n = full.shape[0]
    pad = np.full((n + 4, n + 4), spec.nodata)
    pad[2:-2, 2:-2] = full
    rows = {}
    for tr in range(spec.tiles_y):
        for tc in range(spec.tiles_x):
            sub = pad[tr * tpx : tr * tpx + tpx + 4, tc * tpx : tc * tpx + tpx + 4]
            frac_ext = flow2._fractions(sub, spec.nodata, spec, "fd8")
            ind = np.zeros((tpx, tpx), np.int8)
            for i in range(8):
                nb = frac_ext[(i + 4) % 8, 1 + DY8[i] : 1 + DY8[i] + tpx, 1 + DX8[i] : 1 + DX8[i] + tpx]
                ind += (nb > 0).astype(np.int8)
            valid = (sub[2:-2, 2:-2] != spec.nodata).astype(np.int8)
            rows[tr * spec.tiles_x + tc] = pa.table(
                {
                    "tile_row": [tr],
                    "tile_col": [tc],
                    "frac": [frac_ext[:, 1:-1, 1:-1].astype(np.float32).tobytes()],
                    "ind": [ind.tobytes()],
                    "valid": [valid.tobytes()],
                }
            )
    return rows


def test_multiflow_sums_do_not_depend_on_shard_layout():
    """FD8 float sums come out bit-identical whichever shard owns which
    tile and in whatever order the tiles were ingested."""
    from whitebox_tools_ray.sources.tiles import SceneSpec

    tpx = 8
    spec = SceneSpec(tiles_x=4, tiles_y=4, tile_px=tpx, seed=3)
    yy, xx = np.indices((32, 32), dtype=np.float64)
    full = 100.0 - 0.9 * yy - 0.7 * xx + 2.0 * np.sin(yy / 5.0) * np.cos(xx / 7.0)
    rows = _fd8_rows(full, tpx, spec)
    rng = np.random.default_rng(0)

    def run(owner, order):
        shards = [_hosted(flow2.MultiFlowShardDS)(tpx, 4, 4, spec.nodata, "sum", spec.res) for _ in range(3)]
        for tid in order:
            shards[owner[tid]].load_tile(tid, rows[tid], 0)
        _run_local(shards, owner)
        return {tid: s.state[tid].tobytes() for s in shards for tid in s.state}

    one_shard = run({tid: 0 for tid in rows}, sorted(rows))
    for _ in range(3):
        owner = {tid: int(rng.integers(0, 3)) for tid in rows}
        assert run(owner, list(rng.permutation(sorted(rows)))) == one_shard


def _walk_shard(owner):
    """A 2×1-tile scene whose walks all head east off tile 0; only tile
    0 is loaded here."""
    tpx, nodata = 4, -32768.0
    shard = _hosted(_WalkShard)(tpx, 2, 1, nodata, 1.0, 100.0)
    east = next(i for i in range(8) if DY8[i] == 0 and DX8[i] == 1)
    z = np.tile(np.arange(10.0, 6.0, -1.0), (tpx, 1))
    batch = pa.table(
        {
            "tile_row": [0],
            "tile_col": [0],
            "ptr": [codecs.encode_tile(np.full((tpx, tpx), float(east)), "i8")],
            "ptr_fmt": ["i8"],
            "dem": [codecs.encode_tile(z, "f64")],
            "dem_fmt": ["f64"],
        }
    )
    shard.load_tile(0, batch, 0)
    shard.set_peers([], owner, 0)
    return shard


def test_walk_cursors_lead_with_the_tile_they_are_bound_for():
    out = _walk_shard({0: 0, 1: 1}).start()
    assert len(out) == 16
    assert {m[0] for m in out} == {1}
    assert {(m[1], m[2]) for m in out} == {(r, 0) for r in range(4)}


def test_walk_into_a_tile_no_shard_owns_raises():
    with pytest.raises(KeyError, match="no shard owns"):
        _walk_shard({0: 0}).start()
