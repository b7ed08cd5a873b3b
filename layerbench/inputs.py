"""Seeded inputs and their oracles, cached under a digest listing.

Each (workload, seed, size) gets one directory under the cache root. It
is generated into a temporary directory and renamed into place only when
complete, with ``DIGESTS.json`` listing the SHA-256 of every file next
to the oracle values. A later run re-hashes the files (the timed "input
check" of set-up) and regenerates the entry when anything differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

KEEP_ENTRIES = 12  # per workload; older entries are evicted


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _list_files(root: str) -> list[str]:
    out = []
    for d, _dirs, files in os.walk(root):
        out.extend(os.path.relpath(os.path.join(d, f), root) for f in files)
    return sorted(f for f in out if f != "DIGESTS.json")


class InputCache:
    """Directory-per-entry cache of generated inputs."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def entry(self, workload: str, seed: int, params: dict, generate) -> tuple[str, dict, bool]:
        """Path and meta of a checked entry, generating it if missing or
        corrupt. ``generate(dir) -> meta`` writes the input files into
        ``dir`` and returns the oracle values. Returns (path, meta,
        generated)."""
        tag = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
        path = os.path.join(self.root, f"{workload}-s{seed}-{tag}")
        meta = self.check(path)
        if meta is not None:
            os.utime(path)
            return path, meta, False
        shutil.rmtree(path, ignore_errors=True)
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        meta = generate(tmp)
        digests = {f: _sha256(os.path.join(tmp, f)) for f in _list_files(tmp)}
        with open(os.path.join(tmp, "DIGESTS.json"), "w") as f:
            json.dump({"files": digests, "meta": meta, "params": params}, f, sort_keys=True)
        os.rename(tmp, path)
        self._evict(workload, keep=path)
        return path, meta, True

    @staticmethod
    def check(path: str) -> dict | None:
        """The entry's meta if every listed file is present with its
        digest and no other file exists, else None."""
        try:
            with open(os.path.join(path, "DIGESTS.json")) as f:
                listing = json.load(f)
        except (OSError, ValueError):
            return None
        files = listing.get("files", {})
        if sorted(files) != _list_files(path):
            return None
        for rel, digest in files.items():
            if _sha256(os.path.join(path, rel)) != digest:
                return None
        return listing["meta"]

    def _evict(self, workload: str, keep: str) -> None:
        entries = [
            os.path.join(self.root, d)
            for d in os.listdir(self.root)
            if d.startswith(f"{workload}-s") and ".tmp" not in d
        ]
        entries.sort(key=os.path.getmtime, reverse=True)
        for old in entries[KEEP_ENTRIES:]:
            if old != keep:
                shutil.rmtree(old, ignore_errors=True)


# --- tiling ---------------------------------------------------------------


def tile_grid_for(spec):
    """The assignment grid ``run_tiling_pipeline`` derives for a scene
    small enough to need no coarsening (one output tile per scene tile)."""
    from whitebox_tools_ray.kernels.grid import TileGrid

    if (spec.tiles_x + 1) * (spec.tiles_y + 1) > 32767:
        raise ValueError("scene too large for an uncoarsened assignment grid")
    gs = spec.grid_spec()
    w = spec.tile_px * spec.res
    return TileGrid.from_extent(gs.west, gs.east, gs.south, gs.north, w, w, origin_x=gs.west, origin_y=gs.south)


def expected_assignment(spec, quad_level: int, hex_res: int) -> pa.Table:
    """Assignment keys of every tile, recomputed from the scene geometry
    with ``TileGrid.assign`` and ``kernels.cells``."""
    from whitebox_tools_ray.kernels import cells

    tr, tc = np.meshgrid(np.arange(spec.tiles_y), np.arange(spec.tiles_x), indexing="ij")
    tr, tc = tr.ravel(), tc.ravel()
    span = spec.tile_px * spec.res
    cx = spec.west + tc * span + span / 2.0
    cy = spec.north - tr * span - span / 2.0
    row, col, tid = tile_grid_for(spec).assign(cx, cy)
    hq, hr = cells.hex_cell(cx, cy, hex_res)
    return pa.table(
        {
            "tile_row": pa.array(tr, pa.int32()),
            "tile_col": pa.array(tc, pa.int32()),
            "a_tile_row": pa.array(row, pa.int64()),
            "a_tile_col": pa.array(col, pa.int64()),
            "tile_id": pa.array(tid, pa.int64()),
            "quad_cell": pa.array(cells.quad_cell(cx, cy, quad_level), pa.int64()),
            "hex_cell": pa.array(cells.pack_hex(hq, hr, hex_res), pa.int64()),
        }
    )


def _write_tile_file(spec, fmt: str, lo: int, hi: int, path: str) -> None:
    """Tiles ``lo..hi`` (row-major ids) of the scene as one parquet file
    in the engine's tile-table schema."""
    from whitebox_tools_ray.kernels import codecs, phash
    from whitebox_tools_ray.sources import tiles as tsrc

    cols: dict[str, list] = {name: [] for name in tsrc.TILE_SCHEMA.names}
    for idx in range(lo, hi):
        tr, tc = idx // spec.tiles_x, idx % spec.tiles_x
        grid = spec.tile_grid(tr, tc)
        row = {
            "image_id": f"img{spec.scene:02d}{idx:06d}", "bytes": codecs.encode_tile(grid, fmt),
            "w": spec.tile_px, "h": spec.tile_px, "fmt": fmt, "caption": tsrc.caption_for(tr, tc, spec.scene),
            "phash": phash.phash64(grid), "west": spec.west + tc * spec.tile_px * spec.res,
            "north": spec.north - tr * spec.tile_px * spec.res, "res_x": spec.res, "res_y": spec.res,
            "nodata": spec.nodata, "epsg": 26918, "tile_row": tr, "tile_col": tc, "scene": spec.scene,
        }
        for k, v in row.items():
            cols[k].append(v)
    pq.write_table(pa.Table.from_pydict(cols, schema=tsrc.TILE_SCHEMA), path)


def generate_tiling(out: str, spec, num_bands: int, rows_per_file: int, quad_level: int, hex_res: int) -> dict:
    """PNG tile table in the ``band=K/`` layout ``run_tiling_pipeline``
    reads (``rows_per_file`` tiles per file, bands of tile rows), plus the
    expected assignment keys. Generated in the driver before Ray starts,
    so no Ray worker is warmed by it."""
    edges = np.linspace(0, spec.tiles_y, num_bands + 1).astype(int)
    for b in range(num_bands):
        band = os.path.join(out, "tiles", f"band={b}")
        os.makedirs(band)
        lo_id, hi_id = int(edges[b]) * spec.tiles_x, int(edges[b + 1]) * spec.tiles_x
        for n, lo in enumerate(range(lo_id, hi_id, rows_per_file)):
            path = os.path.join(band, f"part-{n:05d}.parquet")
            _write_tile_file(spec, "png", lo, min(lo + rows_per_file, hi_id), path)
    pq.write_table(expected_assignment(spec, quad_level, hex_res), os.path.join(out, "oracle.parquet"))
    return {"tiles": spec.tiles_x * spec.tiles_y}


# --- spatial join -----------------------------------------------------------


def lineitem_like(seed: int, rows: int) -> pa.Table:
    """The five lineitem columns ``synth_points`` reads, drawn with the
    value ranges of the TPC-H-style sf0.1 table: about a quarter of the
    derived ``record_id`` values (orderkey * 10 + linenumber) repeat."""
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, 150_000, rows), pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, rows), pa.int32()),
            "l_partkey": pa.array(rng.integers(0, 20_000, rows), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, 1_000, rows), pa.int64()),
            "l_quantity": pa.array(rng.integers(1, 51, rows).astype(np.float64)),
        }
    )


def polygon_offset(seed: int) -> tuple[float, float]:
    """Seeded translation that keeps the fixture layer (x 50..970,
    y 50..980) inside its [0, 1000]² frame."""
    rng = np.random.default_rng(seed + 7919)
    return float(rng.uniform(-50.0, 30.0)), float(rng.uniform(-50.0, 20.0))


def generate_spatial_join(out: str, seed: int, rows: int, replicas: int, stride: int) -> dict:
    """lineitem-like table plus the survivor ``record_id`` multiset of
    the replicated point layer, from an in-process ``clip_kernel``."""
    from whitebox_tools_ray.sources.vectors import fixture_polygons
    from whitebox_tools_ray.stages.spatial_join import clip_kernel, prepare_clip_parts

    table = lineitem_like(seed, rows)
    pq.write_table(table, os.path.join(out, "lineitem.parquet"))
    ok = table["l_orderkey"].to_numpy().astype(np.int64)
    ln = table["l_linenumber"].to_numpy().astype(np.int64)
    pk = table["l_partkey"].to_numpy().astype(np.int64)
    sk = table["l_suppkey"].to_numpy().astype(np.int64)
    # the synth_points derivation (pipelines/relational.py)
    rid = ok * 10 + ln
    px = ((ok * 7919 + ln * 104729) % 1000000) / 1000.0
    py = ((pk * 6271 + sk * 3571) % 1000000) / 1000.0
    dx, dy = polygon_offset(seed)
    inside = clip_kernel(px, py, prepare_clip_parts(fixture_polygons(dx, dy)))
    base = rid[inside]
    survivors = np.sort(np.concatenate([base + k * stride for k in range(replicas)]))
    np.save(os.path.join(out, "survivors.npy"), survivors)
    _, counts = np.unique(survivors, return_counts=True)
    return {"rows_in": rows * replicas, "rows_out": int(len(survivors)),
            "tied_rows": int(counts[counts > 1].sum()), "offset": [dx, dy]}


# --- raster clip ----------------------------------------------------------


def scene_polygons(spec, densify: int) -> pa.Table:
    """The fixture layer mapped onto the scene's world frame, each edge
    split into ``densify`` collinear segments."""
    from whitebox_tools_ray.sources.vectors import fixture_polygons

    gs = spec.grid_spec()
    sx = (gs.east - gs.west) / 1000.0
    sy = (gs.north - gs.south) / 1000.0
    t = fixture_polygons()
    d = t.to_pydict()
    frac = np.arange(densify) / densify
    for i in range(t.num_rows):
        xs = np.asarray(d["xs"][i])
        ys = np.asarray(d["ys"][i])
        bounds = list(d["parts"][i]) + [len(xs)]
        parts, nx, ny = [], [], []
        for p in range(len(bounds) - 1):
            rx, ry = xs[bounds[p]:bounds[p + 1]], ys[bounds[p]:bounds[p + 1]]
            parts.append(len(nx))
            for j in range(len(rx) - 1):
                nx.extend(rx[j] + (rx[j + 1] - rx[j]) * frac)
                ny.extend(ry[j] + (ry[j + 1] - ry[j]) * frac)
            nx.append(rx[-1])
            ny.append(ry[-1])
        d["parts"][i] = parts
        d["xs"][i] = [gs.west + v * sx for v in nx]
        d["ys"][i] = [gs.south + v * sy for v in ny]
        d["x_min"][i], d["x_max"][i] = min(d["xs"][i]), max(d["xs"][i])
        d["y_min"][i], d["y_max"][i] = min(d["ys"][i]), max(d["ys"][i])
    return pa.Table.from_pydict(d, schema=t.schema)


def clip_digest(tile_rows, tile_cols, payloads) -> str:
    """SHA-256 over the output tiles in (tile_row, tile_col) order."""
    h = hashlib.sha256()
    for i in np.lexsort((np.asarray(tile_cols), np.asarray(tile_rows))):
        h.update(int(tile_rows[i]).to_bytes(4, "little"))
        h.update(int(tile_cols[i]).to_bytes(4, "little"))
        h.update(payloads[i])
    return h.hexdigest()


def generate_raster_clip(out: str, spec, densify: int) -> dict:
    """f32 scene tile table plus the digest and inside-cell count of an
    in-process ``mask_tile`` over every tile."""
    from whitebox_tools_ray.kernels import codecs
    from whitebox_tools_ray.sources import tiles as tsrc
    from whitebox_tools_ray.stages.clip_raster import mask_tile, prepare_mask_parts

    table = tsrc.generate_tiles(spec, fmt_cycle=("f32",))
    pq.write_table(table, os.path.join(out, "scene.parquet"))
    gs = spec.grid_spec()
    parts = prepare_mask_parts(scene_polygons(spec, densify), gs)
    rows = table["tile_row"].to_numpy()
    cols = table["tile_col"].to_numpy()
    blobs = table["bytes"].to_pylist()
    payloads, inside = [], 0
    for r, c, b in zip(rows, cols, blobs):
        grid = mask_tile(codecs.decode_tile(b, "f32"), int(r) * spec.tile_px, int(c) * spec.tile_px, gs, parts)
        inside += int((grid != gs.nodata).sum())
        payloads.append(codecs.encode_tile(grid, "f32"))
    return {"digest": clip_digest(rows, cols, payloads), "cells_inside": inside,
            "cells": spec.rows * spec.columns}

