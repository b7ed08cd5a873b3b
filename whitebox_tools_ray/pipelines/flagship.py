"""The tiling pipeline: read tiles → assign keys → decode/verify/re-encode
→ parquet, checkpointed per band.

This is the measured tiling path of BASELINE.md (tiles/sec), with the
per-band manifest checkpointing INCLUDED in the measured time.

The input is laid out one directory per band of tile rows (``band=K/``,
see ``synthesize_tiles_parallel``). Each input file is one stateless Ray
task: read → assign → decode → write ``out_dir/bandNNNN/<input file
name>`` → return its row count and the decode stage's verify counts.
Tasks share nothing but the broadcast ``TileGrid``, so there is no
cross-task coordination (Raptor's tile-partitioned shape). The driver
submits every file of every band still to run, then waits; when a band's
last file returns it appends the band's manifest line, whose ``wall_s``
runs from submit to that last file. Resume skips whole bands whose
(band, params hash) is already in the manifest; a band without its line
is cleared and rerun in full.

A band's manifest ``metrics`` are its files' figures summed: the verify
counts (``DecodeVerifyReencode.counts``, both 0 when ``decode`` is off)

- ``undecodable``: tiles whose codec is not implemented (a non-baseline
  jpeg), written with their input payload and NaN ``px_*``;
- ``reencode_psnr_failed``: tiles whose q16 re-encode decodes back below
  40 dB PSNR (NaN or inf pixels, ranges near 1e±300), written with their
  input payload. Only tiles that an error bound on their min and max
  cannot clear are decoded back and compared (``stages/assign.py``);

and the CPU seconds (``time.process_time()`` of the task's worker
process, so Arrow's reader and writer threads count) of each layer:

- ``read_cpu_s``: read the input file and append ``band``;
- ``assign_cpu_s``: the assignment keys;
- ``decode_cpu_s``: decode → verify → re-encode (about 0 when off);
- ``write_cpu_s``: write the output file.

Corrupt payloads fail the run instead: the task raises before it writes
its file, and the band gets no manifest line.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels.grid import TileGrid
from ..sources import tiles as tsrc
from ..stages.assign import DecodeVerifyReencode, make_assign_fn
from ..state.manifest import Manifest, dir_content_hash


def synthesize_tiles_parallel(spec: tsrc.SceneSpec, out_path: str, fmt: str = "f32", num_bands: int = 4,
                              rows_per_file: int = 512):
    """Generate a scene's tile table WITH Ray (NewRasterFromBase analog):
    range over tile ids → per-batch field evaluation + encode → parquet,
    laid out one directory per tile-row band (``band=K/``) so the banded
    tiling pipeline reads exactly its own partition — the layout a
    resumable 100 TB ingest would use."""
    import ray.data as rd

    n = spec.tiles_x * spec.tiles_y

    def synth(batch: pa.Table) -> pa.Table:
        from ..kernels import codecs, phash

        ids = batch["id"].to_numpy(zero_copy_only=False)
        cols: dict[str, list] = {name: [] for name in tsrc.TILE_SCHEMA.names}
        for idx in ids:
            tr, tc = int(idx) // spec.tiles_x, int(idx) % spec.tiles_x
            grid = spec.tile_grid(tr, tc)
            cols["image_id"].append(f"img{spec.scene:02d}{int(idx):06d}")
            cols["bytes"].append(codecs.encode_tile(grid, fmt))
            cols["w"].append(spec.tile_px)
            cols["h"].append(spec.tile_px)
            cols["fmt"].append(fmt)
            cols["caption"].append(tsrc.caption_for(tr, tc, spec.scene))
            cols["phash"].append(phash.phash64(grid))
            cols["west"].append(spec.west + tc * spec.tile_px * spec.res)
            cols["north"].append(spec.north - tr * spec.tile_px * spec.res)
            cols["res_x"].append(spec.res)
            cols["res_y"].append(spec.res)
            cols["nodata"].append(spec.nodata)
            cols["epsg"].append(26918)
            cols["tile_row"].append(tr)
            cols["tile_col"].append(tc)
            cols["scene"].append(spec.scene)
        return pa.Table.from_arrays(
            [pa.array(cols[k], type=tsrc.TILE_SCHEMA.field(k).type) for k in tsrc.TILE_SCHEMA.names],
            schema=tsrc.TILE_SCHEMA,
        )

    band_edges = np.linspace(0, spec.tiles_y, num_bands + 1).astype(int)
    for b in range(num_bands):
        lo, hi = int(band_edges[b]), int(band_edges[b + 1])
        ids_lo, ids_hi = lo * spec.tiles_x, hi * spec.tiles_x
        if ids_lo == ids_hi:
            continue
        # one BLOCK per rows_per_file rows: write_parquet emits one file
        # per block (min_rows_per_file only merges, never splits), so
        # this is the only way to actually control the output file
        # count — and file count IS the downstream tiling pipeline's
        # task count (one task per file). The previous range default
        # yielded 16 files/band, one task wave at 32 CPUs with zero
        # straggler slack (measured: long 90%-idle stretches).
        n_blocks = max(1, -(-(ids_hi - ids_lo) // rows_per_file))
        ds = rd.range(ids_hi - ids_lo, override_num_blocks=n_blocks).map_batches(
            lambda t, off=ids_lo: synth(t.set_column(0, "id", pa.array(t["id"].to_numpy(zero_copy_only=False) + off))),
            batch_format="pyarrow",
            batch_size=32,
        )
        # bound the file count: many tiny parquet files make every
        # downstream read pay per-file metadata costs, and each file is
        # one tiling task whose submit/wait costs the driver
        ds.write_parquet(os.path.join(out_path, f"band={b}"),
                         min_rows_per_file=rows_per_file)
    return out_path


# manifest ``metrics`` keys of each file task's per-layer process CPU-s
LAYER_CPU = ("read_cpu_s", "assign_cpu_s", "decode_cpu_s", "write_cpu_s")


def _tile_file(path: str, band: str, out_path: str, tile_grid: TileGrid, quad_level: int, hex_res: int,
               decode: bool) -> tuple[int, dict]:
    """Tile one input file into ``out_path``; returns its row count and
    the decode stage's verify counts with the process CPU seconds of
    each layer."""
    dec = DecodeVerifyReencode("q16", False)
    cpu = [time.process_time()]
    t = pq.read_table(path)
    # the hive partition column a ``band=K/`` directory read carries
    t = t.append_column("band", pa.repeat(pa.scalar(band, pa.string()), t.num_rows))
    cpu.append(time.process_time())
    t = make_assign_fn(tile_grid, quad_level, hex_res)(t)
    cpu.append(time.process_time())
    if decode:
        t = dec(t)
    cpu.append(time.process_time())
    # ``bytes`` holds distinct raw payloads: a dictionary is abandoned
    # past its 1 MiB page and Snappy saves ~0.03%, so write it plain
    pq.write_table(t, out_path, use_dictionary=[c for c in t.column_names if c != "bytes"],
                   compression={c: "none" if c == "bytes" else "snappy" for c in t.column_names})
    cpu.append(time.process_time())
    layers = dict(zip(LAYER_CPU, np.diff(cpu).tolist()))
    return t.num_rows, {**dec.counts, **layers}


def run_tiling_pipeline(
    input_path: str,
    out_dir: str,
    spec: tsrc.SceneSpec,
    num_bands: int = 4,
    quad_level: int = 12,
    hex_res: int = 7,
    decode: bool = True,
    resume: bool = True,
) -> dict:
    """Banded, checkpointed tiling stage over a ``band=K/`` input layout.
    Returns metrics dict."""
    import ray

    band_edges = np.linspace(0, spec.tiles_y, num_bands + 1).astype(int)
    bands = [b for b in range(num_bands) if band_edges[b] < band_edges[b + 1]]
    found = sorted(d for d in os.listdir(input_path) if d.startswith("band="))
    if found != sorted(f"band={b}" for b in bands):
        raise ValueError(f"{input_path} holds {found}, not the band=0..{num_bands - 1} layout "
                         f"of num_bands={num_bands}")
    gs = spec.grid_spec()
    # honor the reference's 32767-output-tile cap (lidar_tile.rs:265-270)
    # by coarsening the assignment grid for large scenes: group k×k scene
    # tiles per output tile so the tile count stays under the cap
    group = 1
    while (spec.tiles_x // group + 1) * (spec.tiles_y // group + 1) > 32767:
        group *= 2
    tg = TileGrid.from_extent(
        gs.west,
        gs.east,
        gs.south,
        gs.north,
        spec.tile_px * spec.res * group,
        spec.tile_px * spec.res * group,
        origin_x=gs.west,
        origin_y=gs.south,
    )
    manifest = Manifest(
        os.path.join(out_dir, "MANIFEST.jsonl"),
        run_params={
            "input": input_path,
            "bands": num_bands,
            "quad_level": quad_level,
            "hex_res": hex_res,
            "decode": decode,
        },
    )
    done = manifest.completed() if resume else set()
    to_run = [b for b in bands if f"band{b:04d}" not in done]

    t_all = time.time()
    tile_file = ray.remote(_tile_file)
    tg_ref = ray.put(tg)
    band_of: dict = {}  # task ref -> band
    left: dict[int, int] = {}  # band -> files still running
    rows = dict.fromkeys(to_run, 0)
    metrics = {b: Counter() for b in to_run}
    for b in to_run:
        band_dir = os.path.join(input_path, f"band={b}")
        part_dir = os.path.join(out_dir, f"band{b:04d}")
        # a band without its manifest line may hold a crashed run's files
        shutil.rmtree(part_dir, ignore_errors=True)
        os.makedirs(part_dir)
        files = sorted(f for f in os.listdir(band_dir) if f.endswith(".parquet"))
        for f in files:
            ref = tile_file.remote(os.path.join(band_dir, f), str(b), os.path.join(part_dir, f), tg_ref,
                                   quad_level, hex_res, decode)
            band_of[ref] = b
        left[b] = len(files)
    pending = list(band_of)
    while pending:
        ready, pending = ray.wait(pending)
        b = band_of.pop(ready[0])
        n, counts = ray.get(ready[0])
        rows[b] += n
        metrics[b].update(counts)
        left[b] -= 1
        if left[b]:
            continue
        part_dir = os.path.join(out_dir, f"band{b:04d}")
        manifest.record(
            f"band{b:04d}",
            (int(band_edges[b]), int(band_edges[b + 1])),
            rows_in=rows[b],
            rows_out=rows[b],
            wall_s=time.time() - t_all,
            output_uri=part_dir,
            content_hash=dir_content_hash(part_dir),
            metrics=dict(metrics[b]),
        )
    total_s = time.time() - t_all
    total_tiles = sum(rows.values())
    return {
        "tiles": total_tiles,
        "wall_s": total_s,
        "tiles_per_s": total_tiles / total_s if total_s else 0.0,
        "bands_skipped": len(bands) - len(to_run),
    }
