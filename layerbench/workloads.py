"""The three workloads: an untraced pass, its output check, a traced pass
that calls each layer's public function separately, and kernel replays.

Every pass goes through the engine's public functions only:
``run_tiling_pipeline``, ``clip_points``, ``zip_with_order_index``,
``clip_raster_to_polygon`` and the ``kernels`` modules. Layer names are
the engine's module names.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs
from .stats import new_operators


class CheckFailed(AssertionError):
    """A pass produced output that disagrees with its oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Tracer:
    """In-memory spans: name, start, end and the enclosing span's id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def last(self, name: str) -> float:
        """Duration of the most recent finished span called ``name``."""
        for rec in reversed(self.spans):
            if rec["name"] == name and rec["end"] is not None:
                return rec["end"] - rec["start"]
        raise KeyError(name)


def _op_totals(ops: list[dict]) -> dict:
    last = ops[-1] if ops else {}
    return {
        "cpu_s": sum(o["remote_cpu_s"] for o in ops),
        "udf_s": sum(o["udf_s"] for o in ops),
        "wall_s": sum(o["wall_s"] for o in ops),
        "rows": last.get("rows", 0),
        "bytes": last.get("bytes", 0),
        "blocks": last.get("blocks", 0),
    }


def _blocks(ds) -> list[pa.Table]:
    import ray

    return [ray.get(ref) for ref in ds.to_arrow_refs()]


def _median_us(fn, args_list, reps: int = 3) -> float:
    """Median over inputs of the fastest of ``reps`` calls, in µs."""
    per = []
    for args in args_list:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(*args)
            best = min(best, time.perf_counter() - t0)
        per.append(best * 1e6)
    return statistics.median(per)


class Workload:
    name = ""
    item = ""

    def __init__(self, seed: int, cache: inputs.InputCache, work_dir: str, driver_cpu):
        self.seed = seed
        self.cache = cache
        self.work_dir = work_dir
        self.driver_cpu = driver_cpu  # driver CPU-seconds, sampler excluded
        self.dir = ""
        self.meta: dict = {}

    def prepare(self) -> bool:
        """Make or check the seeded inputs; True when generated."""
        self.dir, self.meta, generated = self.cache.entry(self.name, self.seed, self.params(), self.generate)
        return generated

    def check_inputs(self) -> None:
        require(self.cache.check(self.dir) is not None, f"input digests of {self.dir}")

    def release(self, handle) -> None:
        """Drop a pass's output. A materialized Dataset keeps its
        operators' actors alive, so it is collected before the next pass."""
        handle.clear()
        gc.collect()


# --- tiling ---------------------------------------------------------------


class Tiling(Workload):
    """``run_tiling_pipeline`` over a seeded PNG tile table."""

    name = "tiling"
    item = "tile written"
    TILES, TILE_PX, ROWS_PER_FILE, BANDS = 64, 128, 128, 4
    QUAD_LEVEL, HEX_RES = 12, 7  # run_tiling_pipeline's defaults

    def __init__(self, *a):
        super().__init__(*a)
        from whitebox_tools_ray.sources.tiles import SceneSpec

        self.spec = SceneSpec(tiles_x=self.TILES, tiles_y=self.TILES, tile_px=self.TILE_PX, seed=self.seed)
        self._n = 0

    def params(self) -> dict:
        return {"tiles": self.TILES, "px": self.TILE_PX, "rows_per_file": self.ROWS_PER_FILE, "bands": self.BANDS}

    def generate(self, out: str) -> dict:
        return inputs.generate_tiling(out, self.spec, self.BANDS, self.ROWS_PER_FILE, self.QUAD_LEVEL, self.HEX_RES)

    @property
    def tiles_path(self) -> str:
        return os.path.join(self.dir, "tiles")

    def _out_dir(self) -> str:
        self._n += 1
        out = os.path.join(self.work_dir, f"tiling-out-{os.getpid()}-{self._n}")
        shutil.rmtree(out, ignore_errors=True)
        return out

    def run_pass(self) -> dict:
        from whitebox_tools_ray.pipelines.flagship import run_tiling_pipeline

        out = self._out_dir()
        res = run_tiling_pipeline(self.tiles_path, out, self.spec, num_bands=self.BANDS,
                                  quad_level=self.QUAD_LEVEL, hex_res=self.HEX_RES)
        return {"out": out, "items": res["tiles"]}

    def check(self, handle: dict) -> dict:
        out = handle["out"]
        cols = ["tile_row", "tile_col", "a_tile_row", "a_tile_col", "tile_id", "quad_cell", "hex_cell"]
        parts = sorted(d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d)))
        got = pa.concat_tables([pq.read_table(os.path.join(out, d), columns=cols) for d in parts])
        require(got.num_rows == self.meta["tiles"], f"tile count {got.num_rows} != {self.meta['tiles']}")
        require(handle["items"] == got.num_rows, "pipeline tile count disagrees with its output")
        want = pq.read_table(os.path.join(self.dir, "oracle.parquet"))
        order = ("tile_row", "ascending"), ("tile_col", "ascending")
        require(got.sort_by(list(order)).equals(want.sort_by(list(order))), "assignment keys differ from oracle")
        with open(os.path.join(out, "MANIFEST.jsonl")) as f:
            recs = [json.loads(line) for line in f if line.strip()]
        ids = sorted(r["partition_id"] for r in recs)
        require(ids == [f"band{b:04d}" for b in range(self.BANDS)], f"manifest partitions {ids}")
        require(sum(r["rows_out"] for r in recs) == self.meta["tiles"], "manifest row total")
        return {}

    def release(self, handle: dict) -> None:
        shutil.rmtree(handle["out"], ignore_errors=True)
        super().release(handle)

    def traced_pass(self, tr: Tracer) -> tuple[dict, dict]:
        import ray.data as rd

        from whitebox_tools_ray.stages.assign import DecodeVerifyReencode, make_assign_fn
        from whitebox_tools_ray.state.manifest import Manifest, dir_content_hash

        out = self._out_dir()
        tg = inputs.tile_grid_for(self.spec)
        manifest = Manifest(os.path.join(out, "MANIFEST.jsonl"), run_params={
            "input": self.tiles_path, "bands": self.BANDS, "quad_level": self.QUAD_LEVEL,
            "hex_res": self.HEX_RES, "decode": True})
        edges = np.linspace(0, self.spec.tiles_y, self.BANDS + 1).astype(int)
        m = Counter()
        total = 0
        for b in range(self.BANDS):
            t_band = time.perf_counter()
            band_dir = os.path.join(self.tiles_path, f"band={b}")
            n_files = sum(1 for f in os.listdir(band_dir) if f.endswith(".parquet"))
            with tr.span("sources"):
                src = rd.read_parquet(band_dir, override_num_blocks=n_files).materialize()
            s_src = src.stats()
            read = _op_totals(new_operators(s_src, None))
            with tr.span("stages.assign"):
                assigned = src.map_batches(make_assign_fn(tg, self.QUAD_LEVEL, self.HEX_RES),
                                           batch_format="pyarrow").materialize()
            s_asg = assigned.stats()
            asg = _op_totals(new_operators(s_asg, s_src))
            with tr.span("stages.assign.decode"):
                dec = DecodeVerifyReencode("q16", False)
                decoded = assigned.map_batches(lambda t: dec(t), batch_format="pyarrow").materialize()
            d = _op_totals(new_operators(decoded.stats(), s_asg))
            part_dir = os.path.join(out, f"band{b:04d}")
            with tr.span("pipelines.flagship.write"):
                decoded.write_parquet(part_dir)
            with tr.span("state.manifest"):
                rows = sum(pq.read_metadata(os.path.join(part_dir, f)).num_rows
                           for f in os.listdir(part_dir) if f.endswith(".parquet"))
                manifest.record(f"band{b:04d}", (int(edges[b]), int(edges[b + 1])), rows_in=rows, rows_out=rows,
                                wall_s=time.perf_counter() - t_band, output_uri=part_dir,
                                content_hash=dir_content_hash(part_dir))
            files = [os.path.join(part_dir, f) for f in os.listdir(part_dir)]
            total += rows
            m["sources.read_s"] += tr.last("sources")
            m["sources.rows"] += read["rows"]
            m["sources.bytes"] += read["bytes"]
            m["sources.blocks"] += read["blocks"]
            m["stages.assign.busy_s"] += tr.last("stages.assign")
            m["stages.assign.cpu_s"] += asg["cpu_s"]
            m["stages.assign.bytes_in"] += read["bytes"]
            m["stages.assign.bytes_out"] += asg["bytes"]
            m["stages.assign.decode.busy_s"] += tr.last("stages.assign.decode")
            m["stages.assign.decode.cpu_s"] += d["cpu_s"]
            m["stages.assign.decode.bytes_in"] += asg["bytes"]
            m["stages.assign.decode.bytes_out"] += d["bytes"]
            m["pipelines.flagship.write.busy_s"] += tr.last("pipelines.flagship.write")
            m["pipelines.flagship.write.bytes"] += sum(os.path.getsize(f) for f in files)
            m["pipelines.flagship.write.files"] += len(files)
            m["state.manifest.busy_s"] += tr.last("state.manifest")
            m["state.manifest.records"] += 1
            del src, assigned, decoded
        return dict(m), {"out": out, "items": total}

    def replay_kernels(self) -> dict:
        from whitebox_tools_ray.kernels import cells, codecs, phash

        first = sorted(f for f in os.listdir(os.path.join(self.tiles_path, "band=0")) if f.endswith(".parquet"))[0]
        t = pq.read_table(os.path.join(self.tiles_path, "band=0", first))
        blobs = t["bytes"].to_pylist()[:32]
        grids = [codecs.decode_tile(b, "png") for b in blobs]
        span = self.spec.tile_px * self.spec.res
        cx = t["west"].to_numpy() + span / 2.0
        cy = t["north"].to_numpy() - span / 2.0

        def cell_keys(x, y):
            hq, hr = cells.hex_cell(x, y, self.HEX_RES)
            return cells.quad_cell(x, y, self.QUAD_LEVEL), cells.pack_hex(hq, hr, self.HEX_RES)

        return {
            "kernels.codecs.decode_us": _median_us(codecs.decode_tile, [(b, "png") for b in blobs]),
            "kernels.codecs.encode_us": _median_us(codecs.encode_tile, [(g, "q16") for g in grids]),
            "kernels.phash.us": _median_us(phash.phash64, [(g,) for g in grids]),
            "kernels.cells.us": _median_us(cell_keys, [(cx, cy)] * 16),
        }


# --- spatial join ---------------------------------------------------------


def replicate_points(batch: pa.Table, replicas: int, stride: int) -> pa.Table:
    """``replicas`` copies of a point batch with disjoint ``record_id``s."""
    rid = batch["record_id"].to_numpy(zero_copy_only=False)
    idx = batch.schema.get_field_index("record_id")
    return pa.concat_tables(
        [batch.set_column(idx, "record_id", pa.array(rid + k * stride, pa.int64())) for k in range(replicas)]
    )


class SpatialJoin(Workload):
    """``clip_points(..., renumber_fid=True)`` on the replicated
    ``synth_points`` layer against the translated fixture polygons."""

    name = "spatial_join"
    item = "join output row"
    ROWS, REPLICAS, STRIDE, READ_BLOCKS = 600_000, 8, 100_000_000, 8

    def params(self) -> dict:
        return {"rows": self.ROWS, "replicas": self.REPLICAS, "stride": self.STRIDE}

    def generate(self, out: str) -> dict:
        return inputs.generate_spatial_join(out, self.seed, self.ROWS, self.REPLICAS, self.STRIDE)

    def polygons(self):
        from whitebox_tools_ray.sources.vectors import fixture_polygons

        return fixture_polygons(*inputs.polygon_offset(self.seed))

    def points(self):
        from whitebox_tools_ray.pipelines.relational import synth_points

        return synth_points(self.dir, num_blocks=self.READ_BLOCKS).map_batches(
            replicate_points, batch_format="pyarrow", fn_kwargs={"replicas": self.REPLICAS, "stride": self.STRIDE})

    def run_pass(self) -> dict:
        from whitebox_tools_ray.stages.spatial_join import clip_points

        ds = clip_points(self.points(), self.polygons(), renumber_fid=True).materialize()
        return {"ds": ds, "items": ds.count()}

    def check(self, handle: dict) -> dict:
        tables = _blocks(handle["ds"])
        rid = np.concatenate([t["record_id"].to_numpy() for t in tables]).astype(np.int64)
        fid = np.concatenate([t["FID"].to_numpy() for t in tables]).astype(np.int64)
        want = np.load(os.path.join(self.dir, "survivors.npy"))
        require(len(rid) == len(want), f"{len(rid)} survivors, oracle has {len(want)}")
        require(np.array_equal(np.sort(rid), want), "survivor record_id multiset differs from oracle")
        order = np.argsort(fid, kind="stable")
        require(np.array_equal(fid[order], np.arange(1, len(fid) + 1)), "FIDs are not exactly 1..n")
        require(bool(np.all(np.diff(rid[order]) >= 0)), "record_id decreases in FID order")
        return {"tied_rows": self.meta["tied_rows"]}

    def traced_pass(self, tr: Tracer) -> tuple[dict, dict]:
        from whitebox_tools_ray.stages.ordering import zip_with_order_index
        from whitebox_tools_ray.stages.spatial_join import build_part_cell_index, clip_points, prepare_clip_parts

        polys = self.polygons()
        with tr.span("sources"):
            pts = self.points().materialize()
        s_pts = pts.stats()
        read = _op_totals(new_operators(s_pts, None))
        with tr.span("stages.spatial_join.prepare"):
            build_part_cell_index(prepare_clip_parts(polys), 12)
        with tr.span("stages.spatial_join.clip"):
            clipped = clip_points(pts, polys, renumber_fid=False).materialize()
        clip = _op_totals(new_operators(clipped.stats(), s_pts))
        rows_out = clipped.count()
        cpu0 = self.driver_cpu()
        with tr.span("stages.ordering"):
            ranked = zip_with_order_index(clipped, "record_id", index_col="FID", start=1, strategy="auto").materialize()
        driver_cpu = self.driver_cpu() - cpu0
        key_bytes = rows_out * clipped.schema().base_schema.field("record_id").type.byte_width
        m = {
            "sources.read_s": tr.last("sources"),
            "sources.rows": read["rows"],
            "sources.bytes": read["bytes"],
            "sources.blocks": read["blocks"],
            "stages.spatial_join.prepare.busy_s": tr.last("stages.spatial_join.prepare"),
            "stages.spatial_join.clip.busy_s": tr.last("stages.spatial_join.clip"),
            "stages.spatial_join.clip.cpu_s": clip["cpu_s"],
            "stages.spatial_join.clip.rows_in": read["rows"],
            "stages.spatial_join.clip.rows_out": rows_out,
            "stages.spatial_join.clip.hit_ratio": rows_out / read["rows"],
            "stages.ordering.busy_s": tr.last("stages.ordering"),
            "stages.ordering.driver_cpu_s": driver_cpu,
            "stages.ordering.keys_to_driver_bytes": key_bytes,
            "stages.ordering.tied_rows": self.meta["tied_rows"],
            "stages.ordering.blocks": ranked.num_blocks(),
        }
        del pts, clipped
        return m, {"ds": ranked, "items": rows_out}

    def replay_kernels(self) -> dict:
        from whitebox_tools_ray.stages.spatial_join import prepare_clip_parts

        return {"kernels.geometry.pip_ns_per_point_edge": _pip_ns(*self._sample_points(), prepare_clip_parts(
            self.polygons()))}

    def _sample_points(self, n: int = 100_000):
        t = pq.read_table(os.path.join(self.dir, "lineitem.parquet")).slice(0, n)
        ok = t["l_orderkey"].to_numpy().astype(np.int64)
        ln = t["l_linenumber"].to_numpy().astype(np.int64)
        pk = t["l_partkey"].to_numpy().astype(np.int64)
        sk = t["l_suppkey"].to_numpy().astype(np.int64)
        return ((ok * 7919 + ln * 104729) % 1000000) / 1000.0, ((pk * 6271 + sk * 3571) % 1000000) / 1000.0


def _pip_ns(px, py, parts) -> float:
    """ns per (point, edge) of ``points_in_poly`` over every part."""
    from whitebox_tools_ray.kernels import geometry

    edges = sum(len(p.xs) - 1 for p in parts)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for p in parts:
            geometry.points_in_poly(px, py, p.xs, p.ys)
        best = min(best, time.perf_counter() - t0)
    return best * 1e9 / (len(px) * edges)


# --- raster clip ----------------------------------------------------------


class RasterClip(Workload):
    """``clip_raster_to_polygon`` of a seeded f32 scene against the
    fixture layer mapped onto it, every edge split into 256 segments."""

    name = "raster_clip"
    item = "scene cell"
    TILES, TILE_PX, DENSIFY = 16, 128, 256

    def __init__(self, *a):
        super().__init__(*a)
        from whitebox_tools_ray.sources.tiles import SceneSpec

        self.spec = SceneSpec(tiles_x=self.TILES, tiles_y=self.TILES, tile_px=self.TILE_PX, seed=self.seed)
        self.polys = inputs.scene_polygons(self.spec, self.DENSIFY)

    def params(self) -> dict:
        return {"tiles": self.TILES, "px": self.TILE_PX, "densify": self.DENSIFY}

    def generate(self, out: str) -> dict:
        return inputs.generate_raster_clip(out, self.spec, self.DENSIFY)

    @property
    def scene_path(self) -> str:
        return os.path.join(self.dir, "scene.parquet")

    def run_pass(self) -> dict:
        import ray.data as rd

        from whitebox_tools_ray.stages.clip_raster import clip_raster_to_polygon

        ds = clip_raster_to_polygon(rd.read_parquet(self.scene_path), self.polys, self.spec).materialize()
        return {"ds": ds, "items": self.meta["cells"]}

    def check(self, handle: dict) -> dict:
        from whitebox_tools_ray.kernels import codecs

        tables = _blocks(handle["ds"])
        rows = np.concatenate([t["tile_row"].to_numpy() for t in tables])
        cols = np.concatenate([t["tile_col"].to_numpy() for t in tables])
        payloads = [b for t in tables for b in t["bytes"].to_pylist()]
        require(len(payloads) == self.TILES * self.TILES, f"{len(payloads)} output tiles")
        require(inputs.clip_digest(rows, cols, payloads) == self.meta["digest"], "output digest differs from oracle")
        nodata = self.spec.nodata
        inside = sum(int((codecs.decode_tile(b, "f32") != nodata).sum()) for b in payloads)
        require(inside == self.meta["cells_inside"], "inside-cell count differs from oracle")
        return {"cells_inside": inside}

    def cells_tested(self, parts) -> int:
        """Cell-centre tests ``mask_tile`` makes: each part's scan window
        intersected with every tile."""
        px = self.TILE_PX
        total = 0
        for p in parts:
            r0 = np.clip(np.arange(self.TILES) * px, p.starting_row, p.ending_row)
            r1 = np.clip(np.arange(1, self.TILES + 1) * px, p.starting_row, p.ending_row)
            c0 = np.clip(np.arange(self.TILES) * px, p.starting_col, p.ending_col)
            c1 = np.clip(np.arange(1, self.TILES + 1) * px, p.starting_col, p.ending_col)
            total += int((r1 - r0).sum() * (c1 - c0).sum())
        return total

    def traced_pass(self, tr: Tracer) -> tuple[dict, dict]:
        import ray.data as rd

        from whitebox_tools_ray.stages.clip_raster import clip_raster_to_polygon, prepare_mask_parts

        with tr.span("sources"):
            tiles = rd.read_parquet(self.scene_path).materialize()
        s_src = tiles.stats()
        read = _op_totals(new_operators(s_src, None))
        with tr.span("stages.clip_raster.prepare"):
            parts = prepare_mask_parts(self.polys, self.spec.grid_spec())
        with tr.span("stages.clip_raster"):
            out = clip_raster_to_polygon(tiles, self.polys, self.spec).materialize()
        clip = _op_totals(new_operators(out.stats(), s_src))
        busy = tr.last("stages.clip_raster")
        m = {
            "sources.read_s": tr.last("sources"),
            "sources.rows": read["rows"],
            "sources.bytes": read["bytes"],
            "sources.blocks": read["blocks"],
            "stages.clip_raster.prepare.busy_s": tr.last("stages.clip_raster.prepare"),
            "stages.clip_raster.busy_s": busy,
            "stages.clip_raster.cpu_s": clip["cpu_s"],
            "stages.clip_raster.udf_s": clip["udf_s"],
            "stages.clip_raster.startup_s": max(busy - clip["wall_s"], 0.0),
            "stages.clip_raster.cells_tested": self.cells_tested(parts),
            "stages.clip_raster.cells_inside": self.meta["cells_inside"],
        }
        del tiles
        return m, {"ds": out, "items": self.meta["cells"]}

    def replay_kernels(self) -> dict:
        from whitebox_tools_ray.kernels import codecs
        from whitebox_tools_ray.stages.clip_raster import mask_tile, prepare_mask_parts

        gs = self.spec.grid_spec()
        parts = prepare_mask_parts(self.polys, gs)
        t = pq.read_table(self.scene_path, columns=["tile_row", "tile_col", "bytes"])
        # a fixed diagonal sample of tiles, most of them crossed by parts
        sample = [i for i in range(t.num_rows) if t["tile_row"][i].as_py() == t["tile_col"][i].as_py()][:8]
        px = self.TILE_PX
        args = [(codecs.decode_tile(t["bytes"][i].as_py(), "f32"), t["tile_row"][i].as_py() * px,
                 t["tile_col"][i].as_py() * px, gs, parts) for i in sample]
        # cell centres of one tile window against the densified rings
        ys = gs.y_from_row(np.arange(px) + 5 * px)
        xs = gs.x_from_col(np.arange(px) + 5 * px)
        gx, gy = np.meshgrid(xs, ys)
        return {
            "kernels.geometry.mask_us_per_tile": _median_us(mask_tile, args, reps=1),
            "kernels.geometry.pip_ns_per_point_edge": _pip_ns(gx.ravel(), gy.ravel(), parts[:4]),
        }


WORKLOADS = {w.name: w for w in (Tiling, SpatialJoin, RasterClip)}

