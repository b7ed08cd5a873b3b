"""Vector overlay family — Intersect / Union / Difference /
SymmetricalDifference / polygon Clip & Erase / SplitWithLines /
Polygonize / Dissolve — on the planar-arrangement kernel
(kernels/arrangement.py).

Reference parity targets: gis_analysis/intersect.rs, union.rs,
difference.rs, symmetrical_difference.rs, clip.rs:574-1600 (polygon
branch), erase.rs, split_with_lines.rs, polygonize.rs, dissolve.rs.
The reference splits all polylines at mutual intersections
(src/algorithms/line_ops.rs:86-199) and classifies fragments by interior
point-in-polygon tests; this engine does the same inside a per-record
arrangement, so outputs agree as point sets. Fragment records carry the
subject record's attributes; FIDs are renumbered deterministically by
(record_id, fragment index).

Distribution shape: the subject layer streams through ``map_batches``;
the overlay layer is broadcast ONCE via ``ray.put`` (polygon layers are
the small side in the reference's workflows) with per-record bbox
pruning. The per-record kernel is pure NumPy. For overlay layers too
large to broadcast, ``overlay_copartition`` co-partitions both layers
by quad-cell and runs the same kernel per cell group — the
kernel is partition-agnostic because each subject record only ever needs
the overlay records its bbox touches.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.arrangement import overlay_groups, polygon_overlay, ring_signed_area
from ..sources.vectors import part_slices

OVERLAY_SCHEMA = pa.schema(
    [
        ("record_id", pa.int32()),
        ("frag", pa.int32()),
        ("parts", pa.list_(pa.int32())),
        ("xs", pa.list_(pa.float64())),
        ("ys", pa.list_(pa.float64())),
        ("x_min", pa.float64()),
        ("x_max", pa.float64()),
        ("y_min", pa.float64()),
        ("y_max", pa.float64()),
        ("area", pa.float64()),
    ]
)


def record_rings(parts, xs, ys) -> list[np.ndarray]:
    """Split one record's flat parts/xs/ys into (N,2) rings (open)."""
    parts = np.asarray(parts, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    rings = []
    for first, last in part_slices(parts, len(xs)):
        r = np.column_stack([xs[first : last + 1], ys[first : last + 1]])
        if len(r) > 1 and (r[0] == r[-1]).all():
            r = r[:-1]
        if len(r) >= 2:
            rings.append(r)
    return rings


def _poly_to_record_cols(poly: dict) -> tuple[list[int], list[float], list[float]]:
    """Arrangement polygon (shell CCW / holes CW) → repo record parts
    (shells CW, holes CCW — the Bourke-test convention, closed rings)."""
    parts: list[int] = []
    xs: list[float] = []
    ys: list[float] = []
    for ring, reverse in [(poly["shell"], True)] + [(h, True) for h in poly["holes"]]:
        r = ring[::-1] if reverse else ring
        r = np.vstack([r, r[:1]])  # close
        parts.append(len(xs))
        xs.extend(r[:, 0].tolist())
        ys.extend(r[:, 1].tolist())
    return parts, xs, ys


def _table_records(table: pa.Table) -> list[dict]:
    """Materialize an overlay-side table into python record dicts with
    numpy rings + bbox."""
    recs = []
    for row in table.to_pylist():
        recs.append(
            {
                "record_id": row["record_id"],
                "rings": record_rings(row["parts"], row["xs"], row["ys"]),
                "bbox": (row["x_min"], row["y_min"], row["x_max"], row["y_max"]),
            }
        )
    return recs


def _emit_polys(rid: int, polys: list[dict], out: dict, extra: dict | None = None):
    for frag, poly in enumerate(polys):
        parts, xs, ys = _poly_to_record_cols(poly)
        area = abs(ring_signed_area(poly["shell"])) - sum(
            abs(ring_signed_area(h)) for h in poly["holes"]
        )
        out["record_id"].append(rid)
        out["frag"].append(frag)
        out["parts"].append(parts)
        out["xs"].append(xs)
        out["ys"].append(ys)
        out["x_min"].append(min(xs))
        out["x_max"].append(max(xs))
        out["y_min"].append(min(ys))
        out["y_max"].append(max(ys))
        out["area"].append(area)
        if extra:
            for k, v in extra.items():
                out[k].append(v)


def _new_out(extra_cols=()) -> dict:
    out = {name: [] for name in OVERLAY_SCHEMA.names}
    for c in extra_cols:
        out[c] = []
    return out


def _out_table(out: dict) -> pa.Table:
    fields = list(OVERLAY_SCHEMA)
    extra = [k for k in out if k not in OVERLAY_SCHEMA.names]
    for k in extra:
        fields.append(pa.field(k, pa.string()))
    schema = pa.schema(fields)
    return pa.table({k: pa.array(out[k], schema.field(k).type) for k in schema.names})


class _OverlayActor:
    """Broadcast-B overlay: B records fetched once per worker, subject
    records stream through; per record bbox-prune + arrangement kernel."""

    def __init__(self, b_ref, op: str, keep_disjoint: bool):
        import ray

        self.b = ray.get(b_ref)
        self.op = op
        self.keep_disjoint = keep_disjoint
        self.b_bbox = np.array([r["bbox"] for r in self.b]) if self.b else np.empty((0, 4))

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = _new_out()
        for row in batch.to_pylist():
            rings = record_rings(row["parts"], row["xs"], row["ys"])
            if not rings:
                continue
            bx0, by0, bx1, by1 = row["x_min"], row["y_min"], row["x_max"], row["y_max"]
            if len(self.b_bbox):
                cand = np.nonzero(
                    (self.b_bbox[:, 0] <= bx1)
                    & (self.b_bbox[:, 2] >= bx0)
                    & (self.b_bbox[:, 1] <= by1)
                    & (self.b_bbox[:, 3] >= by0)
                )[0]
            else:
                cand = np.empty(0, dtype=np.int64)
            b_groups = [self.b[i]["rings"] for i in cand]
            if not b_groups:
                # bbox fast path: disjoint subjects pass difference
                # unchanged and drop out of intersect (reference's
                # bounding-box prune, e.g. difference.rs)
                if self.keep_disjoint:
                    # net even-odd area: |sum of signed areas| over rings
                    area = abs(sum(ring_signed_area(r) for r in rings))
                    out["record_id"].append(row["record_id"])
                    out["frag"].append(0)
                    out["parts"].append(list(row["parts"]))
                    out["xs"].append(list(row["xs"]))
                    out["ys"].append(list(row["ys"]))
                    out["x_min"].append(bx0)
                    out["x_max"].append(bx1)
                    out["y_min"].append(by0)
                    out["y_max"].append(by1)
                    out["area"].append(area)
                continue
            polys = polygon_overlay(rings, b_groups, self.op)
            _emit_polys(row["record_id"], polys, out)
        return _out_table(out)


def overlay(a_ds, b_table: pa.Table, op: str, concurrency=(1, 8)):
    """Per-subject-record overlay of a polygon Dataset against a
    broadcast polygon table.

    op: "intersect" (clip.rs polygon branch / intersect.rs),
        "difference" (erase.rs / difference.rs),
        "symdiff" (subject side of symmetrical_difference.rs — run once
        per side and union the outputs for the full op).
    Disjoint subjects pass through difference/symdiff unchanged and are
    dropped by intersect, exactly like the reference's bbox fast paths."""
    import ray

    b_ref = ray.put(_table_records(b_table))
    return a_ds.map_batches(
        _OverlayActor,
        fn_constructor_args=(b_ref, op, op == "difference"),
        batch_format="pyarrow",
        batch_size=64,
        concurrency=concurrency,
    )


def overlay_copartition(a_ds, b_ds, op: str, cell_size: float | None = None,
                        num_buckets: int = 32):
    """Both-sides-large overlay (the documented fallback for overlay
    layers too big to broadcast): exact same per-subject kernel
    semantics as :func:`overlay` — every subject meets the FULL set of
    B records whose bbox touches its bbox — with no ``ray.put`` of B
    and no driver materialization.

    Shape (a co-partitioned spatial join over record pairs):

    1. both layers flat-map their (cell, id, bbox) cover — keys + 4
       floats only, geometry stays put;
    2. per-cell bbox join finds candidate (a_id, b_id) pairs, each pair
       deduped to the ONE cell containing the corner
       (max(ax0, bx0), max(ay0, by0)) of the bbox intersection;
    3. pairs pull B geometry through a bucketed hash join and pack one
       candidate-list row per subject;
    4. subjects pull their pack through a second bucketed join (left,
       so bbox-disjoint subjects keep the difference fast path) and run
       the arrangement kernel.

    B geometry is replicated once per candidate pair (inherent to the
    join's selectivity); A geometry crosses the wire once. When
    ``cell_size`` is None it is estimated from a bbox-extent aggregate,
    which EXECUTES both inputs once — pass it explicitly when the
    inputs are expensive lazy pipelines."""
    import pickle

    from .joins import hash_join_bucketed

    keep_disjoint = op == "difference"

    if cell_size is None:
        from ray.data.aggregate import Max, Min

        ext = []
        for ds in (a_ds, b_ds):
            agg = ds.select_columns(["x_min", "x_max", "y_min", "y_max"]).aggregate(
                Min("x_min"), Max("x_max"), Min("y_min"), Max("y_max")
            )
            ext.append(agg)
        x0 = min(e["min(x_min)"] for e in ext)
        x1 = max(e["max(x_max)"] for e in ext)
        y0 = min(e["min(y_min)"] for e in ext)
        y1 = max(e["max(y_max)"] for e in ext)
        cell_size = max(x1 - x0, y1 - y0, 1e-9) / 32.0

    cs = float(cell_size)
    OFF = 1 << 20  # cell coordinates assumed within ±2^20 cells of origin

    def _cell_key(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        return (cx + OFF) * (1 << 21) + (cy + OFF)

    def cover(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            rid = batch["record_id"].to_numpy(zero_copy_only=False)
            x0 = batch["x_min"].to_numpy(zero_copy_only=False)
            x1 = batch["x_max"].to_numpy(zero_copy_only=False)
            y0 = batch["y_min"].to_numpy(zero_copy_only=False)
            y1 = batch["y_max"].to_numpy(zero_copy_only=False)
            cells, ids, bx0, bx1, by0, by1 = [], [], [], [], [], []
            cx0 = np.floor(x0 / cs).astype(np.int64)
            cx1 = np.floor(x1 / cs).astype(np.int64)
            cy0 = np.floor(y0 / cs).astype(np.int64)
            cy1 = np.floor(y1 / cs).astype(np.int64)
            for i in range(len(rid)):
                for cx in range(cx0[i], cx1[i] + 1):
                    for cy in range(cy0[i], cy1[i] + 1):
                        cells.append((cx + OFF) * (1 << 21) + (cy + OFF))
                        ids.append(int(rid[i]))
                        bx0.append(x0[i])
                        bx1.append(x1[i])
                        by0.append(y0[i])
                        by1.append(y1[i])
            return pa.table(
                {
                    "cell": pa.array(cells, pa.int64()),
                    "rid": pa.array(ids, pa.int64()),
                    "bx0": pa.array(bx0, pa.float64()),
                    "bx1": pa.array(bx1, pa.float64()),
                    "by0": pa.array(by0, pa.float64()),
                    "by1": pa.array(by1, pa.float64()),
                    "side": pa.array([side] * len(ids), pa.int8()),
                }
            )

        return fn

    def pair_group(g: pd.DataFrame) -> pd.DataFrame:
        cell = int(g["cell"].iloc[0])
        A = g[g["side"] == 0]
        B = g[g["side"] == 1]
        if not len(A) or not len(B):
            return pd.DataFrame({"a_id": pd.Series([], dtype=np.int64),
                                 "b_id": pd.Series([], dtype=np.int64)})
        bx0 = B["bx0"].to_numpy(); bx1 = B["bx1"].to_numpy()
        by0 = B["by0"].to_numpy(); by1 = B["by1"].to_numpy()
        bid = B["rid"].to_numpy()
        a_out, b_out = [], []
        for _, a in A.iterrows():
            hit = (bx0 <= a["bx1"]) & (bx1 >= a["bx0"]) & (by0 <= a["by1"]) & (by1 >= a["by0"])
            if not hit.any():
                continue
            # canonical-cell dedup: keep only pairs whose intersection
            # corner lands in THIS cell
            ccx = np.floor(np.maximum(bx0[hit], a["bx0"]) / cs).astype(np.int64)
            ccy = np.floor(np.maximum(by0[hit], a["by0"]) / cs).astype(np.int64)
            keep = _cell_key(ccx, ccy) == cell
            for b in bid[hit][keep]:
                a_out.append(int(a["rid"]))
                b_out.append(int(b))
        return pd.DataFrame({"a_id": pd.Series(a_out, dtype=np.int64),
                             "b_id": pd.Series(b_out, dtype=np.int64)})

    def pack_b(g: pd.DataFrame) -> pd.DataFrame:
        groups = []
        for _, row in g.iterrows():
            groups.append(record_rings(row["parts"], row["xs"], row["ys"]))
        return pd.DataFrame(
            {
                "a_id": pd.Series([int(g["a_id"].iloc[0])], dtype=np.int64),
                "bpack": pd.Series([pickle.dumps(groups)], dtype=object),
            }
        )

    def run_kernel(batch: pd.DataFrame) -> pa.Table:
        out = _new_out()
        for _, row in batch.iterrows():
            rings = record_rings(row["parts"], row["xs"], row["ys"])
            if not rings:
                continue
            bp = row.get("bpack")
            has_pack = bp is not None and not (isinstance(bp, float) and np.isnan(bp))
            if not has_pack:
                if keep_disjoint:
                    area = abs(sum(ring_signed_area(r) for r in rings))
                    out["record_id"].append(row["record_id"])
                    out["frag"].append(0)
                    out["parts"].append(list(row["parts"]))
                    out["xs"].append(list(row["xs"]))
                    out["ys"].append(list(row["ys"]))
                    out["x_min"].append(row["x_min"])
                    out["x_max"].append(row["x_max"])
                    out["y_min"].append(row["y_min"])
                    out["y_max"].append(row["y_max"])
                    out["area"].append(area)
                continue
            b_groups = pickle.loads(bytes(bp))
            polys = polygon_overlay(rings, b_groups, op)
            _emit_polys(int(row["record_id"]), polys, out)
        return _out_table(out)

    a_cells = a_ds.map_batches(cover(0), batch_format="pyarrow")
    b_cells = b_ds.map_batches(cover(1), batch_format="pyarrow")
    pairs = (
        a_cells.union(b_cells)
        .groupby("cell")
        .map_groups(pair_group, batch_format="pandas")
    )
    with_geom = hash_join_bucketed(pairs, b_ds, key="b_id", right_key="record_id",
                                   num_buckets=num_buckets)
    packed = with_geom.groupby("a_id").map_groups(pack_b, batch_format="pandas")
    joined = hash_join_bucketed(a_ds, packed, key="record_id", right_key="a_id",
                                how="left", num_buckets=num_buckets)
    return joined.map_batches(run_kernel, batch_format="pandas", batch_size=64)


def intersect(a_ds, b_table, **kw):
    return overlay(a_ds, b_table, "intersect", **kw)


def difference(a_ds, b_table, **kw):
    return overlay(a_ds, b_table, "difference", **kw)


def clip_polys(a_ds, clip_table, **kw):
    """Clip, polygon branch (clip.rs:574-1600): subject ∩ clip region,
    subject attributes preserved."""
    return overlay(a_ds, clip_table, "intersect", **kw)


def erase_polys(a_ds, erase_table, **kw):
    """Erase, polygon branch (erase.rs): subject − erase region."""
    return overlay(a_ds, erase_table, "difference", **kw)


def symmetrical_difference(a_ds, b_table, b_ds, a_table, **kw):
    """symmetrical_difference.rs: (A − B) ⊎ (B − A). Each side streams
    against the other side broadcast; record_ids from layer B are offset
    by 1_000_000 to keep fragment keys unique."""
    a_side = overlay(a_ds, b_table, "difference", **kw)
    b_side = overlay(b_ds, a_table, "difference", **kw).map_batches(
        _offset_record_id, batch_format="pyarrow"
    )
    return a_side.union(b_side)


def union_layers(a_ds, b_table, b_ds, a_table, **kw):
    """union.rs: region covered by either layer, decomposed as
    A ⊎ (B − A): subject records pass through fragmented only where B
    boundaries cross them (A ∩ B and A − B fragments), plus B − A.
    Point-set equal to the reference's union output."""
    a_int = overlay(a_ds, b_table, "intersect", **kw)
    a_diff = overlay(a_ds, b_table, "difference", **kw).map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("frag"),
            "frag",
            pa.array((np.asarray(t["frag"]) + 10_000).astype(np.int32), pa.int32()),
        ),
        batch_format="pyarrow",
    )
    b_diff = overlay(b_ds, a_table, "difference", **kw).map_batches(
        _offset_record_id, batch_format="pyarrow"
    )
    return a_int.union(a_diff).union(b_diff)


def _offset_record_id(t: pa.Table) -> pa.Table:
    rid = np.asarray(t["record_id"], dtype=np.int64) + 1_000_000
    return t.set_column(
        t.schema.get_field_index("record_id"), "record_id", pa.array(rid.astype(np.int32), pa.int32())
    )


class _SplitActor:
    """SplitWithLines (split_with_lines.rs): cut subject polygons by a
    broadcast polyline layer; each arrangement face inside the subject
    becomes its own fragment (no dissolve)."""

    def __init__(self, lines_ref):
        import ray

        self.lines = ray.get(lines_ref)  # list of (N,2) polylines + bbox

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = _new_out()
        for row in batch.to_pylist():
            rings = record_rings(row["parts"], row["xs"], row["ys"])
            if not rings:
                continue
            bx0, by0, bx1, by1 = row["x_min"], row["y_min"], row["x_max"], row["y_max"]
            segs = [
                ln
                for ln, (lx0, ly0, lx1, ly1) in self.lines
                if lx0 <= bx1 and lx1 >= bx0 and ly0 <= by1 and ly1 >= by0
            ]
            polys = overlay_groups(
                [rings], lambda m: bool(m[0]), extra_segments=segs, dissolve=False
            )
            _emit_polys(row["record_id"], polys, out)
        return _out_table(out)


def split_with_lines(a_ds, lines_table: pa.Table, concurrency=(1, 8)):
    import ray

    lines = []
    for row in lines_table.to_pylist():
        for r in record_rings(row["parts"], row["xs"], row["ys"]):
            # polylines: record_rings drops the closing vertex only when
            # closed; re-append nothing — treat as open chain
            lines.append((r, (r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max())))
    ref = ray.put(lines)
    return a_ds.map_batches(
        _SplitActor,
        fn_constructor_args=(ref,),
        batch_format="pyarrow",
        batch_size=64,
        concurrency=concurrency,
    )


def dissolve(ds, field: str = "zone", salt: int | None = 8):
    """dissolve.rs:254-302: merge polygons sharing an attribute value by
    removing shared edges — arrangement union per attribute value.

    Skew-safe two-stage shape: records first salt into ``salt``
    sub-groups (``groupby(field, salt)``) and each sub-group dissolves
    independently; the partial polygons (already collapsed — far fewer
    rings than input records) then merge in one ``groupby(field)``. The
    arrangement union is associative, so the result is identical to the
    single-stage form while a hot zone value never lands on a single
    task holding every input record. ``salt=None`` disables staging."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        groups = [
            record_rings(row["parts"], row["xs"], row["ys"]) for _, row in g.iterrows()
        ]
        groups = [r for r in groups if r]
        polys = overlay_groups(groups, lambda m: bool(m.any()))
        out = _new_out()
        key = g[field].iloc[0]
        _emit_polys(int(g["record_id"].min()), polys, out)
        df = pa.Table.from_pydict({k: out[k] for k in out}).to_pandas()
        df[field] = key
        return df

    if salt and salt > 1:

        def add_salt(batch: pa.Table) -> pa.Table:
            s = batch["record_id"].to_numpy(zero_copy_only=False).astype(np.int64) % salt
            return batch.append_column("__salt", pa.array(s, pa.int64()))

        partial = (
            ds.map_batches(add_salt, batch_format="pyarrow")
            .groupby([field, "__salt"])
            .map_groups(merge, batch_format="pandas")
        )
        return partial.groupby(field).map_groups(merge, batch_format="pandas")
    return ds.groupby(field).map_groups(merge, batch_format="pandas")


def polygonize(lines_table: pa.Table):
    """polygonize.rs: bounded faces of a polyline arrangement. The line
    layer is a single small table (the reference loads it whole too);
    returns a pa.Table of polygon records."""
    from ..kernels.arrangement import polygonize_segments

    segs = []
    for row in lines_table.to_pylist():
        segs.extend(record_rings(row["parts"], row["xs"], row["ys"]))
    polys = polygonize_segments(segs)
    out = _new_out()
    _emit_polys(1, polys, out)
    # renumber fragments as standalone FIDs
    out["record_id"] = list(range(1, len(out["frag"]) + 1))
    out["frag"] = [0] * len(out["frag"])
    return _out_table(out)


def merge_line_segments(ds, snap: float = 1e-9):
    """MergeLineSegments (merge_line_segments.rs): stitch touching line
    segments into maximal chains.

    Fully distributed shape: quantized endpoint keys per segment
    (``map_batches``), ``groupby(node)`` emits a segment-adjacency pair
    for every degree-2 node, the pairs resolve to chain ids through the
    distributed min-label propagation (``dedup.components_minlabel``), a
    bucketed hash join attaches the chain id to the geometry, and one
    ``groupby(chain)`` assembles each polyline with a LOCAL walk over
    just that chain's segments. Driver state is only the set of
    junction nodes (degree ≥ 3 — O(junctions), tiny), broadcast so the
    local walk breaks chains exactly where the global graph does."""
    import ray

    from .dedup import components_minlabel
    from .joins import hash_join_bucketed

    # 1. (segment_id, endpoint keys) — ids + 4 ints per record
    def keys(batch: pa.Table) -> pa.Table:
        rid = batch["record_id"].to_numpy(zero_copy_only=False)
        k = {"record_id": [], "ax": [], "ay": [], "bx": [], "by": []}
        for i, row in enumerate(batch.to_pylist()):
            xs = np.asarray(row["xs"])
            ys = np.asarray(row["ys"])
            k["record_id"].append(int(rid[i]))
            k["ax"].append(int(round(xs[0] / snap)))
            k["ay"].append(int(round(ys[0] / snap)))
            k["bx"].append(int(round(xs[-1] / snap)))
            k["by"].append(int(round(ys[-1] / snap)))
        return pa.table({c: pa.array(v, pa.int64()) for c, v in k.items()})

    kt = ds.map_batches(keys, batch_format="pyarrow")

    # 2. node incidence rows → per-node degree; degree-2 nodes emit one
    #    adjacency pair, degree≥3 nodes are junctions (chain breaks)
    def node_rows(batch: pa.Table) -> pa.Table:
        rid = batch["record_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "nx": pa.concat_arrays([batch["ax"].combine_chunks(), batch["bx"].combine_chunks()]),
                "ny": pa.concat_arrays([batch["ay"].combine_chunks(), batch["by"].combine_chunks()]),
                "record_id": pa.array(np.concatenate([rid, rid]), pa.int64()),
            }
        )

    # kind 0 → (a, b) is a segment-adjacency pair; kind 1 → (a, b) is a
    # junction node key. Plain int64 throughout (extension dtypes poison
    # downstream schema negotiation).
    def per_node(g: pd.DataFrame) -> pd.DataFrame:
        deg = len(g)
        if deg == 2:
            a, b = sorted(g["record_id"].tolist())
            if a != b:  # a 2-point closed loop segment touches itself
                return pd.DataFrame({"kind": [np.int8(0)], "a": [np.int64(a)], "b": [np.int64(b)]})
        if deg >= 3:
            return pd.DataFrame(
                {"kind": [np.int8(1)],
                 "a": [np.int64(g["nx"].iloc[0])], "b": [np.int64(g["ny"].iloc[0])]}
            )
        return pd.DataFrame(
            {"kind": np.array([], np.int8), "a": np.array([], np.int64), "b": np.array([], np.int64)}
        )

    node_out = (
        kt.map_batches(node_rows, batch_format="pyarrow")
        .groupby(["nx", "ny"])
        .map_groups(per_node, batch_format="pandas")
        .materialize()
    )
    import pyarrow.compute as pc

    junctions = set(
        map(
            tuple,
            node_out.map_batches(
                lambda b: b.filter(pc.equal(b["kind"], 1)).select(["a", "b"]),
                batch_format="pyarrow",
            ).to_pandas().to_numpy(),
        )
    )
    jref = ray.put(junctions)
    pairs = node_out.map_batches(
        lambda b: pa.table(
            {"id_a": (f := b.filter(pc.equal(b["kind"], 0)))["a"], "id_b": f["b"]}
        ),
        batch_format="pyarrow",
    )

    # 3. chain id = connected component (min record_id in the chain)
    if pairs.count() > 0:
        labels = components_minlabel(pairs).map_batches(
            lambda b: pa.table({"node": b["node"], "chain_lbl": b["component"]}),
            batch_format="pyarrow",
        )
        joined = hash_join_bucketed(ds, labels, key="record_id", right_key="node", how="left")
    else:
        joined = ds.map_batches(
            lambda b: b.append_column("chain_lbl", pa.nulls(b.num_rows, pa.int64())),
            batch_format="pyarrow",
        )

    def set_chain(batch: pd.DataFrame) -> pd.DataFrame:
        lbl = batch["chain_lbl"]
        batch = batch.drop(columns=["chain_lbl"])
        batch["chain"] = lbl.where(lbl.notna(), batch["record_id"]).astype(np.int64)
        return batch

    # 4. one group per chain: local ordered walk (O(chain length))
    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        junc = _ray.get(jref)
        segs = {}
        for _, row in g.iterrows():
            xs = np.asarray(row["xs"], dtype=np.float64)
            ys = np.asarray(row["ys"], dtype=np.float64)
            a = (int(round(xs[0] / snap)), int(round(ys[0] / snap)))
            b = (int(round(xs[-1] / snap)), int(round(ys[-1] / snap)))
            segs[int(row["record_id"])] = (a, b, xs, ys)
        from collections import defaultdict

        node_segs = defaultdict(list)
        for sid, (a, b, _, _) in segs.items():
            node_segs[a].append(sid)
            node_segs[b].append(sid)
        # start from the smallest segment and extend both ways through
        # pass-through nodes (local degree 2, not a global junction)
        start = min(segs)
        chain = [(start, False)]
        used = {start}
        for direction in (0, 1):
            cur, flipped = start, False
            while True:
                a, b = segs[cur][0], segs[cur][1]
                tip = (b if not flipped else a) if direction == 0 else (a if not flipped else b)
                if len(node_segs[tip]) != 2 or tip in junc:
                    break
                nxts = [s for s in node_segs[tip] if s != cur and s not in used]
                if not nxts:
                    break
                nxt = nxts[0]
                na, nb = segs[nxt][0], segs[nxt][1]
                nflip = (na != tip) if direction == 0 else (nb != tip)
                if direction == 0:
                    chain.append((nxt, nflip))
                else:
                    chain.insert(0, (nxt, not nflip))
                used.add(nxt)
                cur, flipped = nxt, nflip
        xs_out: list[float] = []
        ys_out: list[float] = []
        for sid, fl in chain:
            rx = list(segs[sid][2])
            ry = list(segs[sid][3])
            if fl:
                rx, ry = rx[::-1], ry[::-1]
            if xs_out and abs(xs_out[-1] - rx[0]) < snap * 2 and abs(ys_out[-1] - ry[0]) < snap * 2:
                rx, ry = rx[1:], ry[1:]
            xs_out.extend(rx)
            ys_out.extend(ry)
        return pd.DataFrame(
            {
                "record_id": [int(g["chain"].iloc[0])],
                "parts": [[0]],
                "xs": [xs_out],
                "ys": [ys_out],
                "n_segments": [len(chain)],
            }
        )

    return (
        joined.map_batches(set_chain, batch_format="pandas")
        .groupby("chain")
        .map_groups(assemble, batch_format="pandas")
    )
