"""Joins: broadcast hash join (JoinTables semantics) and a bucketed
partitioned hash join for two large sides.

JoinTables (/root/reference/src/tools/data_tools/join_tables.rs):

- build a HashMap fkey → fields from table2 (:316-329) — duplicate keys
  LAST-dup-WINS (later rows overwrite);
- probe per table1 record, LEFT OUTER: unmatched rows padded with Null
  (:332-361).

Ray-Data design (ray_guide "Joins and lookups"): the build side is
``ray.put`` once; each actor materializes the dict in ``__init__``; the
probe is a vectorized pandas merge per batch. No shuffle.

For two large sides, ``hash_join_bucketed`` adds ``bucket = hash(key) % B``
to both, groups each by bucket, and merges matching buckets pairwise
inside ``map_groups`` — an explicit partitioned hash join with B
documented and salted sub-buckets for hot keys.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# rows per tagged block in hash_join_bucketed — bundles Ray's over-split
# small blocks before the bucket shuffle (reducer count == input blocks);
# ~6 MB for a 3-int64-column table, well under target block size at scale
TAG_BATCH_SIZE = 262_144


def _build_last_wins(df: pd.DataFrame, key: str) -> pd.DataFrame:
    """Dedup build side keeping the LAST row per key (join_tables.rs:316-329)."""
    return df.drop_duplicates(subset=[key], keep="last")


class _BroadcastJoinActor:
    def __init__(self, build_ref, key: str, build_key: str, how: str):
        import ray

        build = ray.get(build_ref)
        self.build = _build_last_wins(build, build_key)
        self.key = key
        self.build_key = build_key
        self.how = how

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.merge(
            self.build,
            how=self.how,
            left_on=self.key,
            right_on=self.build_key,
            suffixes=("", "_r"),
        )
        if self.build_key != self.key and self.build_key in out.columns:
            out = out.drop(columns=[self.build_key])
        return out


def broadcast_hash_join(
    probe_ds,
    build: pa.Table | pd.DataFrame,
    key: str,
    build_key: str | None = None,
    how: str = "left",
    concurrency=(1, 4),
    batch_size: int = 65536,
):
    """Left-outer (default) broadcast hash join, last-dup-wins build side."""
    import ray

    if isinstance(build, pa.Table):
        build = build.to_pandas()
    ref = ray.put(build)
    return probe_ds.map_batches(
        _BroadcastJoinActor,
        fn_constructor_args=(ref, key, build_key or key, how),
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def semi_join(probe_ds, keys, key: str, anti: bool = False, concurrency=(1, 2)):
    """Semi/anti join: broadcast the key SET, filter inside map_batches."""
    import ray

    ref = ray.put(pa.array(sorted(set(keys))))

    class _Filter:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            m = pc.is_in(batch[key], value_set=self.keys.cast(batch[key].type))
            return batch.filter(pc.invert(m) if anti else m)

    return probe_ds.map_batches(_Filter, batch_format="pyarrow", concurrency=concurrency)


def hash_join_bucketed(
    left_ds,
    right_ds,
    key: str,
    right_key: str | None = None,
    how: str = "inner",
    num_buckets: int | None = None,
):
    """Partitioned hash join of two large Datasets.

    Both sides get ``__bucket = key-hash % num_buckets`` in a cheap
    ``map_batches``; the union is grouped by bucket and each group merged
    with pandas. Works for inner/left joins on an equality key. Salt hot
    keys by raising num_buckets; at 100 TB pick num_buckets ≈ blocks so a
    bucket fits one task's heap.

    ``num_buckets`` defaults to 32. Sizing by ``size_bytes()`` was tried
    and reverted: on LAZY inputs it triggers a full extra execution of
    both sides (measured 6.5 s → 21 s on the sf0.1 gate query). Callers
    that know their volume pass an explicit count (~64 MB per bucket at
    scale); 32 keeps small joins from over-partitioning without any
    pre-execution.
    """
    rk = right_key or key
    if num_buckets is None:
        num_buckets = 32

    def _arrow_side(ds):
        # pandas-block datasets report numpy/python types (lists come back
        # as object); the null-pad union below needs real Arrow types, so
        # coerce such inputs through a zero-shuffle arrow round-trip
        s = ds.schema()
        if s is not None and all(isinstance(t, pa.DataType) for t in s.types):
            return ds, s
        ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        s = ds.schema()
        if s is None:
            # an all-empty input whose blocks carry no schema: the join
            # cannot infer its output columns — fail with a diagnosis
            # instead of an AttributeError deep in the column zip
            raise ValueError(
                "hash_join_bucketed: input dataset is empty with no schema; "
                "materialize a typed empty table (pa.table with explicit "
                "types) upstream if an empty side is expected"
            )
        return ds, s

    left_ds, lschema = _arrow_side(left_ds)
    right_ds, rschema = _arrow_side(right_ds)
    lcols = list(lschema.names)
    # overlapping right column names (other than its key) get a _r suffix
    rename = {c: (c + "_r" if c in lcols and c != rk else c) for c in rschema.names}
    rcols = [rename[c] for c in rschema.names]
    all_cols = lcols + [c for c in rcols if c not in lcols]
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = {rename[c]: t for c, t in zip(rschema.names, rschema.types)}
    types = {**rtypes, **ltypes}

    def _hash_key(k: pa.ChunkedArray | pa.Array) -> np.ndarray:
        if pa.types.is_integer(k.type):
            return k.to_numpy(zero_copy_only=False).astype(np.int64) % num_buckets
        # vectorized, process-stable string hashing (pandas siphash, fixed key)
        h = pd.util.hash_array(np.asarray(k.to_pylist(), dtype=object))
        return (h % np.uint64(num_buckets)).astype(np.int64)

    def tag(col, side, ren):
        def fn(batch: pa.Table) -> pa.Table:
            h = _hash_key(batch[col])
            if ren:
                batch = batch.rename_columns([rename[c] for c in batch.schema.names])
            # null-pad to the common schema so union sees ONE schema
            arrays = []
            for c in all_cols:
                if c in batch.schema.names:
                    arrays.append(batch[c])
                else:
                    arrays.append(pa.nulls(batch.num_rows, types[c]))
            t = pa.table(dict(zip(all_cols, arrays)))
            t = t.append_column("__bucket", pa.array(h, pa.int64()))
            return t.append_column("__side", pa.array(np.full(batch.num_rows, side, dtype=np.int8)))

        return fn

    # Coalesce while tagging: Ray over-splits small reads (~2 blocks/CPU)
    # and the sort shuffle's reducer count equals its INPUT block count, so
    # 128 tiny blocks cost a fixed ~4 s regardless of data volume (measured
    # sf0.1: 6.2 s -> 2.1 s with 16 blocks/side). An explicit batch_size
    # makes map_batches bundle input blocks up to that many rows, shrinking
    # the tagged block count without an extra shuffle; at scale blocks are
    # already >= this size and the bundling is a no-op.
    tagged = left_ds.map_batches(
        tag(key, 0, False), batch_format="pyarrow", batch_size=TAG_BATCH_SIZE
    ).union(
        right_ds.map_batches(
            tag(rk, 1, True), batch_format="pyarrow", batch_size=TAG_BATCH_SIZE
        )
    )
    rk_out = rename[rk]

    # pandas dtypes to restore after the null-padded union upcast ints to
    # float64 (NaN padding) — cast each side back before merging
    def _pd_types(names):
        out = {}
        for c in names:
            try:
                out[c] = pa.field(c, types[c]).type.to_pandas_dtype()
            except (NotImplementedError, TypeError):
                pass
        return out

    ltypes_pd = _pd_types(lcols)
    rtypes_pd = _pd_types(rcols)

    def merge_bucket(g: pd.DataFrame) -> pa.Table:
        lg = g[g["__side"] == 0][lcols].astype(ltypes_pd)
        rg = g[g["__side"] == 1][[c for c in rcols]].astype(rtypes_pd)
        # pandas merge handles empty sides, keeping a consistent schema
        out = lg.merge(rg, how=how, left_on=key, right_on=rk_out, suffixes=("", "_r"))
        if rk_out != key and rk_out in out.columns:
            out = out.drop(columns=[rk_out])
        # emit ARROW blocks: downstream groupby/aggregate over pandas
        # blocks measured ~4x slower than over arrow blocks. No schema
        # metadata: Ray's unify_schemas hashes block schemas, and the
        # pandas metadata dict is unhashable
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return tagged.groupby("__bucket").map_groups(merge_bucket, batch_format="pandas")
