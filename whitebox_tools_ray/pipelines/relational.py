"""Query builders over the driver's TPC-H-ish parquet tables.

Each gate query ``q_<name>(sf_dir)`` returns a Ray Dataset / pandas
DataFrame. Its exact DuckDB-SQL twin is a ``Q_<NAME>_SQL`` string or a
``q_<name>_sql()`` builder, and one row of the gate table in
``__ray_entry__.py`` pairs the two (seven gates have no twin and are
checked by row count only). Column names AND value rounding must match
on both sides (the driver hashes values after sorting columns by name).
Queries take nothing but ``sf_dir`` and builders take nothing: a value
both sides must agree on (a cell level, a threshold, a window size) is
one module constant that both read.

The raster gates share one builder per fixture (the "gate fixtures"
block below): ``_scene`` cuts a full NumPy grid (``_dem_grid``,
``_valley_grid``, ...) into tile rows and the Dataset constructor stays
at each call site; ``_tiles_to_cells`` flattens output tiles to
``(row, col, value)`` cells, and ``_round_cells`` / ``_int_cells`` /
``_valid_cells`` finish them. The twins are assembled from the matching
SQL pieces (``_DEM_Z`` / ``_VALLEY_Z`` z templates, the ``_WIN_G`` grid,
the D8 pointer CTEs of ``_d8_prelude`` and ``_d8_case``) without being
reformulated: each builder emits the SQL text it emitted before the
pieces existed.

The synthetic point layer used by the spatial queries is derived
DETERMINISTICALLY from lineitem with int64 arithmetic so the oracle can
reproduce it in SQL:

    record_id = l_orderkey * 10 + l_linenumber
    x = ((l_orderkey * 7919 + l_linenumber * 104729) % 1000000) / 1000.0
    y = ((l_partkey * 6271 + l_suppkey * 3571) % 1000000) / 1000.0

(the same double division in both engines → bit-identical coordinates).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

SYNTH_POINTS_SQL = """
    SELECT l_orderkey * 10 + l_linenumber AS record_id,
           ((l_orderkey * 7919 + l_linenumber * 104729) % 1000000) / 1000.0 AS x,
           ((l_partkey * 6271 + l_suppkey * 3571) % 1000000) / 1000.0 AS y,
           l_quantity AS value
    FROM lineitem
"""

# Values a gate query and its SQL twin must agree on; both read the constant.
CELL_BINNING_LEVEL = 18  # cell_binning
TILE_WIDTH = 125.0  # tile_assign
SESSION_GAP_S = 1800  # session_windows
NEAR_DUP_MIN_COSINE = 0.455  # near_dup_cosine
FRAME_EVERY_N = 10  # frame_sample
SAMPLE_FRACTION = 0.1  # random_sample
SAMPLE_SEED = 7  # random_sample
WINDOW_SIZE_S = 3600  # sliding_window
WINDOW_HOP_S = 900  # sliding_window
HEX_RES = 9  # hex_binning
NUM_QUANTILES = 5  # quantiles
TOPK_PER_GROUP = 2  # topk_per_group
HYPSOMETRIC_BINS = 100  # hypsometric
PCA_COV_DIMS = 6  # pca_cov
KMEANS_K = 4  # kmeans_1iter
JACCARD_K = 3  # jaccard_pairs (word shingle length)
JACCARD_MIN = 0.5  # jaccard_pairs
GAUSSIAN_SIGMA = 0.75  # gaussian_filter
OPENING_RADIUS = 1  # opening_morph
STREAM_THRESHOLD = 25.0  # strahler_order, farthest_channel_head (acc >)
RELATIVE_AZIMUTH = 45.0  # relative_aspect
PLANE_BASE = 10.0  # create_plane
PLANE_SLOPE_DEG = 2.0  # create_plane
PLANE_ASPECT_DEG = 135.0  # create_plane
DEM_STREAM_THRESHOLD = 5.0  # stream_dist_outlet, shreve_magnitude, elev_above_stream (acc >)
WATERSHED_POURS = [(10, 20, 1), (40, 45, 2), (55, 9, 3)]  # watershed_grid: (row, col, pour id)
ALLOCATION_TARGETS = [(36, 49, 3.0), (44, 2, 8.0), (59, 45, 5.0)]  # allocation: (row, col, value), tie-free
# idw_grid, idw_grid_cp, nn_grid: (row, col, col fraction, row fraction, value)
# points; verified free of d=0 and d=radius boundary hits
IDW_POINTS = [(5, 7, 0.3, 0.7, 11.0), (20, 40, 0.6, 0.2, 23.0), (50, 12, 0.1, 0.9, 7.0),
              (33, 33, 0.8, 0.4, 17.0), (10, 55, 0.2, 0.3, 29.0), (60, 60, 0.7, 0.6, 5.0)]


def read(sf_dir: str, table: str, columns=None, **read_kwargs):
    import pyarrow.parquet as pq
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    # The generated parquet carries pandas schema metadata that makes
    # pa.Schema unhashable in this pyarrow build → every downstream
    # reduce logs "Failed to hash the schemas (for deduplication)".
    # Passing a metadata-stripped schema to the read fixes block-schema
    # dedup (and drops the noise) at zero cost.
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema, **read_kwargs)


def synth_points(sf_dir: str, num_blocks: int | None = None):
    """The deterministic point layer (see module docstring).

    ``num_blocks`` overrides Ray's read split. Ray's small-file heuristic
    over-splits (~2 blocks/CPU regardless of size: 64 blocks for a
    21 MB read), and each downstream block costs ~5-10 ms of driver
    bookkeeping; at 32 CPUs, 16 blocks measured 1.15-1.22 s for the
    bench join vs 1.56-2.06 s at the auto split. Leave None for inputs
    big enough that byte-targeted blocks dominate the heuristic."""
    ds = read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey", "l_quantity"],
        **({"override_num_blocks": num_blocks} if num_blocks else {}),
    )

    def derive(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "record_id": pa.array(ok * 10 + ln, pa.int64()),
                "x": pa.array(((ok * 7919 + ln * 104729) % 1000000) / 1000.0),
                "y": pa.array(((pk * 6271 + sk * 3571) % 1000000) / 1000.0),
                "value": pa.array(qty),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


def round_cols(ds, decimals: dict[str, int]):
    """Round float columns identically to the oracle's ROUND(...)."""

    def fn(batch: pa.Table) -> pa.Table:
        for c, d in decimals.items():
            idx = batch.schema.get_field_index(c)
            v = np.round(batch[c].to_numpy(zero_copy_only=False).astype(np.float64), d)
            batch = batch.set_column(idx, c, pa.array(v))
        return batch

    return ds.map_batches(fn, batch_format="pyarrow")


# --- gate fixtures ---

# z of the analytic DEM (31·row + 17·col) mod 97 and of the valley DEM, as
# SQL over {r}/{c}; _dem_grid and _valley_grid are the same grids in NumPy.
_DEM_Z = "CAST(((({r}) * 31 + ({c}) * 17) % 97) AS DOUBLE)"
_VALLEY_Z = "CAST((3 * ({r}) + 2 * ABS(({c}) - 32) + ((({r}) * 7 + ({c}) * 5) % 3)) AS DOUBLE)"
# the analytic DEM's z with the Horn / Evans / 3×3-stencil edge rule: an
# off-grid {r}/{c} reads the centre cell g instead
_DEM_Z_EDGE = (
    "CAST((CASE WHEN {r} BETWEEN 0 AND 63 AND {c} BETWEEN 0 AND 63"
    " THEN ({r}) * 31 + ({c}) * 17 ELSE g.row * 31 + g.col * 17 END) % 97 AS DOUBLE)"
)
_WIN_G = """g AS (SELECT r.r AS row, c.c AS col
               FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
                    (SELECT unnest(generate_series(0, 63)) AS c) c)"""
# int32 tile keys (codecs.tile_table's), for the single-block EDT-target scene
_TILE_I32 = pa.schema(
    [("tile_row", pa.int32()), ("tile_col", pa.int32()), ("bytes", pa.binary()), ("fmt", pa.string())]
)


def _dem_z_edge(dr: int, dc: int) -> str:
    """_DEM_Z_EDGE at the neighbour (g.row + dr, g.col + dc)."""
    return _DEM_Z_EDGE.format(r=f"(g.row + ({dr}))", c=f"(g.col + ({dc}))")


def _dem_grid(n: int = 64, a: int = 31, b: int = 17, m: int = 97) -> np.ndarray:
    """n×n grid z = (row·a + col·b) mod m: the analytic DEM by default
    (integer-exact on both sides of a compare); other (a, b, m) give the
    overlay-stack and mosaic layers."""
    r, c = np.indices((n, n), dtype=np.int64)
    return ((r * a + c * b) % m).astype(np.float64)


def _valley_grid() -> np.ndarray:
    """64×64 valley DEM z = 3r + 2|c−32| + ((7r+5c) mod 3): drainage
    converges on the centre column (50+ stream junctions at threshold
    25, Strahler orders up to 3 — the mod-97 sheet has NO junctions, so
    network-topology gates need this surface). Integer-exact both sides."""
    r, c = np.indices((64, 64), dtype=np.int64)
    return (3 * r + 2 * np.abs(c - 32) + ((r * 7 + c * 5) % 3)).astype(np.float64)


def _edt_targets(sf_dir: str) -> np.ndarray:
    """64×64 binary target grid of the euclidean_distance / buffer_raster
    gates: 1 at ((13k) mod 64, (29k) mod 64) for each nation key k."""
    keys = read(sf_dir, "nation", columns=["n_nationkey"]).to_pandas()["n_nationkey"].to_numpy().astype(np.int64)
    full = np.zeros((64, 64))
    full[(keys * 13) % 64, (keys * 29) % 64] = 1.0
    return full


def _stack_grids(holed: bool = False) -> list[np.ndarray]:
    """The three overlay-stack layers z = (r·a + c·b) mod m; ``holed`` sets
    layer-1 cells with (r + c) % 7 == 0 to nodata."""
    from ..kernels.grid import DEFAULT_NODATA

    grids = [_dem_grid(a=a, b=b, m=m) for a, b, m in ((31, 17, 97), (13, 29, 89), (7, 23, 83))]
    if holed:
        r, c = np.indices(grids[1].shape)
        grids[1][(r + c) % 7 == 0] = DEFAULT_NODATA
    return grids


def _scene(full: np.ndarray, tile_px: int = 16, fmt: str = "f64", **spec_kw):
    """Cut a full H×W grid into row-major ``(tile_row, tile_col, bytes,
    fmt)`` rows of tile_px² tiles, plus the SceneSpec that frames them
    (``spec_kw``: res / west / north). The caller picks the Dataset
    constructor, and with it the gate's block layout."""
    from ..kernels import codecs
    from ..sources.tiles import SceneSpec

    ty, tx = full.shape[0] // tile_px, full.shape[1] // tile_px
    rows = []
    for tr in range(ty):
        for tc in range(tx):
            tile = full[tr * tile_px : (tr + 1) * tile_px, tc * tile_px : (tc + 1) * tile_px]
            rows.append({"tile_row": tr, "tile_col": tc, "bytes": codecs.encode_tile(tile, fmt), "fmt": fmt})
    return rows, SceneSpec(tiles_x=tx, tiles_y=ty, tile_px=tile_px, **spec_kw)


def _tiles_to_cells(tiles, spec, name: str):
    """One ``(row, col, <name>)`` row per cell of a tile Dataset, at the
    cell's scene row/col (tiles sit ``spec.tile_px`` apart)."""
    from ..kernels import codecs

    px = spec.tile_px

    def cells(batch: pa.Table) -> pa.Table:
        rr, cc, vv = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        keys = ("tile_row", "tile_col", "bytes", "fmt")
        for tr, tc, data, fmt in zip(*(batch[k].to_pylist() for k in keys)):
            g = codecs.decode_tile(data, fmt)
            r, c = np.indices(g.shape, dtype=np.int64)
            rr.append((r + tr * px).ravel())
            cc.append((c + tc * px).ravel())
            vv.append(g.ravel())
        return pa.table({"row": np.concatenate(rr), "col": np.concatenate(cc), name: np.concatenate(vv)})

    return tiles.map_batches(cells, batch_format="pyarrow")


def _round_cells(cells, name: str, nd: int = 6):
    def rnd(batch: pa.Table) -> pa.Table:
        # + 0.0 normalizes IEEE negative zero (-0.0 -> 0.0) so the value
        # hash matches SQL twins that compute the same cell as 0.0.
        v = np.round(batch[name].to_numpy(zero_copy_only=False), nd) + 0.0
        return pa.table({"row": batch["row"], "col": batch["col"], name: pa.array(v)})

    return cells.map_batches(rnd, batch_format="pyarrow")


def _int_cells(cells, name: str):
    """``<name>`` as int64: the twins compute these cells as BIGINT."""

    def cast(batch: pa.Table) -> pa.Table:
        v = np.rint(batch[name].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({"row": batch["row"], "col": batch["col"], name: v})

    return cells.map_batches(cast, batch_format="pyarrow")


def _valid_cells(cells, name: str, nodata: float):
    """Drop the nodata cells, which the twins leave out."""
    return cells.map_batches(lambda b: b.filter(pc.not_equal(b[name], nodata)), batch_format="pyarrow")


def _count_and_sum(tiles, spec):
    """Cell count and integer sum of the non-NaN cells of a tile Dataset:
    the round-trip gates' compare against an integer-sum twin."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["z"].to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        return pa.table(
            {"n_p": pa.array([v.size], pa.int64()), "sz_p": pa.array([int(np.round(v).sum())], pa.int64())}
        )

    out = _tiles_to_cells(tiles, spec, "z").map_batches(partial, batch_format="pyarrow")
    return pd.DataFrame([out.aggregate(Sum("n_p", alias_name="n"), Sum("sz_p", alias_name="sz"))])


# The D8 pointer of the twins: ring order 0=NE 1=E 2=SE 3=S 4=SW 5=W 6=NW
# 7=N (focal DY8/DX8), step lengths res and √2·res at the default res 90.
_D8_RING = [(-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0)]
_D8_LEN = [math.sqrt(2.0) * 90.0 if dr != 0 and dc != 0 else 90.0 for dr, dc in _D8_RING]
_D8_RING_VALUES = ", ".join(f"({i}, {dr}, {dc})" for i, (dr, dc) in enumerate(_D8_RING))
# argmax over the sl CTE: strictly greater, first in ring order wins ties;
# -1 where no neighbour is lower
_D8_ARGMAX = (
    "SELECT row, col, CASE WHEN m <= 0 THEN -1 "
    + " ".join(f"WHEN s{i} = m THEN {i}" for i in range(8))
    + " ELSE -1 END AS d FROM (SELECT *, GREATEST(s0, s1, s2, s3, s4, s5, s6, s7) AS m FROM sl)"
)


def _d8_sl(z: str) -> str:
    """The ``sl`` CTE: per cell of g, the drop/length slope s0..s7 to each
    in-grid ring neighbour of the z template (-1e308 off the grid)."""
    z0 = z.format(r="g.row", c="g.col")
    slopes = []
    for i, ((dr, dc), ln) in enumerate(zip(_D8_RING, _D8_LEN)):
        zi = z.format(r=f"g.row + ({dr})", c=f"g.col + ({dc})")
        cond = f"g.row + ({dr}) BETWEEN 0 AND 63 AND g.col + ({dc}) BETWEEN 0 AND 63"
        slopes.append(f"CASE WHEN {cond} THEN (({z0}) - ({zi})) / {ln!r} ELSE -1e308 END AS s{i}")
    return f"sl AS (SELECT g.row, g.col, {', '.join(slopes)} FROM g)"


def _d8_prelude(z: str = _DEM_Z, materialized: bool = False) -> str:
    """The g / sl / dirs CTEs: dirs(row, col, d) is the D8 pointer of the
    64×64 grid whose elevation is the z template."""
    dirs = "dirs AS MATERIALIZED" if materialized else "dirs AS"
    return f"{_WIN_G},\n    {_d8_sl(z)},\n    {dirs} ({_D8_ARGMAX})"


def _d8_case(col: str, what: str) -> str:
    """``CASE <col> WHEN i THEN … END`` over the ring: the row step
    (``"dr"``), column step (``"dc"``) or step length (``"len"``) of
    direction i, and 0 for any other value."""
    vals = {
        "dr": [dr for dr, _ in _D8_RING],
        "dc": [dc for _, dc in _D8_RING],
        "len": [repr(ln) for ln in _D8_LEN],
    }[what]
    other = "0.0" if what == "len" else "0"
    return f"CASE {col} " + " ".join(f"WHEN {i} THEN {v}" for i, v in enumerate(vals)) + f" ELSE {other} END"


# --- relational / aggregate queries ---


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-flavored grouped aggregate with partial pre-aggregation
    (the GBA pattern, SURVEY.md §2.11)."""
    from ray.data.aggregate import Sum

    ds = read(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["revenue"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_revenue=("revenue", "sum"),
            n_rows=("l_quantity", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=262144)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_price", alias_name="sum_base_price"),
            Sum("sum_revenue", alias_name="sum_revenue"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )
    return round_cols(out, {"sum_qty": 2, "sum_base_price": 2, "sum_revenue": 2})


Q_PRICING_SUMMARY_SQL = """
    SELECT l_returnflag, l_linestatus,
           ROUND(SUM(l_quantity), 2) AS sum_qty,
           ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
           ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS sum_revenue,
           COUNT(*) AS n_rows
    FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_join_tables_left(sf_dir: str):
    """JoinTables analog: broadcast last-dup-wins left join
    (join_tables.rs:316-361)."""
    from ..stages.joins import broadcast_hash_join

    cust = read(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    out = broadcast_hash_join(cust, nat, key="c_nationkey", build_key="n_nationkey", how="left")
    return out.select_columns(["c_custkey", "c_name", "n_name"])


Q_JOIN_TABLES_LEFT_SQL = """
    SELECT c_custkey, c_name, n_name
    FROM customer LEFT JOIN nation ON c_nationkey = n_nationkey
"""


def q_join_bucketed(sf_dir: str):
    """Partitioned hash join of two large sides + grouped reduce."""
    from ray.data.aggregate import Count, Sum

    from ..stages.joins import hash_join_bucketed

    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = hash_join_bucketed(orders, cust, key="o_custkey", right_key="c_custkey", how="inner", num_buckets=None)
    out = joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total")
    )
    return round_cols(out, {"total": 2})


Q_JOIN_BUCKETED_SQL = """
    SELECT c_mktsegment, COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS total
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
"""


def q_topk_orders(sf_dir: str):
    ds = read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, True]).limit(10)


Q_TOPK_ORDERS_SQL = """
    SELECT o_orderkey, o_totalprice FROM orders
    ORDER BY o_totalprice DESC, o_orderkey DESC LIMIT 10
"""


def q_unique_values(sf_dir: str):
    from ..stages.zonal import list_unique_values

    ds = read(sf_dir, "lineitem", columns=["l_returnflag"])
    return list_unique_values(ds, "l_returnflag")


Q_UNIQUE_VALUES_SQL = """
    SELECT l_returnflag AS value, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag
"""


def q_zonal_stats(sf_dir: str):
    """ZonalStatistics parity query (zones = event_type)."""
    from ..stages.zonal import zonal_statistics

    ds = read(sf_dir, "events", columns=["event_type", "value"])
    out = zonal_statistics(ds, "event_type", "value")
    return round_cols(out, {"total": 4, "vmin": 6, "vmax": 6, "mean": 6, "std": 6})


Q_ZONAL_STATS_SQL = """
    SELECT event_type AS zone, COUNT(*) AS n, ROUND(SUM(value), 4) AS total,
           ROUND(MIN(value), 6) AS vmin, ROUND(MAX(value), 6) AS vmax,
           ROUND(AVG(value), 6) AS mean, ROUND(STDDEV_POP(value), 6) AS std
    FROM events GROUP BY event_type
"""


def q_zscores(sf_dir: str):
    from ..stages.stats import zscores

    ds = read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
    out = zscores(ds, "c_acctbal", out_col="zscore").select_columns(["c_custkey", "zscore"])
    return round_cols(out, {"zscore": 6})


Q_ZSCORES_SQL = """
    SELECT c_custkey,
           ROUND((c_acctbal - AVG(c_acctbal) OVER ()) / STDDEV_POP(c_acctbal) OVER (), 6) AS zscore
    FROM customer
"""


def q_reclass(sf_dir: str):
    """LUT reclass (reclass.rs range mode) + class histogram."""
    from ray.data.aggregate import Count

    from ..stages.stats import reclass

    ds = read(sf_dir, "lineitem", columns=["l_quantity"])
    out = reclass(ds, "l_quantity", [(1.0, 0.0, 10.0), (2.0, 10.0, 25.0), (3.0, 25.0, 40.0), (4.0, 40.0, 1e9)], out_col="cls")
    return out.groupby("cls").aggregate(Count(alias_name="n"))


Q_RECLASS_SQL = """
    SELECT CASE WHEN l_quantity >= 0 AND l_quantity < 10 THEN 1.0
                WHEN l_quantity >= 10 AND l_quantity < 25 THEN 2.0
                WHEN l_quantity >= 25 AND l_quantity < 40 THEN 3.0
                ELSE 4.0 END AS cls,
           COUNT(*) AS n
    FROM lineitem GROUP BY 1
"""


def q_minmax_stretch(sf_dir: str):
    from ..stages.stats import minmax_stretch

    ds = read(sf_dir, "part", columns=["p_partkey", "p_retailprice"])
    out = minmax_stretch(ds, "p_retailprice", out_col="stretched").select_columns(["p_partkey", "stretched"])
    return round_cols(out, {"stretched": 6})


Q_MINMAX_STRETCH_SQL = """
    SELECT p_partkey,
           ROUND((p_retailprice - MIN(p_retailprice) OVER ())
                 / (MAX(p_retailprice) OVER () - MIN(p_retailprice) OVER ()) * 255.0, 6) AS stretched
    FROM part
"""


# --- spatial queries over the synthetic point layer ---


def q_cell_binning(sf_dir: str):
    """Quad-cell binning counts (hex/H3-binning analog, SQL-oracle-able).

    Level 18 → 64-unit cells → ~256 distinct cells over the point frame
    (level 9 put every point in ONE 32 768-unit cell — a vacuous gate)."""
    from ..stages.zonal import cell_binning

    return cell_binning(synth_points(sf_dir), "x", "y", kind="quad", level=CELL_BINNING_LEVEL)


def q_cell_binning_sql() -> str:
    from ..kernels.cells import quad_cell_sql

    return f"""
        SELECT {quad_cell_sql('x', 'y', CELL_BINNING_LEVEL)} AS cell, COUNT(*) AS n
        FROM ({SYNTH_POINTS_SQL}) GROUP BY 1
    """


def q_tile_assign(sf_dir: str):
    """LidarTile-rule tile assignment + per-tile counts
    (lidar_tile.rs:257-281 parity in SQL).

    Both passes pre-aggregate inside coalesced map_batches (1-row extent
    partials; per-batch tile counts) so the Aggregate operators see a
    handful of tiny blocks — its fixed cost scales with input block
    count, and Ray over-splits small reads to ~2 blocks/CPU."""
    from ray.data.aggregate import Max, Min, Sum

    from ..kernels.grid import TileGrid

    pts = synth_points(sf_dir)

    def ext_partial(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"mnx": [x.min()], "mxx": [x.max()], "mny": [y.min()], "mxy": [y.max()]}
        )

    ext = pts.map_batches(
        ext_partial, batch_format="pyarrow", batch_size=262144
    ).aggregate(
        Min("mnx", alias_name="mnx"), Max("mxx", alias_name="mxx"),
        Min("mny", alias_name="mny"), Max("mxy", alias_name="mxy"),
    )
    tg = TileGrid.from_extent(ext["mnx"], ext["mxx"], ext["mny"], ext["mxy"], TILE_WIDTH, TILE_WIDTH)

    def assign_count(batch: pa.Table) -> pa.Table:
        row, col, tid = tg.assign(
            batch["x"].to_numpy(zero_copy_only=False), batch["y"].to_numpy(zero_copy_only=False)
        )
        uk, cnt = np.unique(tid, return_counts=True)
        return pa.table(
            {"tile_id": pa.array(uk, pa.int64()), "n_p": pa.array(cnt, pa.int64())}
        )

    return (
        pts.map_batches(assign_count, batch_format="pyarrow", batch_size=262144)
        .groupby("tile_id")
        .aggregate(Sum("n_p", alias_name="n"))
    )


def q_tile_assign_sql() -> str:
    return f"""
        WITH pts AS ({SYNTH_POINTS_SQL}),
        ext AS (SELECT FLOOR(MIN(x) / {TILE_WIDTH}) AS sxg, CEIL(MAX(x) / {TILE_WIDTH}) AS exg,
                       FLOOR(MIN(y) / {TILE_WIDTH}) AS syg, CEIL(MAX(y) / {TILE_WIDTH}) AS eyg
                FROM pts)
        SELECT (CAST(FLOOR(y / {TILE_WIDTH} - syg) AS BIGINT)
                * CAST(ABS(exg - sxg) AS BIGINT)
                + CAST(FLOOR(x / {TILE_WIDTH} - sxg) AS BIGINT)) AS tile_id,
               COUNT(*) AS n
        FROM pts, ext GROUP BY 1
    """


# convex clip pentagon (CW in y-up frame, off-lattice vertices so no
# synthetic point lies exactly on an edge)
PENTAGON = [
    (200.137, 150.239),
    (150.613, 450.617),
    (450.331, 750.127),
    (750.519, 450.733),
    (650.417, 150.341),
]


def q_clip_points_convex(sf_dir: str):
    """Clip-Point-branch parity on the synthetic layer vs a convex
    polygon — the full engine path (broadcast parts + label-grid lookup
    + winding kernel + sequential FID). ``y`` is returned so the gate
    also checks the FID order of survivors sharing a record_id."""
    from ..sources.vectors import POLY_SCHEMA, make_polygon_record
    from ..stages.spatial_join import clip_points

    rec = make_polygon_record(1, [PENTAGON], "pentagon", 1)
    poly = pa.Table.from_pydict({k: [rec[k]] for k in POLY_SCHEMA.names}, schema=POLY_SCHEMA)
    out = clip_points(synth_points(sf_dir), poly, order_col="record_id")
    return out.select_columns(["record_id", "y", "FID"])


def q_clip_points_convex_sql() -> str:
    # CW ring in a y-up frame → interior is strictly RIGHT of each edge:
    # is_left(p0, p1, p) < 0 for every edge (poly_ops.rs:22-24 arithmetic).
    ring = PENTAGON + [PENTAGON[0]]
    conds = []
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        conds.append(f"(({x1!r} - {x0!r}) * (y - {y0!r}) - (x - {x0!r}) * ({y1!r} - {y0!r})) < 0")
    inside = " AND ".join(conds)
    return f"""
        SELECT record_id, y, ROW_NUMBER() OVER (ORDER BY record_id, y) AS FID
        FROM ({SYNTH_POINTS_SQL}) WHERE {inside}
    """


# --- text / dedup / window / ANN queries ---


def q_dedup_exact(sf_dir: str):
    """Exact dedup: md5 content hash → keep the smallest doc_id per hash."""
    import hashlib

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        h = [hashlib.md5(t.encode()).hexdigest() for t in batch["text"].to_pylist()]
        return batch.append_column("__h", pa.array(h, pa.string()))

    from ray.data.aggregate import Min

    return (
        ds.map_batches(add_hash, batch_format="pyarrow", batch_size=262144)
        .groupby("__h")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )


Q_DEDUP_EXACT_SQL = """
    SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text)
"""


def q_text_tokens(sf_dir: str):
    """Token counting (ASCII word tokens) + char lengths per document."""
    import re

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    pat = re.compile(r"[A-Za-z0-9_]+")

    class Tokenize:
        def __init__(self):
            self.pat = re.compile(r"[A-Za-z0-9_]+")

        def __call__(self, batch: pa.Table) -> pa.Table:
            texts = batch["text"].to_pylist()
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "n_tokens": pa.array([len(self.pat.findall(t)) for t in texts], pa.int64()),
                    "n_chars_c": pa.array([len(t) for t in texts], pa.int64()),
                }
            )

    del pat
    return ds.map_batches(Tokenize, batch_format="pyarrow", concurrency=(1, 2))


Q_TEXT_TOKENS_SQL = """
    SELECT doc_id,
           LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS n_tokens,
           LENGTH(text) AS n_chars_c
    FROM documents
"""


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window per user over the events log."""
    from ray.data.aggregate import Count, Sum

    ds = read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def add_window(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        w = ts // (3600 * 1_000_000)
        return batch.append_column("wstart", pa.array(w, pa.int64()))

    out = (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby(["user_id", "wstart"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="total"))
    )
    return round_cols(out, {"total": 6})


Q_EVENTS_WINDOW_SQL = """
    SELECT user_id, CAST(FLOOR(EPOCH(ts) / 3600) AS BIGINT) AS wstart,
           COUNT(*) AS n, ROUND(SUM(value), 6) AS total
    FROM events GROUP BY 1, 2
"""


ANN_QUERY_VEC = [round(0.05 + 0.01 * ((i * 37) % 17), 6) for i in range(64)]


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 over the embedding column (the ANN
    baseline: numpy matmul per batch against a broadcast query vector)."""
    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qv = np.asarray(ANN_QUERY_VEC, dtype=np.float64)
    qn = np.linalg.norm(qv)

    def score(batch: pa.Table) -> pa.Table:
        # zero-copy list<float> -> (n, dim) matrix via the flat values
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        emb = flat.reshape(batch.num_rows, -1)
        sims = emb @ qv / (np.linalg.norm(emb, axis=1) * qn)
        # partial top-k per batch: the global sort sees ~10 rows per
        # block instead of the whole table (sort cost ~ block count)
        kk = min(10, len(sims))
        idx = np.argpartition(-sims, kk - 1)[:kk]
        return pa.table(
            {
                "vec_id": batch["vec_id"].take(pa.array(idx, pa.int64())),
                "sim": pa.array(sims[idx]),
            }
        )

    return (
        ds.map_batches(score, batch_format="pyarrow", batch_size=262144)
        .sort(["sim", "vec_id"], descending=[True, True])
        .limit(10)
        .select_columns(["vec_id"])
    )


def q_ann_topk_sql() -> str:
    vec = "[" + ", ".join(repr(v) for v in ANN_QUERY_VEC) + "]"
    return f"""
        SELECT vec_id FROM (
            SELECT vec_id,
                   list_cosine_similarity(CAST(embedding AS DOUBLE[]), {vec}) AS sim
            FROM embeddings
        ) ORDER BY sim DESC, vec_id DESC LIMIT 10
    """


def q_lang_distribution(sf_dir: str):
    from ..stages.zonal import list_unique_values

    return list_unique_values(read(sf_dir, "documents", columns=["lang"]), "lang")


Q_LANG_DISTRIBUTION_SQL = """
    SELECT lang AS value, COUNT(*) AS n FROM documents GROUP BY lang
"""


# --- dedup / text / window / multimodal / clustering queries ---


def q_session_windows(sf_dir: str):
    """Gap-based sessionization per user (windows.session)."""
    from ..stages.windows import session

    ds = read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return session(ds, "user_id", "ts", "value", gap_s=SESSION_GAP_S)


def q_session_windows_sql() -> str:
    return f"""
        WITH e AS (
            SELECT user_id, epoch_us(ts) AS tus, value,
                   CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > {SESSION_GAP_S} * 1000000
                             OR LAG(epoch_us(ts)) OVER w IS NULL
                        THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ), s AS (
            SELECT *, SUM(new_s) OVER (PARTITION BY user_id ORDER BY tus
                                       ROWS UNBOUNDED PRECEDING) AS sid
            FROM e
        )
        SELECT user_id, MIN(tus) AS session_start_us, COUNT(*) AS n,
               ROUND(SUM(value), 6) AS total,
               ROUND((MAX(tus) - MIN(tus)) / 1000000.0, 6) AS duration_s
        FROM s GROUP BY user_id, sid
    """


def q_text_quality(sf_dir: str):
    """Quality-feature scoring (stages.text.QualityScore) — the
    SQL-checkable slice (word count + stopword ratio)."""
    from ..stages.text import quality_score

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    out = quality_score(ds, concurrency=(1, 2))
    return out.select_columns(["doc_id", "n_words", "stop_ratio"])


Q_TEXT_QUALITY_SQL = """
    SELECT doc_id,
           LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')) AS n_words,
           ROUND(LEN(list_filter(list_transform(regexp_extract_all(text, '[A-Za-z0-9_]+'),
                                                x -> lower(x)),
                                 x -> x IN ('the','and','of','to','a','in','is','that','it','for')))
                 / GREATEST(LEN(regexp_extract_all(text, '[A-Za-z0-9_]+')), 1) * 1.0, 6) AS stop_ratio
    FROM documents
"""


def q_token_count(sf_dir: str):
    from ..stages.text import token_count

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    return token_count(ds, concurrency=(1, 2)).select_columns(["doc_id", "ws_tokens", "bpe_tokens_est"])


Q_TOKEN_COUNT_SQL = """
    SELECT doc_id,
           LEN(regexp_extract_all(text, '\\S+')) AS ws_tokens,
           CAST(FLOOR(LENGTH(text) / 4.0) AS BIGINT) AS bpe_tokens_est
    FROM documents
"""


def q_near_dup_cosine(sf_dir: str):
    """Embedding-cosine near-dup pairs (dedup.embedding_near_dup)."""
    from ..stages.dedup import embedding_near_dup

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_dup(ds, threshold=NEAR_DUP_MIN_COSINE)


def q_near_dup_cosine_sql() -> str:
    return f"""
        SELECT a.vec_id AS id_a, b.vec_id AS id_b,
               ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                            CAST(b.embedding AS DOUBLE[])), 6) AS cosine
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                     CAST(b.embedding AS DOUBLE[])) >= {NEAR_DUP_MIN_COSINE}
    """


def q_frame_sample(sf_dir: str):
    """Video frame-sampling PLUMBING check: a deterministic fake video
    table derived from documents (video_id=doc_id, n_frames from
    n_chars); emitted (video_id, frame_idx) rows are SQL-checkable even
    though the pixel decode is a fake (stages.multimodal.SampleFrames)."""
    import pyarrow as pa

    from ..stages.multimodal import sample_frames

    ds = read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def to_videos(batch: pa.Table) -> pa.Table:
        import numpy as np

        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "video_id": pa.array([str(d) for d in did], pa.string()),
                "n_frames": pa.array(nch % 100 + 10, pa.int64()),
            }
        )

    frames = sample_frames(ds.map_batches(to_videos, batch_format="pyarrow"), every_n=FRAME_EVERY_N)
    return frames.select_columns(["video_id", "frame_idx"])


def q_frame_sample_sql() -> str:
    return f"""
        SELECT CAST(doc_id AS VARCHAR) AS video_id,
               UNNEST(generate_series(0, CAST(n_chars % 100 + 10 AS INT) - 1, {FRAME_EVERY_N})) AS frame_idx
        FROM documents
    """


def q_minhash_pairs(sf_dir: str):
    """MinHash-LSH candidate pairs + exact Jaccard verification ≥ 0.5
    (no SQL oracle — rows-only check)."""
    import pyarrow.parquet as pq

    from ..stages.dedup import minhash_lsh_pairs, verify_pairs_jaccard

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = minhash_lsh_pairs(ds, num_perms=32, bands=8, shingle_k=3)
    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return verify_pairs_jaccard(pairs, docs, threshold=0.5)


def q_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs, hamming ≤ 3 (rows-only check)."""
    from ..stages.dedup import simhash_dedup

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_dedup(ds, hamming_t=3)


def q_kmeans_clusters(sf_dir: str):
    """K-means over embeddings (stages.kmeans): deterministic seed;
    returns cluster sizes (rows-only check)."""
    from ray.data.aggregate import Count

    from ..stages.kmeans import kmeans_assign, kmeans_fit

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    centroids, _it, _inertia = kmeans_fit(ds, k=4, max_iter=8, seed=42)
    return (
        kmeans_assign(ds, centroids)
        .groupby("cluster")
        .aggregate(Count(alias_name="n"))
    )


def q_ann_lsh(sf_dir: str):
    """LSH-bucketed approximate top-k (rows-only; recall vs brute force
    asserted in tests)."""
    import numpy as np

    from ..stages.ann import lsh_bucket_topk

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray([ANN_QUERY_VEC], dtype=np.float64)
    return lsh_bucket_topk(ds, q, k=10, num_planes=8, multiprobe=4)


def q_lang_pred(sf_dir: str):
    """Heuristic language-ID distribution (rows-only; accuracy vs the
    stored lang column asserted in tests)."""
    from ray.data.aggregate import Count

    from ..stages.text import lang_id

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    return lang_id(ds, concurrency=(1, 2)).groupby("lang_pred").aggregate(Count(alias_name="n"))


# --- cross-statistics / sampling / surface-fit queries ---


def q_correlation(sf_dir: str):
    """Pearson r (ImageCorrelation kernel) between quantity and price."""
    from ..stages.stats2 import correlation

    ds = read(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])
    r = correlation(ds, "l_quantity", "l_extendedprice")
    return pd.DataFrame({"r": [round(r, 6)]})


Q_CORRELATION_SQL = """
    SELECT ROUND(corr(l_quantity, l_extendedprice), 6) AS r FROM lineitem
"""


def q_rmse(sf_dir: str):
    """RootMeanSquareError between two derived columns."""
    import pyarrow as pa

    from ..stages.stats2 import rmse

    ds = read(sf_dir, "lineitem", columns=["l_discount", "l_tax"])
    v = rmse(ds, "l_discount", "l_tax")
    return pd.DataFrame({"rmse": [round(v, 6)]})


Q_RMSE_SQL = """
    SELECT ROUND(SQRT(AVG((l_discount - l_tax) * (l_discount - l_tax))), 6) AS rmse
    FROM lineitem
"""


def q_crosstab(sf_dir: str):
    """CrossTabulation contingency counts."""
    from ..stages.stats2 import cross_tabulation

    ds = read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])
    return cross_tabulation(ds, "l_returnflag", "l_linestatus")


Q_CROSSTAB_SQL = """
    SELECT l_returnflag, l_linestatus, COUNT(*) AS n
    FROM lineitem GROUP BY 1, 2
"""


def q_kappa(sf_dir: str):
    """KappaIndex between event_type and a derived classification."""
    import pyarrow as pa

    from ..stages.stats2 import kappa_index

    ds = read(sf_dir, "events", columns=["event_type", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        import numpy as np

        v = batch["value"].to_numpy(zero_copy_only=False)
        cls = np.where(v < 0.2, "click", np.where(v < 0.4, "view", np.where(v < 0.6, "signup", np.where(v < 0.8, "purchase", "error"))))
        return batch.append_column("pred", pa.array(cls.tolist(), pa.string()))

    out = kappa_index(ds.map_batches(derive, batch_format="pyarrow"), "event_type", "pred")
    return pd.DataFrame(
        {
            "overall_accuracy": [round(out["overall_accuracy"], 6)],
            "kappa": [round(out["kappa"], 6)],
            "n": [out["n"]],
        }
    )


Q_KAPPA_SQL = """
    WITH t AS (
        SELECT event_type AS a,
               CASE WHEN value < 0.2 THEN 'click' WHEN value < 0.4 THEN 'view'
                    WHEN value < 0.6 THEN 'signup' WHEN value < 0.8 THEN 'purchase'
                    ELSE 'error' END AS b
        FROM events
    ), ct AS (SELECT a, b, COUNT(*) AS n FROM t GROUP BY 1, 2),
    tot AS (SELECT SUM(n) * 1.0 AS total FROM ct),
    po AS (SELECT COALESCE(SUM(n), 0) / (SELECT total FROM tot) AS po FROM ct WHERE a = b),
    pe AS (
        SELECT SUM(x.pa * y.pb) AS pe FROM
            (SELECT a AS c, SUM(n) / (SELECT total FROM tot) AS pa FROM ct GROUP BY a) x
            JOIN (SELECT b AS c, SUM(n) / (SELECT total FROM tot) AS pb FROM ct GROUP BY b) y
            USING (c)
    )
    SELECT ROUND((SELECT po FROM po), 6) AS overall_accuracy,
           ROUND(((SELECT po FROM po) - (SELECT pe FROM pe)) / (1 - (SELECT pe FROM pe)), 6) AS kappa,
           CAST((SELECT total FROM tot) AS BIGINT) AS n
"""


def q_random_sample(sf_dir: str):
    """Seeded deterministic Bernoulli sample (RandomSample analog)."""
    from ..stages.stats2 import random_sample

    ds = read(sf_dir, "orders", columns=["o_orderkey"])
    return random_sample(ds, SAMPLE_FRACTION, seed=SAMPLE_SEED, id_col="o_orderkey")


def q_random_sample_sql() -> str:
    return f"""
        SELECT o_orderkey FROM orders
        WHERE (((o_orderkey + {SAMPLE_SEED}) * 2654435761) % 2147483648) / 2147483648.0 < {SAMPLE_FRACTION}
    """


def q_trend_surface(sf_dir: str):
    """TrendSurface order 1: z = b0 + b1·x + b2·y — the distributed
    normal-equation partials vs a Cramer's-rule SQL twin. Predictions
    ROUND(…,2): the 3×3 normal system on 0-1000-scale coordinates is
    mildly ill-conditioned, so solve vs Cramer differ ~1e-6."""
    from ..stages.stats2 import trend_surface

    pts = synth_points(sf_dir)
    coefs, predict = trend_surface(pts, "x", "y", "value", order=1)
    out = predict(synth_points(sf_dir), out_col="trend").select_columns(["record_id", "trend"])
    return round_cols(out, {"trend": 2})


def q_pca_project(sf_dir: str):
    """PCA projection of the embedding table (rows-only check)."""
    from ..stages.stats2 import pca

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    comps, ratio, project = pca(ds, n_components=3)
    out = project(read(sf_dir, "embeddings", columns=["vec_id", "embedding"])).to_pandas()
    out["pc1"] = np.round([abs(p[0]) for p in out["pc"]], 4)  # sign of eigvec is arbitrary
    return out[["vec_id", "pc1"]]


def q_sliding_window(sf_dir: str):
    """Sliding (hopping) window counts per user (windows.sliding)."""
    from ..stages.windows import sliding

    ds = read(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = sliding(ds, "user_id", "ts", "value", size_s=WINDOW_SIZE_S, hop_s=WINDOW_HOP_S)
    return round_cols(out, {"total": 6})


def q_sliding_window_sql() -> str:
    n = WINDOW_SIZE_S // WINDOW_HOP_S
    hop_us = WINDOW_HOP_S * 1_000_000  # precomputed 64-bit literals (3600*1000000
    size_us = WINDOW_SIZE_S * 1_000_000  # overflows DuckDB INT32 inline math)
    return f"""
        SELECT user_id,
               (CAST(FLOOR(epoch_us(ts) / {hop_us}) AS BIGINT) - k) * {hop_us} AS wstart_us,
               COUNT(*) AS n, ROUND(SUM(value), 6) AS total
        FROM events CROSS JOIN (SELECT UNNEST(generate_series(0, {n - 1})) AS k)
        WHERE epoch_us(ts) < (CAST(FLOOR(epoch_us(ts) / {hop_us}) AS BIGINT) - k) * {hop_us} + {size_us}
        GROUP BY 1, 2
    """


def q_hex_binning(sf_dir: str):
    """Planar hex-cell binning counts (VectorHexBinning analog). The
    cube-rounding assignment has a full SQL twin (ROUND_EVEN + the two
    CASE fixes, q_hex_binning_sql) — bit-exact incl. the pack_hex
    int64 layout."""
    from ..stages.zonal import cell_binning

    return cell_binning(synth_points(sf_dir), "x", "y", kind="hex", level=HEX_RES)


def q_polygon_metrics(sf_dir: str):
    """Per-polygon shape metrics (AREA/PERIMETER) of deterministic
    triangles derived from `part` rows — SQL oracle via the shoelace /
    distance formulas written out for a 3-vertex ring."""
    import pyarrow as pa

    from ..stages.vector_metrics import polygon_metrics

    ds = read(sf_dir, "part", columns=["p_partkey", "p_size", "p_retailprice"])

    def to_polys(batch: pa.Table) -> pa.Table:
        import numpy as np

        pk = batch["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sz = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.float64)
        pr = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        x0 = (pk * 13 % 1000).astype(np.float64)
        y0 = (pk * 29 % 1000).astype(np.float64)
        # CLOCKWISE (y-up) triangle: (x0,y0) -> (x0,y0+h) -> (x0+s,y0)
        # (a CCW ring would be classified as a hole and subtract)
        h = np.round(pr % 97.0, 6) + 1.0
        xs = [[float(a), float(a), float(a + s), float(a)] for a, s in zip(x0, sz)]
        ys = [[float(b), float(b + hh), float(b), float(b)] for b, hh in zip(y0, h)]
        return pa.table(
            {
                "record_id": pa.array(pk.astype(np.int32), pa.int32()),
                "parts": pa.array([[0]] * len(pk), pa.list_(pa.int32())),
                "xs": pa.array(xs, pa.list_(pa.float64())),
                "ys": pa.array(ys, pa.list_(pa.float64())),
            }
        )

    out = polygon_metrics(ds.map_batches(to_polys, batch_format="pyarrow"), metrics=("AREA", "PERIMETER"))
    return out


Q_POLYGON_METRICS_SQL = """
    WITH tri AS (
        SELECT CAST(p_partkey AS INT) AS record_id,
               CAST(p_size AS DOUBLE) AS s,
               ROUND(p_retailprice % 97.0, 6) + 1.0 AS h
        FROM part
    )
    SELECT record_id,
           ROUND(s * h / 2.0, 6) AS "AREA",
           ROUND(s + h + SQRT(s * s + h * h), 6) AS "PERIMETER"
    FROM tri
"""


def q_rgb_to_ihs(sf_dir: str):
    """RgbToIhs (rgb_to_ihs.rs:798-818 exact formula) over deterministic
    0-1 bands derived from lineitem."""
    import pyarrow as pa

    from ..stages.color import rgb_to_ihs

    ds = read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

    def bands(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "record_id": pa.array(ok * 10 + ln, pa.int64()),
                "r": pa.array(((ok * 7 + ln) % 254 + 1) / 255.0),
                "g": pa.array((pk * 11 % 254 + 1) / 255.0),
                "b": pa.array((sk * 13 % 254 + 1) / 255.0),
            }
        )

    out = rgb_to_ihs(ds.map_batches(bands, batch_format="pyarrow"))
    return out.select_columns(["record_id", "hue", "saturation", "intensity"])


Q_RGB_TO_IHS_SQL = """
    WITH bands AS (
        SELECT l_orderkey * 10 + l_linenumber AS record_id,
               ((l_orderkey * 7 + l_linenumber) % 254 + 1) / 255.0 AS r,
               (l_partkey * 11 % 254 + 1) / 255.0 AS g,
               (l_suppkey * 13 % 254 + 1) / 255.0 AS b
        FROM lineitem
    ), n AS (
        SELECT record_id, r, g, b,
               r / (r + g + b) AS rn, g / (r + g + b) AS gn, b / (r + g + b) AS bn,
               (r + g + b) / 3.0 AS i
        FROM bands
    )
    SELECT record_id,
           ROUND(CASE WHEN rn != gn OR rn != bn THEN
                   CASE WHEN b > g THEN 2 * PI() - ACOS(LEAST(1.0, GREATEST(-1.0,
                        (0.5 * ((rn - gn) + (rn - bn)))
                        / SQRT((rn - gn) * (rn - gn) + (rn - bn) * (gn - bn)))))
                        ELSE ACOS(LEAST(1.0, GREATEST(-1.0,
                        (0.5 * ((rn - gn) + (rn - bn)))
                        / SQRT((rn - gn) * (rn - gn) + (rn - bn) * (gn - bn)))))
                   END
                 ELSE 0.0 END, 6) AS hue,
           1.0 - 3.0 * LEAST(rn, gn, bn) AS saturation,
           i AS intensity
    FROM n
"""


def q_colour_composite(sf_dir: str):
    """CreateColourComposite packing (raster/mod.rs:604-611 bit layout)
    over deterministic 0-255 channels."""
    import pyarrow as pa

    from ..stages.raster_ops import create_colour_composite

    ds = read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

    def bands(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "record_id": pa.array(ok * 10 + ln, pa.int64()),
                "r": pa.array(((ok * 7 + ln) % 256).astype(np.float64)),
                "g": pa.array((pk * 11 % 256).astype(np.float64)),
                "b": pa.array((sk * 13 % 256).astype(np.float64)),
            }
        )

    out = create_colour_composite(ds.map_batches(bands, batch_format="pyarrow"))
    return out.select_columns(["record_id", "composite"])


Q_COLOUR_COMPOSITE_SQL = """
    SELECT l_orderkey * 10 + l_linenumber AS record_id,
           CAST(4278190080
                + (l_suppkey * 13 % 256) * 65536
                + (l_partkey * 11 % 256) * 256
                + ((l_orderkey * 7 + l_linenumber) % 256) AS DOUBLE) AS composite
    FROM lineitem
"""


def q_regression(sf_dir: str):
    """ImageRegression analog (image_regression.rs): OLS slope/intercept/r²
    of price vs quantity via the trend-surface normal equations."""
    from ..stages.stats2 import _pair_partials

    ds = read(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice"])
    p = _pair_partials(ds, "l_quantity", "l_extendedprice")
    n = p["n"]
    mx, my = p["sx"] / n, p["sy"] / n
    cov = p["sxy"] / n - mx * my
    vx = p["sxx"] / n - mx * mx
    vy = p["syy"] / n - my * my
    slope = cov / vx
    intercept = my - slope * mx
    r2 = (cov * cov) / (vx * vy)
    return pd.DataFrame(
        {"slope": [round(slope, 6)], "intercept": [round(intercept, 6)], "r2": [round(r2, 6)]}
    )


Q_REGRESSION_SQL = """
    SELECT ROUND(regr_slope(l_extendedprice, l_quantity), 6) AS slope,
           ROUND(regr_intercept(l_extendedprice, l_quantity), 6) AS intercept,
           ROUND(regr_r2(l_extendedprice, l_quantity), 6) AS r2
    FROM lineitem
"""


def q_erase_points_convex(sf_dir: str):
    """Erase (erase.rs inverse-clip semantics): the COMPLEMENT of the
    pentagon clip — exercises mode='erase' end to end."""
    from ..sources.vectors import POLY_SCHEMA, make_polygon_record
    from ..stages.spatial_join import clip_points

    rec = make_polygon_record(1, [PENTAGON], "pentagon", 1)
    poly = pa.Table.from_pydict({k: [rec[k]] for k in POLY_SCHEMA.names}, schema=POLY_SCHEMA)
    out = clip_points(synth_points(sf_dir), poly, mode="erase", renumber_fid=False)
    return out.select_columns(["record_id"])


def q_erase_points_convex_sql() -> str:
    ring = PENTAGON + [PENTAGON[0]]
    conds = []
    for (x0, y0), (x1, y1) in zip(ring[:-1], ring[1:]):
        conds.append(f"(({x1!r} - {x0!r}) * (y - {y0!r}) - (x - {x0!r}) * ({y1!r} - {y0!r})) < 0")
    inside = " AND ".join(conds)
    return f"""
        SELECT record_id FROM ({SYNTH_POINTS_SQL}) WHERE NOT ({inside})
    """


def q_quantiles(sf_dir: str):
    """Quantiles (quantiles.rs GA→M): classes of l_extendedprice.

    The cut points are np.quantile(linear) — DuckDB's quantile_cont is
    the same interpolation, so the oracle recomputes them in SQL; class
    membership uses >= cut (searchsorted side='right')."""
    from ray.data.aggregate import Count

    from ..stages.stats import quantiles

    ds = read(sf_dir, "lineitem", columns=["l_extendedprice"])
    out = quantiles(ds, "l_extendedprice", num_quantiles=NUM_QUANTILES, out_col="q")
    return out.groupby("q").aggregate(Count(alias_name="n"))


def q_quantiles_sql() -> str:
    qs = [i / NUM_QUANTILES for i in range(1, NUM_QUANTILES)]
    cuts = ", ".join(
        f"(SELECT quantile_cont(l_extendedprice, {q}) FROM lineitem) AS c{i}"
        for i, q in enumerate(qs)
    )
    cls = " + ".join(f"CAST(l_extendedprice >= c{i} AS BIGINT)" for i in range(len(qs)))
    return f"""
        WITH cuts AS (SELECT {cuts})
        SELECT 1 + {cls} AS q, COUNT(*) AS n
        FROM lineitem, cuts GROUP BY 1
    """


def q_semi_join(sf_dir: str):
    """Semi-join (broadcast key set, stages.joins.semi_join): orders
    whose customer is in the BUILDING segment."""
    import pyarrow.parquet as pq

    from ..stages.joins import semi_join

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    keys = [k for k, seg in zip(cust.column("c_custkey").to_pylist(), cust.column("c_mktsegment").to_pylist()) if seg == "BUILDING"]
    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    return semi_join(orders, keys, "o_custkey").select_columns(["o_orderkey"])


Q_SEMI_JOIN_SQL = """
    SELECT o_orderkey FROM orders
    WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')
"""


def q_topk_per_group(sf_dir: str):
    """Per-group top-k (groupby.map_groups): the k most expensive orders
    per market segment — the grouped-rank operator family."""
    from ..stages.joins import hash_join_bucketed

    orders = read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = hash_join_bucketed(orders, cust, key="o_custkey", right_key="c_custkey", how="inner", num_buckets=None)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, False]).head(TOPK_PER_GROUP)
        return g[["c_mktsegment", "o_orderkey", "o_totalprice"]]

    return joined.groupby("c_mktsegment").map_groups(topk, batch_format="pandas")


def q_topk_per_group_sql() -> str:
    return f"""
        SELECT c_mktsegment, o_orderkey, o_totalprice FROM (
            SELECT c_mktsegment, o_orderkey, o_totalprice,
                   ROW_NUMBER() OVER (PARTITION BY c_mktsegment
                                      ORDER BY o_totalprice DESC, o_orderkey DESC) AS rn
            FROM orders JOIN customer ON o_custkey = c_custkey
        ) WHERE rn <= {TOPK_PER_GROUP}
    """


# ---------------------------------------------------------------------------
# vector overlay gate queries (round 2): rectangle pairs derived from the
# part table with INTEGER corners, each pair isolated in its own 1000-unit
# grid cell so the oracle can compute intersection/union areas exactly
# (iw*ih int arithmetic on both sides → bit-identical doubles).
# ---------------------------------------------------------------------------

_PAIR_RECT_SQL = """
    SELECT p_partkey AS pair_id,
           (p_partkey % 100) * 1000 + (p_partkey * 13) % 500  AS ax0,
           (p_partkey // 100) * 1000 + (p_partkey * 29) % 500 AS ay0,
           20 + p_partkey % 80        AS aw,
           20 + (p_partkey * 7) % 80  AS ah,
           (p_partkey % 100) * 1000 + (p_partkey * 17) % 500  AS bx0,
           (p_partkey // 100) * 1000 + (p_partkey * 37) % 500 AS by0,
           20 + (p_partkey * 3) % 80  AS bw,
           20 + (p_partkey * 11) % 80 AS bh
    FROM part
"""


def _pair_rect_frames(sf_dir: str):
    """(pair_id, A rect, B rect) pandas frame mirroring _PAIR_RECT_SQL."""
    ds = read(sf_dir, "part", columns=["p_partkey"])
    k = ds.to_pandas()["p_partkey"].to_numpy().astype(np.int64)
    cx = (k % 100) * 1000
    cy = (k // 100) * 1000
    return pd.DataFrame(
        {
            "pair_id": k,
            "ax0": cx + (k * 13) % 500,
            "ay0": cy + (k * 29) % 500,
            "aw": 20 + k % 80,
            "ah": 20 + (k * 7) % 80,
            "bx0": cx + (k * 17) % 500,
            "by0": cy + (k * 37) % 500,
            "bw": 20 + (k * 3) % 80,
            "bh": 20 + (k * 11) % 80,
        }
    )


def _pair_rect_layers(sf_dir: str):
    """Build the A Dataset and broadcast-B table of pair rectangles."""
    import ray.data as rd

    from ..sources.vectors import POLY_SCHEMA, make_polygon_record

    f = _pair_rect_frames(sf_dir)

    def rec(rid, x0, y0, w, h):
        x0, y0, w, h = float(x0), float(y0), float(w), float(h)
        return make_polygon_record(
            int(rid), [[(x0, y0), (x0, y0 + h), (x0 + w, y0 + h), (x0 + w, y0)]], "r", 1
        )

    a_rows = [rec(r.pair_id, r.ax0, r.ay0, r.aw, r.ah) for r in f.itertuples()]
    b_rows = [rec(r.pair_id, r.bx0, r.by0, r.bw, r.bh) for r in f.itertuples()]
    a_tbl = pa.Table.from_pylist(a_rows, schema=POLY_SCHEMA)
    b_tbl = pa.Table.from_pylist(b_rows, schema=POLY_SCHEMA)
    return rd.from_arrow(a_tbl), b_tbl, a_tbl, rd.from_arrow(b_tbl)


def q_overlay_intersect(sf_dir: str):
    """Intersect (intersect.rs): per-pair intersection area of the
    rectangle layers; pairs with empty intersection emit nothing."""
    from ray.data.aggregate import Sum

    from ..stages import overlay as ov

    a_ds, b_tbl, _a_tbl, _b_ds = _pair_rect_layers(sf_dir)
    out = ov.intersect(a_ds, b_tbl)
    agg = out.groupby("record_id").aggregate(Sum("area", alias_name="area"))
    return agg.map_batches(
        lambda t: pa.table(
            {"pair_id": t["record_id"].cast(pa.int64()), "area": t["area"]}
        ),
        batch_format="pyarrow",
    )


Q_OVERLAY_INTERSECT_SQL = f"""
    WITH r AS ({_PAIR_RECT_SQL})
    SELECT pair_id,
           CAST(GREATEST(0, LEAST(ax0+aw, bx0+bw) - GREATEST(ax0, bx0))
              * GREATEST(0, LEAST(ay0+ah, by0+bh) - GREATEST(ay0, by0)) AS DOUBLE) AS area
    FROM r
    WHERE GREATEST(0, LEAST(ax0+aw, bx0+bw) - GREATEST(ax0, bx0))
        * GREATEST(0, LEAST(ay0+ah, by0+bh) - GREATEST(ay0, by0)) > 0
"""


def q_overlay_difference(sf_dir: str):
    """Difference (difference.rs / erase.rs polygon branch): per-pair
    area of A − B (disjoint pairs pass through whole)."""
    from ray.data.aggregate import Sum

    from ..stages import overlay as ov

    a_ds, b_tbl, _a_tbl, _b_ds = _pair_rect_layers(sf_dir)
    out = ov.difference(a_ds, b_tbl)
    agg = out.groupby("record_id").aggregate(Sum("area", alias_name="area"))
    return agg.map_batches(
        lambda t: pa.table(
            {"pair_id": t["record_id"].cast(pa.int64()), "area": t["area"]}
        ),
        batch_format="pyarrow",
    )


Q_OVERLAY_DIFFERENCE_SQL = f"""
    WITH r AS ({_PAIR_RECT_SQL})
    SELECT pair_id,
           CAST(aw*ah - GREATEST(0, LEAST(ax0+aw, bx0+bw) - GREATEST(ax0, bx0))
                      * GREATEST(0, LEAST(ay0+ah, by0+bh) - GREATEST(ay0, by0)) AS DOUBLE) AS area
    FROM r
    WHERE aw*ah > GREATEST(0, LEAST(ax0+aw, bx0+bw) - GREATEST(ax0, bx0))
               * GREATEST(0, LEAST(ay0+ah, by0+bh) - GREATEST(ay0, by0))
"""


def q_overlay_union(sf_dir: str):
    """Union (union.rs): per-pair area of A ∪ B via the fragment
    decomposition A∩B ⊎ A−B ⊎ B−A."""
    from ray.data.aggregate import Sum

    from ..stages import overlay as ov

    a_ds, b_tbl, a_tbl, b_ds = _pair_rect_layers(sf_dir)
    out = ov.union_layers(a_ds, b_tbl, b_ds, a_tbl)

    def pair_key(t: pa.Table) -> pa.Table:
        rid = np.asarray(t["record_id"], dtype=np.int64) % 1_000_000
        return pa.table({"pair_id": pa.array(rid, pa.int64()), "area": t["area"]})

    agg = (
        out.map_batches(pair_key, batch_format="pyarrow")
        .groupby("pair_id")
        .aggregate(Sum("area", alias_name="area"))
    )
    return agg


Q_OVERLAY_UNION_SQL = f"""
    WITH r AS ({_PAIR_RECT_SQL})
    SELECT pair_id,
           CAST(aw*ah + bw*bh - GREATEST(0, LEAST(ax0+aw, bx0+bw) - GREATEST(ax0, bx0))
                              * GREATEST(0, LEAST(ay0+ah, by0+bh) - GREATEST(ay0, by0)) AS DOUBLE) AS area
    FROM r
"""


def q_dissolve_zones(sf_dir: str):
    """Dissolve (dissolve.rs): nations become 10-wide rectangles laid
    edge-to-edge within their region row with 5-unit overlaps; dissolve
    by region merges each row into ONE polygon of area 5*cnt + 5."""
    import ray.data as rd

    from ..sources.vectors import POLY_SCHEMA, make_polygon_record
    from ..stages import overlay as ov

    nat = read(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"]).to_pandas()
    nat = nat.sort_values("n_nationkey").reset_index(drop=True)
    nat["rank"] = nat.groupby("n_regionkey").cumcount()
    recs = []
    for r in nat.itertuples():
        x0 = float(r.rank * 5)
        y0 = float(r.n_regionkey * 20)
        recs.append(
            make_polygon_record(
                int(r.n_nationkey),
                [[(x0, y0), (x0, y0 + 1), (x0 + 10, y0 + 1), (x0 + 10, y0)]],
                "n",
                int(r.n_regionkey),
            )
        )
    ds = rd.from_arrow(pa.Table.from_pylist(recs, schema=POLY_SCHEMA))
    out = ov.dissolve(ds, "zone")

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "zone": t["zone"].cast(pa.int64()),
                "area": t["area"],
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


Q_DISSOLVE_ZONES_SQL = """
    SELECT CAST(n_regionkey AS BIGINT) AS zone,
           CAST(5 * COUNT(*) + 5 AS DOUBLE) AS area
    FROM nation GROUP BY n_regionkey
"""


def q_polygonize_grid(sf_dir: str):
    """Polygonize (polygonize.rs): an irregular (C+1)x(C+1) line grid
    (C = region count; spacing_k = 10 + 3k) -> C*C rectangular faces.
    Emits ONE ROW PER FACE (area, perimeter) so the compare checks the
    whole face set, not just a checksum (the earlier single-row form
    could not distinguish 25 wrong faces with a lucky total)."""
    from ..sources.vectors import POLY_SCHEMA
    from ..stages import overlay as ov

    c = read(sf_dir, "region", columns=["r_regionkey"]).count()
    pos = [0.0]
    for k in range(c):
        pos.append(pos[-1] + 10.0 + 3.0 * k)
    lo, hi = pos[0], pos[-1]
    rows = []
    rid = 1
    for p_ in pos:
        rows.append(
            {"record_id": rid, "parts": [0], "xs": [lo, hi], "ys": [p_, p_],
             "x_min": lo, "x_max": hi, "y_min": p_, "y_max": p_, "name": "h", "zone": 0}
        )
        rid += 1
        rows.append(
            {"record_id": rid, "parts": [0], "xs": [p_, p_], "ys": [lo, hi],
             "x_min": p_, "x_max": p_, "y_min": lo, "y_max": hi, "name": "v", "zone": 0}
        )
        rid += 1
    tbl = pa.Table.from_pylist(rows, schema=POLY_SCHEMA)
    out = ov.polygonize(tbl)

    def face_rows(batch: pa.Table) -> pa.Table:
        area = np.round(batch["area"].to_numpy(zero_copy_only=False), 6)
        per = np.zeros(batch.num_rows)
        xs = batch["xs"].to_pylist()
        ys = batch["ys"].to_pylist()
        for i in range(batch.num_rows):
            x = np.asarray(xs[i]); y = np.asarray(ys[i])
            per[i] = float(np.sum(np.hypot(np.diff(x), np.diff(y))))
        return pa.table({"area": pa.array(area), "perim": pa.array(np.round(per, 6))})

    import ray.data as rd

    return rd.from_arrow(out).map_batches(face_rows, batch_format="pyarrow")


Q_POLYGONIZE_GRID_SQL = """
    WITH k AS (SELECT ROW_NUMBER() OVER () - 1 AS i FROM region),
    sp AS (SELECT i, 10.0 + 3.0 * i AS d FROM k)
    SELECT ROUND(a.d * b.d, 6) AS area,
           ROUND(2.0 * (a.d + b.d), 6) AS perim
    FROM sp a, sp b
    ORDER BY area, perim
"""


# ---------------------------------------------------------------------------
# round-2 gate queries: kNN join, hypsometric curve, distributed EDT
# ---------------------------------------------------------------------------


def q_knn_join(sf_dir: str):
    """KNearestJoin: nearest part-derived point for each supplier-derived
    point (FRS index, broadcast right side)."""
    import ray.data as rd

    from ..stages.spatial_join import knn_join

    part = read(sf_dir, "part", columns=["p_partkey"]).to_pandas()
    pk = part["p_partkey"].to_numpy().astype(np.int64)
    right = pa.table(
        {
            "record_id": pa.array(pk, pa.int64()),
            "x": pa.array(((pk * 7919) % 100000) / 100.0),
            "y": pa.array(((pk * 6271) % 100000) / 100.0),
        }
    )
    sup = read(sf_dir, "supplier", columns=["s_suppkey"])

    def derive(batch: pa.Table) -> pa.Table:
        sk = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "record_id": pa.array(sk, pa.int64()),
                "x": pa.array(((sk * 104729) % 100000) / 100.0),
                "y": pa.array(((sk * 3571) % 100000) / 100.0),
            }
        )

    left = sup.map_batches(derive, batch_format="pyarrow")
    out = knn_join(left, right, k=1)

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "left_id": t["left_id"].cast(pa.int64()),
                "right_id": t["right_id"].cast(pa.int64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


Q_KNN_JOIN_SQL = """
    WITH l AS (SELECT s_suppkey AS left_id,
                      ((s_suppkey * 104729) % 100000) / 100.0 AS x,
                      ((s_suppkey * 3571) % 100000) / 100.0 AS y
               FROM supplier),
         r AS (SELECT p_partkey AS right_id,
                      ((p_partkey * 7919) % 100000) / 100.0 AS x,
                      ((p_partkey * 6271) % 100000) / 100.0 AS y
               FROM part)
    SELECT left_id,
           (SELECT r.right_id FROM r
            ORDER BY (r.x - l.x) * (r.x - l.x) + (r.y - l.y) * (r.y - l.y), r.right_id
            LIMIT 1) AS right_id
    FROM l
"""


def q_hypsometric(sf_dir: str):
    """HypsometricAnalysis gate: cumulative area-above-elevation over the
    events.value column, reported per histogram-bin index (integer bin
    keys dodge the rational-rounding trap)."""
    from ..stages.stats import histogram

    ds = read(sf_dir, "events", columns=["value"])
    edges, counts = histogram(ds, "value", bins=HYPSOMETRIC_BINS)
    n = counts.sum()
    above = np.cumsum(counts[::-1])[::-1]
    return pd.DataFrame(
        {"bin": np.arange(HYPSOMETRIC_BINS, dtype=np.int64), "rel_area": above / max(n, 1)}
    )


def q_hypsometric_sql() -> str:
    return f"""
    WITH p AS (SELECT MIN(value) AS lo, MAX(value) AS hi, COUNT(*) AS n FROM events),
         b AS (SELECT unnest(generate_series(0, {HYPSOMETRIC_BINS - 1})) AS bin)
    SELECT CAST(b.bin AS BIGINT) AS bin,
           CAST((SELECT COUNT(*) FROM events e, p
                 WHERE e.value >= p.lo + b.bin * ((p.hi - p.lo) / {HYPSOMETRIC_BINS}.0)) AS DOUBLE)
             / (SELECT n FROM p) AS rel_area
    FROM b
    """


def q_euclidean_distance(sf_dir: str):
    """EuclideanDistance gate: exact EDT on a 64×64 grid whose target
    cells derive from nation keys; Dataset-native two-pass strips, f64
    payloads → per-cell distances bit-equal to the SQL min-over-targets."""
    import ray.data as rd

    from ..stages.distance import euclidean_distance_ds

    rows, spec = _scene(_edt_targets(sf_dir), fmt="f32", res=1.0)
    out = euclidean_distance_ds(rd.from_arrow(pa.Table.from_pylist(rows, _TILE_I32)), spec, out_fmt="f64")
    return _tiles_to_cells(out, spec, "dist")


Q_EUCLIDEAN_DISTANCE_SQL = f"""
    WITH t AS (SELECT DISTINCT (n_nationkey * 13) % 64 AS tr, (n_nationkey * 29) % 64 AS tc
               FROM nation),
         {_WIN_G}
    SELECT row, col,
           SQRT(CAST((SELECT MIN((row - t.tr) * (row - t.tr) + (col - t.tc) * (col - t.tc))
                      FROM t) AS DOUBLE)) AS dist
    FROM g
"""


# ---------------------------------------------------------------- stats3


def q_anova_status(sf_dir: str):
    """Anova (anova.rs:414-434): one-way F of o_totalprice by
    o_orderstatus — integer dfs + F rounded (aggregate, re-association
    noise absorbed)."""
    from ..stages.stats3 import anova

    ds = read(sf_dir, "orders", columns=["o_totalprice", "o_orderstatus"])
    res = anova(ds, "o_totalprice", "o_orderstatus")
    return pd.DataFrame(
        {
            "n": [int(res["n"])],
            "df_between": [int(res["df_between"])],
            "df_within": [int(res["df_within"])],
            "f": [round(res["f"], 6)],
        }
    )


Q_ANOVA_STATUS_SQL = """
    WITH g AS (
        SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS s,
               SUM(o_totalprice * o_totalprice) AS ss
        FROM orders GROUP BY o_orderstatus
    ), tot AS (
        SELECT SUM(n) AS n, SUM(s) AS s, SUM(ss) AS ss, COUNT(*) AS k FROM g
    )
    SELECT CAST(tot.n AS BIGINT) AS n,
           CAST(tot.k - 1 AS BIGINT) AS df_between,
           CAST(tot.n - tot.k AS BIGINT) AS df_within,
           ROUND(((SELECT SUM(s * s / n) FROM g) - tot.s * tot.s / tot.n) / (tot.k - 1)
                 / ((tot.ss - (SELECT SUM(s * s / n) FROM g)) / (tot.n - tot.k)), 6) AS f
    FROM tot
"""


def q_paired_ttest(sf_dir: str):
    """PairedSampleTTest: t of l_quantity vs 100·l_discount per row."""
    from ..stages.stats3 import paired_t_test

    ds = read(sf_dir, "lineitem", columns=["l_quantity", "l_discount"])

    def widen(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64),
                "b": batch["l_discount"].to_numpy(zero_copy_only=False).astype(np.float64) * 100.0,
            }
        )

    res = paired_t_test(ds.map_batches(widen, batch_format="pyarrow"), "a", "b")
    return pd.DataFrame(
        {"n": [int(res["n"])], "df": [int(res["df"])], "t": [round(res["t"], 6)]}
    )


Q_PAIRED_TTEST_SQL = """
    WITH d AS (SELECT l_quantity - 100.0 * l_discount AS diff FROM lineitem)
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*) - 1 AS BIGINT) AS df,
           ROUND(AVG(diff) / (STDDEV_SAMP(diff) / SQRT(COUNT(*))), 6) AS t
    FROM d
"""


def q_ks_orders(sf_dir: str):
    """TwoSampleKsTest: K-S D between o_totalprice of status-'F' orders
    and the rest. Output the INTEGER numerator max|c1·n2 − c2·n1| so the
    compare is bit-exact (no rational rounding)."""
    from ..stages.stats3 import distinct_value_scan

    ds = read(sf_dir, "orders", columns=["o_totalprice", "o_orderstatus"])

    def widen(batch: pa.Table) -> pa.Table:
        lab = pc.equal(batch["o_orderstatus"], "F").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "v": batch["o_totalprice"].to_numpy(zero_copy_only=False).astype(np.float64),
                "c1": lab.astype(np.float64),
                "c2": (~lab).astype(np.float64),
            }
        )

    wide = ds.map_batches(widen, batch_format="pyarrow")
    scanned, totals = distinct_value_scan(wide, "v", ["c1", "c2"])
    n1, n2 = int(totals["c1"]), int(totals["c2"])

    def block_num(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"num": pa.array([], pa.int64())})
        cum1 = (batch["off_c1"].to_numpy() + batch["c1"].to_numpy()).astype(np.int64)
        cum2 = (batch["off_c2"].to_numpy() + batch["c2"].to_numpy()).astype(np.int64)
        return pa.table({"num": [int(np.abs(cum1 * n2 - cum2 * n1).max())]})

    nm = scanned.map_batches(block_num, batch_size=None, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {"n1": [n1], "n2": [n2], "d_numerator": [int(nm["num"].max())]}
    )


Q_KS_ORDERS_SQL = """
    WITH s AS (
        SELECT o_totalprice AS v,
               CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END AS is1
        FROM orders
    ), t AS (
        SELECT v, CAST(SUM(is1) AS BIGINT) AS c1,
               CAST(SUM(1 - is1) AS BIGINT) AS c2
        FROM s GROUP BY v
    ), n AS (
        SELECT SUM(c1) AS n1, SUM(c2) AS n2 FROM t
    ), c AS (
        SELECT SUM(c1) OVER (ORDER BY v) AS cum1,
               SUM(c2) OVER (ORDER BY v) AS cum2
        FROM t
    )
    SELECT CAST(n.n1 AS BIGINT) AS n1, CAST(n.n2 AS BIGINT) AS n2,
           CAST(MAX(ABS(c.cum1 * n.n2 - c.cum2 * n.n1)) AS BIGINT) AS d_numerator
    FROM c, n
    GROUP BY n.n1, n.n2
"""


def q_wilcoxon(sf_dir: str):
    """WilcoxonSignedRankTest (wilcoxon_signed_rank_test.rs:360-430):
    2·W⁺ (always integer — ranks are half-integers) of l_quantity vs
    100·l_discount."""
    from ..stages.stats3 import wilcoxon_signed_rank

    ds = read(sf_dir, "lineitem", columns=["l_quantity", "l_discount"])

    def widen(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64),
                "b": batch["l_discount"].to_numpy(zero_copy_only=False).astype(np.float64) * 100.0,
            }
        )

    res = wilcoxon_signed_rank(ds.map_batches(widen, batch_format="pyarrow"), "a", "b")
    return pd.DataFrame(
        {"n": [int(res["n"])], "w_plus_x2": [int(round(2.0 * res["w_plus"]))]}
    )


Q_WILCOXON_SQL = """
    WITH d AS (
        SELECT l_quantity - 100.0 * l_discount AS diff FROM lineitem
        WHERE l_quantity - 100.0 * l_discount <> 0
    ), r AS (
        SELECT diff,
               RANK() OVER (ORDER BY ABS(diff)) AS r_min,
               COUNT(*) OVER (PARTITION BY ABS(diff)) AS c_eq
        FROM d
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CASE WHEN diff > 0 THEN 2 * r_min + c_eq - 1 ELSE 0 END) AS BIGINT)
               AS w_plus_x2
    FROM r
"""


def q_cume_dist(sf_dir: str):
    """CumulativeDistribution (cumulative_dist.rs): per-customer
    cume count of c_acctbal (integer rank-max — SQL COUNT(*) OVER
    (ORDER BY ...) with the default peers-inclusive RANGE frame)."""
    from ..stages.stats3 import cumulative_distribution

    ds = read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
    n = ds.count()
    out = cumulative_distribution(ds, "c_acctbal")

    def finish(batch: pa.Table) -> pa.Table:
        cnt = np.rint(batch["cume"].to_numpy() * n).astype(np.int64)
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "cume_cnt": pa.array(cnt, pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow").sort("c_custkey")


Q_CUME_DIST_SQL = """
    SELECT c_custkey,
           CAST(COUNT(*) OVER (ORDER BY c_acctbal) AS BIGINT) AS cume_cnt
    FROM customer
    ORDER BY c_custkey
"""


def q_crispness(sf_dir: str):
    """CrispnessIndex (crispness_index.rs:40) of the 10·l_discount
    pseudo-membership column."""
    from ..stages.stats2 import crispness_index

    ds = read(sf_dir, "lineitem", columns=["l_discount"])

    def widen(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"p": batch["l_discount"].to_numpy(zero_copy_only=False).astype(np.float64) * 10.0}
        )

    c = crispness_index(ds.map_batches(widen, batch_format="pyarrow"), "p")
    return pd.DataFrame({"crispness": [round(c, 6)]})


Q_CRISPNESS_SQL = """
    WITH s AS (SELECT 10.0 * l_discount AS p FROM lineitem),
         a AS (SELECT COUNT(*) AS n, SUM(p) AS s, SUM(p * p) AS ss,
                      AVG(p) AS pbar FROM s)
    SELECT ROUND((ss - n * pbar * pbar)
                 / (s * (1 - pbar) * (1 - pbar) + pbar * pbar * (n - s)), 6)
           AS crispness
    FROM a
"""


# ------------------------------------------------- round-2 family gates


def q_cva(sf_dir: str):
    """ChangeVectorAnalysis (change_vector_analysis.rs): magnitude +
    sector code over two derived 2-band dates on lineitem."""
    from ..stages.image2 import change_vector_analysis

    ds = read(sf_dir, "lineitem",
              columns=["l_orderkey", "l_linenumber", "l_quantity", "l_discount", "l_tax"])

    def widen(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.float64)
        d = batch["l_discount"].to_numpy(zero_copy_only=False).astype(np.float64)
        t = batch["l_tax"].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "record_id": pa.array(ok * 10 + ln, pa.int64()),
                "b1_t1": q, "b2_t1": d * 100.0,
                "b1_t2": q + t * 10.0, "b2_t2": d * 100.0 - 1.0,
            }
        )

    out = change_vector_analysis(ds.map_batches(widen, batch_format="pyarrow"),
                                 ["b1_t1", "b2_t1"], ["b1_t2", "b2_t2"])
    return out.select_columns(["record_id", "cva_magnitude", "cva_sector"]).rename_columns(
        {"cva_magnitude": "magnitude", "cva_sector": "sector"}
    )


Q_CVA_SQL = """
    WITH s AS (
        SELECT l_orderkey * 10 + l_linenumber AS record_id,
               l_tax * 10.0 AS d1, -1.0 AS d2
        FROM lineitem
    )
    SELECT record_id,
           ROUND(SQRT(d1 * d1 + d2 * d2), 6) AS magnitude,
           CAST(CASE WHEN d1 < 0 THEN 1 ELSE 0 END
                + CASE WHEN d2 < 0 THEN 2 ELSE 0 END AS BIGINT) AS sector
    FROM s
"""


def q_pan_sharpen(sf_dir: str):
    """PanchromaticSharpening Brovey ratio over derived r/g/b/pan."""
    from ..stages.image2 import panchromatic_sharpening

    ds = read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def widen(batch: pa.Table) -> pa.Table:
        k = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["c_acctbal"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "c_custkey": k,
                "r": np.abs(b) + 1.0,
                "g": (k % 97).astype(np.float64) + 1.0,
                "b": (k % 31).astype(np.float64) + 1.0,
                "pan": (k % 13).astype(np.float64) + 1.0,
            }
        )

    out = panchromatic_sharpening(ds.map_batches(widen, batch_format="pyarrow"))
    return out.select_columns(["c_custkey", "sharp_r", "sharp_g", "sharp_b"])


Q_PAN_SHARPEN_SQL = """
    WITH s AS (
        SELECT c_custkey,
               ABS(c_acctbal) + 1.0 AS r,
               CAST(c_custkey % 97 AS DOUBLE) + 1.0 AS g,
               CAST(c_custkey % 31 AS DOUBLE) + 1.0 AS b,
               CAST(c_custkey % 13 AS DOUBLE) + 1.0 AS pan
        FROM customer
    )
    SELECT c_custkey,
           ROUND(r * 3.0 * pan / (r + g + b), 6) AS sharp_r,
           ROUND(g * 3.0 * pan / (r + g + b), 6) AS sharp_g,
           ROUND(b * 3.0 * pan / (r + g + b), 6) AS sharp_b
    FROM s
"""


def q_lidar_thin(sf_dir: str):
    """LidarThin (lidar_thin.rs): one survivor per resolution cell,
    LOWEST z — over the deterministic synthetic point cloud."""
    from ..stages.lidar import lidar_thin

    pts = synth_points(sf_dir)

    def as_cloud(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "record_id": batch["record_id"],
                "x": batch["x"],
                "y": batch["y"],
                # z = record_id: unique, so the per-cell 'lowest' pick is
                # tie-free on both sides of the compare
                "z": batch["record_id"].cast(pa.float64()),
            }
        )

    cloud = pts.map_batches(as_cloud, batch_format="pyarrow")
    out = lidar_thin(cloud, resolution=50.0, method="lowest")
    return out.select_columns(["record_id"])


def q_lidar_thin_sql() -> str:
    return """
    WITH pts AS (
        SELECT l_orderkey * 10 + l_linenumber AS record_id,
               ((l_orderkey * 7919 + l_linenumber * 104729) % 1000000) / 1000.0 AS x,
               ((l_partkey * 6271 + l_suppkey * 3571) % 1000000) / 1000.0 AS y,
               CAST(l_orderkey * 10 + l_linenumber AS DOUBLE) AS z
        FROM lineitem
    ), keyed AS (
        SELECT record_id, z,
               CAST(FLOOR(x / 50.0) AS BIGINT) AS cx,
               CAST(FLOOR(y / 50.0) AS BIGINT) AS cy
        FROM pts
    ), ranked AS (
        SELECT record_id,
               ROW_NUMBER() OVER (PARTITION BY cy, cx ORDER BY z, record_id) AS rn
        FROM keyed
    )
    SELECT record_id FROM ranked WHERE rn = 1
    """


def q_flightline_edges(sf_dir: str):
    """FindFlightlineEdgePoints: rows at the max |scan angle| of their
    flightline (synthetic flightline/scan-angle columns)."""
    from ..stages.lidar2 import find_flightline_edge_points

    pts = synth_points(sf_dir)

    def widen(batch: pa.Table) -> pa.Table:
        rid = batch["record_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "record_id": rid,
                "flightline": pa.array(rid % 7, pa.int64()),
                "scan_angle": pa.array((rid % 41) - 20, pa.int64()),
            }
        )

    out = find_flightline_edge_points(pts.map_batches(widen, batch_format="pyarrow"))
    return out.select_columns(["record_id"]).sort("record_id")


Q_FLIGHTLINE_EDGES_SQL = """
    WITH pts AS (
        SELECT l_orderkey * 10 + l_linenumber AS record_id,
               (l_orderkey * 10 + l_linenumber) % 7 AS fl,
               ABS(((l_orderkey * 10 + l_linenumber) % 41) - 20) AS a
        FROM lineitem
    ), mx AS (
        SELECT fl, MAX(a) AS ma FROM pts GROUP BY fl
    )
    SELECT pts.record_id
    FROM pts JOIN mx ON pts.fl = mx.fl AND pts.a = mx.ma
    ORDER BY record_id
"""


def q_reclass_interval(sf_dir: str):
    """ReclassEqualInterval: floor-to-interval classes of o_totalprice."""
    from ..stages.stats import reclass_equal_interval

    ds = read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = reclass_equal_interval(ds, "o_totalprice", interval=25000.0, start=0.0)
    return out.select_columns(["o_orderkey", "reclass"]).rename_columns({"reclass": "cls"})


Q_RECLASS_INTERVAL_SQL = """
    SELECT o_orderkey,
           FLOOR(o_totalprice / 25000.0) * 25000.0 AS cls
    FROM orders
"""


def q_allocation(sf_dir: str):
    """EuclideanAllocation (euclidean_allocation.rs): nearest-target
    value over a 64×64 grid with three tie-free targets, via the exact
    separable feature transform."""
    import ray.data as rd

    from ..stages.distance import euclidean_allocation_ds

    full = np.zeros((64, 64))
    for r, c, v in ALLOCATION_TARGETS:
        full[r, c] = v
    rows, spec = _scene(full, fmt="f32")
    return _tiles_to_cells(euclidean_allocation_ds(rd.from_items(rows), spec), spec, "alloc")


Q_ALLOCATION_SQL = f"""
    WITH t(tr, tc, v) AS (VALUES {", ".join(map(str, ALLOCATION_TARGETS))}),
         {_WIN_G}
    SELECT g.row, g.col,
           (SELECT v FROM t
            ORDER BY (g.row - t.tr) * (g.row - t.tr) + (g.col - t.tc) * (g.col - t.tc)
            LIMIT 1) AS alloc
    FROM g
"""


def q_slope_horn(sf_dir: str):
    """Slope (slope.rs:256-292 Horn derivatives, edge replication) on an
    analytic DEM — the focal halo engine vs a pure-SQL twin."""
    import ray.data as rd

    from ..stages.focal import focal_op, slope_kernel

    rows, spec = _scene(_dem_grid())
    # f64 payload: the default f32 output tier quantizes the 7th
    # significant digit, which the ROUND(…,6) compare would see
    out = focal_op(rd.from_items(rows), spec, slope_kernel, 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "slope"), "slope")


def _horn_sql(out_expr: str, out_name: str) -> str:
    # edge replication: out-of-grid neighbours take the centre value
    # (slope.rs convention reproduced by the halo engine)
    ne, e, se = _dem_z_edge(-1, 1), _dem_z_edge(0, 1), _dem_z_edge(1, 1)
    s, sw, w = _dem_z_edge(1, 0), _dem_z_edge(1, -1), _dem_z_edge(0, -1)
    nw, n = _dem_z_edge(-1, -1), _dem_z_edge(-1, 0)
    res = 90.0  # SceneSpec default res (kernels/grid.py DEFAULT_RES)
    return f"""
    WITH {_WIN_G},
         d AS (SELECT g.row, g.col,
                      (({nw}) - ({sw}) + 2.0 * (({n}) - ({s})) + ({ne}) - ({se})) / {8.0 * res} AS fy,
                      (({se}) - ({sw}) + 2.0 * (({e}) - ({w})) + ({ne}) - ({nw})) / {8.0 * res} AS fx
               FROM g)
    SELECT row, col, {out_expr} AS {out_name}
    FROM d
    """


Q_SLOPE_HORN_SQL = _horn_sql("ROUND(DEGREES(ATAN(SQRT(fx * fx + fy * fy))), 6)", "slope")


def q_aspect_horn(sf_dir: str):
    """Aspect (aspect.rs:256-283 literal branch) on the analytic DEM."""
    import ray.data as rd

    from ..stages.focal import aspect_kernel, focal_op

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, aspect_kernel, 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "aspect"), "aspect")


Q_ASPECT_HORN_SQL = _horn_sql(
    "ROUND(CASE WHEN fx > 0 THEN 180.0 - DEGREES(ATAN(fy / fx)) + 90.0 * (CASE WHEN fx > 0 THEN 1 ELSE -1 END) ELSE -1.0 END, 6)",
    "aspect",
)


def q_hillshade_horn(sf_dir: str):
    """Hillshade (hillshade.rs Horn + sun illumination, 0-32767 int)."""
    import ray.data as rd

    from ..stages.focal import focal_op, hillshade_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, hillshade_kernel, 1, out_fmt="f64")
    return _int_cells(_tiles_to_cells(out, spec, "hs"), "hs")


def q_hillshade_horn_sql() -> str:
    # np.round is round-half-even; duckdb ROUND is half-away. The
    # kernel's values are irrational (products of trig terms), so the
    # exact-.5 boundary is unreachable and both agree — expressed here
    # with ROUND for clarity.
    # hillshade.rs:316-326: fx == 0 short-circuits to 0.5 (the reference
    # aspect formula divides by fx); only the lower bound is clamped
    return _horn_sql(
        "CAST(ROUND(GREATEST(CASE WHEN fx = 0.0 THEN 0.5 ELSE "
        "SIN(RADIANS(30.0)) * COS(ATAN(SQRT(fx * fx + fy * fy)))"
        " + COS(RADIANS(30.0)) * SIN(ATAN(SQRT(fx * fx + fy * fy)))"
        " * COS(RADIANS(315.0 - 90.0) - ATAN2(-fx, fy)) END, 0.0) * 32767.0, 0) AS BIGINT)",
        "hs",
    )


def q_window_total(sf_dir: str):
    """TotalFilter (window sum, radius 1) on the analytic DEM — integer
    arithmetic end to end, no rounding at all."""
    import ray.data as rd

    from ..stages.focal import make_window_kernel, focal_op

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("total", 1), 1, out_fmt="f64")
    return _int_cells(_tiles_to_cells(out, spec, "total"), "total")


def q_window_total_sql() -> str:
    # out-of-grid neighbours are NODATA for window stats (excluded from
    # the sum — no whole-neighbour replication here)
    zc = "CAST(((g.row + ({dr})) * 31 + (g.col + ({dc})) * 17) % 97 AS BIGINT)"
    terms = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            cond = f"g.row + ({dr}) BETWEEN 0 AND 63 AND g.col + ({dc}) BETWEEN 0 AND 63"
            terms.append(f"CASE WHEN {cond} THEN {zc.format(dr=dr, dc=dc)} ELSE 0 END")
    total = " + ".join(terms)
    return f"""
    WITH {_WIN_G}
    SELECT row, col, CAST({total} AS BIGINT) AS total
    FROM g
    """


def q_prof_curvature_horn(sf_dir: str):
    """ProfCurvature (prof_curvature.rs:285-300) on the analytic DEM."""
    import ray.data as rd

    from ..stages.terrain2 import prof_curvature_kernel
    from ..stages.focal import focal_op

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, prof_curvature_kernel, 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "profc"), "profc")


def q_prof_curvature_horn_sql() -> str:
    # second derivatives on the replicated-neighbour frame; cell size 90
    ne, e_, se = _dem_z_edge(-1, 1), _dem_z_edge(0, 1), _dem_z_edge(1, 1)
    s_, sw, w_ = _dem_z_edge(1, 0), _dem_z_edge(1, -1), _dem_z_edge(0, -1)
    nw, n_ = _dem_z_edge(-1, -1), _dem_z_edge(-1, 0)
    ctr = _DEM_Z_EDGE.format(r="g.row", c="g.col")
    res = 90.0
    return f"""
    WITH {_WIN_G},
         d AS (SELECT g.row, g.col,
                      (({e_}) - ({w_})) / {2.0 * res} AS zx,
                      (({n_}) - ({s_})) / {2.0 * res} AS zy,
                      (({e_}) - 2.0 * ({ctr}) + ({w_})) / {res * res} AS zxx,
                      (({n_}) - 2.0 * ({ctr}) + ({s_})) / {res * res} AS zyy,
                      (-({nw}) + ({ne}) + ({sw}) - ({se})) / {4.0 * res * res} AS zxy
               FROM g)
    SELECT row, col,
           ROUND(CASE WHEN zx * zx + zy * zy > 0
                 THEN DEGREES((zxx * zx * zx + 2.0 * zxy * zx * zy + zyy * zy * zy)
                      / ((zx * zx + zy * zy) * POWER(1.0 + zx * zx + zy * zy, 1.5))) * 100.0
                 ELSE -32768.0 END, 6) AS profc
    FROM d
    """


def q_d8_accum(sf_dir: str):
    """D8FlowAccumulation (d8_flow_accum.rs, out_type=cells) on the
    analytic DEM — pointer via the halo engine, accumulation via the
    Dataset-native BSP drain, oracle via a recursive-CTE path count."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds

    rows, spec = _scene(_dem_grid())
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    return _int_cells(_tiles_to_cells(acc, spec, "acc"), "acc")


def q_d8_accum_sql() -> str:
    """Pointer argmax (strictly-greater, first-in-ring-order tie rule,
    distance-weighted diagonals) + WITH RECURSIVE path walk; acc(cell) =
    number of cells whose flowpath passes through it (incl. itself)."""
    move_r = _d8_case("d", "dr")
    move_c = _d8_case("d", "dc")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col) AS (
        SELECT row, col, row, col FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    )
    SELECT row, col, CAST(COUNT(*) AS BIGINT) AS acc
    FROM walk
    GROUP BY row, col
    ORDER BY row, col
    """


def q_basins_grid(sf_dir: str):
    """Basins (basins.rs): dense 1-based labels in terminal-gid order —
    the Dataset-native terminal-resolution shards vs a recursive-CTE
    pointer walk."""
    import ray.data as rd

    from ..stages.basins import basins_ds
    from ..stages.flow import d8_pointer_masked

    rows, spec = _scene(_dem_grid())
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    lab = basins_ds(ptr, spec, num_workers=2)
    return _int_cells(_tiles_to_cells(lab, spec, "basin"), "basin")


def q_basins_grid_sql() -> str:
    """Walk every cell to its terminal; label = dense rank of the
    terminal's row-major gid."""
    move_r_w = _d8_case("wd", "dr")
    move_c_w = _d8_case("wd", "dc")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col, wd) AS (
        SELECT row, col, row, col, d FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col, w.nrow, w.ncol, d2.d
        FROM (SELECT src_row, src_col,
                     row + ({move_r_w}) AS nrow, col + ({move_c_w}) AS ncol
              FROM walk WHERE wd >= 0) w
        JOIN dirs d2 ON d2.row = w.nrow AND d2.col = w.ncol
    ),
    term AS (SELECT src_row, src_col, row * 64 + col AS tgid
             FROM walk WHERE wd < 0),
    ranks AS (SELECT tgid, DENSE_RANK() OVER (ORDER BY tgid) AS lab
              FROM (SELECT DISTINCT tgid FROM term))
    SELECT term.src_row AS row, term.src_col AS col,
           CAST(ranks.lab AS BIGINT) AS basin
    FROM term JOIN ranks ON term.tgid = ranks.tgid
    ORDER BY row, col
    """


def q_downslope_length(sf_dir: str):
    """DownslopeFlowpathLength (downslope_flowpath_length.rs): total
    step length to the flowpath terminal — the terminal-resolution
    'acc' mode vs the recursive walk summing step lengths. ROUND(…,4):
    the BSP doubling and the CTE walk associate the float sum in
    different orders (noise ~1e-9 on O(10^3) values)."""
    import ray.data as rd

    from ..stages.hydro2 import downslope_flowpath_length

    rows, spec = _scene(_dem_grid())
    out = downslope_flowpath_length(rd.from_items(rows), spec, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "dfl"), "dfl", 4)


def q_downslope_length_sql() -> str:
    step_len = _d8_case("wd", "len")
    move_r_w = _d8_case("wd", "dr")
    move_c_w = _d8_case("wd", "dc")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col, wd, dist) AS (
        SELECT row, col, row, col, d, CAST(0.0 AS DOUBLE) FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col, w.nrow, w.ncol, d2.d, w.ndist
        FROM (SELECT src_row, src_col,
                     row + ({move_r_w}) AS nrow, col + ({move_c_w}) AS ncol,
                     dist + ({step_len}) AS ndist
              FROM walk WHERE wd >= 0) w
        JOIN dirs d2 ON d2.row = w.nrow AND d2.col = w.ncol
    )
    SELECT src_row AS row, src_col AS col, ROUND(dist, 4) AS dfl
    FROM walk WHERE wd < 0
    ORDER BY row, col
    """


def q_watershed_grid(sf_dir: str):
    """Watershed (watershed.rs): labels from pour points — the walk stops
    at the FIRST pour cell downstream (pour cells are targets)."""
    import ray.data as rd

    from ..stages.basins import watershed_ds
    from ..stages.flow import d8_pointer_masked

    rows, spec = _scene(_dem_grid())
    gs = spec.grid_spec()
    pours = [
        (gs.west + (c + 0.5) * spec.res, gs.north - (r + 0.5) * spec.res, pid)
        for r, c, pid in WATERSHED_POURS
    ]
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    lab = watershed_ds(ptr, spec, pours, num_workers=2)
    return _int_cells(_tiles_to_cells(lab, spec, "ws"), "ws")


def q_watershed_grid_sql() -> str:
    """Pour cells are walk targets (d = -10), tie-free by construction."""
    move_r_w = _d8_case("wd", "dr")
    move_c_w = _d8_case("wd", "dc")
    return f"""
    WITH RECURSIVE
    {_WIN_G},
    pours(prow, pcol, pid) AS (VALUES {", ".join(map(str, WATERSHED_POURS))}),
    {_d8_sl(_DEM_Z)},
    dirs AS (SELECT d0.row, d0.col,
                    CASE WHEN p.pid IS NOT NULL THEN -10 ELSE d0.d END AS d,
                    COALESCE(p.pid, 0) AS pour_id
             FROM ({_D8_ARGMAX}) d0
             LEFT JOIN pours p ON p.prow = d0.row AND p.pcol = d0.col),
    walk(src_row, src_col, row, col, wd, pour_id) AS (
        SELECT row, col, row, col, d, pour_id FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col, w.nrow, w.ncol, d2.d, d2.pour_id
        FROM (SELECT src_row, src_col,
                     row + ({move_r_w}) AS nrow, col + ({move_c_w}) AS ncol
              FROM walk WHERE wd >= 0) w
        JOIN dirs d2 ON d2.row = w.nrow AND d2.col = w.ncol
    )
    SELECT src_row AS row, src_col AS col,
           CAST(pour_id AS BIGINT) AS ws
    FROM walk WHERE wd < 0
    ORDER BY row, col
    """



Q_TREND_SURFACE_SQL = """
    WITH pts AS (
        SELECT l_orderkey * 10 + l_linenumber AS record_id,
               ((l_orderkey * 7919 + l_linenumber * 104729) % 1000000) / 1000.0 AS x,
               ((l_partkey * 6271 + l_suppkey * 3571) % 1000000) / 1000.0 AS y,
               l_quantity AS z
        FROM lineitem
    ), agg AS (
        SELECT CAST(COUNT(*) AS DOUBLE) AS n,
               SUM(x) AS sx, SUM(y) AS sy, SUM(x*x) AS sxx,
               SUM(x*y) AS sxy, SUM(y*y) AS syy,
               SUM(z) AS sz, SUM(x*z) AS sxz, SUM(y*z) AS syz
        FROM pts
    ), coef AS (
        SELECT
          (sz*(sxx*syy - sxy*sxy) - sx*(sxz*syy - sxy*syz) + sy*(sxz*sxy - sxx*syz))
            / (n*(sxx*syy - sxy*sxy) - sx*(sx*syy - sxy*sy) + sy*(sx*sxy - sxx*sy)) AS b0,
          (n*(sxz*syy - sxy*syz) - sz*(sx*syy - sxy*sy) + sy*(sx*syz - sxz*sy))
            / (n*(sxx*syy - sxy*sxy) - sx*(sx*syy - sxy*sy) + sy*(sx*sxy - sxx*sy)) AS b1,
          (n*(sxx*syz - sxz*sxy) - sx*(sx*syz - sxz*sy) + sz*(sx*sxy - sxx*sy))
            / (n*(sxx*syy - sxy*sxy) - sx*(sx*syy - sxy*sy) + sy*(sx*sxy - sxx*sy)) AS b2
        FROM agg
    )
    SELECT record_id, ROUND(b0 + b1 * x + b2 * y, 2) AS trend
    FROM pts, coef
"""


def q_resample_bilinear(sf_dir: str):
    """Resample (resample.rs "bilinear", :395-457) 64×64 → 32×32 at 2×
    the cell size — the reference's ACTUAL arithmetic: inverse-distance²
    weights over the 2×2 neighbourhood at edge-fraction coords. At 2×
    every dest centre lands exactly on source cell (2r+1, 2c+1), which
    is an exact hit that gets NO weight (and is overwritten by the
    weighted mean of the other corners whenever any of them is valid —
    the reference quirk, kept verbatim): value =
    (v(2r+1,2c+2) + v(2r+2,2c+1) + 0.5·v(2r+2,2c+2)) / 2.5 interior,
    degrading at the south/east edges, and the raw hit at (63,63)."""
    from ..kernels.grid import GridSpec
    from ..stages.resample import resample

    rows, spec = _scene(_dem_grid())
    gs = spec.grid_spec()
    dest = GridSpec(
        west=gs.west, north=gs.north, res_x=gs.res_x * 2, res_y=gs.res_y * 2,
        rows=32, columns=32, nodata=gs.nodata,
    )
    out = resample(pa.Table.from_pylist(rows), spec, dest, dest_tile_px=16, method="bilinear", out_fmt="f64")
    return _tiles_to_cells(out, spec, "value")


Q_RESAMPLE_BILINEAR_SQL = """
    WITH g AS (SELECT r.r AS row, c.c AS col
               FROM (SELECT unnest(generate_series(0, 31)) AS r) r,
                    (SELECT unnest(generate_series(0, 31)) AS c) c)
    SELECT row, col,
           CASE
             WHEN row = 31 AND col = 31 THEN CAST(((2*row + (1)) * 31 + (2*col + (1)) * 17) % 97 AS DOUBLE)
             WHEN col = 31 THEN (0.0 + (CASE WHEN row <= 30 THEN CAST(((2*row + (2)) * 31 + (2*col + (1)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + 0.0) / (0.0 + (CASE WHEN row <= 30 THEN 1.0 ELSE 0.0 END) + 0.0)
             ELSE ((CASE WHEN TRUE THEN CAST(((2*row + (1)) * 31 + (2*col + (2)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + (CASE WHEN row <= 30 THEN CAST(((2*row + (2)) * 31 + (2*col + (1)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN CAST(((2*row + (2)) * 31 + (2*col + (2)) * 17) % 97 AS DOUBLE) * (1.0/2.0) ELSE 0.0 END)) / ((CASE WHEN TRUE THEN 1.0 ELSE 0.0 END) + (CASE WHEN row <= 30 THEN 1.0 ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN 1.0/2.0 ELSE 0.0 END))
           END AS value
    FROM g
"""


def _idw_points():
    """(spec, x/y/value table) of IDW_POINTS on the analytic scene frame."""
    from ..sources.tiles import SceneSpec

    spec = SceneSpec(tiles_x=4, tiles_y=4, tile_px=16)
    gs = spec.grid_spec()
    return spec, pa.table(
        {
            "x": [gs.west + (c + f) * spec.res for (r, c, f, g, v) in IDW_POINTS],
            "y": [gs.north - (r + g) * spec.res for (r, c, f, g, v) in IDW_POINTS],
            "value": [v for (r, c, f, g, v) in IDW_POINTS],
        }
    )


def _idw_sql_points() -> str:
    """IDW_POINTS as the twins' ``VALUES`` rows (px, py, v)."""
    _, pts = _idw_points()
    return ", ".join(f"({x!r}, {y!r}, {v!r})" for x, y, v in zip(*pts.to_pydict().values()))


def q_idw_grid(sf_dir: str):
    """IdwInterpolation (idw_interpolation.rs): 6 fixed points gridded
    onto the 64×64 scene (radius 4 cells, power 2; fixture verified
    free of d=0 and d=radius boundary hits). Cells without a point in
    radius are nodata on both sides."""
    from ..stages.gridding import idw_gridding

    spec, pts = _idw_points()
    out = idw_gridding(pts, spec, radius=4.0 * spec.res, power=2.0, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "idw"), "idw")


def q_idw_grid_sql() -> str:
    spec, _ = _idw_points()
    gs = spec.grid_spec()
    res = spec.res
    return f"""
    WITH pts(px, py, v) AS (VALUES {_idw_sql_points()}),
    g AS (SELECT r.r AS row, c.c AS col,
                 {gs.west!r} + (c.c + 0.5) * {res!r} AS x,
                 {gs.north!r} - (r.r + 0.5) * {res!r} AS y
          FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
               (SELECT unnest(generate_series(0, 63)) AS c) c),
    w AS (SELECT g.row, g.col,
                 SUM(v / ((x - px) * (x - px) + (y - py) * (y - py))) AS num,
                 SUM(1.0 / ((x - px) * (x - px) + (y - py) * (y - py))) AS den
          FROM g JOIN pts
            ON (x - px) * (x - px) + (y - py) * (y - py) <= {(4.0 * res) ** 2!r}
          GROUP BY g.row, g.col)
    SELECT g.row, g.col,
           ROUND(COALESCE(w.num / w.den, {gs.nodata!r}), 6) AS idw
    FROM g LEFT JOIN w ON w.row = g.row AND w.col = g.col
    ORDER BY g.row, g.col
    """


def q_hex_binning_sql() -> str:
    """SQL twin of the planar hex assignment: cube rounding spelled out
    with ROUND_EVEN (numpy's half-even) + the two CASE fixes, then the
    pack_hex int64 layout. size = 65536/2^res."""
    size = 65536.0 / (2.0 ** HEX_RES)
    return f"""
    WITH pts AS (
        SELECT ((l_orderkey * 7919 + l_linenumber * 104729) % 1000000) / 1000.0 AS x,
               ((l_partkey * 6271 + l_suppkey * 3571) % 1000000) / 1000.0 AS y
        FROM lineitem
    ), f AS (
        SELECT (SQRT(3.0) / 3.0 * x - y / 3.0) / {size!r} AS xf,
               (2.0 / 3.0 * y) / {size!r} AS zf
        FROM pts
    ), rr AS (
        SELECT xf, zf, -xf - zf AS yf,
               ROUND_EVEN(xf, 0) AS rx, ROUND_EVEN(-xf - zf, 0) AS ry,
               ROUND_EVEN(zf, 0) AS rz
        FROM f
    ), fx AS (
        SELECT *,
               ABS(rx - xf) AS dx, ABS(ry - yf) AS dy, ABS(rz - zf) AS dz
        FROM rr
    ), cube AS (
        SELECT CASE WHEN dx > dy AND dx > dz THEN -ry - rz ELSE rx END AS q,
               CASE WHEN NOT (dx > dy AND dx > dz) AND dz > dy THEN -rx - ry ELSE rz END AS r
        FROM fx
    )
    SELECT CAST(({HEX_RES} * 281474976710656) + (CAST(q AS BIGINT) + 8388608) * 16777216
                + (CAST(r AS BIGINT) + 8388608) AS BIGINT) AS cell,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM cube
    GROUP BY 1
    ORDER BY 1
    """


# ---------------------------------------------------------------------------
# visibility family gate queries (terrain_analysis/horizon_angle.rs,
# fetch_analysis.rs, viewshed.rs) — the Dataset forms on the analytic DEM
# vs pure-SQL twins. Axis azimuths make the directional ray walk (and,
# via the analytic z formula, even the bilinear viewshed profile)
# SQL-expressible with bit-identical double arithmetic.
# ---------------------------------------------------------------------------


def q_horizon_angle(sf_dir: str):
    """HorizonAngle due east, 20 steps: per cell the max elevation angle
    atan2(z(r, c+s) − z(r, c), s·res) over s = 1..20; −π/2 where no
    in-grid sample exists (col 63). Runs through horizon_angle_ds's
    directional-halo gather."""
    import ray.data as rd

    from ..stages.visibility import horizon_angle_ds

    rows, spec = _scene(_dem_grid())
    out = horizon_angle_ds(rd.from_items(rows), spec, 90.0, 20.0 * spec.res, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "ha"), "ha", 9)


Q_HORIZON_ANGLE_SQL = f"""
WITH {_WIN_G},
     st AS (SELECT unnest(generate_series(1, 20)) AS s),
     b AS (SELECT g.row, g.col,
                  MAX(ATAN2(CAST((g.row * 31 + (g.col + st.s) * 17) % 97 AS DOUBLE)
                            - CAST((g.row * 31 + g.col * 17) % 97 AS DOUBLE),
                            st.s * 90.0)) AS best
           FROM g, st
           WHERE g.col + st.s <= 63
           GROUP BY g.row, g.col)
SELECT g.row, g.col, ROUND(COALESCE(b.best, -PI() / 2), 9) AS ha
FROM g LEFT JOIN b ON g.row = b.row AND g.col = b.col
"""


def q_fetch_analysis(sf_dir: str):
    """FetchAnalysis due south, 20 steps: distance (s·res) to the first
    cell with z(r+s, c) > z(r, c) + 0.022·s·res; 1800 (= max_dist)
    where unobstructed. Integer-exact outputs on the analytic DEM."""
    import ray.data as rd

    from ..stages.visibility import fetch_analysis_ds

    rows, spec = _scene(_dem_grid())
    out = fetch_analysis_ds(rd.from_items(rows), spec, 180.0, 20.0 * spec.res, out_fmt="f64")
    return _tiles_to_cells(out, spec, "fetch")


Q_FETCH_ANALYSIS_SQL = f"""
WITH {_WIN_G},
     st AS (SELECT unnest(generate_series(1, 20)) AS s),
     b AS (SELECT g.row, g.col, MIN(st.s) AS s_first
           FROM g, st
           WHERE g.row + st.s <= 63
             AND CAST(((g.row + st.s) * 31 + g.col * 17) % 97 AS DOUBLE)
                 > CAST((g.row * 31 + g.col * 17) % 97 AS DOUBLE) + ((0.022 * st.s) * 90.0)
           GROUP BY g.row, g.col)
SELECT g.row, g.col, COALESCE(b.s_first * 90.0, 1800.0) AS fetch
FROM g LEFT JOIN b ON g.row = b.row AND g.col = b.col
"""


def q_viewshed(sf_dir: str):
    """Viewshed from station (31, 31) + 2 m: a cell is visible iff no
    intervening bilinear sample along the sight line subtends a larger
    vertical angle (+1e-12 guard). Runs through viewshed_ds's azimuthal
    sector decomposition (8 sectors); the SQL twin replays the exact
    double expression tree on the analytic z formula."""
    import ray.data as rd

    from ..stages.visibility import viewshed_ds

    rows, spec = _scene(_dem_grid())
    out = viewshed_ds(rd.from_items(rows), spec, (31, 31), station_height=2.0,
                      n_sectors=8, out_fmt="f64")
    return _tiles_to_cells(out, spec, "vis")


# z(31,31) = (31*31 + 31*17) % 97 = 33 → zs = 35.0
Q_VIEWSHED_SQL = f"""
WITH {_WIN_G},
     tgt AS (SELECT row, col,
                    CAST(row - 31 AS DOUBLE) AS dy,
                    CAST(col - 31 AS DOUBLE) AS dx,
                    SQRT(CAST(row - 31 AS DOUBLE) * CAST(row - 31 AS DOUBLE)
                         + CAST(col - 31 AS DOUBLE) * CAST(col - 31 AS DOUBLE)) AS dist,
                    CAST((row * 31 + col * 17) % 97 AS DOUBLE) AS z
             FROM g),
     samp AS (SELECT t.row, t.col, t.dist, t.z,
                     CAST(u.s AS DOUBLE) / t.dist AS tt
              FROM tgt t,
                   LATERAL (SELECT unnest(generate_series(
                       1, CAST(CEIL(t.dist) AS BIGINT) - 1)) AS s) u),
     pos AS (SELECT row, col, dist, z, tt,
                    31 + (CAST(row - 31 AS DOUBLE)) * tt AS rr,
                    31 + (CAST(col - 31 AS DOUBLE)) * tt AS cc
             FROM samp),
     quad AS (SELECT row, col, dist, z, tt, rr, cc,
                     LEAST(GREATEST(FLOOR(rr), 0), 62) AS r0,
                     LEAST(GREATEST(FLOOR(cc), 0), 62) AS c0
              FROM pos),
     interp AS (SELECT row, col, dist, z, tt,
                       rr - r0 AS fr, cc - c0 AS fc,
                       CAST((CAST(r0 AS BIGINT) * 31 + CAST(c0 AS BIGINT) * 17) % 97 AS DOUBLE) AS q00,
                       CAST((CAST(r0 AS BIGINT) * 31 + (CAST(c0 AS BIGINT) + 1) * 17) % 97 AS DOUBLE) AS q01,
                       CAST(((CAST(r0 AS BIGINT) + 1) * 31 + CAST(c0 AS BIGINT) * 17) % 97 AS DOUBLE) AS q10,
                       CAST(((CAST(r0 AS BIGINT) + 1) * 31 + (CAST(c0 AS BIGINT) + 1) * 17) % 97 AS DOUBLE) AS q11
                FROM quad),
     ang AS (SELECT row, col,
                    MAX((((q00 * (1 - fr)) * (1 - fc)
                          + (q01 * (1 - fr)) * fc
                          + (q10 * fr) * (1 - fc)
                          + (q11 * fr) * fc) - 35.0)
                        / ((tt * dist) * 90.0)) AS max_ang,
                    ANY_VALUE((z - 35.0) / (dist * 90.0)) AS target
             FROM interp
             GROUP BY row, col)
SELECT g.row, g.col,
       CASE WHEN a.max_ang IS NOT NULL AND a.max_ang > a.target + 1e-12
            THEN 0.0 ELSE 1.0 END AS vis
FROM g LEFT JOIN ang a ON g.row = a.row AND g.col = a.col
"""


def q_overlay_intersect_cp(sf_dir: str):
    """Intersect through the BOTH-SIDES-LARGE co-partition path
    (overlay_copartition: quad-cell pair discovery + bucketed geometry
    joins, no broadcast) — same oracle as the broadcast form."""
    from ray.data.aggregate import Sum

    from ..stages import overlay as ov

    a_ds, _b_tbl, _a_tbl, b_ds = _pair_rect_layers(sf_dir)
    out = ov.overlay_copartition(a_ds, b_ds, "intersect")
    agg = out.groupby("record_id").aggregate(Sum("area", alias_name="area"))
    return agg.map_batches(
        lambda t: pa.table(
            {"pair_id": t["record_id"].cast(pa.int64()), "area": t["area"]}
        ),
        batch_format="pyarrow",
    )


Q_OVERLAY_INTERSECT_CP_SQL = Q_OVERLAY_INTERSECT_SQL


def q_idw_grid_cp(sf_dir: str):
    """IdwInterpolation through the point-side co-partition path
    (idw_gridding_ds: margin-duplicated flat-map + tile-key groupby, no
    broadcast) on the same 6-point fixture — same oracle as the
    broadcast form."""
    import ray.data as rd

    from ..stages.gridding import idw_gridding_ds

    spec, pts = _idw_points()
    out = idw_gridding_ds(rd.from_arrow(pts), spec, radius=4.0 * spec.res, power=2.0, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "idw"), "idw")


def q_las_round_trip(sf_dir: str):
    """LAS ingest gate: the deterministic synth points stream through
    the pure-numpy LAS writer — ZIPPED (.las.zip, the reference's
    compressed model, las.rs:486-534/1163-1200) — and back through
    ReadLas (las.rs parity: mm quantization, int32 coordinate storage).
    Integer sums of the recovered mm counts are exact on both sides of
    the compare; the uncompressed path is pinned by tests/test_formats."""
    import shutil
    import tempfile

    from ray.data.aggregate import Sum

    from ..sources import formats

    out_dir = tempfile.mkdtemp(prefix="lasrt_", dir="/tmp")
    pts = synth_points(sf_dir)

    def to_cloud(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": batch["x"],
                "y": batch["y"],
                "z": pa.array(
                    np.minimum(batch["value"].to_numpy(zero_copy_only=False), 60.0)
                ),
            }
        )

    # write every block to its own .las (the resumable layout), barrier,
    # read the directory back as a fresh Dataset
    formats.write_las(
        pts.map_batches(to_cloud, batch_format="pyarrow", batch_size=262144), out_dir,
        zipped=True,
    ).materialize()
    back = formats.read_las(out_dir)

    def quantize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_p": pa.array([batch.num_rows], pa.int64()),
                "sx_p": pa.array(
                    [int(np.round(batch["x"].to_numpy(zero_copy_only=False) * 1000).sum())],
                    pa.int64(),
                ),
                "sy_p": pa.array(
                    [int(np.round(batch["y"].to_numpy(zero_copy_only=False) * 1000).sum())],
                    pa.int64(),
                ),
                "sz_p": pa.array(
                    [int(np.round(batch["z"].to_numpy(zero_copy_only=False) * 1000).sum())],
                    pa.int64(),
                ),
            }
        )

    out = back.map_batches(quantize, batch_format="pyarrow").aggregate(
        Sum("n_p", alias_name="n"),
        Sum("sx_p", alias_name="sx"),
        Sum("sy_p", alias_name="sy"),
        Sum("sz_p", alias_name="sz"),
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    import pandas as pd

    return pd.DataFrame([out])


def q_las_round_trip_sql() -> str:
    return f"""
        SELECT COUNT(*) AS n,
               CAST(SUM(CAST(ROUND(x * 1000) AS BIGINT)) AS BIGINT) AS sx,
               CAST(SUM(CAST(ROUND(y * 1000) AS BIGINT)) AS BIGINT) AS sy,
               CAST(SUM(CAST(ROUND(LEAST(value, 60.0) * 1000) AS BIGINT)) AS BIGINT) AS sz
        FROM ({SYNTH_POINTS_SQL})
    """


def q_ann_ivf(sf_dir: str):
    """IVF ANN with full probe (nprobe == n_centroids): exercises the
    coarse-quantizer train/assign/probe plumbing end-to-end while
    remaining exactly brute force — bit-comparable to the SQL twin."""
    from ..stages.ann import ivf_topk

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    res = ivf_topk(ds, np.asarray(ANN_QUERY_VEC, dtype=np.float64),
                   k=10, n_centroids=8, nprobe=8)
    out = res[["id"]].rename(columns={"id": "vec_id"})
    return out.reset_index(drop=True)


def q_shp_round_trip(sf_dir: str):
    """Shapefile ingest gate: the deterministic synth points stream
    through the pure-python .shp/.dbf writer (shapefile/mod.rs parity:
    little-endian f64 coordinates, dBASE III N-type attributes) and
    back through read_shapefile. Coordinates are f64 in the format so
    the round trip is exact; the N 18.6 attribute column preserves
    l_quantity's 2 decimals. Writer is single-sheet (the reference's
    write model) — scale path shards one .shp per partition."""
    import shutil
    import tempfile

    import pandas as pd

    from ..sources import formats

    out_dir = tempfile.mkdtemp(prefix="shprt_", dir="/tmp")
    shp = f"{out_dir}/pts.shp"
    pts = synth_points(sf_dir).to_pandas()  # gate scale: 60k records
    records = [
        {"xs": [x], "ys": [y]} for x, y in zip(pts["x"], pts["y"])
    ]
    formats.write_shapefile(
        records, shp, shape_type=1, attributes={"value": list(pts["value"])}
    )
    back = formats.read_shapefile(shp)

    def quantize(batch: pa.Table) -> pa.Table:
        xs = np.asarray([v[0] for v in batch["xs"].to_pylist()])
        ys = np.asarray([v[0] for v in batch["ys"].to_pylist()])
        vv = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "n_p": pa.array([batch.num_rows], pa.int64()),
                "sx_p": pa.array([int(np.round(xs * 1000).sum())], pa.int64()),
                "sy_p": pa.array([int(np.round(ys * 1000).sum())], pa.int64()),
                "sv_p": pa.array([int(np.round(vv * 100).sum())], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    out = back.map_batches(quantize, batch_format="pyarrow").aggregate(
        Sum("n_p", alias_name="n"),
        Sum("sx_p", alias_name="sx"),
        Sum("sy_p", alias_name="sy"),
        Sum("sv_p", alias_name="sv"),
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return pd.DataFrame([out])


def q_shp_round_trip_sql() -> str:
    return f"""
        SELECT COUNT(*) AS n,
               CAST(SUM(CAST(ROUND(x * 1000) AS BIGINT)) AS BIGINT) AS sx,
               CAST(SUM(CAST(ROUND(y * 1000) AS BIGINT)) AS BIGINT) AS sy,
               CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sv
        FROM ({SYNTH_POINTS_SQL})
    """


def q_geotiff_round_trip(sf_dir: str):
    """GeoTIFF ingest gate: the 64x64 analytic DEM streams through the
    pure-python GeoTIFF writer (LZW-compressed strips — the reference's
    write codec, geotiff/mod.rs — with ModelPixelScale / ModelTiepoint
    tags) and back through
    read_geotiff_tiles' re-tiling parse. Cell values are integers mod 97
    so the f64 round trip is bit-exact."""
    import shutil
    import tempfile

    import ray.data as rd

    from ..sources import formats

    out_dir = tempfile.mkdtemp(prefix="tifrt_", dir="/tmp")
    path = f"{out_dir}/dem.tif"
    rows, spec = _scene(_dem_grid())
    formats.write_geotiff(rd.from_items(rows), spec, path)
    back, metas = formats.read_geotiff_tiles(path, tile_px=16)
    out = _count_and_sum(back, spec)
    shutil.rmtree(out_dir, ignore_errors=True)
    return out


def q_geotiff_round_trip_sql() -> str:
    return """
        SELECT COUNT(*) AS n,
               CAST(SUM((r.x * 31 + c.x * 17) % 97) AS BIGINT) AS sz
        FROM range(64) r(x), range(64) c(x)
    """


def q_grid_convert_round_trip(sf_dir: str):
    """ConvertRasterFormat gate across the legacy codecs: the 64x64
    analytic DEM is exported as Arc ASCII, converted to Whitebox
    .dep/.tas, then to SAGA .sdat (three write->read hops through
    kernels/grid_codecs.py), and re-read as a tile Dataset. Values are
    integers mod 97 so every hop is exact; compare on the same
    integer-sum twin as the GeoTIFF gate."""
    import shutil
    import tempfile

    import ray.data as rd

    from ..sources import formats

    out_dir = tempfile.mkdtemp(prefix="gridrt_", dir="/tmp")
    rows, spec = _scene(_dem_grid())
    formats.write_raster_grid(rd.from_items(rows), spec, f"{out_dir}/a.asc")

    t1, _ = formats.read_raster_grid(f"{out_dir}/a.asc", tile_px=16)
    formats.write_raster_grid(t1, spec, f"{out_dir}/b.dep")
    t2, _ = formats.read_raster_grid(f"{out_dir}/b.dep", tile_px=16)
    formats.write_raster_grid(t2, spec, f"{out_dir}/c.sdat")
    back, metas = formats.read_raster_grid(f"{out_dir}/c.sdat", tile_px=16)
    out = _count_and_sum(back, spec)
    shutil.rmtree(out_dir, ignore_errors=True)
    return out


def q_image_decode(sf_dir: str):
    """Multimodal image gate (rows-only: JPEG is lossy, so pixel stats
    have no SQL twin): one deterministic 16x16 uint8 image per
    embeddings row (outer product of the first 16 dims), encoded with
    the pure-numpy baseline JPEG codec and decoded back through the
    DecodeImage actor pool. Asserts in-pipeline that every payload
    decodes and the mean survives the lossy round trip to ~1 grey
    level, then returns (vec_id, decoded, px_mean_q) rows."""
    from ..kernels.jpeg_codec import jpeg_encode
    from ..stages.multimodal import DecodeImage

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def to_jpeg(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        emb = flat.reshape(batch.num_rows, -1)[:, :16]
        lo = emb.min(axis=1, keepdims=True)
        hi = emb.max(axis=1, keepdims=True)
        u = (emb - lo) / np.maximum(hi - lo, 1e-9)  # (n, 16) in [0,1]
        blobs = []
        for i in range(len(ids)):
            img = np.clip(np.outer(u[i], u[i]) * 255.0, 0, 255).astype(np.uint8)
            blobs.append(jpeg_encode(img, quality=90))
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "bytes": pa.array(blobs, pa.binary()),
                "fmt": pa.array(["jfif"] * len(ids)),
            }
        )

    out = (
        ds.map_batches(to_jpeg, batch_format="pyarrow", batch_size=256)
        .map_batches(DecodeImage, batch_format="pyarrow", concurrency=(1, 4), batch_size=256)
        .select_columns(["vec_id", "decoded", "px_mean"])
        .to_pandas()
    )
    assert out["decoded"].all(), "undecoded JPEG payloads in the gate"
    out["px_mean_q"] = np.round(out["px_mean"]).astype(np.int64)
    return (
        out[["vec_id", "decoded", "px_mean_q"]]
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


def q_wav_round_trip(sf_dir: str):
    """WAV ingest gate: one 64-sample deterministic clip per synth
    point record (sample k of record r: ((r*31 + k*17) % 97)/97 - 0.5),
    written as 16-bit PCM and parsed back (kernels/riff_codec.py).
    parse*32768 recovers round(x*32768) exactly (no clipping: |x| <=
    0.5 -> |q| <= 16384; no rounding ties: m*32768/97 never lands on
    .5 for m in 0..96), so integer sums match the SQL twin bit-exactly."""
    from ray.data.aggregate import Sum

    from ..kernels import riff_codec

    pts = synth_points(sf_dir).select_columns(["record_id"])

    def clips(batch: pa.Table) -> pa.Table:
        rid = batch["record_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.arange(64, dtype=np.int64)
        x = ((rid[:, None] * 31 + k[None, :] * 17) % 97) / 97.0 - 0.5
        s = np.zeros(len(rid), dtype=np.int64)
        for i in range(len(rid)):
            wav = riff_codec.write_wav(x[i], rate=8000, bits=16)
            back, _ = riff_codec.parse_wav(wav)
            s[i] = int(np.round(back * 32768.0).sum())
        return pa.table(
            {
                "n_p": pa.array([len(rid)], pa.int64()),
                "s_p": pa.array([int(s.sum())], pa.int64()),
            }
        )

    out = pts.map_batches(clips, batch_format="pyarrow", batch_size=8192).aggregate(
        Sum("n_p", alias_name="n_clips"), Sum("s_p", alias_name="s_total")
    )
    import pandas as pd

    return pd.DataFrame([out])


def q_wav_round_trip_sql() -> str:
    return f"""
        SELECT COUNT(*) AS n_clips,
               (SELECT CAST(SUM(CAST(ROUND(
                    ((p.record_id * 31 + k.range * 17) % 97) / 97.0 * 32768.0
                    - 16384.0) AS BIGINT)) AS BIGINT)
                FROM ({SYNTH_POINTS_SQL}) p, range(64) k) AS s_total
        FROM ({SYNTH_POINTS_SQL})
    """


def q_stream_dist_outlet(sf_dir: str):
    """DistanceToOutlet (stream_network_analysis/dist_to_outlet.rs) on
    the analytic DEM: D8 pointer -> Dataset-native BSP accumulation ->
    ExtractStreams (acc > 5 cells, the reference's strict comparison; the mod-97 DEM tops out at acc=13, so a higher cut would make the gate vacuous) -> flowpath length to the terminal
    (on stream cells the flowpath stays in-network, so downslope
    flowpath length IS the distance to outlet) — through the REGISTERED
    ``distance_to_outlet_ds`` surface (the keyed tile zip replaces the
    former driver-side merge of two cell tables). Oracle: the d8_accum
    recursive path count composed with the downslope walk CTE."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds
    from ..stages.streams import distance_to_outlet_ds, extract_streams_ds

    rows, spec = _scene(_dem_grid())
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    streams = extract_streams_ds(acc, spec, threshold=DEM_STREAM_THRESHOLD)
    out = distance_to_outlet_ds(streams, ptr, spec, num_workers=2)
    return _round_cells(_valid_cells(_tiles_to_cells(out, spec, "dist"), "dist", spec.nodata), "dist", 4)


def q_stream_dist_outlet_sql() -> str:
    move_r = _d8_case("d", "dr")
    move_c = _d8_case("d", "dc")
    step_len = _d8_case("wd", "len")
    move_r_w = _d8_case("wd", "dr")
    move_c_w = _d8_case("wd", "dc")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col) AS (
        SELECT row, col, row, col FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    ),
    acc AS (SELECT row, col, COUNT(*) AS acc FROM walk GROUP BY row, col),
    walk2(src_row, src_col, row, col, wd, dist) AS (
        SELECT row, col, row, col, d, CAST(0.0 AS DOUBLE) FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col, w.nrow, w.ncol, d2.d, w.ndist
        FROM (SELECT src_row, src_col,
                     row + ({move_r_w}) AS nrow, col + ({move_c_w}) AS ncol,
                     dist + ({step_len}) AS ndist
              FROM walk2 WHERE wd >= 0) w
        JOIN dirs d2 ON d2.row = w.nrow AND d2.col = w.ncol
    ),
    dist AS (SELECT src_row AS row, src_col AS col, dist
             FROM walk2 WHERE wd < 0)
    SELECT a.row, a.col, ROUND(d.dist, 4) AS dist
    FROM acc a JOIN dist d ON a.row = d.row AND a.col = d.col
    WHERE a.acc > {DEM_STREAM_THRESHOLD:g}
    ORDER BY a.row, a.col
    """


def q_median_filter(sf_dir: str):
    """MedianFilter (image_analysis/median_filter.rs semantics, radius 1)
    on the analytic DEM — the rank path of the focal window engine.
    Out-of-grid neighbours are excluded (same convention as
    q_window_total); even-count edge windows interpolate the middle
    pair identically in numpy and DuckDB."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("median", 1), 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "med"), "med")


def q_median_filter_sql() -> str:
    zc = "CAST(((g.row + ({dr})) * 31 + (g.col + ({dc})) * 17) % 97 AS DOUBLE)"
    vals = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            cond = f"g.row + ({dr}) BETWEEN 0 AND 63 AND g.col + ({dc}) BETWEEN 0 AND 63"
            vals.append(f"CASE WHEN {cond} THEN {zc.format(dr=dr, dc=dc)} ELSE NULL END")
    return f"""
    WITH {_WIN_G},
    vals AS (SELECT g.row, g.col, t.v
             FROM g, UNNEST([{', '.join(vals)}]) AS t(v))
    SELECT row, col, ROUND(CAST(MEDIAN(v) AS DOUBLE), 6) AS med
    FROM vals
    GROUP BY row, col
    ORDER BY row, col
    """


def q_composite_split(sf_dir: str):
    """CreateColourComposite -> SplitColourComposite round trip
    (raster_ops.py; create_colour_composite.rs packing a<<24|b<<16|
    g<<8|r) over lineitem-derived channel values, vs a bit-ops twin."""
    from ..stages.raster_ops import create_colour_composite, split_colour_composite

    ds = read(sf_dir, "lineitem", columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"])

    def channels(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "record_id": pa.array(ok * 10 + ln, pa.int64()),
                "r": pa.array(((ok * 7 + ln) % 256).astype(np.float64)),
                "g": pa.array((pk % 256).astype(np.float64)),
                "b": pa.array((sk % 256).astype(np.float64)),
            }
        )

    ds = ds.map_batches(channels, batch_format="pyarrow")
    packed = create_colour_composite(ds)
    out = split_colour_composite(packed)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "record_id": batch["record_id"],
                "composite": pa.array(
                    batch["composite"].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                "r_out": batch["r_out"],
                "g_out": batch["g_out"],
                "b_out": batch["b_out"],
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_composite_split_sql() -> str:
    return """
        SELECT l_orderkey * 10 + l_linenumber AS record_id,
               CAST(4278190080
                    + ((l_suppkey % 256) * 65536)
                    + ((l_partkey % 256) * 256)
                    + ((l_orderkey * 7 + l_linenumber) % 256) AS BIGINT)
                 AS composite,
               CAST((l_orderkey * 7 + l_linenumber) % 256 AS DOUBLE) AS r_out,
               CAST(l_partkey % 256 AS DOUBLE) AS g_out,
               CAST(l_suppkey % 256 AS DOUBLE) AS b_out
        FROM lineitem
    """


def q_sobel_filter(sf_dir: str):
    """SobelFilter (image_analysis/sobel_filter.rs semantics: 3×3 Sobel
    gx/gy stencils, magnitude = hypot, nodata neighbours take the centre
    value) on the analytic DEM via the focal halo engine."""
    import ray.data as rd

    from ..stages.focal import focal_op, sobel_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, sobel_kernel, 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "sobel"), "sobel")


def _stencil3_sql(weights, out_expr: str, out_name: str) -> str:
    """Shared SQL twin of focal._stencil3: out-of-grid neighbours take
    the centre value; gx/gy are weighted neighbour sums."""
    exprs = {}
    for name, w in weights.items():
        terms = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                wgt = w[dy + 1][dx + 1]
                if wgt == 0:
                    continue
                terms.append(f"({wgt!r}) * ({_dem_z_edge(dy, dx)})")
        exprs[name] = " + ".join(terms)
    sel = ", ".join(f"({e}) AS {n}" for n, e in exprs.items())
    return f"""
    WITH {_WIN_G},
         d AS (SELECT g.row, g.col, {sel} FROM g)
    SELECT row, col, {out_expr} AS {out_name}
    FROM d
    """


def q_sobel_filter_sql() -> str:
    return _stencil3_sql(
        {
            "gx": [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]],
            "gy": [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]],
        },
        "ROUND(SQRT(gx * gx + gy * gy), 6)",
        "sobel",
    )


def q_laplacian_filter(sf_dir: str):
    """LaplacianFilter (image_analysis/laplacian_filter.rs, 3×3 cross
    stencil) on the analytic DEM — integer-exact on both sides."""
    import ray.data as rd

    from ..stages.focal import focal_op, laplacian_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, laplacian_kernel, 1, out_fmt="f64")
    return _tiles_to_cells(out, spec, "lap")


def q_laplacian_filter_sql() -> str:
    return _stencil3_sql(
        {"lap": [[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]]},
        "lap",
        "lap",
    )


def q_integral_image(sf_dir: str):
    """IntegralImage (image_analysis/integral_image.rs) through the
    Dataset-native edge-vector-exchange form (raster_ops.integral_image_ds)
    — exact scene-wide summed-area table, integer-exact vs the SQL
    nested-window twin."""
    import ray.data as rd

    from ..stages.raster_ops import integral_image_ds

    rows, spec = _scene(_dem_grid())
    out = integral_image_ds(rd.from_items(rows), spec)
    return _tiles_to_cells(out, spec, "sat")


def q_integral_image_sql() -> str:
    return """
    WITH g AS (SELECT r.r AS row, c.c AS col,
                      CAST((r.r * 31 + c.c * 17) % 97 AS DOUBLE) AS z
               FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
                    (SELECT unnest(generate_series(0, 63)) AS c) c),
         w1 AS (SELECT row, col,
                       SUM(z) OVER (PARTITION BY row ORDER BY col) AS rowcum
                FROM g)
    SELECT row, col,
           SUM(rowcum) OVER (PARTITION BY col ORDER BY row) AS sat
    FROM w1
    """


def q_hist_equalization(sf_dir: str):
    """HistogramEqualization (image_analysis/histogram_equalization.rs:
    252-296 semantics: global num_tones histogram -> CDF LUT -> remap)
    on the analytic DEM. The SQL twin reproduces BOTH binnings exactly:
    np.histogram's left-inclusive edge binning for the counts and the
    remap's trunc((v-lo)/span*(tones-1)) for the lookup."""
    import ray.data as rd

    from ..stages.stretch import histogram_equalization

    rows, spec = _scene(_dem_grid())
    out = histogram_equalization(rd.from_items(rows), num_tones=1024, out_min=0.0, out_max=1023.0, out_fmt="f64")
    # no rounding: cdf/4096*1023 is the same IEEE-f64 expression on both
    # sides (bit-identical), and ROUND(…,6) would hit half-even-vs-half-away
    # ties at x.xxxxxx5
    return _tiles_to_cells(out, spec, "heq")


def q_hist_equalization_sql() -> str:
    # z in 0..96 integer; lo=0, hi=96, span=96, tones=1024, 4096 cells.
    # hist bin: np.histogram(linspace(0,96,1025)) left-inclusive ->
    #   floor(z/96*1024), top value 96 -> bin 1023.
    # remap bin: trunc(z/96*1023) (nonnegative -> floor).
    return """
    WITH g AS (SELECT r.r AS row, c.c AS col,
                      CAST((r.r * 31 + c.c * 17) % 97 AS DOUBLE) AS z
               FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
                    (SELECT unnest(generate_series(0, 63)) AS c) c),
         hb AS (SELECT CASE WHEN z >= 96 THEN 1023
                            ELSE CAST(FLOOR(z / 96.0 * 1024) AS BIGINT) END AS bin
                FROM g),
         h AS (SELECT bin, COUNT(*) AS n FROM hb GROUP BY bin),
         allbins AS (SELECT unnest(generate_series(0, 1023)) AS bin),
         cdf AS (SELECT a.bin,
                        SUM(COALESCE(h.n, 0)) OVER (ORDER BY a.bin) AS c
                 FROM allbins a LEFT JOIN h ON h.bin = a.bin),
         lut AS (SELECT bin, CAST(c AS DOUBLE) / 4096.0 * 1023.0 AS v FROM cdf),
         rb AS (SELECT row, col,
                       LEAST(GREATEST(CAST(FLOOR(z / 96.0 * 1023) AS BIGINT), 0), 1023) AS bin
                FROM g)
    SELECT rb.row, rb.col, lut.v AS heq
    FROM rb JOIN lut ON lut.bin = rb.bin
    """


def q_num_inflowing(sf_dir: str):
    """NumInflowingNeighbours (hydro_analysis/num_inflowing_neighbours.rs
    / d8_flow_accum.rs:343-397): D8 pointer on the analytic DEM, then the
    inflow count through the focal halo engine, vs a ring-join SQL twin."""
    import ray.data as rd

    from ..stages.flow import _num_inflowing_kernel
    from ..stages.focal import d8_pointer_kernel, focal_op

    rows, spec = _scene(_dem_grid())
    ptr = focal_op(rd.from_items(rows), spec, d8_pointer_kernel, 1, out_fmt="f64")
    out = focal_op(ptr, spec, _num_inflowing_kernel, 1, out_fmt="f64")
    return _int_cells(_tiles_to_cells(out, spec, "n_inflow"), "n_inflow")


def q_num_inflowing_sql() -> str:

    return f"""
    WITH {_d8_prelude()},
    ring(i, dr, dc) AS (VALUES {_D8_RING_VALUES}),
    hits AS (SELECT dirs.row, dirs.col, COUNT(nb.row) AS n
             FROM dirs CROSS JOIN ring
             LEFT JOIN dirs nb
               ON nb.row = dirs.row + ring.dr AND nb.col = dirs.col + ring.dc
              AND nb.d = (ring.i + 4) % 8
             GROUP BY dirs.row, dirs.col)
    SELECT row, col, CAST(n AS BIGINT) AS n_inflow FROM hits
    """


def q_shreve_magnitude(sf_dir: str):
    """ShreveStreamMagnitude (stream_network_analysis/shreve_magnitude.rs)
    on the analytic DEM, driving the full Dataset-native link chain:
    pointer -> BSP accumulation -> ExtractStreams (acc > 5) -> ``stream_links_ds``
    (distributed run labelling, O(links) driver table) -> per-link
    Shreve magnitude painted back onto the stream cells. Oracle: per
    stream cell, magnitude == count of channel heads whose D8 flowpath
    passes through the cell (heads = stream cells with no inflowing
    stream neighbour), which the recursive walk CTE enumerates."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds
    from ..stages.streams import extract_streams_ds, shreve_magnitude, stream_links_ds

    rows, spec = _scene(_dem_grid())
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    streams = extract_streams_ds(acc, spec, threshold=DEM_STREAM_THRESHOLD)
    painted, links = stream_links_ds(streams, ptr, spec)
    mag = shreve_magnitude(links)
    max_lid = max(mag) if mag else 0
    lut = np.zeros(max_lid + 1, dtype=np.int64)
    for lid, m in mag.items():
        lut[lid] = m

    cells = _tiles_to_cells(painted, spec, "link_id")

    def finish(batch: pa.Table) -> pa.Table:
        lid = batch["link_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = lid > 0
        return pa.table(
            {
                "row": batch["row"].filter(pa.array(keep)),
                "col": batch["col"].filter(pa.array(keep)),
                "mag": pa.array(lut[lid[keep]], pa.int64()),
            }
        )

    return cells.map_batches(finish, batch_format="pyarrow")


def q_shreve_magnitude_sql() -> str:
    """Walk CTE (same pointer rule as q_d8_accum) -> streams (acc > 5)
    -> heads (stream cells with no inflowing stream neighbour) -> per
    stream cell count of heads upstream of it (inclusive)."""
    move_r = _d8_case("d", "dr")
    move_c = _d8_case("d", "dc")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col) AS (
        SELECT row, col, row, col FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    ),
    acc AS (SELECT row, col, COUNT(*) AS acc FROM walk GROUP BY row, col),
    strm AS (SELECT row, col FROM acc WHERE acc > {DEM_STREAM_THRESHOLD:g}),
    ring(i, dr, dc) AS (VALUES {_D8_RING_VALUES}),
    heads AS (
        SELECT s.row, s.col FROM strm s
        WHERE NOT EXISTS (
            SELECT 1 FROM ring
            JOIN strm nb ON nb.row = s.row + ring.dr AND nb.col = s.col + ring.dc
            JOIN dirs nd ON nd.row = nb.row AND nd.col = nb.col
            WHERE nd.d = (ring.i + 4) % 8
        )
    )
    SELECT s.row, s.col, CAST(COUNT(*) AS BIGINT) AS mag
    FROM strm s
    JOIN walk w ON w.row = s.row AND w.col = s.col
    JOIN heads h ON h.row = w.src_row AND h.col = w.src_col
    GROUP BY s.row, s.col
    ORDER BY s.row, s.col
    """


def q_raster_to_points(sf_dir: str):
    """RasterToVectorPoints (data_tools/raster_to_vector_points.rs):
    non-zero non-nodata cells -> points with scan-order FID (row-major,
    1-based — the scan key ranked by ``stages/ordering.py``). The gate
    maps the world x/y back to row/col (exact inverse at cell centres)
    so the compare is integer;
    oracle: ROW_NUMBER() over the scan key on the analytic DEM."""
    import ray.data as rd

    from ..stages.raster_vector import raster_to_vector_points

    rows, spec = _scene(_dem_grid())
    gs = spec.grid_spec()
    pts = raster_to_vector_points(rd.from_items(rows), spec)

    def finish(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        col = np.round((x - gs.west - gs.res_x / 2.0) / gs.res_x).astype(np.int64)
        row = np.round((gs.north - gs.res_y / 2.0 - y) / gs.res_y).astype(np.int64)
        v = np.round(batch["VALUE"].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table(
            {
                "fid": batch["FID"].cast(pa.int64()),
                "row": pa.array(row, pa.int64()),
                "col": pa.array(col, pa.int64()),
                "value": pa.array(v, pa.int64()),
            }
        )

    return pts.map_batches(finish, batch_format="pyarrow")


def q_raster_to_points_sql() -> str:
    return f"""
    WITH {_WIN_G},
    v AS (SELECT row, col, (row * 31 + col * 17) % 97 AS z FROM g)
    SELECT CAST(ROW_NUMBER() OVER (ORDER BY row * 64 + col) AS BIGINT) AS fid,
           row, col, CAST(z AS BIGINT) AS value
    FROM v WHERE z <> 0
    ORDER BY fid
    """


# gate quad for q_clip_raster_poly, in continuous (u, v) grid coords
# (u = (x - west)/res, v = (north - y)/res; cell (r, c) centre = (c+.5, r+.5)).
# v_max = 55.9 floors to ending_row 55 EXCLUSIVE — the reference's bbox
# off-by-one (clip_raster_to_polygon.rs:261-280) visibly excludes the
# row-55 centres that are geometrically inside, and the twin replicates it.
_CLIP_GATE_UV = [(10.2, 8.3), (52.7, 14.1), (58.3, 49.8), (15.6, 55.9)]


def q_clip_raster_poly(sf_dir: str):
    """ClipRasterToPolygon (data_tools/clip_raster_to_polygon.rs) on the
    analytic DEM with a convex quad whose edges avoid all cell centres:
    the scanline-run mask stage on stateless tasks (stages/clip_raster.py)
    vs a half-plane SQL twin restricted to the reference's exclusive-end
    bbox window."""
    import ray.data as rd

    from ..stages.clip_raster import clip_raster_to_polygon
    from ..sources.vectors import make_polygon_record

    rows, spec = _scene(_dem_grid())
    gs = spec.grid_spec()
    ring = [(gs.west + u * spec.res, gs.north - v * spec.res) for u, v in _CLIP_GATE_UV]
    rec = make_polygon_record(1, [ring], "gate_quad", 1)
    poly = pa.Table.from_pylist([rec])
    out = clip_raster_to_polygon(rd.from_items(rows), poly, spec)
    return _int_cells(_valid_cells(_tiles_to_cells(out, spec, "value"), "value", gs.nodata), "value")


def q_clip_raster_poly_sql() -> str:
    import math

    uv = _CLIP_GATE_UV
    n = len(uv)
    # centroid decides the inside sign of each half-plane
    cu = sum(u for u, _ in uv) / n
    cv = sum(v for _, v in uv) / n
    conds = []
    for i in range(n):
        pu, pv = uv[i]
        qu, qv = uv[(i + 1) % n]
        sign = (qu - pu) * (cv - pv) - (qv - pv) * (cu - pu)
        op = ">" if sign > 0 else "<"
        conds.append(
            f"(({qu!r} - {pu!r}) * (v.vc - {pv!r}) - ({qv!r} - {pv!r}) * (v.uc - {pu!r})) {op} 0"
        )
    r0 = math.floor(min(v for _, v in uv))
    r1 = math.floor(max(v for _, v in uv))  # EXCLUSIVE (reference off-by-one)
    c0 = math.floor(min(u for u, _ in uv))
    c1 = math.floor(max(u for u, _ in uv))  # EXCLUSIVE
    return f"""
    WITH {_WIN_G},
    v AS (SELECT row, col,
                 CAST(col AS DOUBLE) + 0.5 AS uc,
                 CAST(row AS DOUBLE) + 0.5 AS vc,
                 (row * 31 + col * 17) % 97 AS z
          FROM g)
    SELECT row, col, CAST(z AS BIGINT) AS value
    FROM v
    WHERE row >= {r0} AND row < {r1} AND col >= {c0} AND col < {c1}
      AND {' AND '.join(conds)}
    ORDER BY row, col
    """


def _win_agg_sql(radius: int) -> str:
    """CTE fragment: per-cell window aggregates n/s1/s2/lo/hi over the
    in-grid (2r+1)² neighbourhood (out-of-grid = nodata = excluded,
    matching the focal pad)."""
    zn = _DEM_Z.format(r="g.row + off.dr", c="g.col + off.dc")
    return f"""{_WIN_G},
    off AS (SELECT a.o AS dr, b.o AS dc
            FROM (SELECT unnest(generate_series(-{radius}, {radius})) AS o) a,
                 (SELECT unnest(generate_series(-{radius}, {radius})) AS o) b),
    agg AS (SELECT g.row, g.col,
                   COUNT(*) AS n,
                   SUM({zn}) AS s1,
                   SUM(({zn}) * ({zn})) AS s2,
                   MIN({zn}) AS lo,
                   MAX({zn}) AS hi
            FROM g CROSS JOIN off
            WHERE g.row + off.dr BETWEEN 0 AND 63
              AND g.col + off.dc BETWEEN 0 AND 63
            GROUP BY g.row, g.col)"""


def q_ruggedness_tri(sf_dir: str):
    """RuggednessIndex (terrain_analysis/ruggedness_index.rs — Riley
    TRI): RMS of elevation differences to the 8 in-grid neighbours,
    always /8 (out-of-grid contributes 0). Integer window sums are
    exact on both sides, so the compare is effectively bit-exact."""
    import ray.data as rd

    from ..stages.focal import focal_op, ruggedness_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, ruggedness_kernel, halo=1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "tri"), "tri")


def q_ruggedness_tri_sql() -> str:
    z0 = _DEM_Z.format(r="g.row", c="g.col")
    terms = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            zn = _DEM_Z.format(r=f"g.row + ({dr})", c=f"g.col + ({dc})")
            cond = f"g.row + ({dr}) BETWEEN 0 AND 63 AND g.col + ({dc}) BETWEEN 0 AND 63"
            terms.append(f"CASE WHEN {cond} THEN (({zn}) - z.z0) * (({zn}) - z.z0) ELSE 0 END")
    return f"""
    WITH {_WIN_G},
    z AS (SELECT g.row, g.col, {z0} AS z0 FROM g)
    SELECT g.row, g.col, ROUND(SQRT(({' + '.join(terms)}) / 8.0), 6) AS tri
    FROM g JOIN z ON z.row = g.row AND z.col = g.col
    ORDER BY g.row, g.col
    """


def q_dev_from_mean(sf_dir: str):
    """DevFromMeanElev (terrain_analysis/dev_from_mean_elev.rs, radius
    3): (z − μ)/σ over the 7×7 window, σ the population std of the
    in-grid cells (summed-area tables in the kernel; plain SUMs in the
    twin — identical integer sums, identical IEEE ops)."""
    import ray.data as rd

    from ..stages.focal import dev_from_mean_kernel, focal_op

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, dev_from_mean_kernel(3), halo=3, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "dev"), "dev")


def q_dev_from_mean_sql() -> str:
    z0 = _DEM_Z.format(r="agg.row", c="agg.col")
    return f"""
    WITH {_win_agg_sql(3)}
    SELECT row, col,
           ROUND(CASE WHEN SQRT(GREATEST(s2 / n - (s1 / n) * (s1 / n), 0)) > 0
                      THEN ({z0} - s1 / n)
                           / SQRT(GREATEST(s2 / n - (s1 / n) * (s1 / n), 0))
                      ELSE 0 END, 6) AS dev
    FROM agg ORDER BY row, col
    """


def q_percent_elev_range(sf_dir: str):
    """PercentElevRange (terrain_analysis/percent_elev_range.rs, radius
    3): z0 / (window max − window min) × 100; 0 where the range
    degenerates."""
    import ray.data as rd

    from ..stages.focal import focal_op, percent_elev_range_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, percent_elev_range_kernel(3), halo=3, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "per"), "per")


def q_percent_elev_range_sql() -> str:
    z0 = _DEM_Z.format(r="agg.row", c="agg.col")
    return f"""
    WITH {_win_agg_sql(3)}
    SELECT row, col,
           ROUND(CASE WHEN hi - lo > 0 THEN {z0} / (hi - lo) * 100.0 ELSE 0 END, 6) AS per
    FROM agg ORDER BY row, col
    """


def q_rel_topo_position(sf_dir: str):
    """RelativeTopographicPosition
    (terrain_analysis/relative_topographic_position.rs:26-34, radius 3):
    (z−μ)/(μ−min) below the mean, (z−μ)/(max−μ) at/above, clipped to
    [−1, 1]."""
    import ray.data as rd

    from ..stages.focal import focal_op, relative_topographic_position_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, relative_topographic_position_kernel(3), halo=3, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "rtp"), "rtp")


def q_rel_topo_position_sql() -> str:
    z0 = _DEM_Z.format(r="agg.row", c="agg.col")
    return f"""
    WITH {_win_agg_sql(3)}
    SELECT row, col,
           ROUND(GREATEST(-1.0, LEAST(1.0,
               CASE WHEN {z0} < s1 / n
                    THEN CASE WHEN s1 / n - lo > 0
                              THEN ({z0} - s1 / n) / (s1 / n - lo) ELSE 0 END
                    ELSE CASE WHEN hi - s1 / n > 0
                              THEN ({z0} - s1 / n) / (hi - s1 / n) ELSE 0 END
               END)), 6) AS rtp
    FROM agg ORDER BY row, col
    """


def q_point_density(sf_dir: str):
    """LidarPointDensity (lidar_analysis/lidar_point_density.rs cell
    form) over the synthetic point layer at 50-unit resolution —
    partial per-batch counts + one tiny groupby (stages/lidar.py)."""
    from ..stages.lidar import point_density

    out = point_density(synth_points(sf_dir), 50.0)
    return round_cols(out, {"density": 9})


def q_point_density_sql() -> str:
    return f"""
    SELECT CAST(FLOOR(x / 50.0) AS BIGINT) AS cell_x,
           CAST(FLOOR(y / 50.0) AS BIGINT) AS cell_y,
           ROUND(COUNT(*) / 2500.0, 9) AS density
    FROM ({SYNTH_POINTS_SQL})
    GROUP BY 1, 2 ORDER BY 1, 2
    """


def q_block_min_grid(sf_dir: str):
    """LidarBlockMinimum (lidar_analysis/block_minimum.rs): per-cell MIN
    of in-cell point values on a 20×20/50-unit grid — the pure
    groupby-aggregate gridding path (stages/gridding.py block_gridding).
    Out-of-grid points (y == 0 rolls to row 20) are dropped on both
    sides."""
    from ..kernels.grid import GridSpec
    from ..stages.gridding import block_gridding

    gs = GridSpec(west=0.0, north=1000.0, res_x=50.0, res_y=50.0, rows=20, columns=20)
    out = block_gridding(synth_points(sf_dir), gs, "min")

    def finish(batch: pa.Table) -> pa.Table:
        cell = batch["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "row": pa.array(cell // 20, pa.int64()),
                "col": pa.array(cell % 20, pa.int64()),
                "value": pa.array(
                    np.round(batch["VALUE"].to_numpy(zero_copy_only=False).astype(np.float64), 6)
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def q_block_min_grid_sql() -> str:
    return f"""
    WITH p AS (SELECT CAST(FLOOR((1000.0 - y) / 50.0) AS BIGINT) AS row,
                      CAST(FLOOR(x / 50.0) AS BIGINT) AS col,
                      value
               FROM ({SYNTH_POINTS_SQL}))
    SELECT row, col, ROUND(MIN(value), 6) AS value
    FROM p WHERE row BETWEEN 0 AND 19 AND col BETWEEN 0 AND 19
    GROUP BY row, col ORDER BY row, col
    """


def q_elev_above_stream(sf_dir: str):
    """ElevationAboveStream (hydro_analysis/elevation_above_stream.rs):
    z − z(first stream cell on the downslope D8 walk, self included);
    cells that never reach a stream (pit-drained) are NODATA — the
    reference seeds pits with nodata and propagates it upstream
    (elevation_above_stream.rs:318-323) — and are absent from both
    sides of the compare. Dataset-native terminal
    resolution against the stream target grid
    (stages/hydro2.py elevation_above_stream_ds). Oracle: stepped walk
    CTE + MIN(step) first-hit join. Integer DEM ⇒ exact compare."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds
    from ..stages.hydro2 import elevation_above_stream_ds
    from ..stages.streams import extract_streams_ds

    rows, spec = _scene(_dem_grid())
    ds = rd.from_items(rows)
    ptr = d8_pointer_masked(ds, spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    streams = extract_streams_ds(acc, spec, threshold=DEM_STREAM_THRESHOLD)
    out = elevation_above_stream_ds(ds, streams, spec, num_workers=2)
    return _int_cells(_valid_cells(_tiles_to_cells(out, spec, "eas"), "eas", spec.nodata), "eas")


def q_elev_above_stream_sql() -> str:
    move_r = _d8_case("d", "dr")
    move_c = _d8_case("d", "dc")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col, step) AS (
        SELECT row, col, row, col, 0 FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c}), w.step + 1
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    ),
    acc AS (SELECT row, col, COUNT(*) AS acc
            FROM (SELECT src_row, src_col, row, col FROM walk) GROUP BY row, col),
    strm AS (SELECT row, col FROM acc WHERE acc > {DEM_STREAM_THRESHOLD:g}),
    hit AS (SELECT w.src_row, w.src_col, MIN(w.step) AS ms
            FROM walk w JOIN strm s ON s.row = w.row AND s.col = w.col
            GROUP BY w.src_row, w.src_col),
    tgt AS (SELECT w.src_row AS row, w.src_col AS col,
                   CAST((w.row * 31 + w.col * 17) % 97 AS BIGINT) AS zt
            FROM walk w JOIN hit h
              ON h.src_row = w.src_row AND h.src_col = w.src_col AND h.ms = w.step)
    SELECT g.row, g.col,
           CAST((g.row * 31 + g.col * 17) % 97 AS BIGINT) - t.zt AS eas
    FROM g JOIN tgt t ON t.row = g.row AND t.col = g.col
    ORDER BY g.row, g.col
    """


def q_downslope_index(sf_dir: str):
    """DownslopeIndex (hydro_analysis/downslope_index.rs, Hjerdt 2004,
    drop=15, degrees): angle = atan2(drop, L) at the first downslope
    cell ≥ drop below; walks ending at a pit fall back to
    atan2(max(z0−z_end, 0), max(L_end, res)) — the BSP cursor-walk
    engine (stages/hydro2.py _WalkShard) vs a stepped-walk CTE. Step
    lengths accumulate in identical path order on both sides, so the
    6-dp compare is effectively bit-exact."""
    import ray.data as rd

    from ..stages.hydro2 import downslope_index

    rows, spec = _scene(_dem_grid())
    out = downslope_index(rd.from_items(rows), spec, drop=15.0, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "dsi"), "dsi")


def q_downslope_index_sql() -> str:
    res = 90.0
    drop = 15.0
    zwalk = "CAST(((w2.row * 31 + w2.col * 17) % 97) AS DOUBLE)"
    move_r = _d8_case("d", "dr")
    move_c = _d8_case("d", "dc")
    step_len = _d8_case("dirs.d", "len")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col, step, dist) AS (
        SELECT row, col, row, col, 0, CAST(0.0 AS DOUBLE) FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c}),
               w.step + 1, w.dist + ({step_len})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
          -- stop extending once the drop target is met at this cell
          AND NOT (w.step >= 1 AND CAST(((w.row * 31 + w.col * 17) % 97) AS DOUBLE)
                   <= CAST(((w.src_row * 31 + w.src_col * 17) % 97) AS DOUBLE) - {drop!r})
    ),
    hit AS (SELECT w2.src_row, w2.src_col, MIN(w2.dist) AS l
            FROM walk w2
            WHERE w2.step >= 1
              AND {zwalk} <= CAST(((w2.src_row * 31 + w2.src_col * 17) % 97) AS DOUBLE) - {drop!r}
            GROUP BY w2.src_row, w2.src_col),
    fin AS (SELECT w2.src_row, w2.src_col, w2.dist AS l_end, {zwalk} AS z_end
            FROM walk w2 JOIN dirs ON dirs.row = w2.row AND dirs.col = w2.col
            WHERE dirs.d < 0)
    SELECT g.row, g.col,
           ROUND(CASE WHEN h.l IS NOT NULL
                      THEN DEGREES(ATAN2({drop!r}, h.l))
                      ELSE DEGREES(ATAN2(
                          GREATEST(CAST(((g.row * 31 + g.col * 17) % 97) AS DOUBLE) - f.z_end, 0.0),
                          GREATEST(f.l_end, {res!r})))
                 END, 6) AS dsi
    FROM g
    LEFT JOIN hit h ON h.src_row = g.row AND h.src_col = g.col
    LEFT JOIN fin f ON f.src_row = g.row AND f.src_col = g.col
    ORDER BY g.row, g.col
    """


def q_avg_flowpath_slope(sf_dir: str):
    """AverageFlowpathSlope (hydro_analysis/average_flowpath_slope.rs
    composition used by the engine): (z − z_terminal) / L with L the
    D8 flowpath length to the terminal — ElevAbovePit and the BSP
    downslope-length layer zipped per tile (stages/hydro2.py:114).
    Terminal cells (L = 0) read 0. The twin walks the same path, so
    the step-length sum accumulates in identical order."""
    import ray.data as rd

    from ..stages.hydro2 import average_flowpath_slope

    rows, spec = _scene(_dem_grid())
    out = average_flowpath_slope(rd.from_items(rows), spec, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "afs"), "afs", 9)


def q_avg_flowpath_slope_sql() -> str:
    move_r = _d8_case("dirs.d", "dr")
    move_c = _d8_case("dirs.d", "dc")
    step_len = _d8_case("dirs.d", "len")
    return f"""
    WITH RECURSIVE
    {_d8_prelude()},
    walk(src_row, src_col, row, col, dist) AS (
        SELECT row, col, row, col, CAST(0.0 AS DOUBLE) FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c}), w.dist + ({step_len})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    ),
    term AS (SELECT w.src_row AS row, w.src_col AS col, w.dist,
                    CAST(((w.row * 31 + w.col * 17) % 97) AS DOUBLE) AS zt
             FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
             WHERE dirs.d < 0)
    SELECT t.row, t.col,
           ROUND(CASE WHEN t.dist > 0
                      THEN (CAST(((t.row * 31 + t.col * 17) % 97) AS DOUBLE) - t.zt) / t.dist
                      ELSE 0 END, 9) AS afs
    FROM term t ORDER BY t.row, t.col
    """


def q_pca_cov(sf_dir: str):
    """Covariance matrix (first ``PCA_COV_DIMS`` embedding dims, long form) via
    the PCA partial-pack pass (stats2.pca's covariance phase,
    math_stat_analysis/principal_component_analysis.rs) — the oracle
    side of the otherwise rows-only pca_project gate."""
    import ray.data as rd

    ds = read(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        m = np.stack(
            [np.asarray(e[:PCA_COV_DIMS], dtype=np.float64) for e in batch["embedding"].to_pylist()]
        )
        pack = np.concatenate(([float(len(m))], m.sum(axis=0), (m.T @ m).ravel()))
        return pa.table({"pack": pa.array([pack.tolist()], pa.list_(pa.float64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    tot = np.sum(np.stack(parts["pack"].to_numpy()), axis=0)
    n = float(tot[0])
    mean = tot[1 : 1 + PCA_COV_DIMS] / n
    ss = tot[1 + PCA_COV_DIMS :].reshape(PCA_COV_DIMS, PCA_COV_DIMS)
    cov = ss / n - np.outer(mean, mean)
    ii, jj = np.meshgrid(np.arange(PCA_COV_DIMS), np.arange(PCA_COV_DIMS), indexing="ij")
    return pd.DataFrame(
        {"i": ii.ravel().astype(np.int64), "j": jj.ravel().astype(np.int64),
         "cov": np.round(cov.ravel(), 9)}
    )


def q_pca_cov_sql() -> str:
    selects = "\n    UNION ALL ".join(
        f"SELECT {i}::BIGINT AS i, {j}::BIGINT AS j, "
        f"ROUND(COVAR_POP(embedding[{i + 1}]::DOUBLE, embedding[{j + 1}]::DOUBLE), 9) AS cov "
        f"FROM embeddings"
        for i in range(PCA_COV_DIMS) for j in range(PCA_COV_DIMS)
    )
    return selects + " ORDER BY i, j"


def q_kmeans_1iter(sf_dir: str):
    """One deterministic Lloyd iteration (k_means_clustering.rs assign +
    centroid-update round): init = the k embeddings with smallest
    vec_id, assignment = argmin squared distance (ties → lowest
    centroid id — np.argmin first-hit order matches the SQL tie-break),
    output = per-cluster count, first-dim mean and mean-vector checksum.
    The oracle side of the otherwise rows-only kmeans_clusters gate;
    same streamed partial-sum shape as stages/kmeans.kmeans_fit."""
    import ray

    from ..stages.ann import _to_matrix

    ds = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    seed_rows = ds.sort("vec_id").limit(KMEANS_K).take_batch(KMEANS_K, batch_format="pyarrow")
    cids = seed_rows["vec_id"].to_numpy()
    cent = _to_matrix(seed_rows["embedding"])
    ref = ray.put((cids, cent))

    def partial(batch: pa.Table) -> pa.Table:
        ids, c = ray.get(ref)
        m = _to_matrix(batch["embedding"])
        d2 = ((m[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        kk, dim = c.shape
        sums = np.zeros((kk, dim))
        counts = np.zeros(kk, dtype=np.int64)
        np.add.at(sums, assign, m)
        np.add.at(counts, assign, 1)
        return pa.table(
            {
                "cluster": pa.array(ids.astype(np.int64), pa.int64()),
                "n": pa.array(counts, pa.int64()),
                "pack": pa.array([s.tolist() for s in sums], pa.list_(pa.float64())),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("cluster").agg(
        n=("n", "sum"), pack=("pack", lambda col: np.sum(np.stack(col.to_numpy()), axis=0))
    )
    means = np.stack(agg["pack"].to_numpy()) / agg["n"].to_numpy()[:, None]
    return pd.DataFrame(
        {
            "cluster": agg.index.to_numpy().astype(np.int64),
            "n": agg["n"].to_numpy().astype(np.int64),
            "m0": np.round(means[:, 0], 9),
            "msum": np.round(means.sum(axis=1), 9),
        }
    ).sort_values("cluster").reset_index(drop=True)


def q_kmeans_1iter_sql() -> str:
    msum = " + ".join(f"AVG(embedding[{d + 1}]::DOUBLE)" for d in range(64))
    return f"""
    WITH cent AS (
        SELECT vec_id AS cid, embedding AS ce FROM embeddings ORDER BY vec_id LIMIT {KMEANS_K}
    ),
    a AS (
        SELECT e.vec_id, e.embedding,
               (SELECT c.cid FROM cent c
                ORDER BY list_distance(e.embedding::DOUBLE[], c.ce::DOUBLE[]), c.cid
                LIMIT 1) AS cluster
        FROM embeddings e
    )
    SELECT cluster, COUNT(*) AS n,
           ROUND(AVG(embedding[1]::DOUBLE), 9) AS m0,
           ROUND({msum}, 9) AS msum
    FROM a GROUP BY cluster ORDER BY cluster
    """


def q_jaccard_pairs(sf_dir: str):
    """EXACT word-trigram Jaccard near-dup pairs over documents —
    distributed shingle-join (dedup.ngram_jaccard_pairs: explode →
    groupby(shingle) → pair → groupby(pair) count), the exact oracle
    the minhash/simhash approximate gates can't have."""
    from ..stages.dedup import ngram_jaccard_pairs

    ds = read(sf_dir, "documents", columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, k=JACCARD_K, threshold=JACCARD_MIN).to_pandas()
    return (
        out.astype({"id_a": np.int64, "id_b": np.int64})
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )


def q_jaccard_pairs_sql() -> str:
    gram = " || ' ' || ".join(f"w[i + {j}]" for j in range(JACCARD_K))
    return f"""
    WITH t AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents),
    sh AS (
        SELECT DISTINCT doc_id, {gram} AS s
        FROM t, UNNEST(generate_series(1, len(w) - {JACCARD_K - 1})) AS u(i)
    ),
    sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
    inter AS (
        SELECT a.doc_id AS ia, b.doc_id AS ib, COUNT(*) AS c
        FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
        GROUP BY 1, 2
    )
    SELECT ia AS id_a, ib AS id_b,
           ROUND(c * 1.0 / (sa.n + sb.n - c), 6) AS jaccard
    FROM inter
    JOIN sz sa ON sa.doc_id = ia
    JOIN sz sb ON sb.doc_id = ib
    WHERE c * 1.0 / (sa.n + sb.n - c) >= {JACCARD_MIN}
    ORDER BY id_a, id_b
    """


def q_nn_grid(sf_dir: str):
    """NearestNeighbourGridding (nearest_neighbour_gridding.rs): each
    cell takes the value of its nearest fixture point (canonical
    (px,py,v)-sorted tie-break on both sides)."""
    from ..stages.gridding import idw_gridding

    spec, pts = _idw_points()
    out = idw_gridding(pts, spec, radius=1e9, power=2.0, method="nearest", out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "nn"), "nn", 6)


def q_nn_grid_sql() -> str:
    spec, _ = _idw_points()
    gs = spec.grid_spec()
    res = spec.res
    return f"""
    WITH pts(px, py, v) AS (VALUES {_idw_sql_points()}),
    g AS (SELECT r.r AS row, c.c AS col,
                 {gs.west!r} + (c.c + 0.5) * {res!r} AS x,
                 {gs.north!r} - (r.r + 0.5) * {res!r} AS y
          FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
               (SELECT unnest(generate_series(0, 63)) AS c) c)
    SELECT g.row, g.col,
           ROUND((SELECT v FROM pts
                  ORDER BY (x - px) * (x - px) + (y - py) * (y - py), px, py, v
                  LIMIT 1), 6) AS nn
    FROM g ORDER BY g.row, g.col
    """


def q_gaussian_filter(sf_dir: str):
    """GaussianFilter (image_analysis/gaussian_filter.rs): 7×7
    normalized-over-valid convolution on the analytic DEM through the
    focal halo engine; the SQL twin carries the identical weight
    doubles, so the only divergence is float summation order."""
    import ray.data as rd

    from ..stages.filters2 import gaussian_filter

    rows, spec = _scene(_dem_grid())
    out = gaussian_filter(rd.from_items(rows), spec, sigma=GAUSSIAN_SIGMA, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "gauss"), "gauss", 6)


def q_gaussian_filter_sql() -> str:
    from ..stages.filters2 import gaussian_weights

    w = gaussian_weights(GAUSSIAN_SIGMA)
    radius = w.shape[0] // 2
    vals = ", ".join(
        f"({dr}, {dc}, {w[dr + radius, dc + radius]!r})"
        for dr in range(-radius, radius + 1)
        for dc in range(-radius, radius + 1)
    )
    zc = "CAST((((g.row + k.dr) * 31 + (g.col + k.dc) * 17) % 97) AS DOUBLE)"
    return f"""
    WITH k(dr, dc, w) AS (VALUES {vals}),
    {_WIN_G}
    SELECT g.row, g.col,
           ROUND(SUM(k.w * {zc}) / SUM(k.w), 6) AS gauss
    FROM g JOIN k
      ON g.row + k.dr BETWEEN 0 AND 63 AND g.col + k.dc BETWEEN 0 AND 63
    GROUP BY g.row, g.col
    ORDER BY g.row, g.col
    """


def q_fill_depressions(sf_dir: str):
    """FillDepressions (hydro_analysis/fill_depressions.rs) through the
    Dataset-native hierarchical BSP fill (stages/fill.fill_depressions_ds)
    on the analytic DEM — 1088 of 4096 cells rise. The SQL twin is the
    minimax-path-to-edge fixed point the stage docstring states:
    F(c) = min over edge-seeded walks of the running max z, enumerated
    as a recursive (cell, level) closure (≤ cells × distinct-z states)."""
    import ray.data as rd

    from ..stages.fill import fill_depressions_ds

    rows, spec = _scene(_dem_grid())
    out = fill_depressions_ds(rd.from_items(rows), spec, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "fill"), "fill", 6)


def q_fill_depressions_sql() -> str:
    return """
    WITH RECURSIVE
    g AS (SELECT r.r AS row, c.c AS col,
                 CAST(((r.r * 31 + c.c * 17) % 97) AS DOUBLE) AS z
          FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
               (SELECT unnest(generate_series(0, 63)) AS c) c),
    walk(row, col, lvl) AS (
        SELECT row, col, z FROM g WHERE row IN (0, 63) OR col IN (0, 63)
        UNION
        SELECT n.row, n.col, GREATEST(w.lvl, n.z)
        FROM walk w
        JOIN g n ON n.row BETWEEN w.row - 1 AND w.row + 1
                AND n.col BETWEEN w.col - 1 AND w.col + 1
                AND NOT (n.row = w.row AND n.col = w.col)
    )
    SELECT row, col, ROUND(MIN(lvl), 6) AS fill
    FROM walk GROUP BY row, col ORDER BY row, col
    """


def q_opening(sf_dir: str):
    """Opening (image_analysis/opening.rs): erosion→dilation as two
    chained focal halo passes on the analytic DEM (exercises the
    multi-pass focal pipeline; integer z ≤ 96 → f32 exact). SQL twin:
    nested in-bounds window MIN then MAX."""
    import ray.data as rd

    from ..stages.filters2 import opening

    rows, spec = _scene(_dem_grid())
    out = opening(rd.from_items(rows), spec, radius=OPENING_RADIUS)
    return _round_cells(_tiles_to_cells(out, spec, "opened"), "opened", 6)


def q_opening_sql() -> str:
    return f"""
    WITH g AS (SELECT r.r AS row, c.c AS col,
                      CAST(((r.r * 31 + c.c * 17) % 97) AS DOUBLE) AS z
               FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
                    (SELECT unnest(generate_series(0, 63)) AS c) c),
    e AS (SELECT a.row, a.col, MIN(b.z) AS v
          FROM g a JOIN g b
            ON b.row BETWEEN a.row - {OPENING_RADIUS} AND a.row + {OPENING_RADIUS}
           AND b.col BETWEEN a.col - {OPENING_RADIUS} AND a.col + {OPENING_RADIUS}
          GROUP BY a.row, a.col)
    SELECT a.row, a.col, ROUND(MAX(b.v), 6) AS opened
    FROM e a JOIN e b
      ON b.row BETWEEN a.row - {OPENING_RADIUS} AND a.row + {OPENING_RADIUS}
     AND b.col BETWEEN a.col - {OPENING_RADIUS} AND a.col + {OPENING_RADIUS}
    GROUP BY a.row, a.col ORDER BY a.row, a.col
    """


def q_fd8_accum(sf_dir: str):
    """FD8FlowAccumulation (hydro_analysis/fd8_flow_accum.rs) at
    exponent 1.0 on the 16×16 analytic DEM through the multi-flow BSP
    engine (fractions stored f32, exactly as the engine ships them
    between shards). The SQL twin quantizes its fractions through the
    same REAL cast and unrolls the topological recurrence
    acc = 1 + Σ frac·acc(inflow) to past the longest flowpath."""
    import ray.data as rd

    from ..stages.flow2 import fd8_flow_accumulation

    rows, spec = _scene(_dem_grid(16), tile_px=8)
    out = fd8_flow_accumulation(rd.from_items(rows), spec, exponent=1.0, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "acc"), "acc", 6)


def q_fd8_accum_sql() -> str:
    dirs = ", ".join(f"({dy}, {dx}, {ln!r})" for (dy, dx), ln in zip(_D8_RING, _D8_LEN))
    ctes = []
    prev = "a0"
    for k in range(1, 17):  # 16 rounds: past the longest flowpath on the 16×16 grid
        cur = f"a{k}"
        ctes.append(
            f"""{cur} AS (
      SELECT g.row, g.col, 1.0 + COALESCE(SUM(ed.frac * p.acc), 0.0) AS acc
      FROM g LEFT JOIN ed ON ed.vr = g.row AND ed.vc = g.col
             LEFT JOIN {prev} p ON p.row = ed.ur AND p.col = ed.uc
      GROUP BY g.row, g.col)"""
        )
        prev = cur
    return f"""
    WITH g AS (SELECT r.r AS row, c.c AS col,
                      CAST(((r.r * 31 + c.c * 17) % 97) AS DOUBLE) AS z
               FROM (SELECT unnest(generate_series(0, 15)) AS r) r,
                    (SELECT unnest(generate_series(0, 15)) AS c) c),
    d(dr, dc, dist) AS (VALUES {dirs}),
    w AS (SELECT u.row ur, u.col uc, u.row + d.dr vr, u.col + d.dc vc,
                 (u.z - v.z) / d.dist AS w
          FROM g u JOIN d ON TRUE
          JOIN g v ON v.row = u.row + d.dr AND v.col = u.col + d.dc
          WHERE u.z > v.z),
    tot AS (SELECT ur, uc, SUM(w) AS t FROM w GROUP BY ur, uc),
    ed AS (SELECT w.ur, w.uc, w.vr, w.vc,
                  CAST(CAST(w.w / tot.t AS REAL) AS DOUBLE) AS frac
           FROM w JOIN tot ON tot.ur = w.ur AND tot.uc = w.uc),
    a0 AS (SELECT row, col, 1.0 AS acc FROM g),
    {", ".join(ctes)}
    SELECT row, col, ROUND(acc, 6) AS acc FROM {prev} ORDER BY row, col
    """


def q_dinf_accum(sf_dir: str):
    """DInfFlowAccumulation (hydro_analysis/dinf_flow_accum.rs, Tarboton
    1997) on the 16×16 analytic DEM through the multi-flow BSP engine.
    The SQL twin reproduces the full facet selection (s1/s2 slopes,
    atan2 angle with the s1≤0 override, clip to π/4, first-max facet
    tie-break) and the two-way angular split, quantizes fractions
    through the engine's REAL cast, then unrolls the topological
    recurrence."""
    import ray.data as rd

    from ..stages.flow2 import dinf_flow_accumulation

    rows, spec = _scene(_dem_grid(16), tile_px=8)
    out = dinf_flow_accumulation(rd.from_items(rows), spec, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "acc"), "acc", 6)


def q_dinf_accum_sql() -> str:
    res = 90.0
    a4 = float(np.arctan2(res, res))
    diag = float(np.hypot(res, res))
    # facets as (cardinal, diagonal) _D8_RING indices
    facets = [(1, 0), (7, 0), (7, 6), (5, 6), (5, 4), (3, 4), (3, 2), (1, 2)]
    fc = ", ".join(f"({fi}, {_D8_RING[ci][0]}, {_D8_RING[ci][1]}, {_D8_RING[di][0]}, {_D8_RING[di][1]})"
                   for fi, (ci, di) in enumerate(facets))
    ctes = []
    prev = "a0"
    for k in range(1, 17):  # 16 rounds: past the longest flowpath on the 16×16 grid
        cur = f"a{k}"
        ctes.append(
            f"""{cur} AS (
      SELECT g.row, g.col, 1.0 + COALESCE(SUM(ed.frac * p.acc), 0.0) AS acc
      FROM g LEFT JOIN ed ON ed.vr = g.row AND ed.vc = g.col
             LEFT JOIN {prev} p ON p.row = ed.ur AND p.col = ed.uc
      GROUP BY g.row, g.col)"""
        )
        prev = cur
    return f"""
    WITH g AS (SELECT r.r AS row, c.c AS col,
                      CAST(((r.r * 31 + c.c * 17) % 97) AS DOUBLE) AS z
               FROM (SELECT unnest(generate_series(0, 15)) AS r) r,
                    (SELECT unnest(generate_series(0, 15)) AS c) c),
    fc(fi, cdr, cdc, ddr, ddc) AS (VALUES {fc}),
    sl AS (SELECT u.row AS ur, u.col AS uc, fc.fi, fc.cdr, fc.cdc, fc.ddr, fc.ddc,
                  (u.z - COALESCE(zc.z, u.z)) / {res!r} AS s1,
                  (COALESCE(zc.z, u.z) - COALESCE(zd.z, COALESCE(zc.z, u.z))) / {res!r} AS s2,
                  u.z - COALESCE(zd.z, COALESCE(zc.z, u.z)) AS dzd
           FROM g u JOIN fc ON TRUE
           LEFT JOIN g zc ON zc.row = u.row + fc.cdr AND zc.col = u.col + fc.cdc
           LEFT JOIN g zd ON zd.row = u.row + fc.ddr AND zd.col = u.col + fc.ddc),
    rr AS (SELECT *, CASE WHEN s1 <= 0
                          THEN (CASE WHEN s2 > 0 THEN {a4!r} ELSE 0.0 END)
                          ELSE LEAST(GREATEST(ATAN2(s2, s1), 0.0), {a4!r}) END AS r
           FROM sl),
    sv AS (SELECT *, CASE WHEN r = 0.0 THEN s1
                          WHEN r = {a4!r} THEN dzd / {diag!r}
                          ELSE SQRT(GREATEST(s1 * s1 + s2 * s2, 0.0)) END AS sfac
           FROM rr),
    b1 AS (SELECT * FROM (
               SELECT *, ROW_NUMBER() OVER (PARTITION BY ur, uc
                                            ORDER BY sfac DESC, fi ASC) AS rk
               FROM sv)
           WHERE rk = 1 AND sfac > 0),
    ed0 AS (
        SELECT ur, uc, ur + ddr AS vr, uc + ddc AS vc, r / {a4!r} AS frac FROM b1
        UNION ALL
        SELECT ur, uc, ur + cdr AS vr, uc + cdc AS vc, 1.0 - r / {a4!r} AS frac FROM b1
    ),
    ed AS (SELECT ur, uc, vr, vc, CAST(CAST(frac AS REAL) AS DOUBLE) AS frac
           FROM ed0 WHERE vr BETWEEN 0 AND 15 AND vc BETWEEN 0 AND 15),
    a0 AS (SELECT row, col, 1.0 AS acc FROM g),
    {", ".join(ctes)}
    SELECT row, col, ROUND(acc, 6) AS acc FROM {prev} ORDER BY row, col
    """


def q_cost_distance(sf_dir: str):
    """CostDistance (gis_analysis/cost_distance.rs) through the BSP shard
    engine (stages/cost.cost_distance_ds): 64×64 scene, cost varies by
    ROW only (1 + (3r mod 7)) with the whole top row as source — the
    optimal path from any cell is the straight vertical walk (every path
    crosses each row boundary at least once, a cardinal crossing is the
    cheapest way to cross it, and lateral moves only add cost), so the
    accumulated cost is the exact prefix sum
    Σ_{k=1..row} (cost(k-1)+cost(k))/2 the SQL twin computes."""
    import ray.data as rd

    from ..stages.cost import cost_distance_ds

    r = np.arange(64, dtype=np.int64)[:, None]
    src = np.zeros((64, 64))
    src[0, :] = 1.0
    cost_rows, spec = _scene(np.broadcast_to((1 + (r * 3) % 7).astype(np.float64), (64, 64)), res=1.0)
    src_rows, _ = _scene(src, fmt="f32", res=1.0)
    out = cost_distance_ds(
        rd.from_items(cost_rows), rd.from_items(src_rows), spec,
        num_workers=2, out_fmt="f64",
    )
    return _round_cells(_tiles_to_cells(out, spec, "cd"), "cd", 6)


Q_COST_DISTANCE_SQL = """
    WITH rows_ AS (SELECT unnest(generate_series(0, 63)) AS r),
    c AS (SELECT r, CAST(1 + (r * 3) % 7 AS DOUBLE) AS v FROM rows_),
    steps AS (SELECT r, CASE WHEN r = 0 THEN 0.0
                             ELSE (v + LAG(v) OVER (ORDER BY r)) / 2.0 END AS step
              FROM c),
    acc AS (SELECT r, SUM(step) OVER (ORDER BY r
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS a
            FROM steps)
    SELECT g.r AS row, g2.c AS col, ROUND(acc.a, 6) AS cd
    FROM rows_ g, (SELECT unnest(generate_series(0, 63)) AS c) g2
    JOIN acc ON acc.r = g.r
    ORDER BY row, col
"""


def q_clump(sf_dir: str):
    """Clump (gis_analysis/clump.rs:246-281) through the Dataset-native
    connected-components engine (stages/cc.clump_ds): 32×32 grid of
    v = ((31r+17c) mod 97) mod 4, 8-connectivity, all values clump.
    Dense ids are 1 + rank of the component's minimum row-major cell
    (the reference's scan discovery order); the SQL twin is a recursive
    min-label closure over the same-value 8-neighbour graph."""
    import ray.data as rd

    from ..stages.cc import clump_ds

    rows, spec = _scene(_dem_grid(32) % 4, tile_px=8)
    out, _n = clump_ds(rd.from_items(rows), spec, diag=True, zero_background=False)
    return _round_cells(_tiles_to_cells(out, spec, "clump"), "clump", 6)


Q_CLUMP_SQL = """
    WITH RECURSIVE
    g AS (SELECT r.r AS row, c.c AS col,
                 ((r.r * 31 + c.c * 17) % 97) % 4 AS v,
                 r.r * 32 + c.c AS gid
          FROM (SELECT unnest(generate_series(0, 31)) AS r) r,
               (SELECT unnest(generate_series(0, 31)) AS c) c),
    comp(row, col, lbl) AS (
        SELECT row, col, gid FROM g
        UNION
        SELECT n.row, n.col, w.lbl
        FROM comp w
        JOIN g wc ON wc.row = w.row AND wc.col = w.col
        JOIN g n ON n.row BETWEEN w.row - 1 AND w.row + 1
                AND n.col BETWEEN w.col - 1 AND w.col + 1
                AND NOT (n.row = w.row AND n.col = w.col)
                AND n.v = wc.v
        WHERE w.lbl < n.gid
    ),
    m AS (SELECT row, col, MIN(lbl) AS ml FROM comp GROUP BY row, col)
    SELECT row, col, CAST(DENSE_RANK() OVER (ORDER BY ml) AS DOUBLE) AS clump
    FROM m ORDER BY row, col
"""


def q_max_elev_dev(sf_dir: str):
    """MaxElevationDeviation (terrain_analysis/max_elevation_deviation.rs)
    through the multiscale sweep engine (stages/terrain3._multiscale_max):
    per cell, the signed DEV value with the largest |DEV| over window
    radii 1..4 plus the winning radius (strictly-greater replacement —
    earliest scale wins ties). Returns a merged (row, col, mag, scale)
    DataFrame; the SQL twin ranks the same four window z-scores."""
    import ray.data as rd

    from ..stages.terrain3 import max_elevation_deviation

    rows, spec = _scene(_dem_grid())
    mag, scl = max_elevation_deviation(rd.from_items(rows), spec, 1, 4, 1, out_fmt="f64")
    mdf = _round_cells(_tiles_to_cells(mag, spec, "mag"), "mag", 6).to_pandas()
    sdf = _tiles_to_cells(scl, spec, "scale").to_pandas()
    out = mdf.merge(sdf, on=["row", "col"]).sort_values(["row", "col"])
    return out.reset_index(drop=True)


def q_max_elev_dev_sql() -> str:
    z0 = _DEM_Z.format(r="a.row", c="a.col")
    zn = _DEM_Z.format(r="g.row + o.dr", c="g.col + o.dc")
    return f"""
    WITH {_WIN_G},
    rads AS (SELECT unnest(generate_series(1, 4)) AS rad),
    off AS (SELECT rad, a.o AS dr, b.o AS dc
            FROM rads,
                 (SELECT unnest(generate_series(-4, 4)) AS o) a,
                 (SELECT unnest(generate_series(-4, 4)) AS o) b
            WHERE ABS(a.o) <= rad AND ABS(b.o) <= rad),
    agg AS (SELECT g.row, g.col, o.rad,
                   COUNT(*) AS n, SUM({zn}) AS s1,
                   SUM(({zn}) * ({zn})) AS s2
            FROM g JOIN off o
              ON g.row + o.dr BETWEEN 0 AND 63
             AND g.col + o.dc BETWEEN 0 AND 63
            GROUP BY g.row, g.col, o.rad),
    dev AS (SELECT a.row, a.col, a.rad,
                   CASE WHEN SQRT(GREATEST(s2 / n - (s1 / n) * (s1 / n), 0)) > 0
                        THEN ({z0} - s1 / n)
                             / SQRT(GREATEST(s2 / n - (s1 / n) * (s1 / n), 0))
                        ELSE 0 END AS dv
            FROM agg a),
    pick AS (SELECT row, col, dv, rad,
                    ROW_NUMBER() OVER (PARTITION BY row, col
                                       ORDER BY ABS(dv) DESC, rad ASC) AS rk
             FROM dev)
    SELECT row, col, ROUND(dv, 6) AS mag, CAST(rad AS DOUBLE) AS scale
    FROM pick WHERE rk = 1 ORDER BY row, col
    """


def q_strahler_order(sf_dir: str):
    """StrahlerStreamOrder (stream_network_analysis/strahler_order.rs)
    through the full Dataset-native chain on the valley DEM: pointer →
    BSP accumulation → ExtractStreams (acc > 25) → ``stream_links_ds``
    → per-link Strahler on the O(links) DAG → painted back. The SQL
    twin runs the per-cell fixpoint (head = 1; M+1 where ≥2 inflows tie
    at the max M) unrolled 6 rounds — measured convergence is 3."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds
    from ..stages.streams import extract_streams_ds, strahler_order, stream_links_ds

    rows, spec = _scene(_valley_grid())
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    streams = extract_streams_ds(acc, spec, threshold=STREAM_THRESHOLD)
    painted, links = stream_links_ds(streams, ptr, spec)
    order = strahler_order(links)
    max_lid = max(order) if order else 0
    lut = np.zeros(max_lid + 1, dtype=np.int64)
    for lid, o in order.items():
        lut[lid] = o

    cells = _tiles_to_cells(painted, spec, "link_id")

    def finish(batch: pa.Table) -> pa.Table:
        lid = batch["link_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = lid > 0
        return pa.table(
            {
                "row": batch["row"].filter(pa.array(keep)),
                "col": batch["col"].filter(pa.array(keep)),
                "ord": pa.array(lut[lid[keep]], pa.int64()),
            }
        )

    return cells.map_batches(finish, batch_format="pyarrow")


def q_strahler_order_sql() -> str:
    move_r = _d8_case("d", "dr")
    move_c = _d8_case("d", "dc")
    its = []
    prev = "s0"
    for k in range(1, 7):
        its.append(f"""
    agg{k} AS (SELECT i.row, i.col, MAX(p.o) AS mx
               FROM inflow i JOIN {prev} p ON p.row = i.irow AND p.col = i.icol
               GROUP BY i.row, i.col),
    cnt{k} AS (SELECT i.row, i.col, COUNT(*) AS nmx
               FROM inflow i JOIN {prev} p ON p.row = i.irow AND p.col = i.icol
               JOIN agg{k} a ON a.row = i.row AND a.col = i.col AND p.o = a.mx
               GROUP BY i.row, i.col),
    s{k} AS (SELECT s.row, s.col,
                    CASE WHEN a.mx IS NULL THEN 1
                         WHEN c.nmx >= 2 THEN a.mx + 1 ELSE a.mx END AS o
             FROM strm s
             LEFT JOIN agg{k} a ON a.row = s.row AND a.col = s.col
             LEFT JOIN cnt{k} c ON c.row = s.row AND c.col = s.col)""")
        prev = f"s{k}"
    return f"""
    WITH RECURSIVE
    {_d8_prelude(_VALLEY_Z, materialized=True)},
    walk(src_row, src_col, row, col) AS (
        SELECT row, col, row, col FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    ),
    acc AS (SELECT row, col, COUNT(*) AS acc FROM walk GROUP BY row, col),
    strm AS MATERIALIZED (SELECT row, col FROM acc WHERE acc > {STREAM_THRESHOLD!r}),
    ring(i, dr, dc) AS (VALUES {_D8_RING_VALUES}),
    inflow AS MATERIALIZED (SELECT s.row, s.col, nb.row AS irow, nb.col AS icol
               FROM strm s JOIN ring ON TRUE
               JOIN strm nb ON nb.row = s.row + ring.dr AND nb.col = s.col + ring.dc
               JOIN dirs nd ON nd.row = nb.row AND nd.col = nb.col
               WHERE nd.d = (ring.i + 4) % 8),
    s0 AS (SELECT row, col, 1 AS o FROM strm),{','.join(its)}
    SELECT row, col, CAST(o AS BIGINT) AS ord FROM {prev} ORDER BY row, col
    """


def q_tin_grid(sf_dir: str):
    """TINGridding (gis_analysis/tin_gridding.rs) through the per-tile
    Delaunay + barycentric engine (stages/gridding.tin_gridding): the
    point z-values sample the plane z = 2 + x/2 − y/4, so EVERY valid
    triangulation interpolates the plane exactly — the oracle is the
    plane itself at cell centres, independent of triangulation choice
    (boundary points sit on a rectangle strictly outside the grid, so
    all 4096 cell centres are inside the hull; spacing 5 < the 8-cell
    co-partition margin keeps border triangles under the fallback)."""
    from ..sources.tiles import SceneSpec
    from ..stages.gridding import tin_gridding

    spec = SceneSpec(tiles_x=4, tiles_y=4, tile_px=16, res=1.0, west=0.0, north=64.0)
    xs, ys, zs = [], [], []
    for i in range(15):
        for j in range(15):
            x = -1.0 + 5.0 * j
            y = -1.0 + 5.0 * i
            if 0 < i < 14 and 0 < j < 14:
                x += ((i * 7 + j * 3) % 5 - 2) * 0.1
                y += ((i * 3 + j * 11) % 5 - 2) * 0.1
            xs.append(x)
            ys.append(y)
            zs.append(2.0 + 0.5 * x - 0.25 * y)
    pts = pa.table({"x": pa.array(xs, pa.float64()), "y": pa.array(ys, pa.float64()),
                    "value": pa.array(zs, pa.float64())})
    out = tin_gridding(pts, spec)
    return _round_cells(_tiles_to_cells(out, spec, "tin"), "tin", 4)


Q_TIN_GRID_SQL = """
    SELECT r.r AS row, c.c AS col,
           ROUND(2.0 + 0.5 * (c.c + 0.5) - 0.25 * (64.0 - 0.5 - r.r), 4) AS tin
    FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
         (SELECT unnest(generate_series(0, 63)) AS c) c
    ORDER BY row, col
"""


def q_flood_order(sf_dir: str):
    """FloodOrder (hydro_analysis/flood_order.rs) through the distributed
    fill + distinct-value prefix scan + bucketed value join
    (stages/hydro2.flood_order): per cell, count of filled-surface values
    strictly below its own. SQL twin: the fill minimax closure (same as
    q_fill_depressions) ranked with RANK()−1."""
    import ray.data as rd

    from ..stages.hydro2 import flood_order

    rows, spec = _scene(_dem_grid())
    out = flood_order(rd.from_items(rows), spec, num_workers=2)
    return _round_cells(_tiles_to_cells(out, spec, "ord"), "ord", 6)


def q_flood_order_sql() -> str:
    return """
    WITH RECURSIVE
    g AS (SELECT r.r AS row, c.c AS col,
                 CAST(((r.r * 31 + c.c * 17) % 97) AS DOUBLE) AS z
          FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
               (SELECT unnest(generate_series(0, 63)) AS c) c),
    walk(row, col, lvl) AS (
        SELECT row, col, z FROM g WHERE row IN (0, 63) OR col IN (0, 63)
        UNION
        SELECT n.row, n.col, GREATEST(w.lvl, n.z)
        FROM walk w
        JOIN g n ON n.row BETWEEN w.row - 1 AND w.row + 1
                AND n.col BETWEEN w.col - 1 AND w.col + 1
                AND NOT (n.row = w.row AND n.col = w.col)
    ),
    fill AS (SELECT row, col, MIN(lvl) AS f FROM walk GROUP BY row, col)
    SELECT row, col, CAST(RANK() OVER (ORDER BY f) - 1 AS DOUBLE) AS ord
    FROM fill ORDER BY row, col
    """


# ---------------------------------------------------------------------------
# Curvature / neighbour-count / window-filter gates (terrain_analysis /
# image_analysis families) on the analytic DEM.

# 5x5 window of in-grid neighbour values around each cell.
_WINDOW5_SQL = """
    w AS (SELECT g.row AS row, g.col AS col,
                 CAST(((g.row + dr.d) * 31 + (g.col + dc.d) * 17) % 97 AS DOUBLE) AS zv
          FROM g,
               (SELECT unnest(generate_series(-2, 2)) AS d) dr,
               (SELECT unnest(generate_series(-2, 2)) AS d) dc
          WHERE g.row + dr.d BETWEEN 0 AND 63 AND g.col + dc.d BETWEEN 0 AND 63)
"""


def _evans_partials_sql() -> str:
    """Evans finite-difference partials (terrain2._partials) with the
    replicated-centre out-of-grid frame, cell size 90 — shared by the
    curvature twins."""
    ne, e_, se = _dem_z_edge(-1, 1), _dem_z_edge(0, 1), _dem_z_edge(1, 1)
    s_, sw, w_ = _dem_z_edge(1, 0), _dem_z_edge(1, -1), _dem_z_edge(0, -1)
    nw, n_ = _dem_z_edge(-1, -1), _dem_z_edge(-1, 0)
    res = 90.0
    return f"""
         d AS (SELECT g.row, g.col,
                      (({e_}) - ({w_})) / {2.0 * res} AS zx,
                      (({n_}) - ({s_})) / {2.0 * res} AS zy,
                      (({e_}) - 2.0 * CAST((g.row * 31 + g.col * 17) % 97 AS DOUBLE) + ({w_})) / {res * res} AS zxx,
                      (({n_}) - 2.0 * CAST((g.row * 31 + g.col * 17) % 97 AS DOUBLE) + ({s_})) / {res * res} AS zyy,
                      (-({nw}) + ({ne}) + ({sw}) - ({se})) / {4.0 * res * res} AS zxy
               FROM g)
    """


def q_tan_curvature(sf_dir: str):
    """TangentialCurvature (tan_curvature.rs:277-290) on the analytic
    DEM via the halo focal engine."""
    import ray.data as rd

    from ..stages.focal import focal_op
    from ..stages.terrain2 import tan_curvature_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, tan_curvature_kernel, 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "tanc"), "tanc", 6)


def q_tan_curvature_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_evans_partials_sql()}
    SELECT row, col,
           ROUND(CASE WHEN zx * zx + zy * zy > 0
                 THEN DEGREES((zxx * zy * zy + 2.0 * zxy * zx * zy + zyy * zx * zx)
                      / ((zx * zx + zy * zy) * SQRT((zx * zx + zy * zy) + 1.0))) * 100.0
                 ELSE -32768.0 END, 6) AS tanc
    FROM d
    """


def q_total_curvature(sf_dir: str):
    """TotalCurvature (total_curvature.rs:267-271) on the analytic DEM."""
    import ray.data as rd

    from ..stages.focal import focal_op
    from ..stages.terrain2 import total_curvature_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, total_curvature_kernel, 1, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "totc"), "totc", 6)


def q_total_curvature_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_evans_partials_sql()}
    SELECT row, col,
           ROUND(DEGREES(zxx * zxx + 2.0 * zxy * zxy + zyy * zyy) * 100.0, 6) AS totc
    FROM d
    """


def q_num_downslope(sf_dir: str):
    """NumDownslopeNeighbours (num_downslope_neighbours.rs): count of
    strictly-lower in-grid 8-neighbours."""
    import ray.data as rd

    from ..stages.terrain2 import num_downslope_neighbours

    rows, spec = _scene(_dem_grid())
    out = num_downslope_neighbours(rd.from_items(rows), spec)
    return _int_cells(_tiles_to_cells(out, spec, "ndown"), "ndown")


def q_num_downslope_sql() -> str:
    terms = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            cond = (
                f"g.row + ({dr}) BETWEEN 0 AND 63 AND g.col + ({dc}) BETWEEN 0 AND 63"
                f" AND ((g.row + ({dr})) * 31 + (g.col + ({dc})) * 17) % 97"
                f" < (g.row * 31 + g.col * 17) % 97"
            )
            terms.append(f"CASE WHEN {cond} THEN 1 ELSE 0 END")
    total = " + ".join(terms)
    return f"""
    WITH {_WIN_G}
    SELECT row, col, CAST({total} AS BIGINT) AS ndown FROM g
    """


def q_olympic_filter(sf_dir: str):
    """OlympicFilter (olympic_filter.rs): 5x5 mean excluding one min and
    one max."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("olympic", 2), 2, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "olym"), "olym", 6)


def q_olympic_filter_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_WINDOW5_SQL}
    SELECT row, col,
           ROUND((SUM(zv) - MAX(zv) - MIN(zv)) / (COUNT(*) - 2), 6) AS olym
    FROM w GROUP BY row, col
    """


def q_majority_filter(sf_dir: str):
    """MajorityFilter (majority_filter.rs): 5x5 mode; ties resolve to the
    smallest value (np.unique / ORDER BY zv ASC on both sides)."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("majority", 2), 2, out_fmt="f64")
    return _tiles_to_cells(out, spec, "maj")


def q_majority_filter_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_WINDOW5_SQL},
    cnt AS (SELECT row, col, zv, COUNT(*) AS n FROM w GROUP BY row, col, zv),
    r AS (SELECT row, col, zv,
                 ROW_NUMBER() OVER (PARTITION BY row, col ORDER BY n DESC, zv ASC) AS rn
          FROM cnt)
    SELECT row, col, zv AS maj FROM r WHERE rn = 1
    """


def q_diversity_filter(sf_dir: str):
    """DiversityFilter (diversity_filter.rs): 5x5 distinct-value count."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("diversity", 2), 2, out_fmt="f64")
    return _int_cells(_tiles_to_cells(out, spec, "divers"), "divers")


def q_diversity_filter_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_WINDOW5_SQL}
    SELECT row, col, CAST(COUNT(DISTINCT zv) AS BIGINT) AS divers
    FROM w GROUP BY row, col
    """


def q_relative_aspect(sf_dir: str):
    """RelativeAspect (relative_aspect.rs): angular distance of the Horn
    aspect from azimuth 45 (-1 where flat / fx<=0, matching aspect.rs)."""
    import ray.data as rd

    from ..stages.terrain2 import relative_aspect

    rows, spec = _scene(_dem_grid())
    out = relative_aspect(rd.from_items(rows), spec, azimuth=RELATIVE_AZIMUTH, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "relasp"), "relasp", 6)


def q_relative_aspect_sql() -> str:
    d = f"ABS(180.0 - DEGREES(ATAN(fy / fx)) + 90.0 - {RELATIVE_AZIMUTH}) % 360.0"
    return _horn_sql(
        f"ROUND(CASE WHEN fx > 0 THEN (CASE WHEN ({d}) > 180.0 THEN 360.0 - ({d}) ELSE ({d}) END)"
        " ELSE -1.0 END, 6)",
        "relasp",
    )


def q_stdev_filter(sf_dir: str):
    """StandardDeviationFilter: 5x5 population stdev via the
    sum/sum-of-squares identity (exact-integer partials on this DEM)."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("stdev", 2), 2, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "sdev"), "sdev", 6)


def q_stdev_filter_sql() -> str:
    # same ss/c - (s/c)^2 float path as the kernel (not STDDEV_POP)
    return f"""
    WITH {_WIN_G}
    , {_WINDOW5_SQL}
    SELECT row, col,
           ROUND(SQRT(GREATEST(SUM(zv * zv) / COUNT(*)
                 - (SUM(zv) / COUNT(*)) * (SUM(zv) / COUNT(*)), 0.0)), 6) AS sdev
    FROM w GROUP BY row, col
    """


def q_range_filter(sf_dir: str):
    """RangeFilter: 5x5 max - min (integer-exact)."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("range", 2), 2, out_fmt="f64")
    return _int_cells(_tiles_to_cells(out, spec, "rng"), "rng")


def q_range_filter_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_WINDOW5_SQL}
    SELECT row, col, CAST(MAX(zv) - MIN(zv) AS BIGINT) AS rng
    FROM w GROUP BY row, col
    """


def q_percentile_filter(sf_dir: str):
    """PercentileFilter (q=25): 5x5 linear-interpolated percentile
    (np.nanpercentile == quantile_cont on integer-valued windows)."""
    import ray.data as rd

    from ..stages.focal import focal_op, make_window_kernel

    rows, spec = _scene(_dem_grid())
    out = focal_op(rd.from_items(rows), spec, make_window_kernel("percentile:25", 2), 2, out_fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "pct"), "pct", 6)


def q_percentile_filter_sql() -> str:
    return f"""
    WITH {_WIN_G}
    , {_WINDOW5_SQL}
    SELECT row, col, ROUND(quantile_cont(zv, 0.25), 6) AS pct
    FROM w GROUP BY row, col
    """


def q_resample_cubic(sf_dir: str):
    """Resample (resample.rs `cc`, :308-371) 64×64 → 32×32 at 2× the
    cell size — the reference's ACTUAL `cc` is NOT a cubic kernel: it is
    an inverse-distance² weighted mean over the 4×4 neighbourhood at
    edge-fraction coords, with the `(dx+dy)!=0` test zero-weighting the
    exact hit AND the two anti-diagonal neighbours (-1,+1)/(+1,-1) —
    quirks kept verbatim. The twin chains the 13 weighted terms in the
    engine's exact accumulation order, so the compare is bit-exact."""
    from ..kernels.grid import GridSpec
    from ..stages.resample import resample

    rows, spec = _scene(_dem_grid())
    gs = spec.grid_spec()
    dest = GridSpec(
        west=gs.west, north=gs.north, res_x=gs.res_x * 2, res_y=gs.res_y * 2,
        rows=32, columns=32, nodata=gs.nodata,
    )
    out = resample(pa.Table.from_pylist(rows), spec, dest, dest_tile_px=16, method="cc", out_fmt="f64")
    return _tiles_to_cells(out, spec, "value")


def q_resample_cubic_sql() -> str:
    return """
    WITH g AS (SELECT r.r AS row, c.c AS col
               FROM (SELECT unnest(generate_series(0, 31)) AS r) r,
                    (SELECT unnest(generate_series(0, 31)) AS c) c)
    SELECT row, col,
           ((CASE WHEN TRUE THEN CAST(((2*row + (0)) * 31 + (2*col + (0)) * 17) % 97 AS DOUBLE) * (1.0/2.0) ELSE 0.0 END) + (CASE WHEN TRUE THEN CAST(((2*row + (0)) * 31 + (2*col + (1)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + 0.0 + (CASE WHEN col <= 30 THEN CAST(((2*row + (0)) * 31 + (2*col + (3)) * 17) % 97 AS DOUBLE) * (1.0/5.0) ELSE 0.0 END) + (CASE WHEN TRUE THEN CAST(((2*row + (1)) * 31 + (2*col + (0)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + 0.0 + (CASE WHEN col <= 30 THEN CAST(((2*row + (1)) * 31 + (2*col + (2)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + (CASE WHEN col <= 30 THEN CAST(((2*row + (1)) * 31 + (2*col + (3)) * 17) % 97 AS DOUBLE) * (1.0/4.0) ELSE 0.0 END) + 0.0 + (CASE WHEN row <= 30 THEN CAST(((2*row + (2)) * 31 + (2*col + (1)) * 17) % 97 AS DOUBLE) * (1.0/1.0) ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN CAST(((2*row + (2)) * 31 + (2*col + (2)) * 17) % 97 AS DOUBLE) * (1.0/2.0) ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN CAST(((2*row + (2)) * 31 + (2*col + (3)) * 17) % 97 AS DOUBLE) * (1.0/5.0) ELSE 0.0 END) + (CASE WHEN row <= 30 THEN CAST(((2*row + (3)) * 31 + (2*col + (0)) * 17) % 97 AS DOUBLE) * (1.0/5.0) ELSE 0.0 END) + (CASE WHEN row <= 30 THEN CAST(((2*row + (3)) * 31 + (2*col + (1)) * 17) % 97 AS DOUBLE) * (1.0/4.0) ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN CAST(((2*row + (3)) * 31 + (2*col + (2)) * 17) % 97 AS DOUBLE) * (1.0/5.0) ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN CAST(((2*row + (3)) * 31 + (2*col + (3)) * 17) % 97 AS DOUBLE) * (1.0/8.0) ELSE 0.0 END)) / ((CASE WHEN TRUE THEN 1.0/2.0 ELSE 0.0 END) + (CASE WHEN TRUE THEN 1.0/1.0 ELSE 0.0 END) + 0.0 + (CASE WHEN col <= 30 THEN 1.0/5.0 ELSE 0.0 END) + (CASE WHEN TRUE THEN 1.0/1.0 ELSE 0.0 END) + 0.0 + (CASE WHEN col <= 30 THEN 1.0/1.0 ELSE 0.0 END) + (CASE WHEN col <= 30 THEN 1.0/4.0 ELSE 0.0 END) + 0.0 + (CASE WHEN row <= 30 THEN 1.0/1.0 ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN 1.0/2.0 ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN 1.0/5.0 ELSE 0.0 END) + (CASE WHEN row <= 30 THEN 1.0/5.0 ELSE 0.0 END) + (CASE WHEN row <= 30 THEN 1.0/4.0 ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN 1.0/5.0 ELSE 0.0 END) + (CASE WHEN row <= 30 AND col <= 30 THEN 1.0/8.0 ELSE 0.0 END)) AS value
    FROM g
    """


def q_aggregate_raster(sf_dir: str):
    """AggregateRaster (aggregate_raster.rs): 2×2 block mean, 64×64 →
    32×32. Block means are exact quarters of small integers, so the
    f32 tile round-trip is bit-exact."""
    import ray.data as rd

    from ..sources.tiles import SceneSpec
    from ..stages.resample import aggregate_raster

    rows, spec = _scene(_dem_grid())
    out = aggregate_raster(rd.from_items(rows), spec, factor=2, stat="mean")
    return _tiles_to_cells(out, SceneSpec(tiles_x=4, tiles_y=4, tile_px=8), "value")


def q_aggregate_raster_sql() -> str:
    return """
    WITH g AS (SELECT r.r AS row, c.c AS col
               FROM (SELECT unnest(generate_series(0, 31)) AS r) r,
                    (SELECT unnest(generate_series(0, 31)) AS c) c)
    SELECT row, col,
           (CAST(((2*row) * 31 + (2*col) * 17) % 97 AS DOUBLE)
            + CAST(((2*row) * 31 + (2*col+1) * 17) % 97 AS DOUBLE)
            + CAST(((2*row+1) * 31 + (2*col) * 17) % 97 AS DOUBLE)
            + CAST(((2*row+1) * 31 + (2*col+1) * 17) % 97 AS DOUBLE)) / 4.0 AS value
    FROM g
    """


def q_wetness_index(sf_dir: str):
    """WetnessIndex (wetness_index.rs): ln(SCA / tan slope) as a
    three-stage compound — D8 pointer (halo engine) → BSP accumulation
    (cell counts stand in for SCA) → Horn slope (f64) → keyed tile-zip
    overlay. The SQL twin composes the recursive-CTE accumulation
    oracle with the Horn slope formula."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds
    from ..stages.focal import focal_op, slope_kernel
    from ..stages.terrain2 import wetness_index

    rows, spec = _scene(_dem_grid())
    ds = rd.from_items(rows)
    ptr = d8_pointer_masked(ds, spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    slope = focal_op(ds, spec, slope_kernel, 1, out_fmt="f64")
    wi = wetness_index(acc, slope, spec, out_fmt="f64")
    return _round_cells(_tiles_to_cells(wi, spec, "wi"), "wi", 6)


def q_wetness_index_sql() -> str:
    acc_sql = q_d8_accum_sql()
    slope_sql = _horn_sql("DEGREES(ATAN(SQRT(fx * fx + fy * fy)))", "slope")
    return f"""
    SELECT a.row, a.col,
           ROUND(LN(GREATEST(CAST(a.acc AS DOUBLE), 1e-12)
                 / GREATEST(TAN(RADIANS(s.slope)), 1e-12)), 6) AS wi
    FROM ({acc_sql}) a
    JOIN ({slope_sql}) s ON s.row = a.row AND s.col = a.col
    """


def q_points_to_raster(sf_dir: str):
    """VectorPointsToRaster (data_tools/vector_points_to_raster.rs):
    burn the synthetic point layer onto a 64×64 grid (cell 15.625 — an
    exact binary fraction, so FLOOR(x/res) is the identical IEEE op on
    both sides), collision policy `max` (the synthetic record_id is not
    unique, so order-based policies are ambiguous under ties)."""
    from ..kernels.grid import GridSpec
    from ..stages.raster_vector import vector_points_to_raster

    gs = GridSpec(west=0.0, north=1000.0, res_x=15.625, res_y=15.625,
                  rows=64, columns=64, nodata=-32768.0)
    pts = synth_points(sf_dir)
    return vector_points_to_raster(pts, gs, field="value", collision="max")


def q_points_to_raster_sql() -> str:
    return f"""
    WITH pts AS ({SYNTH_POINTS_SQL}),
    cells AS (SELECT CAST(FLOOR((1000.0 - y) / 15.625) AS BIGINT) AS row,
                     CAST(FLOOR(x / 15.625) AS BIGINT) AS col,
                     record_id, value
              FROM pts),
    ok AS (SELECT * FROM cells
           WHERE row BETWEEN 0 AND 63 AND col BETWEEN 0 AND 63)
    SELECT row, col, MAX(value) AS "VALUE"
    FROM ok GROUP BY row, col
    """


def q_polygons_to_raster(sf_dir: str):
    """VectorPolygonsToRaster (data_tools/vector_polygons_to_raster.rs):
    cell-center fill of the convex gate quad with value 7 over the
    analytic scene (rasterize.py scanline-run fill on stateless tasks vs a
    half-plane twin; unlike ClipRasterToPolygon there is no bbox window
    truncation, so each ring's runs span the whole scene)."""
    import ray.data as rd

    from ..sources.vectors import make_polygon_record
    from ..stages.rasterize import polygons_to_raster

    rows, spec = _scene(_dem_grid())
    gs = spec.grid_spec()
    ring = [(gs.west + u * spec.res, gs.north - v * spec.res) for u, v in _CLIP_GATE_UV]
    rec = make_polygon_record(1, [ring], "gate_quad", 1)
    rec["burn"] = 7.0
    poly = pa.Table.from_pylist([rec])
    out = polygons_to_raster(rd.from_items(rows), poly, spec, field="burn")
    return _int_cells(_valid_cells(_tiles_to_cells(out, spec, "burn"), "burn", gs.nodata), "burn")


def q_polygons_to_raster_sql() -> str:
    uv = _CLIP_GATE_UV
    n = len(uv)
    cu = sum(u for u, _ in uv) / n
    cv = sum(v for _, v in uv) / n
    conds = []
    for i in range(n):
        pu, pv = uv[i]
        qu, qv = uv[(i + 1) % n]
        sign = (qu - pu) * (cv - pv) - (qv - pv) * (cu - pu)
        op = ">" if sign > 0 else "<"
        conds.append(
            f"(({qu!r} - {pu!r}) * (v.vc - {pv!r}) - ({qv!r} - {pv!r}) * (v.uc - {pu!r})) {op} 0"
        )
    return f"""
    WITH {_WIN_G},
    v AS (SELECT row, col,
                 CAST(col AS DOUBLE) + 0.5 AS uc,
                 CAST(row AS DOUBLE) + 0.5 AS vc
          FROM g)
    SELECT row, col, CAST(7 AS BIGINT) AS burn
    FROM v
    WHERE {' AND '.join(conds)}
    ORDER BY row, col
    """


def q_buffer_raster(sf_dir: str):
    """BufferRaster (gis_analysis/buffer_raster.rs): cells within 5 map
    units of a nonzero target — thresholded exact EDT."""
    import ray.data as rd

    from ..stages.distance import buffer_raster

    rows, spec = _scene(_edt_targets(sf_dir), fmt="f32", res=1.0)
    out = buffer_raster(rd.from_arrow(pa.Table.from_pylist(rows, _TILE_I32)), spec, size=5.0, out_fmt="f64")
    return _int_cells(_tiles_to_cells(out, spec, "inbuf"), "inbuf")


def q_buffer_raster_sql() -> str:
    return f"""
    WITH t AS (SELECT DISTINCT (n_nationkey * 13) % 64 AS tr, (n_nationkey * 29) % 64 AS tc
               FROM nation),
         {_WIN_G}
    SELECT row, col,
           CASE WHEN SQRT(CAST((SELECT MIN((row - t.tr) * (row - t.tr) + (col - t.tc) * (col - t.tc))
                                FROM t) AS DOUBLE)) <= 5.0
                THEN 1 ELSE 0 END AS inbuf
    FROM g
    """


def _plane_spec():
    from ..sources.tiles import SceneSpec

    return SceneSpec(tiles_x=4, tiles_y=4, tile_px=16)


def q_create_plane(sf_dir: str):
    """CreatePlane (generate/create_plane.rs): z = base + tan(slope)
    × distance along aspect — the generator constants are inlined into
    the SQL so both sides run the identical float ops."""
    from ..stages.generate import create_plane

    spec = _plane_spec()
    out = create_plane(spec, base=PLANE_BASE, slope_deg=PLANE_SLOPE_DEG, aspect_deg=PLANE_ASPECT_DEG, fmt="f64")
    return _round_cells(_tiles_to_cells(out, spec, "z"), "z", 6)


def q_create_plane_sql() -> str:
    g = float(np.tan(np.radians(PLANE_SLOPE_DEG)) * _plane_spec().res)
    az = np.radians(PLANE_ASPECT_DEG)
    dx, dy = float(np.sin(az)), float(np.cos(az))
    return f"""
    WITH grid AS (SELECT r.r AS row, c.c AS col
                  FROM (SELECT unnest(generate_series(0, 63)) AS r) r,
                       (SELECT unnest(generate_series(0, 63)) AS c) c)
    SELECT row, col,
           ROUND({PLANE_BASE!r} + {g!r} * (CAST(col AS DOUBLE) * {dx!r}
                 - CAST(row AS DOUBLE) * {dy!r}), 6) AS z
    FROM grid
    """


def q_highest_position(sf_dir: str):
    """HighestPosition (gis_analysis/highest_pos.rs:213-230): 1-based
    argmax across a 3-layer stack (first layer wins ties, matching
    np.argmax / the CASE order in the twin). Layer-1 cells holed to
    nodata where (row+col)%7==0 are SKIPPED per layer, matching the
    reference's ``z != in_nodata`` guard — they never win and never
    poison."""
    import ray.data as rd

    from ..stages.band_math import overlay

    scenes = [_scene(g) for g in _stack_grids(holed=True)]
    spec = scenes[0][1]
    out = overlay([rd.from_items(rows) for rows, _ in scenes], spec, op="highest_position")
    return _int_cells(_tiles_to_cells(out, spec, "pos"), "pos")


def q_highest_position_sql() -> str:
    return f"""
    WITH {_WIN_G},
    z AS (SELECT row, col,
                 (row * 31 + col * 17) % 97 AS z0,
                 CASE WHEN (row + col) % 7 = 0 THEN NULL
                      ELSE (row * 13 + col * 29) % 89 END AS z1,
                 (row * 7 + col * 23) % 83 AS z2
          FROM g)
    SELECT row, col,
           CAST(CASE WHEN z1 IS NULL THEN
                     CASE WHEN z0 >= z2 THEN 1 ELSE 3 END
                ELSE CASE WHEN z0 >= z1 AND z0 >= z2 THEN 1
                          WHEN z1 >= z2 THEN 2 ELSE 3 END END AS BIGINT) AS pos
    FROM z
    """


def q_count_if(sf_dir: str):
    """CountIf (gis_analysis/count_if.rs:239-249): per cell, how many of
    the 3 analytic layers equal 42 — reference semantics: layer-1 cells
    holed to nodata where (row+col)%7==0 are skipped per-layer (they do
    NOT poison the cell), and a cell with zero matches stays NODATA
    (-32768) in the output."""
    import ray.data as rd

    from ..stages.band_math import count_if

    scenes = [_scene(g) for g in _stack_grids(holed=True)]
    spec = scenes[0][1]
    out = count_if([rd.from_items(rows) for rows, _ in scenes], spec, value=42.0)
    return _int_cells(_tiles_to_cells(out, spec, "n42"), "n42")


def q_count_if_sql() -> str:
    return f"""
    WITH {_WIN_G},
    cnt AS (SELECT row, col,
           (CASE WHEN (row * 31 + col * 17) % 97 = 42 THEN 1 ELSE 0 END)
         + (CASE WHEN (row * 13 + col * 29) % 89 = 42
                  AND (row + col) % 7 <> 0 THEN 1 ELSE 0 END)
         + (CASE WHEN (row * 7 + col * 23) % 83 = 42 THEN 1 ELSE 0 END) AS n
            FROM g)
    SELECT row, col,
           CAST(CASE WHEN n > 0 THEN n ELSE -32768 END AS BIGINT) AS n42
    FROM cnt
    """


def q_weighted_sum(sf_dir: str):
    """WeightedSum (gis_analysis/weighted_sum.rs:219-224): 3-layer
    weighted sum; the RAW weights 1/2/1 exercise the reference's
    normalization (weights /= weight_sum -> 0.25/0.5/0.25 — binary
    fractions stay exact through the f32 tile round-trip)."""
    import ray.data as rd

    from ..stages.band_math import overlay

    scenes = [_scene(g) for g in _stack_grids()]
    spec = scenes[0][1]
    out = overlay([rd.from_items(rows) for rows, _ in scenes], spec, op="weighted_sum", weights=[1.0, 2.0, 1.0])
    return _round_cells(_tiles_to_cells(out, spec, "ws"), "ws", 6)


def q_weighted_sum_sql() -> str:
    return f"""
    WITH {_WIN_G}
    SELECT row, col,
           ROUND(0.25 * ((row * 31 + col * 17) % 97)
               + 0.5 * ((row * 13 + col * 29) % 89)
               + 0.25 * ((row * 7 + col * 23) % 83), 6) AS ws
    FROM g
    """


def q_pick_from_list(sf_dir: str):
    """PickFromList (gis_analysis/pick_from_list.rs:16-21): per cell,
    the ZERO-BASED position raster pos = (row+col)%3 selects which of
    the 3 analytic layers to output ('the first image in the stack
    should be assigned the value zero'); position cells holed to nodata
    where (row*3+col)%11==0 leave the output nodata."""
    import ray.data as rd

    from ..stages.band_math import pick_from_list

    scenes = [_scene(g) for g in _stack_grids()]
    spec = scenes[0][1]
    r, c = np.indices((64, 64))
    pos = ((r + c) % 3).astype(np.float64)
    pos[(r * 3 + c) % 11 == 0] = spec.nodata
    out = pick_from_list([rd.from_items(rows) for rows, _ in scenes], rd.from_items(_scene(pos)[0]), spec)
    return _int_cells(_tiles_to_cells(out, spec, "pick"), "pick")


def q_pick_from_list_sql() -> str:
    return f"""
    WITH {_WIN_G}
    SELECT row, col,
           CAST(CASE WHEN (row * 3 + col) % 11 = 0 THEN -32768
                WHEN (row + col) % 3 = 0 THEN (row * 31 + col * 17) % 97
                WHEN (row + col) % 3 = 1 THEN (row * 13 + col * 29) % 89
                ELSE (row * 7 + col * 23) % 83 END AS BIGINT) AS pick
    FROM g
    """


def q_mosaic(sf_dir: str):
    """Mosaic (image_analysis/mosaic.rs:339-520): two analytic sources on
    aligned grids, first-valid-source-wins per dest cell (the reference
    iterates sources in order and breaks on the first non-nodata value,
    :362-370). Source B (32x32, offset one tile into the frame) is listed
    FIRST so it wins inside its window; source A (64x64, full frame)
    fills the rest; dest rows 64-79 are covered by neither -> nodata.
    Runs the fully-distributed route->groupby->overlay path (one source
    passed as a Dataset, one as a Table)."""
    import ray.data as rd

    from ..kernels.grid import GridSpec
    from ..stages.resample import mosaic

    rows_a, spec_a = _scene(_dem_grid())
    sg = spec_a.grid_spec()
    rows_b, spec_b = _scene(_dem_grid(32, 13, 29, 89), west=sg.west + 16 * sg.res_x, north=sg.north - 16 * sg.res_y)
    dest = GridSpec(west=sg.west, north=sg.north, res_x=sg.res_x, res_y=sg.res_y,
                    rows=80, columns=64, nodata=sg.nodata)
    out = mosaic([(rd.from_items(rows_b), spec_b), (rd.from_items(rows_a), spec_a)], dest, dest_tile_px=16, method="nn")
    return _int_cells(_tiles_to_cells(out.drop_columns(["tile_id"]), spec_a, "mz"), "mz")


def q_mosaic_sql() -> str:
    return """
    WITH g AS (SELECT r.r AS row, c.c AS col
               FROM (SELECT unnest(generate_series(0, 79)) AS r) r,
                    (SELECT unnest(generate_series(0, 63)) AS c) c)
    SELECT row, col,
           CAST(CASE
                WHEN row >= 16 AND row < 48 AND col >= 16 AND col < 48
                     THEN ((row - 16) * 13 + (col - 16) * 29) % 89
                WHEN row < 64 THEN (row * 31 + col * 17) % 97
                ELSE -32768 END AS BIGINT) AS mz
    FROM g
    """


def q_farthest_channel_head(sf_dir: str):
    """FarthestChannelHead (stream_network_analysis/
    farthest_channel_head.rs) through the registered Dataset composition
    on the valley DEM: pointer -> BSP accumulation -> ExtractStreams
    (acc > 25, strict) -> terminal-resolution flowpath length + distributed
    link table -> far(c) = maxHeadL(link) - L(c). SQL twin: recursive
    head-to-downstream walk, MAX(dist) per stream cell."""
    import ray.data as rd

    from ..stages.flow import d8_pointer_masked, flow_accumulation_ds
    from ..stages.streams import extract_streams_ds, farthest_channel_head_ds

    rows, spec = _scene(_valley_grid())
    ptr = d8_pointer_masked(rd.from_items(rows), spec)
    acc = flow_accumulation_ds(ptr, spec, num_workers=2)
    streams = extract_streams_ds(acc, spec, threshold=STREAM_THRESHOLD)
    out = farthest_channel_head_ds(streams, ptr, spec, num_workers=2)
    return _round_cells(_valid_cells(_tiles_to_cells(out, spec, "far"), "far", spec.nodata), "far", 4)


def q_farthest_channel_head_sql() -> str:
    move_r = _d8_case("dirs.d", "dr")
    move_c = _d8_case("dirs.d", "dc")
    step_len = _d8_case("dirs.d", "len")
    return f"""
    WITH RECURSIVE
    {_d8_prelude(_VALLEY_Z, materialized=True)},
    walk(src_row, src_col, row, col) AS (
        SELECT row, col, row, col FROM dirs
        UNION ALL
        SELECT w.src_row, w.src_col,
               w.row + ({move_r}), w.col + ({move_c})
        FROM walk w JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        WHERE dirs.d >= 0
    ),
    acc AS (SELECT row, col, COUNT(*) AS acc FROM walk GROUP BY row, col),
    strm AS MATERIALIZED (SELECT row, col FROM acc WHERE acc > {STREAM_THRESHOLD!r}),
    ring(i, dr, dc) AS (VALUES {_D8_RING_VALUES}),
    inflow AS MATERIALIZED (SELECT s.row, s.col
               FROM strm s JOIN ring ON TRUE
               JOIN strm nb ON nb.row = s.row + ring.dr AND nb.col = s.col + ring.dc
               JOIN dirs nd ON nd.row = nb.row AND nd.col = nb.col
               WHERE nd.d = (ring.i + 4) % 8),
    heads AS (SELECT s.row, s.col FROM strm s
              WHERE NOT EXISTS (SELECT 1 FROM inflow i
                                WHERE i.row = s.row AND i.col = s.col)),
    hwalk(row, col, dist) AS (
        SELECT row, col, CAST(0.0 AS DOUBLE) FROM heads
        UNION ALL
        SELECT w.row + ({move_r}), w.col + ({move_c}), w.dist + ({step_len})
        FROM hwalk w
        JOIN dirs ON dirs.row = w.row AND dirs.col = w.col
        JOIN strm nx ON nx.row = w.row + ({move_r}) AND nx.col = w.col + ({move_c})
        WHERE dirs.d >= 0
    )
    SELECT row, col, ROUND(MAX(dist), 4) AS far
    FROM hwalk GROUP BY row, col ORDER BY row, col
    """


def q_breach_depressions(sf_dir: str):
    """BreachDepressions (hydro_analysis/breach_depressions.rs, Lindsay
    2016) through the HIERARCHICAL distributed carve (2x2-tile shards on
    a 4x4-tile scene — pit (28,50)'s search crosses the row-32 shard
    border, so it defers round 1 behind the global min-z cut and lands
    under the shifted offset). Analytic trench DEM: 1-cell-wide
    south-dipping trenches (z = -0.1r) walled by z = 100-0.1r, one pit
    per trench (z - 1). The carve path is forced straight down-trench,
    lowering 11 cells to pz - 0.01k — piecewise-analytic, so the twin
    is closed-form."""
    import ray.data as rd

    from ..stages.fill import breach_hierarchical

    pits = {10: 20, 30: 35, 50: 28}  # trench col -> pit row
    r, c = np.indices((64, 64), dtype=np.int64)
    g = np.where(np.isin(c, (10, 30, 50)), -0.1 * r, 100.0 - 0.1 * r)
    for c0, r0 in pits.items():
        g = np.where((r == r0) & (c == c0), -0.1 * r0 - 1.0, g)
    rows, spec = _scene(g)
    out = breach_hierarchical(rd.from_items(rows), spec, epsilon=0.01, shard_tiles=2)
    return _round_cells(_tiles_to_cells(out, spec, "z"), "z", 4)


def q_breach_depressions_sql() -> str:
    return f"""
    WITH {_WIN_G}
    SELECT row, col, ROUND(CASE
        WHEN col NOT IN (10, 30, 50) THEN 100.0 - 0.1 * row
        WHEN col = 10 AND row = 20 THEN -0.1 * 20 - 1.0
        WHEN col = 10 AND row BETWEEN 21 AND 31
             THEN (-0.1 * 20 - 1.0) - 0.01 * (row - 20)
        WHEN col = 30 AND row = 35 THEN -0.1 * 35 - 1.0
        WHEN col = 30 AND row BETWEEN 36 AND 46
             THEN (-0.1 * 35 - 1.0) - 0.01 * (row - 35)
        WHEN col = 50 AND row = 28 THEN -0.1 * 28 - 1.0
        WHEN col = 50 AND row BETWEEN 29 AND 39
             THEN (-0.1 * 28 - 1.0) - 0.01 * (row - 28)
        ELSE -0.1 * row END, 4) AS z
    FROM g
    """


def q_strahler_links_ds(sf_dir: str):
    """Strahler order through the DATASET link-DAG peel
    (stages/streams.strahler_order_links_ds — the path for link tables
    that outgrow the driver) on a fixed 6-link DAG with one tie junction
    (order bump) and one non-tie junction. The twin enumerates the same
    DAG as VALUES — bit-exact."""
    import pandas as pd
    import ray.data as rd

    from ..stages.streams import strahler_order_links_ds

    link_ds = rd.from_pandas(pd.DataFrame(
        {"link_id": [1, 2, 3, 4, 5, 6],
         "ds_link": [4, 4, 5, 6, 6, -1],
         "length": [1.0] * 6}))
    out = strahler_order_links_ds(link_ds)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"link_id": batch["link_id"].cast(pa.int64()),
                         "ord": batch["val"].cast(pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow")


def q_strahler_links_ds_sql() -> str:
    return """
    SELECT * FROM (VALUES (1, 1), (2, 1), (3, 1), (4, 2), (5, 1), (6, 2))
        AS t(link_id, ord)
    """
