"""Driver-gate emulation: run every queries() entry at sf0.01 and compare
against its oracle_sql() twin in DuckDB — row count, schema (column
names), and values after the driver's sort-columns-by-name convention."""

import inspect

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as e

    return e


@pytest.fixture(scope="module")
def gates(entrymod):
    """(queries(), oracle_sql()), built once: each call builds every SQL twin."""
    return entrymod.queries(), entrymod.oracle_sql()


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df.columns = [c.lower() for c in df.columns]
    df = df[sorted(df.columns)]
    sort_cols = list(df.columns)
    df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    return df


def compare(ray_out, oracle_df):
    if hasattr(ray_out, "to_pandas"):
        ray_df = ray_out.to_pandas()
    else:
        ray_df = pd.DataFrame(ray_out)
    a = normalize(ray_df)
    b = normalize(oracle_df)
    assert list(a.columns) == list(b.columns), f"schema mismatch {a.columns} vs {b.columns}"
    assert len(a) == len(b), f"row count {len(a)} vs {len(b)}"
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        ak, bk = np.asarray(av).dtype.kind, np.asarray(bv).dtype.kind
        # The driver's value hash is dtype-kind- and bit-sensitive (the
        # r4 verdict adjudicated 6 hash-false rows down to int-vs-float
        # SUM dtype and -0.0 vs 0.0): mirror that here. Ints of any
        # width hash alike; float bits must match exactly (incl. the
        # sign of zero); an int column vs a float column is a FAIL even
        # when values are numerically equal.
        num = {"i", "u", "f", "b"}
        if ak in num and bk in num:
            a_f = ak == "f"
            b_f = bk == "f"
            assert a_f == b_f, (
                f"dtype-kind mismatch in {c}: engine {np.asarray(av).dtype} "
                f"vs oracle {np.asarray(bv).dtype} (driver hash is dtype-sensitive)"
            )
            if a_f:
                ab = np.asarray(av, dtype=np.float64).view(np.int64)
                bb = np.asarray(bv, dtype=np.float64).view(np.int64)
                assert np.array_equal(ab, bb), (
                    f"float bit mismatch in {c}: "
                    f"{np.asarray(av)[ab != bb][:5]} vs {np.asarray(bv)[ab != bb][:5]}"
                )
            else:
                assert np.array_equal(
                    np.asarray(av, dtype=np.int64), np.asarray(bv, dtype=np.int64)
                ), f"value mismatch in {c}"
        else:
            assert list(av) == list(bv), f"value mismatch in {c}"


def all_query_names():
    import __ray_entry__ as e

    return sorted(e.queries().keys())


# gates with no SQL twin: checked by row count only
ROWS_ONLY_GATES = {
    "ann_lsh",
    "image_decode",
    "kmeans_clusters",
    "lang_pred",
    "minhash_pairs",
    "pca_project",
    "simhash_pairs",
}


def test_gate_tables_agree():
    """A key missing from oracle_sql() silently demotes its gate to the
    rows-only checks below; pin the rows-only set exactly."""
    import __ray_entry__ as e

    queries, sqls = set(e.queries()), set(e.oracle_sql())
    assert sqls - queries == set(), "oracle_sql() keys with no query"
    assert queries - sqls == ROWS_ONLY_GATES


def test_gate_names_unique():
    """A dict literal drops a repeated key without a word; the table keeps it."""
    import __ray_entry__ as e

    names = [name for name, _, _ in e._gates()]
    dupes = {n for n in names if names.count(n) > 1}
    assert not dupes, dupes


def test_gate_signatures():
    """Every gate query takes only ``sf_dir`` and every SQL builder takes
    nothing, so a value both sides must agree on lives in one constant."""
    import __ray_entry__ as e
    from whitebox_tools_ray.pipelines import relational as R

    for name, q, _ in e._gates():
        assert list(inspect.signature(q).parameters) == ["sf_dir"], name
    for fname, fn in vars(R).items():
        if fname.startswith("q_") and fname.endswith("_sql") and callable(fn):
            assert not inspect.signature(fn).parameters, fname


def check_rows_only(name, df, duck):
    """What each rows-only gate's input fixes about its output (these
    gates have no SQL twin to compare against)."""

    def rows_in(table):
        return duck.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    if name in ("image_decode", "pca_project"):
        assert len(df) == rows_in("embeddings"), "one row per embedding"
        assert df["vec_id"].is_unique
    elif name == "kmeans_clusters":
        assert 1 <= len(df) <= 4
        assert df["n"].sum() == rows_in("embeddings")
    elif name == "lang_pred":
        assert df["n"].sum() == rows_in("documents")
    elif name == "ann_lsh":
        assert 1 <= len(df) <= 10
    elif name in ("minhash_pairs", "simhash_pairs"):
        # sf0.01 holds 25 exact word-trigram near-dup pairs (jaccard_pairs)
        assert len(df) > 0, "no pairs"
        assert (df["id_a"] != df["id_b"]).all(), "self pair"
        assert not df.duplicated(["id_a", "id_b"]).any(), "repeated pair"
    else:
        raise AssertionError(f"no rows-only check for {name}")


@pytest.mark.parametrize("name", all_query_names())
def test_query_matches_oracle(gates, duck, name):
    queries, sqls = gates
    q = queries[name]
    sql = sqls.get(name)
    ray_out = q(SF_DIR)
    if sql is None:
        check_rows_only(name, ray_out if isinstance(ray_out, pd.DataFrame) else ray_out.to_pandas(), duck)
        return
    oracle = duck.execute(sql).df()
    compare(ray_out, oracle)


def test_entry_smoke(entrymod):
    """entry() is the clip_points_convex gate on sf0.001: bit-strict
    against its twin there."""
    import os

    import duckdb

    from whitebox_tools_ray.pipelines import relational as R

    sf = os.path.join(os.path.dirname(SF_DIR), "sf0.001")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{sf}/lineitem.parquet')")
    oracle = con.execute(R.q_clip_points_convex_sql()).df()
    assert len(oracle) > 0
    compare(entrymod.entry(), oracle)
