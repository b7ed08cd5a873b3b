"""Driver-gate emulation: run every queries() entry at sf0.01 and compare
against its oracle_sql() twin in DuckDB — row count, schema (column
names), and values after the driver's sort-columns-by-name convention."""

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
    rows-only ``n >= 0`` check below; pin the rows-only set exactly."""
    import __ray_entry__ as e

    queries, sqls = set(e.queries()), set(e.oracle_sql())
    assert sqls - queries == set(), "oracle_sql() keys with no query"
    assert queries - sqls == ROWS_ONLY_GATES


@pytest.mark.parametrize("name", all_query_names())
def test_query_matches_oracle(entrymod, duck, name):
    q = entrymod.queries()[name]
    sql = entrymod.oracle_sql().get(name)
    ray_out = q(SF_DIR)
    if sql is None:
        # rows-only check (driver's weaker gate for non-SQL-expressible ops)
        if isinstance(ray_out, pd.DataFrame):
            n = len(ray_out)
        else:
            n = ray_out.count() if hasattr(ray_out, "count") else len(ray_out)
        assert n >= 0
        return
    oracle = duck.execute(sql).df()
    compare(ray_out, oracle)


def test_entry_smoke(entrymod):
    out = entrymod.entry()
    n = out.count() if hasattr(out, "count") else len(out)
    assert n >= 0
    assert out.schema() is not None
