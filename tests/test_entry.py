"""Driver-gate rehearsal: every queries() entry runs, and every oracle_sql()
entry matches the Ray result on row count, column names and (order-insensitive)
values — the same comparison the driver performs at sf=0.01."""

import importlib.util
import math
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings")


def _load_entry():
    spec = importlib.util.spec_from_file_location("__ray_entry__",
                                                  "/root/repo/__ray_entry__.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    return _load_entry()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return c


def _to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(9)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


SQL_CHECKED = sorted(set((_load_entry()).oracle_sql()))


def _fields(schema: pa.Schema) -> dict[str, pa.DataType]:
    return {f.name: f.type for f in schema}


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(entry_mod, con, name):
    """Values, plus the Arrow field names and types (in any column order):
    the value compare alone ignores dtypes, so a combiner that widened or
    narrowed a column would otherwise pass."""
    _assert_matches_oracle(entry_mod, con, name)


def _assert_matches_oracle(entry_mod, con, name):
    from ner_backend_ray.pipelines.queries import _collect_table
    res = _collect_table(entry_mod.queries()[name](SF_DIR))
    sql_res = con.sql(entry_mod.oracle_sql()[name]).arrow()
    assert _fields(res.schema) == _fields(sql_res.schema), (res.schema,
                                                           sql_res.schema)
    got = _norm(res.to_pandas())
    want = _norm(sql_res.to_pandas())
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), (len(got), len(want))
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                  rtol=1e-9, atol=1e-9)


def test_kg_queries_under_small_phase1_target(entry_mod, con, monkeypatch):
    """The kg_* queries over a fresh flagship run whose phase-1 target is
    forced to 1 MiB: every cached KG table runs under the session's target
    (the graph does not inherit the tag output's), and each query still
    matches its oracle."""
    import ray.data

    from ner_backend_ray.pipelines import kg, queries

    monkeypatch.setattr(kg, "phase1_block_target", lambda: 2**20)
    monkeypatch.setattr(queries, "_KG_CACHE", {})
    session = ray.data.DataContext.get_current().target_max_block_size
    assert session != 2**20
    tables = queries.kg_results(SF_DIR)
    assert {name: ds.context.target_max_block_size for name, ds in tables.items()} == {
        name: session for name in tables}
    names = [n for n in SQL_CHECKED if n.startswith("kg_")]
    assert len(names) >= 5, names
    for name in names:
        _assert_matches_oracle(entry_mod, con, name)


def test_rows_only_queries_run(entry_mod):
    qs = entry_mod.queries()
    rows_only = sorted(set(qs) - set(entry_mod.oracle_sql()))
    for name in rows_only:
        res = qs[name](SF_DIR)
        df = _to_pandas(res)
        assert df is not None
        assert len(df.columns) > 0


def test_entry_smoke(entry_mod):
    ds = entry_mod.entry()
    df = _to_pandas(ds)
    assert len(df) > 0
