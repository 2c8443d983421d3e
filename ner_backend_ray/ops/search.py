"""Ad-hoc group-query search over a mentions table (SURVEY.md §2.9 backend b).

The reference exposes post-hoc search over the persisted entity table by
compiling the group-query DSL to SQL with a correlated COUNT subquery
(internal/core/query_parser.go:294-346; handler internal/api/api.go:706-748).
Equivalents here:

- ``search_mentions`` — Ray-native: ``groupby(doc).map_groups`` evaluating the
  same ``Filter.matches`` tree the inference path uses (semi-join by
  construction, no data leaves the group).
- ``search_mentions_sql`` — DuckDB over the mentions Parquet using
  ``Filter.to_sql`` (the reference's gorm-built SQL, verbatim semantics).

Both backends must agree; tests/test_dsl.py cross-validates them on the fixture.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ..core.dsl import Filter, parse_query
from ..core.entity import Entity


def search_mentions(mentions: ray.data.Dataset, query: str | Filter,
                    doc_col: str = "url",
                    n_buckets: int | None = None) -> ray.data.Dataset:
    """Docs whose entity set satisfies the query → (doc_col) rows.

    Docs are HASH-BUCKETED rather than grouped per doc: the Matches tree is
    inherently per-doc Python, but Ray's per-group machinery (sort-boundary
    slicing + one UDF call per group) dominates at corpus-scale doc counts;
    a bucket group holds every mention of its docs, and the kernel walks
    doc segments off one sorted table."""
    import numpy as np
    import pyarrow.compute as pc

    from .joins import _bucket_of, buckets_for
    filt = parse_query(query) if isinstance(query, str) else query
    n_buckets = n_buckets or buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__b", _bucket_of(batch[doc_col],
                                                     n_buckets))

    def eval_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({doc_col: pa.array([], pa.string())})
        idx = pc.sort_indices(g, sort_keys=[(doc_col, "ascending")])
        t = g.take(idx)
        docs = t[doc_col].to_pylist()
        labels = t["label"].to_pylist()
        texts = t["text"].to_pylist()
        starts = t["start"].to_pylist()
        ends = t["end"].to_pylist()
        d = np.asarray(docs, dtype=object)
        seg = np.empty(len(d), dtype=bool)
        seg[0] = True
        seg[1:] = d[1:] != d[:-1]
        bounds = np.append(np.flatnonzero(seg), len(d))
        hits: list[str] = []
        for i in range(len(bounds) - 1):
            s, e = int(bounds[i]), int(bounds[i + 1])
            by_label: dict[str, list[Entity]] = {}
            for j in range(s, e):
                by_label.setdefault(labels[j], []).append(Entity(
                    label=labels[j], text=texts[j].encode("utf-8"),
                    start=starts[j], end=ends[j],
                    lcontext=b"", rcontext=b""))
            if filt.matches(by_label):
                hits.append(docs[s])
        return pa.table({doc_col: pa.array(hits, pa.string())})

    return (mentions.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(eval_bucket, batch_format="pyarrow"))


def search_mentions_sql(parquet_path: str, query: str | Filter,
                        doc_col: str = "url") -> list[str]:
    """DuckDB backend over mentions Parquet via the DSL's SQL compilation."""
    import duckdb
    filt = parse_query(query) if isinstance(query, str) else query
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW m AS SELECT * FROM parquet_scan('{parquet_path}/*.parquet')")
    sql = (f"SELECT DISTINCT t.{doc_col} FROM m t WHERE "
           + filt.to_sql("m", doc_col) + f" ORDER BY t.{doc_col}")
    return [r[0] for r in con.execute(sql).fetchall()]
