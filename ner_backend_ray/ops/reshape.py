"""Reshaping aggregates: pivot/crosstab and ROLLUP grouping sets.

Both are thin compositions over the engine's combiner-partial pattern — the
point of putting them in the op library is the PLAN SHAPE, not the kernel:

* ``pivot_counts`` — the SQL ``SUM(CASE WHEN col=c THEN 1 END)`` pivot,
  written the same way: one 0/1 column per category summed by the grouped
  combiner, so each block sends at most one wide row per row key to the
  shuffle however long the fact table is.
* ``rollup_expand`` — hierarchical grouping sets. The ONLY distributed work
  a rollup needs is the finest-level aggregate (every coarser level is a
  re-aggregation of it), so callers run their normal combiner groupby and
  hand the small finest table here; the expansion never re-scans or
  re-shuffles the fact table. Coarser levels fill dropped keys with a
  sentinel (SQL's GROUPING() → 'ALL').
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .combine import combine_by


def pivot_counts(ds: ray.data.Dataset, row_key: str, col_key: str,
                 categories: list[str]) -> ray.data.Dataset:
    """One wide row per ``row_key``: a count column per category (unlisted
    category values still count toward ``total``, mirroring SQL's
    ``count(*)`` alongside the CASE pivots)."""
    cats = list(categories)

    def one_hot(batch: pa.Table) -> pa.Table:
        col = batch[col_key]
        cols = {row_key: batch[row_key]}
        cols.update({c: pc.equal(col, c).fill_null(False).cast(pa.int64())
                     for c in cats})
        return pa.table(cols)

    return combine_by(ds, row_key, one_hot,
                      {**{c: (c, "sum") for c in cats},
                       "total": (None, "count")})


def rollup_expand(finest: pa.Table, levels: list[str],
                  value_cols: list[str], sentinel: str = "ALL") -> pa.Table:
    """Expand a finest-level aggregate into ROLLUP(levels) rows: the finest
    rows themselves plus, for each prefix of ``levels`` (down to the grand
    total), a re-aggregation with the dropped level columns set to
    ``sentinel``. Values must be summable (the combiner invariant every
    aggregate in this engine already satisfies). Runs driver-side on a table
    that is at most |finest-level key combinations| rows — by construction
    tiny, whatever the fact-table size."""
    finest = finest.select(levels + value_cols)
    pieces = [finest]
    for depth in range(len(levels) - 1, -1, -1):
        keys = levels[:depth]
        if keys:
            agg = finest.group_by(keys).aggregate(
                [(v, "sum") for v in value_cols])
            agg = agg.rename_columns(keys + value_cols)  # keys-first
        else:
            agg = pa.table({v: pa.array([pc.sum(finest[v]).as_py()],
                                        finest.schema.field(v).type)
                            for v in value_cols})
        cols = {lv: (agg[lv] if lv in agg.column_names
                     else pa.array([sentinel] * agg.num_rows, pa.string()))
                for lv in levels}
        cols.update({v: agg[v] for v in value_cols})
        pieces.append(pa.table(cols))
    return pa.concat_tables(pieces)


def cube_expand(finest: pa.Table, levels: list[str],
                value_cols: list[str], sentinel: str = "ALL") -> pa.Table:
    """Expand a finest-level aggregate into CUBE(levels) rows — every subset
    of ``levels`` (2^k grouping sets), dropped columns set to ``sentinel``.
    Same contract as :func:`rollup_expand` (summable values, driver-side on
    the tiny finest table); the fact table is still scanned and shuffled
    exactly once, whatever k is."""
    finest = finest.select(levels + value_cols)
    pieces = []
    for mask in range(1 << len(levels)):
        keys = [lv for i, lv in enumerate(levels) if mask & (1 << i)]
        if len(keys) == len(levels):
            agg = finest
        elif keys:
            agg = finest.group_by(keys).aggregate(
                [(v, "sum") for v in value_cols])
            agg = agg.rename_columns(keys + value_cols)  # keys-first
        else:
            agg = pa.table({v: pa.array([pc.sum(finest[v]).as_py()],
                                        finest.schema.field(v).type)
                            for v in value_cols})
        cols = {lv: (agg[lv] if lv in agg.column_names
                     else pa.array([sentinel] * agg.num_rows, pa.string()))
                for lv in levels}
        cols.update({v: agg[v] for v in value_cols})
        pieces.append(pa.table(cols))
    return pa.concat_tables(pieces)


def melt(ds: ray.data.Dataset, id_cols: list[str], value_cols: list[str],
         var_name: str = "variable",
         value_name: str = "value") -> ray.data.Dataset:
    """UNPIVOT: one output row per (input row × value column). Stateless and
    vectorized — each batch emits len(value_cols) column-slices concatenated,
    so the op is a pure map with output exactly |rows|·|value_cols|; zero
    cells are kept (melt is the exact inverse of the pivot layout, not a
    sparse groupby)."""

    def f(batch: pa.Table) -> pa.Table:
        pieces = []
        for vc in value_cols:
            cols = {c: batch[c] for c in id_cols}
            cols[var_name] = pa.array([vc] * batch.num_rows, pa.string())
            cols[value_name] = batch[vc]
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return ds.map_batches(f, batch_format="pyarrow")
