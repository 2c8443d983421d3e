"""Distinct set operations over datasets: INTERSECT / EXCEPT.

Both reduce to one grouped-combiner pass (ops/combine.py) over presence
bits: rows are tagged with a side flag, each block keeps one row per
distinct key with the OR (via max) of each side's flag, the groupby merges
those, and a final filter applies the set predicate. Only distinct rows per
block shuffle — the dedup happens inside the block before anything moves,
so a 100-TB side with a small value domain ships its domain, not its rows.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .combine import combine_by


def _presence(a: ray.data.Dataset, b: ray.data.Dataset,
              cols: list[str]) -> ray.data.Dataset:
    def flag(in_a: int):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return (batch.select(cols)
                    .append_column("in_a", pa.array([in_a] * n, pa.int8()))
                    .append_column("in_b", pa.array([1 - in_a] * n, pa.int8())))
        return f

    both = (a.map_batches(flag(1), batch_format="pyarrow")
            .union(b.map_batches(flag(0), batch_format="pyarrow")))
    return combine_by(both, cols, lambda t: t,
                      {"in_a": ("in_a", "max"), "in_b": ("in_b", "max")})


def distinct_intersect(a: ray.data.Dataset, b: ray.data.Dataset,
                       cols: list[str]) -> ray.data.Dataset:
    """SQL INTERSECT: distinct ``cols`` rows present in BOTH datasets."""
    pres = _presence(a, b, cols)
    return pres.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["in_a"], 1),
                                   pc.equal(t["in_b"], 1))).select(cols),
        batch_format="pyarrow")


def distinct_except(a: ray.data.Dataset, b: ray.data.Dataset,
                    cols: list[str]) -> ray.data.Dataset:
    """SQL EXCEPT: distinct ``cols`` rows of ``a`` absent from ``b``."""
    pres = _presence(a, b, cols)
    return pres.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["in_a"], 1),
                                   pc.equal(t["in_b"], 0))).select(cols),
        batch_format="pyarrow")
