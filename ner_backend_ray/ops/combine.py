"""Grouped combiner: a per-batch Arrow partial, then one Ray groupby final.

``combine_by(ds, keys, project, aggs)`` is the engine's one combiner (the
SURVEY.md §2.5 A1 pattern). Its contract:

* ``project(batch)`` turns one input batch into a table holding the ``keys``
  columns and every column ``aggs`` reads. It may filter or explode rows,
  and on an empty batch it must still return typed columns; the partial of
  an empty batch is then a typed empty table.
* ``aggs`` maps each output column name to ``(column, op)``, where ``op`` is
  ``"sum"``, ``"count"``, ``"min"`` or ``"max"``. ``"count"`` counts rows and
  ignores ``column`` (pass ``None``).
* ``project`` and the Arrow ``group_by`` partial run in the same map task,
  so each block sends at most one row per distinct key to the shuffle. The
  Ray ``groupby(keys).aggregate`` final merges the partials: sums and counts
  with ``Sum``, extremes with ``Min``/``Max``. Every op is associative, so
  the result does not depend on block boundaries.
* The output columns are ``keys`` then ``aggs``, in the order given.
  ``count`` and integer sums are int64, and the Ray final widens every
  integer column, keys included, to int64 and float32 to float64; an oracle
  that must match types reads int64/float64 inputs.

``topk_by(ds, group, order, k)`` is the local top-k combiner (SQL
``row_number() OVER (PARTITION BY group ORDER BY order) <= k``): each batch
keeps its first ``k`` rows per group, so at most ``k`` rows per group per
block reach the shuffle, and a per-group final top-k picks the result.
``segment_rank`` is its rank kernel: over rows sorted by group, each row's
position inside its group.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Max, Min, Sum

_FINAL = {"sum": Sum, "count": Sum, "min": Min, "max": Max}


def combine_by(ds: ray.data.Dataset, keys: str | list[str],
               project: Callable[[pa.Table], pa.Table],
               aggs: dict[str, tuple[str | None, str]]) -> ray.data.Dataset:
    """Grouped ``aggs`` of ``project(batch)`` per ``keys`` (module docstring)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    spec = [([], "count_all") if op == "count" else (col, op)
            for col, op in aggs.values()]
    names = keys + list(aggs)

    def partial(batch: pa.Table) -> pa.Table:
        return project(batch).group_by(keys).aggregate(spec).rename_columns(
            names)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(keys)
            .aggregate(*[_FINAL[op](name, alias_name=name)
                         for name, (_, op) in aggs.items()]))


def segment_rank(sorted_keys: np.ndarray) -> np.ndarray:
    """0-based position of each row within its run of equal ``sorted_keys``
    (rows already sorted by key), with no per-row Python."""
    new = np.ones(len(sorted_keys), dtype=bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(new)
    return np.arange(len(sorted_keys)) - starts[np.cumsum(new) - 1]


def topk_by(ds: ray.data.Dataset, group: str,
            order: list[tuple[str, str]], k: int) -> ray.data.Dataset:
    """The first ``k`` rows per ``group`` value under ``order`` (a
    ``pc.sort_indices`` sort-key list), all columns kept (module docstring)."""
    def local(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        t = batch.take(pc.sort_indices(
            batch, sort_keys=[(group, "ascending")] + order))
        rank = segment_rank(t[group].to_numpy(zero_copy_only=False))
        return t.filter(pa.array(rank < k))

    def final(g: pa.Table) -> pa.Table:
        return g.take(pc.sort_indices(g, sort_keys=order)[:k])

    return (ds.map_batches(local, batch_format="pyarrow")
            .groupby(group).map_groups(final, batch_format="pyarrow"))
