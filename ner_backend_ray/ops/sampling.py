"""Deterministic sampling and dataset-splitting ops (training-data family).

A training corpus is split train/valid/test ONCE and the assignment must
survive re-runs, repartitioning, and cluster-size changes — so the split is a
pure function of a stable key, never of row order or `random()`. Both ops
here are shuffle-free in the assignment: `hash_split` is a stateless
`map_batches` pass (each row's split follows from its key alone), and
`stratified_sample` moves only ~k rows per group through the one small
groupby, via the same local-top-k combiner the ordered-analytics queries use.

Two key hashes are provided:

* ``splitmix64`` (default) — full-avalanche 64-bit mix; what production
  splits should use (sequential ids land uniformly).
* ``knuth32`` — Knuth's multiplicative hash ``(key · 2654435761) mod 2^32``.
  Weaker mixing, but exactly expressible in ANSI SQL
  (``(key * 2654435761) % 4294967296``), which is what makes the driver's
  DuckDB oracle able to recompute the split bit-for-bit. The registered
  queries pin ``knuth32`` for that reason; the op itself defaults to the
  stronger mix.

Reference parity note: the reference samples finetune rows via reservoir
selection in Go (`internal/core/bolt_unix.go:152-168` consumes a sample CSV);
this module is the corpus-scale generalization the reference never needed —
cited per SURVEY.md §2.10 (training-data ops).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .combine import topk_by
from .sketch import splitmix64

KNUTH32 = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)


def knuth32(keys: np.ndarray) -> np.ndarray:
    """``(key · 2654435761) mod 2^32`` as uint64 — SQL-expressible (see
    module docstring); input must be a non-negative integer array."""
    with np.errstate(over="ignore"):
        return (np.asarray(keys).astype(np.uint64) * KNUTH32) & _M32


_HASHES = {"splitmix64": lambda v: splitmix64(v), "knuth32": knuth32}


def _bucket100(keys, hash_fn: str) -> np.ndarray:
    """Deterministic bucket in [0, 100) from the hash's HIGH bits (low bits
    of a multiplicative hash are weak): floor(h / range · 100)."""
    h = _HASHES[hash_fn](keys)
    if hash_fn == "knuth32":
        # h < 2^32 so h·100 fits uint64: floor(h·100 / 2^32), exact
        return ((h * np.uint64(100)) >> np.uint64(32)).astype(np.int64)
    # 64-bit range: avoid 128-bit math by bucketing against precomputed
    # boundaries i·floor(2^64/100) — deterministic, monotone, uniform to
    # within one part in 2^57 per bucket
    bounds = (np.arange(1, 100, dtype=np.uint64) *
              np.uint64(184467440737095516))
    return np.searchsorted(bounds, h, side="right").astype(np.int64)


def hash_split(ds: ray.data.Dataset, key: str,
               fractions: dict[str, int] | None = None,
               hash_fn: str = "splitmix64") -> ray.data.Dataset:
    """Append a ``split`` column assigning each row to a named split by
    hashing ``key`` into a percent bucket. ``fractions`` maps split name →
    cumulative upper percent bound in iteration order (default
    ``{"train": 80, "valid": 90, "test": 100}``). Stateless per batch — no
    shuffle, no RNG, stable under any re-partitioning."""
    fr = fractions or {"train": 80, "valid": 90, "test": 100}
    names = list(fr.keys())
    uppers = np.array(list(fr.values()), np.int64)
    if uppers[-1] != 100 or not np.all(np.diff(uppers) > 0):
        raise ValueError("fractions must be increasing cumulative bounds ending at 100")

    def assign(batch: pa.Table) -> pa.Table:
        b = _bucket100(batch[key].to_numpy(zero_copy_only=False), hash_fn)
        lab = np.array(names, object)[np.searchsorted(uppers, b, side="right")]
        return batch.append_column("split", pa.array(lab, pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(ds: ray.data.Dataset, group_col: str, key_col: str,
                      k: int, hash_fn: str = "splitmix64") -> ray.data.Dataset:
    """Deterministic k-per-group sample: the k rows with the smallest
    ``(hash(key), key)`` per group — a uniform-without-replacement draw that
    is reproducible and order-free. Local top-k combiner per batch (only
    ≤ k·groups rows reach the shuffle) → per-group final top-k; the exact
    shape of the grouped-ordered-analytics plan, keyed by hash rank instead
    of a value column. Output keeps all input columns plus ``h`` (the hash,
    kept uint64 so its sort order IS the hash order — an int64 cast would
    flip the top half — and exposed so an oracle can recompute the draw)."""

    def with_hash(batch: pa.Table) -> pa.Table:
        h = _HASHES[hash_fn](batch[key_col].to_numpy(zero_copy_only=False))
        return batch.append_column("h", pa.array(h, pa.uint64()))

    return topk_by(ds.map_batches(with_hash, batch_format="pyarrow"),
                   group_col, [("h", "ascending"), (key_col, "ascending")], k)
