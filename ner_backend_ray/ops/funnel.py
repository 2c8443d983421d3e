"""Ordered-funnel analytics over an event stream.

The product-analytics primitive: how many users completed stage 1, then
stage 2 strictly after their stage-1 time, then stage 3 after that, …
(strict-order funnel with earliest-completion semantics: each stage's
timestamp is the MINIMUM event time that still follows the previous
stage's completion — the greedy choice, which maximizes completions).

Plan shape: users hash-bucket once; inside a bucket the rows sort by
(user, ts) and every stage resolves VECTORIZED across all users at once —
per stage, filter to that stage's events, keep rows later than the user's
previous-stage completion (a searchsorted lookup into the per-user
completion array), and take each user's first remaining row (a boundary
mask on the sorted subset). Only (stage, count) partials leave the bucket.

Scale: one shuffle of (user, ts, type) triples; per-bucket work is
O(rows · stages) vectorized passes; driver sees stages × buckets rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Sum


def funnel_counts(events: ray.data.Dataset, stages: list[str],
                  key_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type",
                  max_gap: int | None = None,
                  n_buckets: int | None = None) -> ray.data.Dataset:
    """(stage, n_users) — users whose events contain the stage sequence in
    strict time order (earliest-completion greedy). ``ts_col`` must be
    int64-castable; ties between stages do NOT advance the funnel (strictly
    greater timestamps required). ``max_gap`` additionally requires each
    stage within ``max_gap`` ts-units of the previous completion — still
    GREEDY (the earliest qualifying event is taken even when waiting would
    keep a later window open); both engine and oracle implement the same
    greedy contract, and drop-off is what makes the check non-degenerate."""
    from .joins import _bucket_of, buckets_for
    n_buckets = n_buckets or buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch[key_col],
                      "ts": batch[ts_col].cast(pa.int64()),
                      type_col: batch[type_col]})
        return t.append_column("__b", _bucket_of(t[key_col], n_buckets))

    def bucket_funnel(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"stage": pa.array([], pa.string()),
                             "pn": pa.array([], pa.int64())})
        idx = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                            ("ts", "ascending")])
        t = g.take(idx)
        k = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
        ts = t["ts"].to_numpy(zero_copy_only=False)
        typ = np.asarray(t[type_col].to_pylist(), dtype=object)

        # users present in this bucket, in sorted order
        newu = np.empty(len(k), dtype=bool)
        newu[0] = True
        newu[1:] = k[1:] != k[:-1]
        users = k[newu]
        # per-user completion time of the previous stage (-inf to start)
        done = np.full(len(users), np.iinfo(np.int64).min, np.int64)
        alive = np.ones(len(users), dtype=bool)
        out_stage, out_n = [], []
        for stage in stages:
            m = typ == stage
            ks, tss = k[m], ts[m]
            # user slot of each candidate row (users is sorted)
            slot = np.searchsorted(users, ks)
            ok = alive[slot] & (tss > done[slot])
            if max_gap is not None and stage != stages[0]:
                ok &= tss <= done[slot] + max_gap
            ks, tss, slot = ks[ok], tss[ok], slot[ok]
            # first (min-ts) qualifying row per user: rows are still in
            # (user, ts) sorted order after boolean masking
            first = np.empty(len(ks), dtype=bool)
            if len(ks):
                first[0] = True
                first[1:] = ks[1:] != ks[:-1]
            reached = slot[first]
            new_done = np.full(len(users), np.iinfo(np.int64).min, np.int64)
            new_done[reached] = tss[first]
            new_alive = np.zeros(len(users), dtype=bool)
            new_alive[reached] = True
            done, alive = new_done, new_alive
            out_stage.append(stage)
            out_n.append(int(new_alive.sum()))
        return pa.table({"stage": pa.array(out_stage, pa.string()),
                         "pn": pa.array(out_n, pa.int64())})

    return (events.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(bucket_funnel,
                                       batch_format="pyarrow")
            .groupby("stage").aggregate(Sum("pn", alias_name="n_users")))


def anyorder_funnel(events: ray.data.Dataset, stages: list[str],
                    window: int, key_col: str = "user_id",
                    ts_col: str = "ts", type_col: str = "event_type",
                    n_buckets: int | None = None) -> ray.data.Dataset:
    """ANY-order funnel: one row ``(n_completed, n_users)`` — users for whom
    SOME window ``[t, t + window]`` (inclusive, ts-units) contains at least
    one event of EVERY stage, in any order. Deterministic set-coverage
    semantics: a user completes iff any of their events anchors a window
    covering all stages (the optimal anchor is always one of the user's own
    events, so checking every event is exact, not a heuristic).

    Per bucket the check is stages × one-searchsorted: rows sort by
    (user, ts); for stage ``s`` the "next s-event at sort index ≥ i" is
    ``searchsorted`` into the stage's row-index subsequence, and the row
    completes iff that event exists, belongs to the same user (user rows
    are contiguous) and starts within ``window``. Only two int64 partials
    per bucket leave the shuffle."""
    from .joins import _bucket_of, buckets_for
    n_buckets = n_buckets or buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch[key_col],
                      "ts": batch[ts_col].cast(pa.int64()),
                      type_col: batch[type_col]})
        return t.append_column("__b", _bucket_of(t[key_col], n_buckets))

    def bucket_cover(g: pa.Table) -> pa.Table:
        empty = pa.table({"pc_": pa.array([], pa.int64()),
                          "pu": pa.array([], pa.int64())})
        if g.num_rows == 0:
            return empty
        idx = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                            ("ts", "ascending")])
        t = g.take(idx)
        k = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
        ts = t["ts"].to_numpy(zero_copy_only=False)
        typ = np.asarray(t[type_col].to_pylist(), dtype=object)
        n = len(k)
        newu = np.empty(n, dtype=bool)
        newu[0] = True
        newu[1:] = k[1:] != k[:-1]
        slot = np.cumsum(newu) - 1          # per-row user slot
        n_users = int(slot[-1]) + 1
        complete = np.ones(n, dtype=bool)
        for s in stages:
            s_idx = np.flatnonzero(typ == s)
            if not len(s_idx):
                complete[:] = False
                break
            pos = np.searchsorted(s_idx, np.arange(n), "left")
            has = pos < len(s_idx)
            j = s_idx[np.minimum(pos, len(s_idx) - 1)]
            complete &= has & (slot[j] == slot) & (ts[j] - ts <= window)
        done = int(len(np.unique(slot[complete])))
        return pa.table({"pc_": pa.array([done], pa.int64()),
                         "pu": pa.array([n_users], pa.int64())})

    row = (events.map_batches(tag, batch_format="pyarrow")
           .groupby("__b").map_groups(bucket_cover, batch_format="pyarrow")
           .aggregate(Sum("pc_", alias_name="n_completed"),
                      Sum("pu", alias_name="n_users")))
    # Dataset.aggregate returns one driver-side row (a dict); re-wrap typed
    return ray.data.from_arrow(pa.table({
        "n_completed": pa.array([int(row["n_completed"] or 0)], pa.int64()),
        "n_users": pa.array([int(row["n_users"] or 0)], pa.int64())}))


def retention_cohorts(events: ray.data.Dataset, period: int,
                      key_col: str = "user_id",
                      ts_col: str = "ts") -> ray.data.Dataset:
    """Cohort retention matrix: ``(cohort, offset, n_users)`` — users whose
    FIRST event falls in period ``cohort`` (``ts // period``) and who have
    ≥1 event in period ``cohort + offset``. The classic product-analytics
    triangle; every offset-0 row counts the whole cohort.

    One user-bucket shuffle resolves everything: a user's first event and
    all their later events land in the same bucket, so the cohort
    assignment, per-period distinct-presence and (cohort, offset) partial
    counts are all bucket-local (sort + boundary mask + one np.unique over
    fused (slot, period) int64 pairs). Only (cohort, offset, n) partials —
    bounded by users × active periods — reach the final groupby."""
    from .joins import _bucket_of, buckets_for
    n_buckets = buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        t = pa.table({key_col: batch[key_col],
                      "ts": batch[ts_col].cast(pa.int64())})
        return t.append_column("__b", _bucket_of(t[key_col], n_buckets))

    return (events.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(
                _bucket_cohorts, batch_format="pyarrow",
                fn_kwargs={"key_col": key_col, "period": period})
            .groupby(["cohort", "offset"])
            .aggregate(Sum("pn", alias_name="n_users")))


def _bucket_cohorts(g: pa.Table, key_col: str, period: int) -> pa.Table:
    """Per-bucket kernel of :func:`retention_cohorts` over (key, "ts") rows:
    (cohort, offset, partial user count)."""
    empty = pa.table({"cohort": pa.array([], pa.int64()),
                      "offset": pa.array([], pa.int64()),
                      "pn": pa.array([], pa.int64())})
    if g.num_rows == 0:
        return empty
    idx = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                        ("ts", "ascending")])
    t = g.take(idx)
    k = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
    per = t["ts"].to_numpy(zero_copy_only=False) // period
    n = len(k)
    newu = np.empty(n, dtype=bool)
    newu[0] = True
    newu[1:] = k[1:] != k[:-1]
    slot = np.cumsum(newu) - 1
    cohort_of = per[newu]               # first (min-ts) period per user
    off = per - cohort_of[slot]
    # distinct (user, offset) pairs; offsets are small (periods since
    # cohort), so slot << 20 | off is collision-free far past any real
    # period count and np.unique stays a single int64 pass
    if int(off.max()) >= (1 << 20):
        raise ValueError(
            f"retention_cohorts: an offset of {int(off.max())} periods "
            "exceeds the fused-key range (< 2**20); use a longer period")
    pairs = np.unique((slot.astype(np.int64) << 20) | off)
    uslot = (pairs >> 20).astype(np.int64)
    uoff = (pairs & ((1 << 20) - 1)).astype(np.int64)
    key = (cohort_of[uslot] << 20) | uoff
    cnt = np.unique(key, return_counts=True)
    return pa.table({"cohort": pa.array(cnt[0] >> 20, pa.int64()),
                     "offset": pa.array(cnt[0] & ((1 << 20) - 1),
                                        pa.int64()),
                     "pn": pa.array(cnt[1].astype(np.int64))})

