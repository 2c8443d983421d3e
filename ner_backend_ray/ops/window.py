"""Windowed aggregates over an ordered event stream.

Ray Data has no event-time windows (SURVEY.md §2.10 — neither does the reference);
windows are expressed as: assign window id per batch (vectorized) → combiner
partial aggregate per (key, window) → small groupby. Sliding/session windows use
``groupby(key).map_groups`` over ts-sorted groups.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .combine import combine_by


def tumbling_window(events: ray.data.Dataset, ts_col: str = "ts",
                    key_col: str = "event_type", value_col: str = "value",
                    window_us: int = 3_600_000_000) -> ray.data.Dataset:
    """count + sum(value) per (key, tumbling window). Returns columns
    (key, window_start, n_events, sum_value); window_start is epoch micros."""

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64())
        win = pc.multiply(pc.divide(ts, window_us), window_us)  # floor to window
        return pa.table({key_col: batch[key_col], "window_start": win,
                         value_col: batch[value_col]})

    return combine_by(events, [key_col, "window_start"], assign,
                      {"n_events": (None, "count"),
                       "sum_value": (value_col, "sum")})


def sliding_window(events: ray.data.Dataset, ts_col: str = "ts",
                   key_col: str = "event_type", value_col: str = "value",
                   window_us: int = 7_200_000_000,
                   slide_us: int = 3_600_000_000) -> ray.data.Dataset:
    """count + sum(value) per (key, sliding window): each event lands in
    ``window_us / slide_us`` overlapping windows, assigned VECTORIZED per
    batch (repeat + offset — no per-row loop) and pre-aggregated by the same
    combiner-then-groupby shape as the tumbling variant. ``window_us`` must
    be a multiple of ``slide_us``."""
    if window_us % slide_us:
        raise ValueError("window_us must be a multiple of slide_us")
    per_event = window_us // slide_us

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        base = (ts // slide_us) * slide_us
        # windows containing ts: starts base, base - slide, ..., base - (k-1)*slide
        starts = (np.repeat(base, per_event)
                  - np.tile(np.arange(per_event, dtype=np.int64) * slide_us,
                            len(base)))
        idx = pa.array(np.repeat(np.arange(len(base), dtype=np.int64), per_event))
        return pa.table({key_col: pc.take(batch[key_col], idx),
                         "window_start": pa.array(starts),
                         value_col: pc.take(batch[value_col], idx)})

    return combine_by(events, [key_col, "window_start"], assign,
                      {"n_events": (None, "count"),
                       "sum_value": (value_col, "sum")})


def session_windows(events: ray.data.Dataset, ts_col: str = "ts",
                    key_col: str = "user_id",
                    gap_us: int = 1_800_000_000,
                    n_buckets: int | None = None) -> ray.data.Dataset:
    """Per-key session windowing (sorted within key; gap > gap_us splits).
    Returns (session_start, session_end, n_events, key).

    Keys are HASH-BUCKETED, not grouped per key: a ``groupby(key)``
    .map_groups pays one Python UDF call per key — fine at thousands of
    users, fatal at the millions a 100-TB event log carries. Each bucket
    group holds every row of its keys, so one vectorized sort by
    (key, ts) + a boundary mask (key change OR gap) computes every
    session in the bucket with zero per-key Python."""
    from .joins import _bucket_of, buckets_for
    n_buckets = n_buckets or buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__b", _bucket_of(batch[key_col],
                                                     n_buckets))

    def bucket_sessions(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"session_start": g[ts_col],
                             "session_end": g[ts_col],
                             "n_events": pa.array([], pa.int64()),
                             key_col: g[key_col]})
        idx = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                            (ts_col, "ascending")])
        t = g.take(idx)
        k = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = len(k)
        newseg = np.empty(n, dtype=bool)
        newseg[0] = True
        newseg[1:] = (k[1:] != k[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
        starts = np.flatnonzero(newseg)
        ends = np.append(starts[1:], n) - 1
        return pa.table({
            "session_start": pc.take(t[ts_col], pa.array(starts)),
            "session_end": pc.take(t[ts_col], pa.array(ends)),
            "n_events": pa.array(np.diff(np.append(starts, n))
                                 .astype(np.int64)),
            key_col: pc.take(t[key_col], pa.array(starts))})

    return (events.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(bucket_sessions,
                                       batch_format="pyarrow"))


def partitioned_range_sum(events: ray.data.Dataset, key_col: str,
                          ts_col: str, value_col: str,
                          win: int,
                          n_buckets: int | None = None) -> ray.data.Dataset:
    """SQL RANGE-frame window: per ``key_col``, ordered by ``ts_col``
    (int64), the inclusive sum of ``value_col`` over
    [ts − win, ts] — i.e. ``SUM(v) OVER (PARTITION BY key ORDER BY ts
    RANGE BETWEEN win PRECEDING AND CURRENT ROW)``, peers (equal ts)
    included, exactly as SQL defines CURRENT ROW for RANGE frames.

    Fully vectorized across every partition in a bucket: rows sort by
    (key, ts); each segment's timestamps are lifted onto disjoint int64
    lanes (segment_id · lane + (ts − segment min), lane sized to the data
    as max_span + win + 1 and the full n_segments · lane product checked
    against int64 — a fixed lane width would silently wrap negative once a
    bucket holds ~2^19 keys) so ONE global searchsorted finds every row's
    frame start and the frame sum is a cumsum difference — no per-key
    Python, no per-row loop. Lane disjointness needs lane > max_span + win:
    a frame start comp − win then lands strictly above the previous lane's
    maximum occupied slot, so searchsorted can never cross segments.

    Returns (key, ts, value, range_sum) rows."""
    from .joins import _bucket_of, buckets_for
    n_buckets = n_buckets or buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__b", _bucket_of(batch[key_col],
                                                     n_buckets))

    def range_bucket(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["__b"])
        if t.num_rows == 0:
            return t.append_column("range_sum", pa.array([], pa.int64()))
        idx = pc.sort_indices(g, sort_keys=[(key_col, "ascending"),
                                            (ts_col, "ascending")])
        t = g.take(idx).drop_columns(["__b"])
        k = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
        ts = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = t[value_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = len(k)
        newseg = np.empty(n, dtype=bool)
        newseg[0] = True
        newseg[1:] = k[1:] != k[:-1]
        seg_id = np.cumsum(newseg) - 1
        starts = np.flatnonzero(newseg)
        seg_min = ts[starts]
        span = ts - seg_min[seg_id]
        # Lane width sized to the data; exact-int guard on the full extent
        # so comp can never wrap int64 (a wrapped comp is no longer sorted
        # and searchsorted returns silently wrong frames).
        lane = int(span.max()) + int(win) + 1
        if int(len(starts)) * lane > (1 << 63) - 1:
            raise ValueError(
                "partitioned_range_sum: n_segments * (max span + win + 1) "
                f"= {len(starts)} * {lane} exceeds int64; raise n_buckets "
                "so fewer keys land in one bucket")
        comp = seg_id.astype(np.int64) * np.int64(lane) + span
        left = np.searchsorted(comp, comp - win, side="left")
        right = np.searchsorted(comp, comp, side="right")  # peers included
        cum = np.concatenate([[0], np.cumsum(v, dtype=np.int64)])
        rng = cum[right] - cum[left]
        return t.append_column("range_sum", pa.array(rng))

    return (events.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(range_bucket,
                                       batch_format="pyarrow"))


def partitioned_running(events: ray.data.Dataset, key_col: str,
                        order_cols: list[str], value_col: str,
                        lag_fill: int = -1,
                        n_buckets: int | None = None) -> ray.data.Dataset:
    """SQL window functions as a dataflow op: per-``key_col`` partition,
    ordered by ``order_cols``, emit running sum, lag(value) and row_number
    over ``value_col`` (int64 — callers fix-point floats first so the math
    is exact on both engine and oracle).

    Plan shape: one hash-bucket shuffle (NOT one Python map_groups call per
    key — see :func:`session_windows`); inside each bucket one vectorized
    sort by (key, *order_cols) + segment-masked cumsum/shift computes every
    partition at once. ``order_cols`` must totally order rows within a key
    for deterministic output (true for per-event streams with an id
    tiebreak). Buckets must fit a worker; a single key whose history
    exceeds that needs range-partitioning by (key, time) with carry-in
    offsets, which is the checkpointed runner's segment pattern, not this
    op's.

    Returns all input columns plus ``running`` (cumulative sum inclusive),
    ``prev`` (lagged value, ``lag_fill`` for the partition head) and ``rn``
    (1-based dense position)."""
    from .joins import _bucket_of, buckets_for
    n_buckets = n_buckets or buckets_for(0)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__b", _bucket_of(batch[key_col],
                                                     n_buckets))

    def analyze_bucket(g: pa.Table) -> pa.Table:
        t = g.drop_columns(["__b"])
        if t.num_rows == 0:
            empty = pa.array([], pa.int64())
            return (t.append_column("running", empty)
                     .append_column("prev", empty)
                     .append_column("rn", empty))
        idx = pc.sort_indices(
            g, sort_keys=[(key_col, "ascending")]
            + [(c, "ascending") for c in order_cols])
        t = g.take(idx).drop_columns(["__b"])
        k = np.asarray(t[key_col].to_numpy(zero_copy_only=False))
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(k)
        newseg = np.empty(n, dtype=bool)
        newseg[0] = True
        newseg[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(newseg)
        seg_id = np.cumsum(newseg) - 1
        cum = np.cumsum(v)
        base = np.zeros(len(starts), np.int64)
        base[1:] = cum[starts[1:] - 1]
        running = cum - base[seg_id]
        prev = np.empty(n, np.int64)
        prev[1:] = v[:-1]
        prev[starts] = lag_fill
        rn = np.arange(n, dtype=np.int64) - starts[seg_id] + 1
        return (t.append_column("running", pa.array(running))
                 .append_column("prev", pa.array(prev))
                 .append_column("rn", pa.array(rn)))

    return (events.map_batches(tag, batch_format="pyarrow")
            .groupby("__b").map_groups(analyze_bucket,
                                       batch_format="pyarrow"))


def trailing_active_counts(events: ray.data.Dataset,
                           key_col: str = "user_id", ts_col: str = "ts",
                           period: int = 86_400_000_000,
                           window: int = 7,
                           n_buckets: int | None = None) -> ray.data.Dataset:
    """(day, n_active) — distinct keys active in the trailing ``window``
    periods ``[day - window + 1, day]``, for every period present in the
    data: the DAU/WAU/MAU rollup. Sliding COUNT(DISTINCT) has no
    distributive partial, so the plan EXPLODES each distinct (period, key)
    activity fact to the ``window`` period-ends it supports (np.repeat, ≤7×
    on scalar rows) and re-distincts per key-hash bucket — one fused-int
    np.unique per bucket, only (day, partial) rows shuffle again. The
    present-days filter is a driver broadcast bounded by the calendar
    (≤ a few thousand rows at any horizon), not by the data.
    """
    from ray.data.aggregate import Sum
    from .joins import _bucket_of, buckets_for
    n_buckets = n_buckets or buckets_for(0)

    def day_pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "day": pc.divide(batch[ts_col].cast(pa.int64()),
                             pa.scalar(period, pa.int64())),
            "k": batch[key_col].cast(pa.int64())})
        return t.group_by(["day", "k"]).aggregate([])  # batch-distinct

    facts = events.map_batches(day_pairs, batch_format="pyarrow")

    # present periods: one tiny table (bounded by the calendar)
    days_present = sorted({r["day"] for r in
                           facts.groupby("day").count().select_columns(
                               ["day"]).take_all()})
    days_arr = np.asarray(days_present, np.int64)

    def explode(batch: pa.Table) -> pa.Table:
        d = batch["day"].to_numpy(zero_copy_only=False)
        k = batch["k"].to_numpy(zero_copy_only=False)
        d = np.repeat(d, window) + np.tile(np.arange(window, dtype=np.int64),
                                           len(k))
        k = np.repeat(k, window)
        keep = np.isin(d, days_arr)          # only windows anchored at data
        t = pa.table({"day": pa.array(d[keep], pa.int64()),
                      "k": pa.array(k[keep], pa.int64())})
        return t.append_column("__b", _bucket_of(t["k"], n_buckets))

    def bucket_distinct_counts(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"day": pa.array([], pa.int64()),
                             "pn": pa.array([], pa.int64())})
        t = g.select(["day", "k"]).group_by(["day", "k"]).aggregate([])
        vc = t.group_by("day").aggregate([([], "count_all")])
        return vc.rename_columns(["day", "pn"])

    return (facts.map_batches(explode, batch_format="pyarrow")
            .groupby("__b").map_groups(bucket_distinct_counts,
                                       batch_format="pyarrow")
            .groupby("day").aggregate(Sum("pn", alias_name="n_active")))
