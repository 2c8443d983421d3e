#!/usr/bin/env python
"""Benchmark harness — one JSON line on stdout.

Default: times the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS
[default 32]). The KG flagship runs over the deterministic pages fixture at the
matching scale factor (synthesized and cached under /tmp).
"""

from __future__ import annotations

import argparse
import json
import os
import time

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

BENCH_QUERIES = [
    "dedup_exact", "minhash_neardups", "quality_filter", "regex_mention_runs",
    "pricing_summary", "tumbling_window", "sessions", "join_lineitem_part",
    "ann_topk",
]


def _cpu_sample() -> tuple[int, int]:
    """(total_jiffies, steal_jiffies) from /proc/stat — the hypervisor's
    involuntary-wait counter. Deltas around a timed leg give the leg's steal%."""
    with open("/proc/stat") as f:
        vals = list(map(int, f.readline().split()[1:]))
    return sum(vals), vals[7] if len(vals) > 7 else 0


def _sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base[2:]) if base.startswith("sf") else 0.1
    except ValueError:
        return 0.1


def _consume(result) -> int:
    """Force execution; return row count."""
    if hasattr(result, "count"):
        return result.count()
    return len(result)


def _warmup():
    """Spin up the worker pool so cluster cold-start isn't attributed to the
    first timed pipeline."""
    import ray.data
    ray.data.range(1000, override_num_blocks=32).map_batches(
        lambda b: b, batch_format="pyarrow").materialize()


def run_kg(sf: float) -> dict[str, int]:
    """Run the flagship KG pipeline end-to-end (tag+link kernel tasks → kind
    filters → canonicalize → graph). Returns the table counts."""
    from ner_backend_ray.fixtures.pages import pages_fixture_dir
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages
    from ner_backend_ray.stages.tag import DOC, rows_of

    fixture_dir = pages_fixture_dir(sf)  # cached; generation not timed
    cfg = KGConfig()
    docs = tag_pages(read_pages(fixture_dir), cfg, fixture_dir).materialize()
    tables = kg_tables(docs, cfg, fixture_dir)
    counts = {name: tables[name].count()
              for name in ("mentions", "groups", "triples", "nodes", "edges")}
    counts["docs"] = docs.map_batches(rows_of, fn_args=(DOC,),
                                      batch_format="pyarrow").count()
    return counts


def run_bench(num_cpus: int, sf_dir: str) -> dict:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    _warmup()

    from ner_backend_ray.pipelines.queries import QUERIES

    # Each timed section runs BENCH_REPEATS times and reports the MIN: this
    # shared host shows 0-30% hypervisor steal drifting over minutes, and the
    # same binary measures 27-111 s for one suite depending on when it runs
    # (round-2 BENCH was noise-dominated). Min-of-N is the standard capability
    # estimator under one-sided noise; per-section steal%% is attached so a
    # reader can judge each number's cleanliness.
    repeats = max(1, int(os.environ.get("BENCH_REPEATS", "2")))
    times: dict[str, float] = {}
    steals: dict[str, float] = {}

    def timed(name: str, fn) -> None:
        best, best_steal = float("inf"), 0.0
        for _ in range(repeats):
            tot0, st0 = _cpu_sample()
            t0 = time.time()
            fn()
            wall = time.time() - t0
            tot1, st1 = _cpu_sample()
            if wall < best:
                best = wall
                best_steal = 100.0 * (st1 - st0) / max(1, tot1 - tot0)
        times[name] = round(best, 3)
        steals[name] = round(best_steal, 2)

    counts: dict[str, int] = {}
    timed("kg_pipeline", lambda: counts.update(run_kg(_sf_of(sf_dir))))
    kg_wall = times["kg_pipeline"]
    for name in BENCH_QUERIES:
        timed(name, lambda name=name: _consume(QUERIES[name](sf_dir)))

    result = {
        "metric": "headline pipeline wall time (KG flagship + operator suite)",
        "value": round(sum(times.values()), 3),
        "unit": "sec",
        "queries": times,
        "sf": _sf_of(sf_dir),
        "num_cpus": num_cpus,
        "kg_counts": counts,
        "kg_triples_per_sec": round(counts["triples"] / kg_wall, 1),
        "kg_docs_per_sec": round(counts["docs"] / kg_wall, 1),
        "kg_steal_pct": steals["kg_pipeline"],
        "steal_pct": steals,
    }
    ray.shutdown()
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    args = ap.parse_args()
    print(json.dumps(run_bench(args.cpus, args.sf_dir)))


if __name__ == "__main__":
    main()
