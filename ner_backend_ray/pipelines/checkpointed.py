"""The KG runner that writes: per-partition outputs + lineage + counters,
resumable.

North-rule requirement (SURVEY.md §4 "checkpoint / resume"): the reference's
checkpoint is its task-status DB (cmd/local/main.go:75-106 — QUEUED tasks re-published
on boot, no partial-task resume). Ours is file-system-native:

- **Partition = one input pages parquet file** (the analog of a bin-packed
  InferenceTask shard, internal/storage/file_system_connector_utils.go:12-63; at real
  scale a shard is a ~200 MB-10 GB file, processor.go:715-718).
- Phase 1 (embarrassingly parallel, no shuffle) runs over the *task list*
  dataset, its files grouped into Ray Data tasks by the streaming read's
  plan (``kg.phase1_tasks``: one task per CPU, files spread by their bytes;
  one task per file when there are fewer files than CPUs). A task takes
  its files one at a time, in order, and streams each, ``cfg.batch_size``
  rows at a time, through extract and the streaming pipeline's phase-1
  function (``kg.tag_batches`` with ``kg.tag_kernel``, built once per
  worker process), so it holds one file's tag output at most, never the
  corpus's. It splits that union by kind into
  ``{out}/{table}/part-{pid}.parquet``, written atomically (tmp + rename):
  ``docs`` (url, token_count), ``mentions``, ``groups``, ``triples`` and
  ``parts`` (LSH band rows, node partials, raw edge partials), and finally
  ``{out}/_lineage/part-{pid}.json`` with input fingerprint + row counters.
  A partition's outputs are a pure function of its input file and every
  write is atomic, so a retried task (its worker died) and a resumed run
  are both byte-identical; a retried task skips the files whose lineage
  entry its first attempt wrote. The task list runs under
  ``kg.phase1_block_target()``; phase 2 reads ``parts`` in a Dataset of
  its own, under the session's target.
- Resume = skip every pid whose lineage entry exists and matches the input
  fingerprint; partially-written partitions (no lineage yet) are overwritten,
  and every file of a partition past the input files (an earlier run over
  more files) is removed.
- Phase 2 (canonicalize, nodes, edges) reads only ``{out}/parts`` into the
  streaming pipeline's graph builder (``kg_tables``), asking it for nodes and
  edges, so it gets the same plan: one task per stage and no shuffle while
  the partials fit the builder's byte budget, the distributed shuffles above
  it. It writes ``{out}/graph/{nodes,edges}``, re-runs whole (it is cheap
  relative to phase 1) and is guarded by a ``_SUCCESS`` marker with the set
  of contributing partitions. Phase 1 removes that marker before it changes
  ``parts`` (a re-tagged input file, a removed partition), so a graph is
  never reported as current over partials it was not built from.
"""

from __future__ import annotations

import glob
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..oracle import KGConfig
from ..stages.extract import extract_text_batch
from ..stages.tag import DOC, GROUP, MENTION, TRIPLE, rows_of
from .kg import (combined_partials, kg_tables, phase1_tasks, tag_batches,
                 tag_kernel, with_phase1_target)


def _fingerprint(path: str) -> dict:
    """What resume compares to decide an input file is unchanged: its base
    name, byte size and modification time (ns). A rewrite that keeps both
    the size and the mtime still passes as unchanged."""
    st = os.stat(path)
    return {"path": os.path.basename(path), "size": st.st_size,
            "mtime_ns": st.st_mtime_ns}


def _atomic_write(table: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _write_partition(path: str, pid: int, kernel, out_dir: str,
                     batch_size: int) -> None:
    """Phase 1 of one input file: its pages, ``batch_size`` rows per batch,
    through extract and ``tag_batches``, split by kind into the partition's
    tables, then its lineage entry. A 0-row file yields no batch and gets
    typed, zero-row tables."""
    t0 = time.monotonic()
    pages = pq.ParquetFile(path).iter_batches(batch_size=batch_size,
                                              columns=["url", "html", "text"])
    tagged = tag_batches((extract_text_batch(pa.Table.from_batches([rb]))
                          for rb in pages), kernel)
    tables = {"docs": rows_of(tagged, DOC), "mentions": rows_of(tagged, MENTION),
              "groups": rows_of(tagged, GROUP), "triples": rows_of(tagged, TRIPLE),
              "parts": combined_partials(tagged)}
    for name, table in tables.items():
        d = os.path.join(out_dir, name)
        os.makedirs(d, exist_ok=True)
        _atomic_write(table, os.path.join(d, f"part-{pid:05d}.parquet"))

    lineage = {
        "pid": pid,
        "input": _fingerprint(path),
        "rows": tables["docs"].num_rows,
        "mentions": tables["mentions"].num_rows,
        "groups": tables["groups"].num_rows,
        "triples": tables["triples"].num_rows,
        "token_count": int(pa.compute.sum(tables["docs"]["token_count"]).as_py() or 0),
        "wall_sec": round(time.monotonic() - t0, 3),
    }
    ldir = os.path.join(out_dir, "_lineage")
    os.makedirs(ldir, exist_ok=True)
    tmp = os.path.join(ldir, f"part-{pid:05d}.json.tmp")
    with open(tmp, "w") as f:
        json.dump(lineage, f)
    os.replace(tmp, os.path.join(ldir, f"part-{pid:05d}.json"))


def _finished(out_dir: str, pid: int, path: str) -> bool:
    """Partition ``pid`` has a lineage entry for ``path`` as it is now."""
    try:
        with open(os.path.join(out_dir, "_lineage", f"part-{pid:05d}.json")) as f:
            return json.load(f)["input"] == _fingerprint(path)
    except FileNotFoundError:
        return False


def completed_partitions(out_dir: str) -> dict[int, dict]:
    done = {}
    for p in glob.glob(os.path.join(out_dir, "_lineage", "part-*.json")):
        with open(p) as f:
            entry = json.load(f)
        done[entry["pid"]] = entry
    return done


def run_phase1(fixture_dir: str, out_dir: str, cfg: KGConfig | None = None,
               concurrency: int | None = None, max_partitions: int | None = None) -> dict:
    """Tag/link/triple phase with per-partition checkpointing: the files
    to (re-)tag, grouped into tasks by ``kg.phase1_tasks`` (one per file
    below one file per CPU), each task writing one partition and one
    lineage entry per file, in order; ``concurrency`` caps the concurrent
    tasks. ``max_partitions`` exists for the kill/resume test (process only
    the first k partitions)."""
    cfg = cfg or KGConfig()
    files = sorted(glob.glob(os.path.join(fixture_dir, "pages", "part-*.parquet")))
    # Files of partitions past the input files, left by an earlier run over
    # more files (finished, cut before its lineage entry, or cut mid-write
    # as a .tmp): phase 2 reads every file under parts/.
    stale = [p for p in glob.glob(os.path.join(out_dir, "*", "part-*"))
             if int(os.path.basename(p)[5:].split(".")[0]) >= len(files)]
    # resume: skip every finished partition
    tasks = [{"path": path, "pid": pid} for pid, path in enumerate(files)
             if not _finished(out_dir, pid, path)]
    if max_partitions is not None:
        tasks = tasks[:max_partitions]

    skipped = len(files) - len(tasks)
    if tasks or stale:
        # parts/ is about to change, so the graph built from it is stale
        # until phase 2 runs again; removed first, so a cut run leaves none.
        marker = os.path.join(out_dir, "graph", "_SUCCESS")
        if os.path.exists(marker):
            os.remove(marker)
    for path in stale:
        os.remove(path)
    if tasks:
        kernel = tag_kernel(cfg, fixture_dir)

        def tag_files(batch: dict) -> dict:
            for path, pid in zip(batch["path"], batch["pid"]):
                # a retried task (its worker died) keeps the files its
                # first attempt finished
                if not _finished(out_dir, int(pid), str(path)):
                    _write_partition(str(path), int(pid), kernel, out_dir,
                                     cfg.batch_size)
            return {"pid": batch["pid"]}

        plan = (phase1_tasks([pq.read_metadata(t["path"]) for t in tasks])
                or [[i] for i in range(len(tasks))])
        files_ds = with_phase1_target(ray.data.from_items(
            [tasks[i] for t in plan for i in t], override_num_blocks=len(plan)))
        files_ds.map_batches(tag_files, batch_size=None,
                             concurrency=concurrency).materialize()

    done = completed_partitions(out_dir)
    return {"partitions_total": len(files), "partitions_run": len(tasks),
            "partitions_skipped": skipped,
            "rows": sum(e["rows"] for e in done.values()),
            "mentions": sum(e["mentions"] for e in done.values()),
            "groups": sum(e["groups"] for e in done.values()),
            "triples": sum(e["triples"] for e in done.values()),
            "token_count": sum(e["token_count"] for e in done.values())}


def run_phase2(fixture_dir: str, out_dir: str, cfg: KGConfig | None = None) -> dict:
    """Graph phase over the phase-1 ``parts`` Parquet: nodes + edges, sorted,
    written with a _SUCCESS marker recording the contributing partitions. Each
    run replaces the graph tables whole, so a re-run after more partitions
    completed does not append to the previous graph; a run whose marker
    survived phase 1 (``parts`` unchanged) over the same partitions is
    skipped and returns the marker's counts."""
    cfg = cfg or KGConfig()
    done = sorted(completed_partitions(out_dir))
    marker = os.path.join(out_dir, "graph", "_SUCCESS")
    if os.path.exists(marker):
        with open(marker) as f:
            last = json.load(f)
        if last.get("partitions") == done:
            return {"skipped": True, "nodes": last["nodes"], "edges": last["edges"]}

    parts = ray.data.read_parquet(os.path.join(out_dir, "parts"))
    os.makedirs(os.path.dirname(marker), exist_ok=True)
    counts = {}
    for name, ds in kg_tables(parts, cfg, fixture_dir,
                              tables=("nodes", "edges")).items():
        ds.write_parquet(os.path.join(out_dir, "graph", name), mode="overwrite")
        counts[name] = ds.count()
    with open(marker, "w") as f:
        json.dump({"partitions": done, **counts}, f)
    return {"skipped": False, **counts}


def run_kg_checkpointed(fixture_dir: str, out_dir: str, cfg: KGConfig | None = None,
                        concurrency: int | None = None) -> dict:
    s1 = run_phase1(fixture_dir, out_dir, cfg, concurrency)
    s2 = run_phase2(fixture_dir, out_dir, cfg)
    return {**s1, **s2}


def lineage_metrics(out_dir: str) -> pa.Table:
    """Per-partition metrics table from the lineage sidecars — the analog of the
    reference's task-status rollup (internal/api/api.go:508-534: per-status
    count / sum(total_size) / sum(completed_size)) and throughput metrics
    (api.go:951-1011). One row per partition plus derived rates; aggregate with
    a plain groupby/sum over this (small) table."""
    done = completed_partitions(out_dir)
    pids = sorted(done)
    rows = [done[p] for p in pids]
    wall = [max(1e-9, r["wall_sec"]) for r in rows]
    return pa.table({
        "pid": pa.array(pids, pa.int64()),
        "input_file": pa.array([r["input"]["path"] for r in rows], pa.string()),
        "input_bytes": pa.array([r["input"]["size"] for r in rows], pa.int64()),
        "rows": pa.array([r["rows"] for r in rows], pa.int64()),
        "mentions": pa.array([r["mentions"] for r in rows], pa.int64()),
        "groups": pa.array([r["groups"] for r in rows], pa.int64()),
        "triples": pa.array([r["triples"] for r in rows], pa.int64()),
        "token_count": pa.array([r["token_count"] for r in rows], pa.int64()),
        "wall_sec": pa.array([r["wall_sec"] for r in rows], pa.float64()),
        "mb_per_hour": pa.array(
            [r["input"]["size"] / 1e6 / (w / 3600.0)
             for r, w in zip(rows, wall)], pa.float64()),
    })
