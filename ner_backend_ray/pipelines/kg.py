"""The flagship KG-construction pipeline: its phase-1 function and its one
graph builder.

    read_parquet(pages)                           ┐ ONE operator, one wave of
      → map_batches(extract_text_batch)           │ ``phase1_tasks`` tasks, whole
      → map_batches(TagDocs, batch_size=None)     ┘ pages files in each
          [extract: stateless, byte-identity invariant; TagDocs: ONE kernel,
           clean→tag→validate→coalesce→groups→triples→link per doc,
           cfg.batch_size docs per call, model + alias dict loaded once per
           worker process; the task appends the block's partials]
      → kg_tables(tagged)                         [the graph builder below]

Phase 1 is one function, ``tag_batches``: ``TagDocs`` over each batch of
extracted pages, then ``with_partials`` over their concatenation. The tag
output is ONE flat table in the union layout of stages/tag.py: a ``kind``
column plus null-padded typed columns, holding doc rows (url,
token_count), linked mention rows, triple rows and group rows, then the
LSH band rows, node partials and raw edge partials. ``tag_pages`` runs it
per read block and keeps the output in the object store (the in-memory
path of the queries and the benchmarks); the one writing runner
(pipelines/checkpointed.py) runs it per input file, streaming the file's
batches, and writes the output as Parquet. Both runners group whole files
into tasks the same way, ``phase1_tasks``. ``kg_tables`` is the only
graph builder, fed the materialized tag output or the phase-1 ``parts/``
Parquet. It is a declared table of stages, name → (deps, fn), and one
small scheduler (``_run_stages``) runs the ancestors of the requested
tables, each once its deps are done:

    parts      tagged → the partial rows (``combined_partials``),
                       compacted above the budget
    kinds      tagged → one plain task per block, splitting it by kind
    mentions   kinds → linked mention rows
    triples    kinds → linked triple rows
    groups     kinds → (url, group_name)
    root_map   parts → MinHash-LSH root map: the ObjectRef of a broadcast
                       dict, above the broadcast budget a (node, root)
                       star-forest Dataset
    nodes_pre  parts + root_map → node partials with canonical_id
    key_map    nodes_pre → (entity_key, canonical_id), the oracle export
    nodes      nodes_pre → one merged node per canonical_id run
    edges      parts + root_map → edge partials over canonical ids, merged
                       per (subj_id, pred, obj_id) run

The plan is sized to the partials at run time, once, in ``_partials``:
their bytes (the ``parts`` blocks' metadata) are compared with
``_graph_budget()``, Ray Data's target block size. Within it, the root map,
``nodes_pre`` and ``edges`` each run as ONE task over every partial block,
and the graph phase runs no shuffle: fusing small operators beats paying a
materialization and an exchange per operator ("Machine Learning Inference
Pipeline Execution Using Pure SQL Based on Operator Fusion", ICDE 2025),
and a memory budget decides where the pipeline breaks and how wide it
runs ("Memory Efficient Scheduling of Query Pipeline Execution", CIDR
2022). Above it, the graph phase has four shuffles: the partials
compaction, the root-map groupby and the two output sorts (plus, above the
broadcast budget, the star-forest joins); each output is then aggregated
once, by the sort that orders it: ``entity_key → canonical_id`` is a
function, so a canonical_id range partition holds whole entity-key runs and
needs no per-key pre-aggregation (eager/lazy aggregation, Yan & Larson,
VLDB 1995). Roots reach the one node kernel and the one edge kernel either
as the broadcast dict or as star-join columns.

Phase 1's Datasets run under a block target of their own, and the graph
under the session's: see ``phase1_block_target`` and ``_partials``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..oracle import KGConfig
from ..stages.canonicalize import (LSH_BANDS, bucket_pairs, canonical_id,
                                   lsh_band_arrays, partial_node_counts)
from ..stages.extract import extract_text_batch
from ..stages.kernel import per_process
from ..stages.tag import (BAND, EDGE, GROUP, KIND_COLUMNS, MENTION, NODE,
                          TRIPLE, UNION_SCHEMA, TagDocs, rows_of, union_of)


# Pair-count budget for driver-side union-find; above it, near-dup cluster
# resolution runs as distributed connected components (ops/cc.py).
_CC_BUDGET = 500_000
KG_TABLES = ("mentions", "groups", "triples", "nodes", "edges", "key_map")


def _cluster_resources() -> dict:
    """The session's total resources; empty before Ray has started."""
    return ray.cluster_resources() if ray.is_initialized() else {}


def _cluster_cpus() -> int:
    return int(_cluster_resources().get("CPU", 4))


def _compact_small() -> int:
    """Block target for compacting the combined partials (a SMALL derived
    row-set) before the graph phase's groupby and sorts: tracks cluster width
    so reduce parallelism grows with the cluster instead of pinning at a
    tuned constant, floored at the measured-good single-node value."""
    return max(8, _cluster_cpus() // 4)


def _graph_budget() -> int:
    """Partials bytes up to which the graph phase runs each stage as one
    task: the session's Ray Data target block size (128 MiB by default),
    the target every graph Dataset runs under (``_partials``). A
    one-task stage emits one block, and its output is smaller than its
    partials (a node partial row with its canonical_id is smaller than its
    partials row); above 1.5 times the target, Ray Data would slice that
    block and split canonical_id runs across blocks. A session with no
    target (None) gets the distributed plan. Below the cap, one task beat
    the distributed plan at every size measured: over 2 to 123 MB of
    synthetic partials (``tests/test_pipeline_ray.py::planted_partials``),
    it took 0.44 to 3.7 s against 1.5 to 14.6 s, with a peak worker RSS of
    422 MB at 123 MB against 460 MB (a 4-CPU session on a 4-core host)."""
    return ray.data.DataContext.get_current().target_max_block_size or 0


def phase1_block_target() -> int:
    """The target block size of a phase-1 Dataset (``tag_pages``, the task
    list of ``checkpointed.run_phase1``): ``min(session target, object
    store / (8 × CPUs))``, read from the session. Before any task of an
    operator has finished, Ray Data (2.49) counts each running task's
    pending output as two blocks of the target, 256 MiB at the default
    128 MiB, and gives an operator about a quarter of the object store
    (half the store for the executor, half of that reserved per operator):
    on a 512 MiB store only one such task fits, so a 4-CPU session ran
    the first of its eight ``TagDocs`` tasks alone for 0.28 s. Two blocks
    per task and a quarter of the store give the 8: every CPU's task
    fits. Ray's default store is about 30% of memory, so this is the
    session's own target only while there are about 3.6 GB of memory per
    CPU: 4 CPUs on a 16 GB host keep 128 MiB, 32 CPUs there get about 19
    MB. A session with no target (None) counts as unlimited; the result is
    not None then, since a read without a target splits into 200 blocks.
    Before Ray has started, it is the session's target.

    The target goes on the Dataset's context (``with_phase1_target``),
    which every Dataset derived from it shares (a new Dataset copies the
    plan, not its context; ``materialize()`` copies the context's values).
    The graph must not run under it (``_partials``)."""
    session = ray.data.DataContext.get_current().target_max_block_size
    res = _cluster_resources()
    store, cpus = res.get("object_store_memory", 0), res.get("CPU", 0)
    if not (store and cpus):
        return session
    return min(session or store, int(store // (8 * cpus)))


def with_phase1_target(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds`` with ``phase1_block_target()`` on its context, which every
    Dataset derived from ``ds`` shares (see ``phase1_block_target``)."""
    ds.context.target_max_block_size = phase1_block_target()
    return ds


def _uncompressed_bytes(md: pq.FileMetaData) -> int:
    return sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))


def phase1_tasks(footers: list[pq.FileMetaData]) -> list[list[int]] | None:
    """How phase 1 runs the Parquet files with these ``footers``, in both
    runners: the files' indices grouped into one task per session CPU, each
    task taking whole files, so the phase runs in one wave. Ray Data's
    executor sees a finished task only once every running task has finished
    or 100 ms have passed
    (``ray/data/_internal/execution/streaming_executor_state.py:499-504`` in
    Ray 2.49), so a second wave of short tasks waits on that poll: at 2,000
    pages in 8 files on 4 CPUs, eight one-file tasks ran in two waves, and
    the second started 80-120 ms after the first ended.

    With ``f`` files on ``c`` CPUs, every task gets ``f // c`` files and the
    first ``f % c`` tasks one more, since Ray Data cuts an ordered file list
    (``read_parquet``, ``parquet_datasource.py:367``) or item list
    (``from_items``) into ``override_num_blocks`` runs of those lengths; the
    callers concatenate the groups in order. Within those counts the files
    are spread by their uncompressed bytes, largest first onto the
    least-loaded task, so a wave of uneven files is not held up by one task
    that drew the largest ones (the reference bin-packs objects by size,
    ``file_system_connector_utils.go:12-63``). A group lists its files in
    index order.

    None (one file per task, or Ray Data's default read) when there are
    fewer non-empty files than CPUs, or no session: whole files would leave
    CPUs idle. 0-row files do not count there but are placed."""
    cpus = int(_cluster_resources().get("CPU", 0))
    if not cpus or sum(1 for md in footers if md.num_rows) < cpus:
        return None
    size = [_uncompressed_bytes(md) for md in footers]
    short, longer = divmod(len(footers), cpus)
    tasks, load = [[] for _ in range(cpus)], [0] * cpus
    for i in sorted(range(len(footers)), key=lambda i: -size[i]):
        full = sum(len(t) > short for t in tasks) == longer
        t = min((t for t in range(cpus) if len(tasks[t]) < short + (not full)),
                key=load.__getitem__)
        tasks[t].append(i)
        load[t] += size[i]
    return sorted((sorted(t) for t in tasks), key=lambda t: (-len(t), t))


def read_pages(fixture_dir: str, filesystem=None) -> ray.data.Dataset:
    """The pages Parquet, its files in the read tasks of ``phase1_tasks``,
    each reading whole files, so no file is split and the tag map fuses into
    the read task (``tag_pages``). Below one file per CPU the read keeps Ray
    Data's default parallelism, which asks for at least two blocks per CPU
    and splits files to get them (``SplitBlocks`` in the stats); the read
    is then an operator of its own. ``filesystem``: optional pyarrow/fsspec
    filesystem (the object-store seam — reference reads pages from S3,
    s3_connector.go:71-93).

    Files whose Parquet footer says 0 rows are left out: Ray's read task
    drops a 0-row table, and Ray Data calls no map function on the empty
    block it leaves, so a block without columns would reach the tag output.
    When every file is empty they are all read, since a read needs a path."""
    import pyarrow.dataset as pads

    from ..sources.fs import wrap_for_arrow
    pages = pads.dataset(os.path.join(fixture_dir, "pages"), format="parquet",
                         filesystem=wrap_for_arrow(filesystem))
    files = [f for f in pages.get_fragments() if f.metadata.num_rows]
    plan = phase1_tasks([f.metadata for f in files])
    if plan is None:
        return ray.data.read_parquet([f.path for f in files] or pages.files,
                                     filesystem=pages.filesystem)
    return ray.data.read_parquet([files[i].path for t in plan for i in t],
                                 filesystem=pages.filesystem,
                                 override_num_blocks=len(plan))


def tag_kernel(cfg: KGConfig, fixture_dir: str):
    """The one per-doc phase-1 kernel both runners run: ``TagDocs`` (looked
    up here at call time) as a batch function built once per worker process
    (stages/kernel.py::per_process) and named after it. Linking is fused
    into it, so docs leave it with linked mentions and triples."""
    return per_process(TagDocs, model_type=cfg.model_type,
                       model_kwargs=cfg.model_kwargs, tags=cfg.tags,
                       custom_patterns=cfg.custom_patterns,
                       group_queries=cfg.group_queries, text_column="html",
                       alias_path=os.path.join(fixture_dir, "alias_dict.parquet"),
                       min_link_score=cfg.min_link_score)


def tag_batches(batches, kernel) -> pa.Table:
    """Extracted page batches (url, html) → their tag output in the union
    layout plus its partials: ``kernel`` (``tag_kernel``) runs on each
    batch, and ``with_partials`` once over the concatenated result, so the
    partials do not depend on how the pages were cut. No batches give a
    typed empty union. The phase-1 function of both runners: ``tag_pages``
    calls it per read block, the checkpointed phase 1 per input file."""
    tagged = [kernel(batch) for batch in batches]
    return with_partials(pa.concat_tables(tagged) if tagged
                         else UNION_SCHEMA.empty_table())


def tag_pages(pages: ray.data.Dataset, cfg: KGConfig, fixture_dir: str) -> ray.data.Dataset:
    """pages → the tag output: one union-layout table per read block
    (stages/tag.py) holding the block's doc, mention, triple and group rows
    and, built from them in the same task, its partials (``tag_batches``).

    Tagging and entity linking are FUSED into one ``TagDocs`` kernel: the alias
    dictionary is load-once state exactly like the model weights
    (processor.go:408-436 pattern), so mentions/triples leave the stage already
    linked — one pass over the documents instead of three. The kernel runs in
    Ray Data tasks and is built once per worker process for this call
    (stages/kernel.py::per_process), so the executor, not a pool reserved per
    pipeline, owns the CPU slots.

    Read, extract and tag run as ONE operator of ``phase1_tasks`` tasks
    (when the read splits no file, see ``read_pages``), each over whole
    pages files: the tag map takes whole read blocks
    (``batch_size=None``) and feeds the kernel ``cfg.batch_size`` docs per
    call. A block split on the read, or a ``batch_size`` or a
    ``concurrency`` on this map (Ray fuses two task maps only when their
    concurrency caps match, and the read sets none), makes Ray Data plan
    read and tag as two operators with a queue and a CPU reservation
    between them, and the tag stage then ran 1.3–1.6 tasks wide on 4 CPUs
    (fused: 2.2–2.5). This is inference fused with the scan that feeds it
    and with the combiners that consume it (ICDE 2025, "Machine Learning
    Inference Pipeline Execution Using Pure SQL Based on Operator
    Fusion").

    The returned Dataset runs under ``phase1_block_target()``."""
    ds = pages.map_batches(extract_text_batch, batch_format="pyarrow",
                           zero_copy_batch=True)
    # the tagger works on raw bytes (html); drop everything else before the
    # tag stage so only (url, html) moves through the object store
    ds = ds.select_columns(["url", "html"])
    kernel = tag_kernel(cfg, fixture_dir)
    step = cfg.batch_size

    def tag_block(block: pa.Table) -> pa.Table:
        return tag_batches((block.slice(i, step)
                            for i in range(0, block.num_rows, step)), kernel)

    tag_block.__name__ = kernel.__name__
    return with_phase1_target(ds.map_batches(
        tag_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True))


def _cid_from_cols(keys, roots=None, root_map: dict | None = None) -> pa.Array:
    """canonical_id per row from Arrow columns: ``roots`` (nullable join
    column) or ``root_map`` (broadcast dict) override the key, else the key
    canonicalizes itself. Per-row work is all Arrow kernels
    (coalesce/unique/index_in/take); Python — blake2b isn't vectorizable —
    runs once per DISTINCT key, which the memoized loops this replaces also
    paid, minus their per-row interpreter dispatch."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if roots is not None:
        if isinstance(roots, pa.ChunkedArray):
            roots = roots.combine_chunks()
        keys = pc.coalesce(roots, keys)
    u = keys.unique()
    if root_map is not None:
        vals = [canonical_id(root_map.get(s, s)) for s in u.to_pylist()]
    else:
        vals = [canonical_id(s) for s in u.to_pylist()]
    return pc.take(pa.array(vals, pa.string()),
                   pc.index_in(keys, value_set=u))


def _canonical(batch: pa.Table, key: str, root_map) -> pa.Array:
    """canonical_id of ``batch[key]``, its roots taken from the star-join
    column ``__root_<key>`` when the batch has one, else from ``root_map``."""
    col = "__root_" + key
    roots = batch[col] if col in batch.column_names else None
    return _cid_from_cols(batch[key], roots, root_map)


# (object id, root map) of the last broadcast root map this process fetched
_last_roots: tuple = (None, None)


def _resolved(root_map):
    """The broadcast root map of ``root_map`` (a dict or its ObjectRef). A ref
    is fetched and unpickled once per process, not once per kernel call: a
    one-entry cache keyed on the object id, which pins no object. A kernel
    call without a ref (a dict, or roots as star-join columns) empties the
    cache: a process holds at most one map, until its next kernel call with
    another ref or with none."""
    global _last_roots
    if not isinstance(root_map, ray.ObjectRef):
        _last_roots = (None, None)
        return root_map
    last = _last_roots  # one read: a concurrent caller may replace it
    if last[0] != root_map.binary():
        last = _last_roots = (root_map.binary(), ray.get(root_map))
    return last[1]


def canonicalize_nodes(batch: pa.Table, root_map=None) -> pa.Table:
    """Entity rows → the same rows plus ``canonical_id`` (root columns
    dropped). ``root_map``: the broadcast dict (or its ObjectRef), or None
    when roots arrive as star-join columns."""
    cid = _canonical(batch, "entity_key", _resolved(root_map))
    return (batch.drop_columns([c for c in batch.column_names
                                if c.startswith("__root_")])
            .append_column("canonical_id", cid))


def canonicalize_edge_partials(batch: pa.Table, root_map=None) -> pa.Table:
    """Raw-key edge partials → partials over canonical ids, re-aggregated
    locally (raw keys that merge under canonicalization collapse here); the
    exact merge happens per sort partition (``_merge_edge_block``). Roots
    as in :func:`canonicalize_nodes`."""
    rm = _resolved(root_map)
    by = ["subj_id", "pred", "obj_id"]
    return pa.table({
        "subj_id": _canonical(batch, "subj_key", rm),
        "pred": batch["pred"],
        "obj_id": _canonical(batch, "obj_key", rm),
        "partial_weight": batch["partial_weight"],
    }).group_by(by).aggregate([("partial_weight", "sum")]).rename_columns(
        by + ["partial_weight"])


def _join_star_roots(ds: ray.data.Dataset, key_col: str,
                     stars: ray.data.Dataset) -> ray.data.Dataset:
    """LEFT bucket-hash-join ``ds`` with the star forest (node, root),
    appending ``__root_<key_col>`` (null for unclustered keys). The
    Dataset-native root-map application for over-budget canonicalization:
    nothing proportional to corpus-distinct entities touches the driver."""
    from ..ops.joins import bucket_hash_join
    out_col = "__root_" + key_col
    renamed = stars.map_batches(
        lambda b: b.rename_columns([key_col, out_col]), batch_format="pyarrow")
    return bucket_hash_join(ds, renamed, key_col,
                            n_buckets=max(16, _cluster_cpus()), how="left")


def _rooted(parts: ray.data.Dataset, one_task: bool, kind: int, kernel, roots,
            keys: list[str], order: list[str]) -> ray.data.Dataset:
    """``kernel`` over the ``kind`` rows of ``parts`` with the roots of their
    ``keys`` columns, sorted on ``order`` so that each block holds whole
    ``order`` runs. ``roots`` is the star-forest Dataset (joined in as
    columns) or the broadcast dict's ObjectRef (passed to the kernel). On
    the broadcast path the row filter and the kernel are ONE function: as
    two fused map functions, the kernel never sees a block the filter
    emptied, and its task emits a schema-less block in its place. On the
    ``one_task`` plan, that function runs as ONE task over every block (a
    batch of all the rows), whose one output block holds every run, so no
    sort is needed."""
    if isinstance(roots, ray.data.Dataset):
        ds = parts.map_batches(rows_of, fn_args=(kind,), batch_format="pyarrow")
        for key in keys:
            ds = _join_star_roots(ds, key, roots)
        return ds.map_batches(kernel, batch_format="pyarrow").sort(order)
    ds = parts.map_batches(
        lambda b, root_map: kernel(rows_of(b, kind), root_map),
        batch_size=max(1, parts.count()) if one_task else None,
        batch_format="pyarrow", fn_kwargs={"root_map": roots})
    return ds if one_task else ds.sort(order)


# ---------------------------------------------------------------------------
# the partials: built in the tag task, one set per block
# ---------------------------------------------------------------------------

def _band_rows(mentions: pa.Table) -> pa.Table:
    """LSH band rows of the distinct surf: keys of ``mentions`` (cross-block
    duplicates are deduped in bucket_pairs), so the root map has no
    dependency on the mentions/nodes chain."""
    u = mentions["entity_key"].unique()
    surf = u.filter(pc.starts_with(u, "surf:"))
    # "surf:" is ASCII so codeunit slicing == byte slicing here
    bands, hashes = lsh_band_arrays(pc.utf8_slice_codeunits(surf, 5).to_pylist())
    rep = pa.array(np.repeat(surf.to_numpy(zero_copy_only=False), LSH_BANDS),
                   pa.string())
    return pa.table({"entity_key": rep,
                     "band": pa.array(bands.ravel(), pa.int32()),
                     "band_hash": pa.array(hashes.ravel(), pa.int64())})


def _raw_edge_partials(triples: pa.Table) -> pa.Table:
    """Combiner over RAW entity keys: one row per distinct (subj_key, pred,
    obj_key) of ``triples`` with its count. It needs no broadcast state, so
    it runs in the tag task; the canonical-root mapping and the local
    re-aggregation come later, per block of these partials
    (``canonicalize_edge_partials``), and the exact merge per partition of
    the edge sort. Only (keys, partial weight) rows shuffle."""
    by = ["subj_key", "pred", "obj_key"]
    return triples.group_by(by).aggregate([([], "count_all")]).rename_columns(
        by + ["partial_weight"])


def with_partials(tagged: pa.Table) -> pa.Table:
    """``TagDocs`` rows of one block (or, checkpointed, one file) plus their
    LSH band rows, node partials and raw edge partials, pre-aggregated at
    the producer (eager aggregation, Yan & Larson, VLDB 1995): the graph
    phase then scans no docs, and the shuffles move partials, not
    mentions."""
    mentions = rows_of(tagged, MENTION)
    return pa.concat_tables([
        tagged, union_of(BAND, _band_rows(mentions)),
        union_of(NODE, partial_node_counts(mentions)),
        union_of(EDGE, _raw_edge_partials(rows_of(tagged, TRIPLE)))])


_PARTS_COLUMNS = [f.name for f in UNION_SCHEMA if f.name == "kind" or any(
    f.name in KIND_COLUMNS[k] for k in (BAND, NODE, EDGE))]


def combined_partials(batch: pa.Table) -> pa.Table:
    """The partial rows (LSH bands, node partials, raw edge partials) of the
    tag output, with only their columns: the root map, nodes and edges are
    built from these alone (``_partials``). Checkpointed phase 1 writes the
    same rows as ``parts/``."""
    return batch.filter(pc.greater_equal(batch["kind"], BAND)).select(_PARTS_COLUMNS)


@ray.remote
def _roots_in_one_task(*blocks: pa.Table) -> dict:
    """The root map of the partial ``blocks`` in one task: one Arrow
    group_by gives each (band, band_hash) bucket's distinct keys,
    ``bucket_pairs`` verifies the buckets with two or more, and
    ``union_find`` resolves the pairs."""
    from ..ops.cc import union_find_tables
    from ..state.metrics import incr_metric
    bands = [rows_of(b, BAND) for b in blocks if b.num_rows]
    if not bands:
        return {}
    keys = (pa.concat_tables(bands).group_by(["band", "band_hash"])
            .aggregate([("entity_key", "distinct")])["entity_key_distinct"])
    pairs = [bucket_pairs(pa.table({"entity_key": k})) for k in
             keys.filter(pc.greater(pc.list_value_length(keys), 1)).to_pylist()]
    incr_metric("near_dup_pairs_total", sum(p.num_rows for p in pairs))
    return union_find_tables(pairs, "entity_key", "root")


def _root_map(parts: ray.data.Dataset, one_task: bool):
    """MinHash-LSH clustering of unlinked surface keys → the roots of the
    keys that cluster. On the ``one_task`` plan, one task computes it
    (``_roots_in_one_task``) and this returns the ObjectRef of its dict. The
    pairs never leave that task, so ``_CC_BUDGET`` has nothing to bound, and
    the dict stays far below the broadcast budget: each surface key has
    ``LSH_BANDS`` (8) band rows of about 60 bytes or more, so partials
    within ``_graph_budget()`` (128 MiB) name fewer than 300,000 keys,
    against 5,000,000 entries. On the distributed plan, a groupby over
    (band, band_hash) pairs the keys; under _CC_BUDGET pairs the edge list union-finds on the driver,
    above it (template-heavy corpora) it runs distributed connected
    components, and the result is the ObjectRef of a broadcast dict, or
    above the broadcast budget a materialized (node, root) star-forest
    Dataset."""
    from ..ops.cc import resolve_roots_or_stars
    if one_task:
        roots = _roots_in_one_task.remote(*parts.to_arrow_refs())
        ray.wait([roots], fetch_local=False)
        return roots
    pairs = (parts.map_batches(rows_of, fn_args=(BAND,), batch_format="pyarrow")
             .groupby(["band", "band_hash"])
             .map_groups(bucket_pairs, batch_format="pyarrow"))
    roots = resolve_roots_or_stars(pairs, "entity_key", "root", budget=_CC_BUDGET)
    if isinstance(roots, ray.data.Dataset):
        return roots.materialize()  # consumed by three joins
    return ray.put(roots)


_NODE_SCHEMA = pa.schema([("canonical_id", pa.string()),
                          ("surface_forms", pa.list_(pa.string())),
                          ("label", pa.string()),
                          ("mention_count", pa.int64())])


def _run_starts(t: pa.Table, keys: list[str]) -> pa.Array:
    """Mask of the rows of ``t`` (sorted on ``keys``) that start a run."""
    first = np.zeros(t.num_rows, dtype=bool)
    first[:1] = True
    for key in keys:
        v = t[key].to_numpy(zero_copy_only=False)
        first[1:] |= v[1:] != v[:-1]
    return pa.array(first)


def _merge_node_block(block: pa.Table) -> pa.Table:
    """Node partials (entity_key, label, surface, partial_count,
    canonical_id) of one canonical_id sort partition → one node per
    canonical_id. Ray's range partitioner sends equal keys to one partition,
    so a block holds whole canonical_id runs, and with them whole entity-key
    runs (``entity_key → canonical_id`` is a function). All vectorized Arrow
    kernels, no per-group Python dispatch.

    The label election is two-level, as the oracle defines it: each entity
    key elects its label by (count desc, label asc), then each canonical_id
    elects among its keys' labels, each weighted by its key's total count,
    by the same order. ``surface_forms`` is the sorted distinct union of the
    surfaces; ``mention_count`` the sum of the partial counts."""
    if block.num_rows == 0:
        return _NODE_SCHEMA.empty_table()
    ck = ["canonical_id", "entity_key"]
    by_label = (block.group_by(ck + ["label"])
                .aggregate([("partial_count", "sum")])
                .sort_by([("canonical_id", "ascending"),
                          ("entity_key", "ascending"),
                          ("partial_count_sum", "descending"),
                          ("label", "ascending")]))
    key_label = by_label.filter(_run_starts(by_label, ck))
    key_total = (by_label.group_by(ck).aggregate([("partial_count_sum", "sum")])
                 .sort_by([(c, "ascending") for c in ck]))
    # key_label and key_total share the sorted distinct (canonical_id, key) axis
    votes = (pa.table({"canonical_id": key_label["canonical_id"],
                       "label": key_label["label"],
                       "weight": key_total["partial_count_sum_sum"]})
             .group_by(["canonical_id", "label"]).aggregate([("weight", "sum")])
             .sort_by([("canonical_id", "ascending"),
                       ("weight_sum", "descending"),
                       ("label", "ascending")]))
    winners = votes.filter(_run_starts(votes, ["canonical_id"]))
    totals = (block.group_by(["canonical_id"])
              .aggregate([("partial_count", "sum")]).sort_by("canonical_id"))
    dist = (block.group_by(["canonical_id", "surface"]).aggregate([])
            .sort_by([("canonical_id", "ascending"), ("surface", "ascending")]))
    starts = np.flatnonzero(_run_starts(dist, ["canonical_id"]).to_numpy(
        zero_copy_only=False))
    offsets = np.append(starts, dist.num_rows).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets),
                                     dist["surface"].combine_chunks())
    # winners / totals / surface runs share the sorted distinct-cid axis
    return pa.table({
        "canonical_id": winners["canonical_id"],
        "surface_forms": lists,
        "label": winners["label"],
        "mention_count": totals["partial_count_sum"],
    }).cast(_NODE_SCHEMA)


_KEY_MAP_SCHEMA = pa.schema([("entity_key", pa.string()),
                             ("canonical_id", pa.string())])


def _key_pairs(block: pa.Table) -> pa.Table:
    """Distinct (entity_key, canonical_id) of one canonical_id sort
    partition: one row per key, since a key never spans two partitions."""
    return (block.select(_KEY_MAP_SCHEMA.names).group_by(_KEY_MAP_SCHEMA.names)
            .aggregate([]).sort_by([("canonical_id", "ascending"),
                                    ("entity_key", "ascending")])
            .cast(_KEY_MAP_SCHEMA))


_EDGE_SCHEMA = pa.schema([("subj_id", pa.string()), ("pred", pa.string()),
                          ("obj_id", pa.string()), ("weight", pa.int64())])


def _merge_edge_block(block: pa.Table) -> pa.Table:
    """Vectorized edge merge over one sort partition (whole triple-key runs):
    one Arrow group_by + local sort — no per-group Python dispatch and no
    multi-string Ray aggregate (measured ~10k rows/s/core)."""
    if block.num_rows == 0:
        return _EDGE_SCHEMA.empty_table()
    agg = (block.select(["subj_id", "pred", "obj_id", "partial_weight"])
           .group_by(["subj_id", "pred", "obj_id"])
           .aggregate([("partial_weight", "sum")])
           .sort_by([("subj_id", "ascending"), ("pred", "ascending"),
                     ("obj_id", "ascending")]))
    return agg.rename_columns(["subj_id", "pred", "obj_id",
                               "weight"]).cast(_EDGE_SCHEMA)


@ray.remote(num_returns=3)
def _split_kinds(block: pa.Table) -> tuple:
    """One tag-output block → its mention, triple and group rows, typed even
    when the block is empty (a 0-row read leaves a block without columns)."""
    if block.num_rows == 0:
        block = UNION_SCHEMA.empty_table()
    return tuple(rows_of(block, kind) for kind in (MENTION, TRIPLE, GROUP))


def _partials(tagged: ray.data.Dataset) -> tuple[ray.data.Dataset, bool]:
    """The partial rows of ``tagged`` (``combined_partials``), materialized,
    and the graph plan they choose, decided once here: ``one_task`` when
    their bytes (block metadata, so no data is read) are within
    ``_graph_budget()``; else the distributed plan, for whose groupby and
    sorts they are compacted to ``_compact_small()`` blocks.

    The graph's one-task stages rely on their output staying one block,
    which holds only under the target ``_graph_budget()`` reads: the
    session's. ``materialize()`` gives ``parts`` a copy of the tag
    output's context, whose target may be ``phase1_block_target()``, and
    every graph Dataset is built on ``parts``, so the session's target
    set on that copy runs the whole graph (and every table ``kg_tables``
    returns) under it, at no cost. The partials map itself still runs
    under the tag output's target."""
    parts = tagged.map_batches(combined_partials, batch_format="pyarrow").materialize()
    parts.context.target_max_block_size = (
        ray.data.DataContext.get_current().target_max_block_size)
    if parts.size_bytes() <= _graph_budget():
        return parts, True
    return parts.repartition(_compact_small()).materialize(), False


def _run_stages(stages: dict, want, timings: dict | None = None) -> dict:
    """Run the ancestors of ``want`` in ``stages`` (name → (deps, fn)), each
    on its own thread once its deps are done, ``fn`` receiving their results
    in order. Records every stage's completion offset in seconds from the
    start into ``timings``."""
    need, todo = set(), list(want)
    while todo:
        name = todo.pop()
        if name not in need:
            need.add(name)
            todo.extend(stages[name][0])
    t0 = time.time()
    futures = {}

    def run(name, deps, fn):
        out = fn(*[futures[d].result() for d in deps])
        if timings is not None:
            timings[name] = round(time.time() - t0, 2)
        return out

    pool = ThreadPoolExecutor(max_workers=len(need))
    try:
        for name, (deps, fn) in stages.items():
            if name in need:
                futures[name] = pool.submit(run, name, deps, fn)
        return {name: futures[name].result() for name in want}
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def kg_tables(tagged: ray.data.Dataset, cfg: KGConfig, fixture_dir: str,
              timings: dict | None = None,
              tables=KG_TABLES) -> dict[str, ray.data.Dataset]:
    """The tag output in the union layout (``tag_pages``; or, checkpointed,
    just its partial rows) → the requested ``tables`` of {mentions, groups,
    triples, nodes, edges, key_map}, running only the stages they need.
    ``tagged`` should be materialized or Parquet-backed (two stages read
    it). ``cfg`` and ``fixture_dir`` name the run it came from; the graph
    needs neither, because linking happened in the tag kernel.

    No stage scans docs: ``mentions``, ``triples`` and ``groups`` come from
    one wave of plain tasks, one per tagged block, each splitting its block
    by kind; ``parts`` is the partial rows the tag task built. When their
    bytes are within ``_graph_budget()``, the root map, ``nodes_pre`` and
    ``edges`` each run as one task and nothing shuffles. Above it, ``parts``
    is compacted to ``_compact_small()`` blocks and the graph phase has four
    shuffles: that compaction, the root-map groupby, and one sort per
    output, which both groups it (equal keys share a partition) and orders
    it. Every stage runs as soon as its deps are done; all combiner
    partials are vectorized Arrow kernels. The tag stage itself is not
    overlapped with these: it saturates the CPUs and concurrent executions
    only contend (measured).

    Every returned table runs under the session's target block size, not
    the phase-1 target of ``tagged`` (``_partials``).

    ``timings`` (optional): filled with each stage's completion offset in
    seconds from phase start — the profiling seam bench/tuning uses."""
    def of_kind(i):
        return lambda wave: ray.data.from_arrow_refs([refs[i] for refs in wave])

    # a sort's range partitioner never splits equal keys (and one task's one
    # block holds them all), so each block holds complete canonical_id
    # (triple-key) groups and the merge is one vectorized Arrow kernel per
    # block — no per-group Python dispatch; the output stays globally
    # key-ordered (tests/test_pipeline_ray.py asserts it)
    stages = {
        "parts": ((), lambda: _partials(tagged)),
        "kinds": ((), lambda: [_split_kinds.remote(b) for b in tagged.to_arrow_refs()]),
        "mentions": (("kinds",), of_kind(0)),
        "triples": (("kinds",), of_kind(1)),
        "groups": (("kinds",), of_kind(2)),
        "root_map": (("parts",), lambda plan: _root_map(*plan)),
        "nodes_pre": (("parts", "root_map"), lambda plan, roots: (
            _rooted(*plan, NODE, canonicalize_nodes, roots, ["entity_key"],
                    ["canonical_id"]).materialize())),
        "key_map": (("nodes_pre",), lambda pre: (
            pre.map_batches(_key_pairs, batch_format="pyarrow",
                            batch_size=None))),
        "nodes": (("nodes_pre",), lambda pre: (
            pre.map_batches(_merge_node_block, batch_format="pyarrow",
                            batch_size=None).materialize())),
        "edges": (("parts", "root_map"), lambda plan, roots: (
            _rooted(*plan, EDGE, canonicalize_edge_partials, roots,
                    ["subj_key", "obj_key"], ["subj_id", "pred", "obj_id"])
            .map_batches(_merge_edge_block, batch_format="pyarrow",
                         batch_size=None)
            .materialize())),
    }
    return _run_stages(stages, tables, timings)
