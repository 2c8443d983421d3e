"""Distributed-vs-oracle parity and resume tests (SURVEY.md §5 layers 2/4)."""

import glob
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _table_key_set(t: pa.Table, cols: list[str]) -> set[tuple]:
    return set(zip(*[t[c].to_pylist() for c in cols]))


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def _rows(ds, kind: int) -> pa.Table:
    """The ``kind`` rows of a tag-output dataset."""
    from ner_backend_ray.stages.tag import rows_of
    return rows_of(_collect(ds), kind)


def _sorted(t: pa.Table) -> pa.Table:
    """``t`` in an order set by its values alone (every column a sort key)."""
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.fixture(scope="module")
def oracle_result(tiny_fixture):
    from ner_backend_ray.oracle import run_oracle
    return run_oracle(tiny_fixture)


def test_streaming_pipeline_matches_oracle(ray_session, tiny_fixture, oracle_result):
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages

    cfg = KGConfig()
    docs = tag_pages(read_pages(tiny_fixture), cfg, tiny_fixture).materialize()
    tables = kg_tables(docs, cfg, tiny_fixture)

    got_m = _collect(tables["mentions"])
    want_m = oracle_result["mentions"]
    cols = ["url", "start", "end", "label", "text", "entity_key"]
    assert _table_key_set(got_m, cols) == _table_key_set(want_m, cols)
    assert got_m.num_rows == want_m.num_rows

    got_t = _collect(tables["triples"])
    tcols = ["url", "subj", "pred", "obj", "subj_key", "obj_key"]
    assert _table_key_set(got_t, tcols) == _table_key_set(oracle_result["triples"], tcols)

    got_g = _collect(tables["groups"])
    gcols = ["url", "group_name"]
    assert _table_key_set(got_g, gcols) == _table_key_set(oracle_result["groups"], gcols)

    # nodes/edges: exact equality after sort (both sorted by canonical id already)
    got_n = _collect(tables["nodes"])
    want_n = oracle_result["nodes"]
    assert got_n.num_rows == want_n.num_rows
    # whole rows, surface_forms included
    assert got_n.sort_by("canonical_id").equals(want_n)

    got_e = _collect(tables["edges"])
    want_e = oracle_result["edges"]
    ecols = ["subj_id", "pred", "obj_id", "weight"]
    assert _table_key_set(got_e, ecols) == _table_key_set(want_e, ecols)

    # sortedness contract: the range-partitioned groupby shuffle leaves nodes /
    # edges globally ordered by their keys without a separate sort() pass
    assert got_n["canonical_id"].to_pylist() == sorted(got_n["canonical_id"].to_pylist())
    ekeys = list(zip(got_e["subj_id"].to_pylist(), got_e["pred"].to_pylist(),
                     got_e["obj_id"].to_pylist()))
    assert ekeys == sorted(ekeys)


def test_star_join_root_map_matches_broadcast(ray_session, tiny_fixture,
                                              oracle_result, monkeypatch):
    """Dataset-native root-map application (round-3 verdict item 2): with the
    broadcast budget forced to 0 the root map stays a (node, root) Dataset and
    is applied via bucket hash joins — nodes/edges must equal the oracle
    exactly, same as the broadcast path. The tiny fixture has no near-dup
    pairs, so its root map is empty and stays a dict; the joins themselves
    run in ``test_forced_clusters_match_oracle[star_join]`` and
    ``test_planted_near_duplicates_cluster_as_oracle[star_join]``. The
    distributed graph plan is forced, because only its root map
    (``resolve_roots_or_stars``) reads the broadcast budget."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages

    _force_plan(monkeypatch, "distributed")
    monkeypatch.setenv("GRAFT_ROOTMAP_BROADCAST_BUDGET", "0")
    cfg = KGConfig()
    docs = tag_pages(read_pages(tiny_fixture), cfg, tiny_fixture).materialize()
    tables = kg_tables(docs, cfg, tiny_fixture)

    got_n = _collect(tables["nodes"])
    want_n = oracle_result["nodes"]
    assert got_n.num_rows == want_n.num_rows
    assert got_n.sort_by("canonical_id").equals(want_n)
    got_e = _collect(tables["edges"])
    ecols = ["subj_id", "pred", "obj_id", "weight"]
    assert _table_key_set(got_e, ecols) == _table_key_set(
        oracle_result["edges"], ecols)



@pytest.fixture(scope="module")
def tiny_docs(ray_session, tiny_fixture):
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import read_pages, tag_pages
    return tag_pages(read_pages(tiny_fixture), KGConfig(), tiny_fixture).materialize()


def _force_plan(monkeypatch, plan: str) -> None:
    """Force ``kg_tables``'s graph plan: every stage one task (``one_task``,
    an unlimited partials budget) or the distributed plan (a 0-byte
    budget)."""
    from ner_backend_ray.pipelines import kg
    budget = 1 << 62 if plan == "one_task" else 0
    monkeypatch.setattr(kg, "_graph_budget", lambda: budget)


def planted_partials(n_keys: int, n_blocks: int, seed: int = 0) -> list[pa.Table]:
    """Partial blocks in the union layout over ``n_keys`` random surface
    keys, every fifth with two near-duplicates planted beside it (one letter
    dropped at two places, Jaccard about 0.7 to it): each key's LSH band
    rows and node partial, and an edge partial from it to a random key, in
    each of two of the ``n_blocks`` blocks (keys repeat across blocks, as
    in the tag output)."""
    import numpy as np

    from ner_backend_ray.pipelines.kg import _band_rows
    from ner_backend_ray.stages.tag import BAND, EDGE, NODE, union_of

    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    names = ["".join(rng.choice(letters, 16)) for _ in range(n_keys)]
    names += [n[:4] + n[5:] for n in names[::5]] + [n[:11] + n[12:] for n in names[::5]]
    keys = np.array(["surf:" + n for n in names], dtype=object)
    blocks = []
    homes = np.argsort(rng.random((len(keys), n_blocks)), axis=1)[:, :2]
    for b in range(n_blocks):
        mine = keys[(homes == b).any(axis=1)]
        n = len(mine)
        blocks.append(pa.concat_tables([
            union_of(BAND, _band_rows(pa.table({"entity_key": mine}))),
            union_of(NODE, pa.table({
                "entity_key": mine, "surface": [k[5:].title() for k in mine],
                "label": rng.choice(["ORG", "PERSON", "GPE"], n),
                "partial_count": rng.integers(1, 6, n)})),
            union_of(EDGE, pa.table({
                "subj_key": mine, "obj_key": rng.choice(keys, n),
                "pred": rng.choice(["acquired", "partner_of"], n),
                "partial_weight": rng.integers(1, 4, n)}))]))
    return blocks


@pytest.mark.parametrize("rootmap_budget", [None, "0"],
                         ids=["broadcast", "star_join"])
def test_planted_near_duplicates_cluster_as_oracle(ray_session, monkeypatch,
                                                   rootmap_budget):
    """Over partials with planted near-duplicate surfaces, the one-task root
    map, the distributed one (groupby, ``bucket_pairs``,
    ``resolve_roots_or_stars``: a dict, or with the broadcast budget at 0 a
    star-forest Dataset) and the oracle's clustering are the same map, with
    clusters of three keys; and nodes, edges and key_map are byte-identical
    under both graph plans, with fewer canonical ids than keys."""
    import ray
    import ray.data

    from ner_backend_ray import oracle
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines import kg
    from ner_backend_ray.stages.tag import BAND, rows_of

    if rootmap_budget is not None:
        monkeypatch.setenv("GRAFT_ROOTMAP_BROADCAST_BUDGET", rootmap_budget)
    blocks = planted_partials(300, 4)
    parts = ray.data.from_arrow(blocks).materialize()
    surf = sorted(set(pa.concat_tables(rows_of(b, BAND) for b in blocks)
                      ["entity_key"].to_pylist()))
    want = oracle.cluster_surface_keys(surf)
    sizes = {}
    for root in want.values():
        sizes[root] = sizes.get(root, 1) + 1
    assert max(sizes.values()) >= 3, sizes

    one_task = ray.get(kg._root_map(parts, True))
    distributed = kg._root_map(parts, False)
    if rootmap_budget is None:
        distributed = ray.get(distributed)
    else:
        assert isinstance(distributed, ray.data.Dataset)
        distributed = {r["node"]: r["root"] for r in distributed.take_all()}
    assert one_task == want
    assert distributed == want

    got = {}
    for plan in ("one_task", "distributed"):
        _force_plan(monkeypatch, plan)
        tables = kg.kg_tables(parts, KGConfig(), "",
                              tables=("nodes", "edges", "key_map"))
        got[plan] = {name: _ipc(_collect(ds)) for name, ds in tables.items()}
    assert got["one_task"] == got["distributed"]
    key_map = pa.ipc.open_stream(got["one_task"]["key_map"]).read_all()
    assert key_map.num_rows == len(surf)
    assert len(set(key_map["canonical_id"].to_pylist())) == len(surf) - len(want)


# the one-task cases keep the ids they had before the plan was a parameter
@pytest.mark.parametrize("path,plan", [
    pytest.param("broadcast", "one_task", id="broadcast"),
    pytest.param("star_join", "one_task", id="star_join"),
    pytest.param("broadcast", "distributed", id="broadcast-distributed"),
    pytest.param("star_join", "distributed", id="star_join-distributed")])
def test_forced_clusters_match_oracle(tiny_docs, tiny_fixture, oracle_result,
                                      monkeypatch, path, plan):
    """The fixture's surfaces have no near-duplicates, so on its own no two
    entity keys share a canonical_id. Here one root map pairs off the sorted
    entity keys, each odd key rooted at the key before it, and is given to
    the oracle and to the engine, as the broadcast dict or as a star-forest
    Dataset (which goes through the star-forest joins), under either graph
    plan. Nodes (surface_forms included) and edges equal the oracle's, and
    ``key_map`` holds one row per mentioned entity key, each naming a
    node."""
    import ray
    import ray.data

    from ner_backend_ray import oracle
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines import kg

    keys = sorted(set(oracle_result["mentions"]["entity_key"].to_pylist()))
    roots = dict(zip(keys[1::2], keys[0::2]))
    monkeypatch.setattr(oracle, "cluster_surface_keys", lambda _keys: roots)
    want = oracle.run_oracle(tiny_fixture)
    assert want["nodes"].num_rows < oracle_result["nodes"].num_rows

    _force_plan(monkeypatch, plan)
    if path == "broadcast":
        monkeypatch.setattr(kg, "_root_map", lambda parts, one_task: ray.put(roots))
    else:
        stars = pa.table({"node": list(roots), "root": list(roots.values())})
        monkeypatch.setattr(kg, "_root_map", lambda parts, one_task: (
            ray.data.from_arrow(stars).materialize()))
    tables = kg.kg_tables(tiny_docs, KGConfig(), tiny_fixture,
                          tables=("mentions", "nodes", "edges", "key_map"))

    nodes = _collect(tables["nodes"])
    assert nodes.equals(want["nodes"])
    ecols = ["subj_id", "pred", "obj_id", "weight"]
    assert _collect(tables["edges"]).select(ecols).equals(want["edges"].select(ecols))

    key_map = _collect(tables["key_map"])
    assert key_map.num_rows == len(set(key_map["entity_key"].to_pylist()))
    assert set(key_map["entity_key"].to_pylist()) == set(
        _collect(tables["mentions"])["entity_key"].to_pylist())
    assert set(key_map["canonical_id"].to_pylist()) <= set(nodes["canonical_id"].to_pylist())


def test_kg_tables_times_every_ledger_stage(tiny_docs, tiny_fixture):
    """``kg_tables(timings=...)`` records every stage the benchmark's traced
    ledger reads; a missing one would make a traced run report null."""
    from perfbench.layers import KG_GRAPH_STAGES

    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import kg_tables

    timings = {}
    kg_tables(tiny_docs, KGConfig(), tiny_fixture, timings=timings)
    assert set(KG_GRAPH_STAGES) <= set(timings)


def _ipc(t: pa.Table) -> bytes:
    """``t`` as Arrow IPC stream bytes, its rows sorted on every column that
    is not a list and its chunks combined: equal bytes mean equal tables,
    field names and types included."""
    keys = [(f.name, "ascending") for f in t.schema
            if not pa.types.is_list(f.type)]
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as writer:
        writer.write_table(t.sort_by(keys).combine_chunks())
    return sink.getvalue().to_pybytes()


def test_graph_plans_give_identical_tables(ray_session, pages_2k, monkeypatch):
    """Over 2,000 pages, the graph phase with its partials budget forced to
    0 (the distributed plan) and to unlimited (one task per stage) gives
    byte-identical tables, all six of them."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import (KG_TABLES, kg_tables, read_pages,
                                              tag_pages)

    cfg = KGConfig()
    docs = tag_pages(read_pages(pages_2k), cfg, pages_2k).materialize()
    got = {}
    for plan in ("distributed", "one_task"):
        _force_plan(monkeypatch, plan)
        tables = {name: _collect(ds)
                  for name, ds in kg_tables(docs, cfg, pages_2k).items()}
        assert set(tables) == set(KG_TABLES)
        assert all(t.num_rows for t in tables.values()), plan
        got[plan] = {name: _ipc(t) for name, t in tables.items()}
    assert got["one_task"] == got["distributed"]


def _operators(ds) -> dict[str, str]:
    """Operator name → the rest of its line in ``ds.stats()``, for every
    operator in the lineage of ``ds``."""
    import re
    return dict(re.findall(r"^Operator \d+ (.+?): (.*)$", ds.stats(), re.M))


def test_one_task_plan_runs_no_shuffle(tiny_docs, tiny_fixture, monkeypatch):
    """Under the partials budget, the ``nodes`` and ``edges`` lineages name
    no sort, repartition or groupby operator, each of their graph operators
    runs one task, and ``nodes`` still names the ``combined_partials``
    operator (the benchmark reads its rows); with the budget at 0 the same
    check finds the distributed plan's shuffles."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import kg_tables

    shuffles = ("Sort", "Repartition", "Aggregate", "GroupBy", "Shuffle")
    for plan in ("one_task", "distributed"):
        _force_plan(monkeypatch, plan)
        tables = kg_tables(tiny_docs, KGConfig(), tiny_fixture,
                           tables=("nodes", "edges"))
        ops = {name: _operators(tables[name]) for name in tables}
        found = [op for name in ops for op in ops[name]
                 if any(s in op for s in shuffles)]
        assert bool(found) == (plan == "distributed"), (plan, ops)
        assert any("combined_partials" in op for op in ops["nodes"]), ops
        if plan == "one_task":
            graph = {op: line for name in ops for op, line in ops[name].items()
                     if "TagDocs" not in op and "combined_partials" not in op}
            assert len(graph) == 3, graph  # nodes_pre, nodes, edges
            assert all(line.startswith("1 tasks executed")
                       for line in graph.values()), graph


def test_graph_phase_logs_no_schema_warnings(tiny_docs, tiny_fixture):
    """Three graph phases over the 200-page fixture log no Ray Data warning
    about a block whose schema differs from the ones before it (the
    root-map groupby's empty sort partitions logged them as ``new schema:
    .``). Ray Data logs them from the driver, so a handler on the
    ``ray.data`` logger sees them."""
    import logging

    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import kg_tables

    class Records(logging.Handler):
        def __init__(self):
            super().__init__(logging.WARNING)
            self.messages = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    records = Records()
    logger = logging.getLogger("ray.data")
    logger.addHandler(records)
    try:
        for _ in range(3):
            tables = kg_tables(tiny_docs, KGConfig(), tiny_fixture)
            assert all(ds.count() >= 0 for ds in tables.values())
    finally:
        logger.removeHandler(records)
    assert not [m for m in records.messages if "different schema" in m]


def test_broadcast_root_map_fetched_once_per_process(ray_session, monkeypatch):
    """A kernel given the broadcast root map's ref fetches it once per
    process: two ``canonicalize_nodes`` calls on one 10⁵-entry map's ref make
    one ``ray.get``, a new ref one more, and the ids equal the dict's."""
    import ray

    from ner_backend_ray.pipelines import kg

    roots = {f"surf:key{i}": f"surf:root{i // 2}" for i in range(100_000)}
    batch = pa.table({"entity_key": [f"surf:key{i}" for i in range(0, 100_000, 997)]
                      + ["surf:unclustered"]})
    want = kg.canonicalize_nodes(batch, roots)
    ref = ray.put(roots)
    gets = []
    real_get = ray.get
    monkeypatch.setattr(ray, "get", lambda *a, **kw: gets.append(a) or real_get(*a, **kw))
    monkeypatch.setattr(kg, "_last_roots", (None, None))
    assert kg.canonicalize_nodes(batch, ref).equals(want)
    assert kg.canonicalize_nodes(batch, ref).equals(want)
    assert len(gets) == 1
    assert kg.canonicalize_nodes(batch, ray.put(roots)).equals(want)
    assert len(gets) == 2
    # a call without a ref (a dict, or star-join roots) drops the cached map
    kg.canonicalize_nodes(batch, None)
    assert kg._last_roots == (None, None)


@pytest.mark.parametrize("rootmap_budget", [None, "0"],
                         ids=["broadcast", "star_join"])
def test_checkpointed_graph_equals_streaming(ray_session, tiny_fixture, tmp_path,
                                             monkeypatch, rootmap_budget):
    """Both paths go through one graph builder: the checkpointed phase-2
    nodes/edges (built from the phase-1 parts Parquet) equal the in-memory
    kg_tables output, on the broadcast root-map branch and on the star-join
    branch (broadcast budget forced to 0, on the distributed graph plan,
    whose root map is the one that reads that budget)."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed
    from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages

    if rootmap_budget is not None:
        _force_plan(monkeypatch, "distributed")
        monkeypatch.setenv("GRAFT_ROOTMAP_BROADCAST_BUDGET", rootmap_budget)
    cfg = KGConfig()
    docs = tag_pages(read_pages(tiny_fixture), cfg, tiny_fixture).materialize()
    tables = kg_tables(docs, cfg, tiny_fixture)
    out = str(tmp_path / "ckpt")
    run_kg_checkpointed(tiny_fixture, out, cfg, concurrency=2)

    for name, keys in (("nodes", ["canonical_id"]),
                       ("edges", ["subj_id", "pred", "obj_id"])):
        streamed = _collect(tables[name]).sort_by([(k, "ascending") for k in keys])
        written = pq.read_table(os.path.join(out, "graph", name))
        written = written.cast(streamed.schema).sort_by(
            [(k, "ascending") for k in keys])
        assert streamed.num_rows > 0
        assert streamed.equals(written), name


_SMALL_SESSION_RUN = """
import json, os, sys, tempfile
import duckdb, pyarrow as pa, pyarrow.parquet as pq, ray, ray.data
ray.init(num_cpus=int(sys.argv[2]), include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from ner_backend_ray.fixtures.pages import generate_pages
from ner_backend_ray.oracle import KGConfig, run_oracle
from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed
from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages

fx = generate_pages(0.0002)
want = run_oracle(fx)
cols = {"nodes": ["canonical_id", "label", "mention_count"],
        "edges": ["subj_id", "pred", "obj_id", "weight"]}

def same(name, got):
    got = got.select(cols[name]).sort_by([(c, "ascending") for c in cols[name]])
    exp = want[name].select(cols[name]).sort_by([(c, "ascending") for c in cols[name]])
    return got.num_rows > 0 and got.equals(exp)

docs = tag_pages(read_pages(fx), KGConfig(), fx).materialize()
tables = kg_tables(docs, KGConfig(), fx, tables=("nodes", "edges"))
ok = {f"stream_{n}": same(n, pa.concat_tables(list(ds.iter_batches(
          batch_size=None, batch_format="pyarrow")))) for n, ds in tables.items()}
out = tempfile.mkdtemp()
run_kg_checkpointed(fx, out, KGConfig())
ok.update({f"ckpt_{n}": same(n, pq.read_table(os.path.join(out, "graph", n)))
           for n in cols})

# the operator queries' regex tag stage, against its oracle SQL
from ner_backend_ray.pipelines.queries import (ORACLE_SQL, _collect_table,
                                               q_regex_mention_runs)
sf_dir = sys.argv[1]
con = duckdb.connect()
con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
keys = [(c, "ascending") for c in ("doc_id", "label", "n_runs")]
got = _collect_table(q_regex_mention_runs(sf_dir)).sort_by(keys)
want = con.sql(ORACLE_SQL["regex_mention_runs"]).arrow().sort_by(keys)
ok["regex_mention_runs"] = got.num_rows > 0 and got.equals(want.select(got.column_names))
print(json.dumps(ok))
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_both_runners_finish_on_few_cpus(tiny_fixture, num_cpus):
    """A 1- or 2-CPU session must not starve the read tasks upstream of the
    tag stage: both KG runners finish with nodes/edges equal to the oracle,
    and the operator queries' regex tag stage (regex_mention_runs) equals
    its oracle SQL."""
    import json
    import subprocess
    import sys

    from test_ops import SF_DIR

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", _SMALL_SESSION_RUN, SF_DIR,
                           str(num_cpus)],
                          cwd=root,
                          env={**os.environ, "PYTHONPATH": root},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    ok = json.loads(proc.stdout.strip().splitlines()[-1])
    assert ok == {k: True for k in ("stream_nodes", "stream_edges",
                                    "ckpt_nodes", "ckpt_edges",
                                    "regex_mention_runs")}, ok


_STORE_SESSION_RUN = """
import glob, hashlib, json, os, sys
import pyarrow as pa, pyarrow.parquet as pq, ray, ray.data
fx, out, store = sys.argv[1], sys.argv[2], int(sys.argv[3])
ray.init(num_cpus=4, object_store_memory=store or None, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from ner_backend_ray.oracle import KGConfig
from ner_backend_ray.pipelines import kg
from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed

def digest(t):
    keys = [(f.name, "ascending") for f in t.schema if not pa.types.is_list(f.type)]
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t.sort_by(keys).combine_chunks())
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()

def tree(root):
    \"\"\"(pid, start time) of every process below ``root``, from /proc.\"\"\"
    kids = {}
    for d in filter(str.isdigit, os.listdir("/proc")):
        try:
            fields = open(f"/proc/{d}/stat").read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        kids.setdefault(int(fields[1]), []).append((int(d), fields[19]))
    found, todo = [], [root]
    while todo:
        for pid, start in kids.get(todo.pop(), []):
            found.append((pid, start))
            todo.append(pid)
    return found

cfg = KGConfig()
docs = kg.tag_pages(kg.read_pages(fx), cfg, fx).materialize()
report = {"store": ray.cluster_resources()["object_store_memory"],
          "tag_bytes": docs.size_bytes(), "target": kg.phase1_block_target(),
          "largest_block": max(m.size_bytes for b in docs.iter_internal_ref_bundles()
                               for m in b.metadata)}
report["stream"] = {name: digest(pa.concat_tables(ray.get(ds.to_arrow_refs())))
                    for name, ds in kg.kg_tables(docs, cfg, fx).items()}
del docs
run_kg_checkpointed(fx, out, cfg)
report["ckpt"] = {os.path.relpath(p, out): hashlib.sha256(open(p, "rb").read()).hexdigest()
                  for p in glob.glob(os.path.join(out, "*", "part-*.parquet"))}
report["ckpt"].update({f"graph/{n}": digest(pq.read_table(os.path.join(out, "graph", n)))
                       for n in ("nodes", "edges")})
report["procs"] = tree(os.getpid())
ray.shutdown()
print(json.dumps(report))
"""


def _alive(pid: int, start: str) -> bool:
    """Process ``pid`` still runs and is the one that started at ``start``."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[19] == start and fields[0] != "Z"


def test_tag_output_bigger_than_object_store(tmp_path):
    """Both runners over 10,000 pages in a session whose object store (75
    MiB, Ray's minimum) is smaller than their tag output: the derived
    phase-1 target is then below a tag block's size, so Ray slices the tag
    blocks, and the store spills. Every output (the six streaming tables,
    every checkpointed part file and graph table) equals a default-store
    session's, and neither session leaves a process behind."""
    import json
    import subprocess
    import sys
    import time

    from ner_backend_ray.fixtures.pages import generate_pages

    fx = generate_pages(0.01)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    reports = {}
    for name, store in (("small", 75 * 2**20), ("default", 0)):
        proc = subprocess.run([sys.executable, "-c", _STORE_SESSION_RUN, fx,
                               str(tmp_path / name), str(store)],
                              cwd=root, env={**os.environ, "PYTHONPATH": root},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        reports[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    small, default = reports["small"], reports["default"]
    assert small["store"] == 75 * 2**20 < small["tag_bytes"], small
    assert small["target"] < small["largest_block"], small
    assert len(small["ckpt"]) == 5 * 8 + 2
    assert small["stream"] == default["stream"]
    assert small["ckpt"] == default["ckpt"]
    deadline = time.monotonic() + 30
    left = [p for r in reports.values() for p in r["procs"]]
    while left and time.monotonic() < deadline:
        time.sleep(0.5)
        left = [p for p in left if _alive(*p)]
    assert not left, left


def test_tag_kernel_lives_one_pipeline(ray_session, tiny_fixture, tmp_path):
    """Two tag_pages runs in one session over the same fixture path, with
    alias_dict.parquet rewritten between them so that one surface links to
    another entity: each run's linked keys follow its own dictionary, so no
    kernel outlives the pipeline that built it."""
    import pyarrow.compute as pc

    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import read_pages, tag_pages
    from ner_backend_ray.stages.tag import MENTION

    fx = str(tmp_path / "fixture")
    shutil.copytree(tiny_fixture, fx)
    alias_path = os.path.join(fx, "alias_dict.parquet")
    # one tag task per CPU: the second run's tasks land on worker processes
    # that ran the first run's kernel
    cfg = KGConfig(batch_size=8)

    def linked() -> dict:
        """(url, start, end) → entity_key of every mention."""
        m = _rows(tag_pages(read_pages(fx), cfg, fx), MENTION)
        return dict(zip(zip(*[m[c].to_pylist() for c in ("url", "start", "end")]),
                        m["entity_key"].to_pylist()))

    before = linked()
    aliases = pq.read_table(alias_path)
    old_id = next(k for k in before.values() if not k.startswith("surf:"))
    rows = pc.equal(aliases["entity_id"], old_id)
    aliases = aliases.set_column(
        aliases.schema.get_field_index("entity_id"), "entity_id",
        pc.if_else(rows, pa.scalar("E_REWRITTEN"), aliases["entity_id"]))
    pq.write_table(aliases, alias_path)
    after = linked()

    assert before.keys() == after.keys()
    moved = {p for p, k in before.items() if k == old_id}
    assert moved
    assert all(after[p] == "E_REWRITTEN" for p in moved)
    assert all(after[p] == before[p] for p in before.keys() - moved)


_CRASH_ONCE_MODULE = """
import os
from ner_backend_ray.stages.tag import TagDocs

MARKER = {marker!r}
# the crash is armed only once this path exists (None: from the start)
AFTER = {after!r}


class CrashOnceTagDocs(TagDocs):
    \"\"\"TagDocs whose first call in the session, once armed, kills its
    worker process.\"\"\"

    def __call__(self, batch):
        if AFTER is not None and not os.path.exists(AFTER):
            return super().__call__(batch)
        try:
            os.close(os.open(MARKER, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return super().__call__(batch)
        os._exit(1)
"""

_CRASH_RUN = """
import glob, json, os, sys
import pyarrow as pa, ray, ray.data
ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from crash_once import MARKER, CrashOnceTagDocs
from ner_backend_ray.oracle import KGConfig
from ner_backend_ray.pipelines import kg
from ner_backend_ray.pipelines.checkpointed import run_phase1

fx, work = sys.argv[1], sys.argv[2]

def docs():
    ds = kg.tag_pages(kg.read_pages(fx), KGConfig(), fx)
    t = pa.concat_tables(list(ds.iter_batches(batch_size=None,
                                              batch_format="pyarrow")))
    return t.sort_by([(c, "ascending") for c in t.column_names]).combine_chunks()

def ipc_bytes(t):
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()

def phase1_files(name):
    \"\"\"run_phase1 into a fresh directory → {table/part file: its bytes}.\"\"\"
    out = os.path.join(work, name)
    run_phase1(fx, out, KGConfig())
    files = glob.glob(os.path.join(out, "*", "part-*.parquet"))
    return {os.path.relpath(f, out): open(f, "rb").read() for f in files}

want, want_files = docs(), phase1_files("want")
kg.TagDocs = CrashOnceTagDocs
got = docs()
ok = {"crashed": os.path.exists(MARKER), "rows": got.num_rows,
      "same_bytes": ipc_bytes(got) == ipc_bytes(want)}
os.remove(MARKER)  # arm the crash again, for a phase-1 task
got_files = phase1_files("got")
ok.update({"phase1_crashed": os.path.exists(MARKER),
           "phase1_files": len(got_files),
           "phase1_same_bytes": got_files == want_files})
print(json.dumps(ok))
ray.shutdown()
"""


def test_tag_task_survives_worker_death(tiny_fixture, tmp_path):
    """A worker dies in the middle of a tag task: the task is retried on a
    fresh worker, which builds its own kernel, and the docs equal an
    uncrashed tag_pages run. The same holds for a checkpointed phase-1
    task: every ``part-*.parquet`` it writes is byte-identical to an
    uncrashed run's."""
    import json
    import subprocess
    import sys

    marker = str(tmp_path / "crashed")
    (tmp_path / "crash_once.py").write_text(
        _CRASH_ONCE_MODULE.format(marker=marker, after=None))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", _CRASH_RUN, tiny_fixture,
                           str(tmp_path)],
                          cwd=root,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join([root, str(tmp_path)])},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    ok = json.loads(proc.stdout.strip().splitlines()[-1])
    n_files = 5 * len(glob.glob(os.path.join(tiny_fixture, "pages", "part-*.parquet")))
    assert ok == {"crashed": True, "rows": ok["rows"], "same_bytes": True,
                  "phase1_crashed": True, "phase1_files": n_files,
                  "phase1_same_bytes": True}, ok
    assert ok["rows"] > 0


_PACKED_CRASH_RUN = """
import glob, json, os, sys
import pyarrow.parquet as pq, ray, ray.data
ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from crash_once import MARKER, CrashOnceTagDocs
from ner_backend_ray.oracle import KGConfig
from ner_backend_ray.pipelines import kg
from ner_backend_ray.pipelines.checkpointed import run_phase1

fx, work = sys.argv[1], sys.argv[2]
stats = {}

def phase1_files(name):
    \"\"\"run_phase1 into work/name → {output file: (bytes, mtime ns)}.\"\"\"
    out = os.path.join(work, name)
    stats[name] = run_phase1(fx, out, KGConfig())
    files = glob.glob(os.path.join(out, "*", "part-*"))
    return {os.path.relpath(f, out): (open(f, "rb").read(), os.stat(f).st_mtime_ns)
            for f in files}

want = phase1_files("want")
kg.TagDocs = CrashOnceTagDocs
got = phase1_files("got")
crashed_at = os.stat(MARKER).st_mtime_ns
print(json.dumps({
    "tasks": kg.phase1_tasks([pq.read_metadata(p) for p in
                              sorted(glob.glob(os.path.join(fx, "pages", "*")))]),
    "partitions_run": stats["got"]["partitions_run"],
    # a lineage entry holds its partition's wall time, so only the tables compare
    "same_bytes": ({f: b for f, (b, _) in got.items() if f.endswith(".parquet")}
                   == {f: b for f, (b, _) in want.items() if f.endswith(".parquet")}),
    # file times tick coarsely: the crash can share the first lineage's tick
    "written_before_crash": sorted(f for f, (_, t) in got.items() if t <= crashed_at),
    "written_after_crash": sorted(f for f, (_, t) in got.items() if t > crashed_at)}))
ray.shutdown()
"""


def test_packed_phase1_task_resumes_after_worker_death(tiny_fixture, tmp_path):
    """One checkpointed phase-1 task holds two pages files (a 1-CPU
    session), and its worker dies in the second file, after the first
    file's lineage entry: the retried task re-runs only the second file.
    The first file's outputs keep the bytes and times of the first
    attempt, and every output equals an uncrashed run's."""
    import json
    import subprocess
    import sys

    fx = str(tmp_path / "fixture")
    shutil.copytree(tiny_fixture, fx)
    for p in sorted(glob.glob(os.path.join(fx, "pages", "part-*.parquet")))[2:]:
        os.remove(p)
    work = tmp_path / "work"
    work.mkdir()
    marker = str(tmp_path / "crashed")
    (tmp_path / "crash_once.py").write_text(_CRASH_ONCE_MODULE.format(
        marker=marker, after=str(work / "got" / "_lineage" / "part-00000.json")))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", _PACKED_CRASH_RUN, fx, str(work)],
                          cwd=root,
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join([root, str(tmp_path)])},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    ok = json.loads(proc.stdout.strip().splitlines()[-1])
    first = sorted([f"{t}/part-00000.parquet" for t in
                    ("docs", "groups", "mentions", "parts", "triples")]
                   + ["_lineage/part-00000.json"])
    assert ok == {"tasks": [[0, 1]], "partitions_run": 2, "same_bytes": True,
                  "written_before_crash": first,
                  "written_after_crash": [f.replace("00000", "00001")
                                          for f in first]}, ok


@pytest.fixture(scope="module")
def pages_2k():
    """2,000 pages in 8 files of 250 rows: at least as many files as the
    session's CPUs, so the read packs whole files into one task per CPU and
    splits none."""
    from ner_backend_ray.fixtures.pages import generate_pages
    return generate_pages(0.002)


def _fused_docs(fx: str, cfg):
    """``tag_pages`` over ``fx``, materialized, after checking that its
    stats name ONE operator that runs both the Parquet read and ``TagDocs``
    and that no block split sits anywhere in the plan. A split of the read
    or a ``batch_size`` on the tag map makes Ray Data plan read and tag as
    two operators."""
    import re

    from ner_backend_ray.pipelines.kg import read_pages, tag_pages

    docs = tag_pages(read_pages(fx), cfg, fx).materialize()
    ops = re.findall(r"^Operator \d+ (.+?): \d+ tasks executed", docs.stats(),
                     re.M)
    assert [op for op in ops if "ReadParquet" in op and "TagDocs" in op], ops
    assert not [op for op in ops if "SplitBlocks" in op], ops
    return docs


def test_read_and_tag_run_as_one_operator(ray_session, pages_2k):
    """Read, extract and tag run as one Ray Data operator, one task per
    read block, so the tag stage runs as wide as the read."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.stages.tag import DOC

    assert _rows(_fused_docs(pages_2k, KGConfig()), DOC).num_rows == 2000


def test_10k_pages_run_as_one_wave_of_fused_tasks(ray_session):
    """10,000 pages in 8 files (more rows per file than Ray Data's default
    read would leave whole) run as ONE fused read → tag operator of one
    task per CPU, each task reading two whole files."""
    import re

    import ray

    from ner_backend_ray.fixtures.pages import generate_pages
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.stages.tag import DOC

    fx = generate_pages(0.01)
    assert len(glob.glob(os.path.join(fx, "pages", "part-*.parquet"))) == 8
    docs = _fused_docs(fx, KGConfig())
    ops = re.findall(r"^Operator \d+ (.+?): (\d+) tasks executed", docs.stats(), re.M)
    assert ops == [("ReadParquet->MapBatches(extract_text_batch)->Project->"
                    "MapBatches(TagDocs)", str(int(ray.cluster_resources()["CPU"])))], ops
    assert _rows(docs, DOC).num_rows == 10000


def _uneven_pages(pages_dir) -> list[str]:
    """Nine pages files under ``pages_dir``: file i holds 80 - 10·i pages
    (urls ``f{i}-{row}``), so its uncompressed bytes fall with i, and the
    last one is empty (its footer still counts a few bytes). → their
    paths."""
    os.makedirs(pages_dir, exist_ok=True)
    paths = []
    for i, rows in enumerate([80, 70, 60, 50, 40, 30, 20, 10, 0]):
        paths.append(os.path.join(pages_dir, f"part-{i:05d}.parquet"))
        pq.write_table(pa.table({
            "url": [f"f{i}-{j}" for j in range(rows)],
            "html": ["<p>page %05d</p>" % j * 40 for j in range(rows)]},
            schema=pa.schema([("url", pa.string()), ("html", pa.string())])),
            paths[-1])
    return paths


def test_phase1_tasks_rule(tmp_path, monkeypatch):
    """``phase1_tasks``: one task per CPU, ``f // c`` files each and one
    more in the first ``f % c``, the files spread largest first onto the
    least-loaded task, so files of uneven size pair up big with small (in
    index order the two largest would share a task); None (Ray Data's
    default) with fewer non-empty files than CPUs or no session. A 0-row
    file does not count there but is placed."""
    from ner_backend_ray.pipelines import kg

    footers = [pq.read_metadata(p) for p in _uneven_pages(str(tmp_path))]
    size = [kg._uncompressed_bytes(md) for md in footers]
    assert size == sorted(size, reverse=True), size

    def plan(cpus: int):
        monkeypatch.setattr(kg, "_cluster_resources", lambda: {"CPU": float(cpus)})
        return kg.phase1_tasks(footers)

    four = plan(4)
    assert [len(t) for t in four] == [3, 2, 2, 2], four
    assert {frozenset(t) - {8} for t in four} == {
        frozenset({0, 7}), frozenset({1, 6}), frozenset({2, 5}), frozenset({3, 4})}
    assert all(t == sorted(t) for t in four)
    # one file per task, the empty one with the smallest
    assert plan(8) == [[7, 8], [0], [1], [2], [3], [4], [5], [6]]
    # 8 non-empty files: 9 CPUs get Ray's default although there are 9 files
    assert plan(9) is None
    monkeypatch.setattr(kg, "_cluster_resources", lambda: {})
    assert kg.phase1_tasks(footers) is None


def test_phase1_tasks_are_the_tasks_ray_runs(ray_session, tmp_path):
    """Ray Data runs the groups of ``phase1_tasks`` as they are: each
    streaming read task reads exactly one group's files (uneven files, so
    the groups are not index-order runs), and the checkpointed runner's
    task list, the groups concatenated, splits into exactly the groups."""
    import ray
    import ray.data

    from ner_backend_ray.pipelines import kg

    paths = _uneven_pages(str(tmp_path / "pages"))
    plan = kg.phase1_tasks([pq.read_metadata(p) for p in paths[:8]])
    assert len(plan) == int(ray.cluster_resources()["CPU"])

    def files_of_task(block: pa.Table) -> pa.Table:
        task = ray.get_runtime_context().get_task_id()
        return pa.table({"task": [task] * block.num_rows,
                         "file": [int(u[1:].split("-")[0])
                                  for u in block["url"].to_pylist()]})

    read = _collect(kg.read_pages(str(tmp_path)).map_batches(
        files_of_task, batch_size=None, batch_format="pyarrow"))
    by_task = {}
    for task, i in zip(read["task"].to_pylist(), read["file"].to_pylist()):
        by_task.setdefault(task, set()).add(i)
    assert sorted(sorted(f) for f in by_task.values()) == sorted(plan)

    items = ray.data.from_items([{"i": i} for t in plan for i in t],
                                override_num_blocks=len(plan))
    blocks = _collect(items.map_batches(
        lambda b: {"files": [b["i"].tolist()]}, batch_size=None))
    assert blocks["files"].to_pylist() == plan


def test_tag_docs_independent_of_kernel_batch_size(ray_session, pages_2k):
    """The fused task feeds ``TagDocs`` ``cfg.batch_size`` docs per call:
    8-doc calls (32 per block) and the default 256 (one per block) give the
    same docs."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.stages.tag import DOC, rows_of

    small = _sorted(_collect(_fused_docs(pages_2k, KGConfig(batch_size=8))))
    default = _sorted(_collect(_fused_docs(pages_2k, KGConfig())))
    assert rows_of(small, DOC).num_rows == 2000
    assert small.equals(default)


def test_phase1_block_target_fits_the_object_store(ray_session, tiny_fixture,
                                                   monkeypatch):
    """The phase-1 target is min(session target, object store / (8 ×
    CPUs)): 16 MiB for a 512 MiB store and 4 CPUs; on Ray's default store
    (30% of 16 GB) the session's own target for 4 CPUs, but 18.75 MB for
    32 CPUs (``bench.py``'s default session). ``tag_pages`` puts it on its
    own Dataset's context and leaves the session's alone."""
    import ray.data

    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines import kg

    session = ray.data.DataContext.get_current().target_max_block_size
    monkeypatch.setattr(kg, "_cluster_resources", lambda: {
        "CPU": 4.0, "object_store_memory": 0.3 * 16e9})
    assert kg.phase1_block_target() == session
    monkeypatch.setattr(kg, "_cluster_resources", lambda: {
        "CPU": 32.0, "object_store_memory": 0.3 * 16e9})
    assert kg.phase1_block_target() == 18_750_000 < session
    monkeypatch.setattr(kg, "_cluster_resources", lambda: {
        "CPU": 4.0, "object_store_memory": 512.0 * 2**20})
    assert kg.phase1_block_target() == 16 * 2**20
    ds = kg.tag_pages(kg.read_pages(tiny_fixture), KGConfig(), tiny_fixture)
    assert ds.context.target_max_block_size == 16 * 2**20
    assert ray.data.DataContext.get_current().target_max_block_size == session


@pytest.fixture(scope="module")
def oracle_2k(pages_2k):
    from ner_backend_ray.oracle import run_oracle
    return run_oracle(pages_2k)


def test_small_phase1_target_keeps_fusion_and_graph(ray_session, pages_2k,
                                                    oracle_2k, monkeypatch):
    """With the phase-1 target forced to 1 MiB, read and tag still run as
    one operator of one task per CPU, and Ray slices their outputs into
    more blocks. The graph runs under the session's target although the 2
    MB of partials exceed 1.5 × the tag output's: under the
    one-task plan nodes is one block, and nodes, edges and key_map are
    byte-identical to the distributed plan's and equal the oracle."""
    import re

    import ray.data

    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines import kg

    target = 2**20
    monkeypatch.setattr(kg, "phase1_block_target", lambda: target)
    session = ray.data.DataContext.get_current().target_max_block_size
    cfg = KGConfig()
    docs = kg.tag_pages(kg.read_pages(pages_2k), cfg, pages_2k).materialize()
    cpus = int(ray.cluster_resources()["CPU"])
    ops = re.findall(r"^Operator \d+ (.+?): (\d+) tasks executed", docs.stats(), re.M)
    assert ops == [("ReadParquet->MapBatches(extract_text_batch)->Project->"
                    "MapBatches(TagDocs)", str(cpus))], ops
    assert docs.num_blocks() > cpus
    assert docs.context.target_max_block_size == target
    assert target < kg.combined_partials(_collect(docs)).nbytes / 1.5

    got = {}
    for plan in ("distributed", "one_task"):
        _force_plan(monkeypatch, plan)
        tables = kg.kg_tables(docs, cfg, pages_2k,
                              tables=("nodes", "edges", "key_map"))
        assert {ds.context.target_max_block_size for ds in tables.values()} == {
            session}, plan
        got[plan] = {name: _collect(ds) for name, ds in tables.items()}
    assert tables["nodes"].num_blocks() == 1
    assert ({name: _ipc(t) for name, t in got["one_task"].items()}
            == {name: _ipc(t) for name, t in got["distributed"].items()})

    want = oracle_2k
    nodes = got["one_task"]["nodes"]
    assert nodes.equals(want["nodes"])
    ecols = ["subj_id", "pred", "obj_id", "weight"]
    assert got["one_task"]["edges"].select(ecols).equals(want["edges"].select(ecols))
    key_map = got["one_task"]["key_map"]
    assert set(key_map["entity_key"].to_pylist()) == set(
        want["mentions"]["entity_key"].to_pylist())
    assert set(key_map["canonical_id"].to_pylist()) == set(
        nodes["canonical_id"].to_pylist())


def _emptied_fixture(tiny_fixture: str, tmp_path, emptied: str) -> str:
    """A copy of the tiny fixture with its last pages file (``one_file``) or
    every pages file (``every_file``) rewritten to 0 rows."""
    fx = str(tmp_path / "fixture")
    shutil.copytree(tiny_fixture, fx)
    files = sorted(glob.glob(os.path.join(fx, "pages", "part-*.parquet")))
    for f in (files[-1:] if emptied == "one_file" else files):
        pq.write_table(pq.read_table(f).slice(0, 0), f)
    return fx


@pytest.mark.parametrize("emptied", ["one_file", "every_file"])
def test_empty_pages_through_both_runners(ray_session, tiny_fixture, tmp_path,
                                          emptied):
    """Pages files rewritten to 0 rows, one of them or all: both runners
    finish with the oracle's counts (all 0 when every file is empty)."""
    from ner_backend_ray.oracle import KGConfig, run_oracle
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed
    from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages
    from ner_backend_ray.stages.tag import DOC, rows_of

    fx = _emptied_fixture(tiny_fixture, tmp_path, emptied)
    want = run_oracle(fx)
    counts = {n: want[n].num_rows
              for n in ("mentions", "groups", "triples", "nodes", "edges")}
    assert any(counts.values()) == (emptied == "one_file")

    cfg = KGConfig()
    docs = tag_pages(read_pages(fx), cfg, fx).materialize()
    tables = kg_tables(docs, cfg, fx)
    assert {n: tables[n].count() for n in counts} == counts

    s = run_kg_checkpointed(fx, str(tmp_path / "ckpt"), cfg, concurrency=2)
    assert s["rows"] == docs.map_batches(rows_of, fn_args=(DOC,),
                                         batch_format="pyarrow").count()
    assert {n: s[n] for n in ("mentions", "triples", "nodes", "edges")} == {
        n: counts[n] for n in ("mentions", "triples", "nodes", "edges")}


def test_empty_pages_file_leaves_no_schemaless_docs_block(ray_session,
                                                          tiny_fixture,
                                                          tmp_path):
    """With one pages file at 0 rows, every block of the tag output carries
    the union schema, empty blocks included: ``read_pages`` leaves the 0-row
    file out, since Ray's Parquet read drops its table and Ray calls no map
    function on the column-less block that leaves."""
    import ray

    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import read_pages, tag_pages
    from ner_backend_ray.stages.tag import UNION_SCHEMA

    fx = _emptied_fixture(tiny_fixture, tmp_path, "one_file")
    docs = tag_pages(read_pages(fx), KGConfig(), fx).materialize()
    blocks = ray.get(docs.to_arrow_refs())
    assert [b.schema.names for b in blocks] == [UNION_SCHEMA.names] * len(blocks)


def test_extract_invariant_detects_mismatch(ray_session, tiny_fixture):
    from ner_backend_ray.stages.extract import extract_text_batch
    pages = pq.read_table(sorted(glob.glob(tiny_fixture + "/pages/part-*.parquet"))[0])
    out = extract_text_batch(pages)
    assert out["text"].to_pylist() == pages["text"].to_pylist()
    # corrupt one text cell → invariant must fire
    bad = pages.set_column(pages.schema.get_field_index("text"), "text",
                           pa.array(["CORRUPTED"] + pages["text"].to_pylist()[1:]))
    with pytest.raises(AssertionError):
        extract_text_batch(bad)


def test_page_over_one_mib_matches_oracle(ray_session, pages_2k, tmp_path):
    """One page just over 1 MiB (benchmark pages joined with newlines) is
    tagged whole, as one chunk at offset 0: nodes, edges and the mention,
    triple and group counts of read → tag → graph equal the oracle's."""
    from ner_backend_ray.oracle import KGConfig, run_oracle
    from ner_backend_ray.pipelines.kg import kg_tables, read_pages, tag_pages

    fx = tmp_path / "fixture"
    (fx / "pages").mkdir(parents=True)
    shutil.copy(os.path.join(pages_2k, "alias_dict.parquet"), fx)
    html, size = [], 0
    for h in pq.read_table(os.path.join(pages_2k, "pages"),
                           columns=["html"])["html"].to_pylist():
        if size > 1 << 20:
            break
        html.append(h)
        size += len(h) + 1
    page = b"\n".join(html)
    assert 1 << 20 < len(page) < (1 << 20) + 4096
    pq.write_table(pa.table({"url": ["http://big.example/0"], "html": [page],
                             "text": [page.decode("utf-8", "ignore")]}),
                   str(fx / "pages" / "part-00000.parquet"))

    fx = str(fx)
    want = run_oracle(fx)
    cfg = KGConfig()
    tables = kg_tables(tag_pages(read_pages(fx), cfg, fx).materialize(), cfg, fx)
    for name in ("mentions", "triples", "groups"):
        assert tables[name].count() == want[name].num_rows > 0, name
    assert _collect(tables["nodes"]).equals(want["nodes"])
    ecols = ["subj_id", "pred", "obj_id", "weight"]
    assert _collect(tables["edges"]).select(ecols).equals(want["edges"].select(ecols))


def test_checkpointed_resume_identical(ray_session, tiny_fixture, tmp_path):
    """Kill after k partitions → phase 2 over them → resume → outputs
    identical to a fresh run, the graph replaced rather than appended to."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import (completed_partitions,
                                                        run_kg_checkpointed,
                                                        run_phase1, run_phase2)
    cfg = KGConfig()

    full_dir = str(tmp_path / "full")
    s = run_kg_checkpointed(tiny_fixture, full_dir, cfg, concurrency=2)
    assert s["partitions_run"] == s["partitions_total"] > 2
    assert s["triples"] > 0 and s["nodes"] > 0

    # simulated kill: only the first 3 partitions complete
    resume_dir = str(tmp_path / "resume")
    s1 = run_phase1(tiny_fixture, resume_dir, cfg, concurrency=2, max_partitions=3)
    assert len(completed_partitions(resume_dir)) == 3
    # a graph over the partial run, which the resume must replace
    assert run_phase2(tiny_fixture, resume_dir, cfg)["skipped"] is False
    # resume: remaining partitions run, completed ones skipped
    s2 = run_kg_checkpointed(tiny_fixture, resume_dir, cfg, concurrency=2)
    assert s2["partitions_skipped"] == 3

    for table in ("mentions", "triples", "groups", "docs", "parts"):
        full_files = sorted(glob.glob(os.path.join(full_dir, table, "part-*.parquet")))
        res_files = sorted(glob.glob(os.path.join(resume_dir, table, "part-*.parquet")))
        assert [os.path.basename(p) for p in full_files] == [os.path.basename(p) for p in res_files]
        for a, b in zip(full_files, res_files):
            assert pq.read_table(a).equals(pq.read_table(b)), (a, b)

    for table, keys in (("nodes", ["canonical_id"]),
                        ("edges", ["subj_id", "pred", "obj_id"])):
        order = [(k, "ascending") for k in keys]
        want = pq.read_table(os.path.join(full_dir, "graph", table)).sort_by(order)
        got = pq.read_table(os.path.join(resume_dir, "graph", table)).sort_by(order)
        assert got.equals(want), table

    # second resume is a no-op that still reports the graph's counts
    s3 = run_kg_checkpointed(tiny_fixture, resume_dir, cfg, concurrency=2)
    assert s3["partitions_run"] == 0 and s3.get("skipped") is True
    assert (s3["nodes"], s3["edges"]) == (s["nodes"], s["edges"])


def test_rerun_over_fewer_files_drops_stale_partitions(ray_session, tiny_fixture,
                                                      tmp_path):
    """A run into an output directory left by a run over more input files
    removes that run's extra partitions, also one cut before its lineage
    entry and one cut mid-write: its summary, its ``parts/`` files and its
    graph equal a fresh run's."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed

    fx = str(tmp_path / "fixture")
    shutil.copytree(tiny_fixture, fx)
    for f in sorted(glob.glob(os.path.join(fx, "pages", "part-*.parquet")))[-2:]:
        os.remove(f)
    cfg = KGConfig()
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    s = run_kg_checkpointed(tiny_fixture, out, cfg, concurrency=2)
    last = s["partitions_total"] - 1
    os.remove(os.path.join(out, "_lineage", f"part-{last:05d}.json"))
    shutil.copy(os.path.join(out, "parts", f"part-{last - 1:05d}.parquet"),
                os.path.join(out, "parts", f"part-{last - 1:05d}.parquet.tmp"))
    got = run_kg_checkpointed(fx, out, cfg, concurrency=2)
    want = run_kg_checkpointed(fx, fresh, cfg, concurrency=2)

    counts = ("partitions_total", "rows", "mentions", "groups", "triples",
              "token_count", "nodes", "edges")
    assert {k: got[k] for k in counts} == {k: want[k] for k in counts}
    assert got["partitions_skipped"] == want["partitions_total"]

    def listing(d):
        return sorted(os.path.relpath(p, d) for p in
                      glob.glob(os.path.join(d, "*", "part-*")))
    assert listing(out) == listing(fresh)
    for name in ("nodes", "edges"):
        assert _ipc(pq.read_table(os.path.join(out, "graph", name))) == _ipc(
            pq.read_table(os.path.join(fresh, "graph", name))), name


def _rerun_equals_fresh(fx: str, out: str, fresh: str,
                        first_nodes: pa.Table) -> dict:
    """Re-runs the checkpointed runner into ``out`` after one pages file of
    ``fx`` changed: that one partition is re-tagged, and the summary's
    counts and ``graph/nodes`` and ``graph/edges`` equal a fresh run's into
    ``fresh``, not the first graph's. Returns the re-run's summary."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed

    got = run_kg_checkpointed(fx, out, KGConfig(), concurrency=2)
    want = run_kg_checkpointed(fx, fresh, KGConfig(), concurrency=2)
    assert got["partitions_run"] == 1 and got["skipped"] is False
    counts = ("rows", "mentions", "groups", "triples", "token_count",
              "nodes", "edges")
    assert {k: got[k] for k in counts} == {k: want[k] for k in counts}
    for name in ("nodes", "edges"):
        assert _ipc(pq.read_table(os.path.join(out, "graph", name))) == _ipc(
            pq.read_table(os.path.join(fresh, "graph", name))), name
    assert _ipc(pq.read_table(os.path.join(out, "graph", "nodes"))) != _ipc(
        first_nodes)
    return got


def test_rerun_over_changed_file_rebuilds_graph(ray_session, tiny_fixture,
                                                tmp_path):
    """A run into an output directory after one pages file was rewritten
    re-tags that partition and rebuilds the graph: the summary's counts and
    ``graph/nodes`` and ``graph/edges`` equal a fresh run's, not the first
    graph's."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed

    fx = str(tmp_path / "fixture")
    shutil.copytree(tiny_fixture, fx)
    out = str(tmp_path / "out")
    first = run_kg_checkpointed(fx, out, KGConfig(), concurrency=2)
    first_nodes = pq.read_table(os.path.join(out, "graph", "nodes"))
    path = sorted(glob.glob(os.path.join(fx, "pages", "part-*.parquet")))[0]
    pages = pq.read_table(path)
    pq.write_table(pages.slice(0, pages.num_rows // 2), path)
    assert _rerun_equals_fresh(fx, out, str(tmp_path / "fresh"),
                               first_nodes)["rows"] < first["rows"]


def test_rerun_over_same_size_rewrite_rebuilds_graph(ray_session, tiny_fixture,
                                                     tmp_path):
    """A pages file rewritten with other pages of the same byte size (one
    html byte swapped for another) and a new mtime is re-tagged on resume:
    the summary's counts and ``graph/nodes`` and ``graph/edges`` equal a
    fresh run's, not the first graph's."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed

    fx = str(tmp_path / "fixture")
    shutil.copytree(tiny_fixture, fx)
    path = sorted(glob.glob(os.path.join(fx, "pages", "part-*.parquet")))[0]

    def write_plain(pages: pa.Table) -> None:
        # plain-encoded and uncompressed, so equal-length html gives an
        # equal-size file
        pq.write_table(pages, path, compression="none", use_dictionary=False,
                       write_statistics=False)

    pages = pq.read_table(path)
    write_plain(pages)
    out = str(tmp_path / "out")
    run_kg_checkpointed(fx, out, KGConfig(), concurrency=2)
    first_nodes = pq.read_table(os.path.join(out, "graph", "nodes"))

    # the first letter of a mention in this file, A to Y, changed to the
    # next letter: a different surface, the same byte count
    mentions = pq.read_table(os.path.join(out, "mentions", "part-00000.parquet"))
    urls, html = pages["url"].to_pylist(), pages["html"].to_pylist()
    row, pos = next((urls.index(u), s) for u, s in zip(
        mentions["url"].to_pylist(), mentions["start"].to_pylist())
        if b"A" <= html[urls.index(u)][s:s + 1] <= b"Y")
    doc = bytearray(html[row])
    doc[pos] += 1
    html[row] = bytes(doc)
    size = os.path.getsize(path)
    mtime_ns = os.stat(path).st_mtime_ns
    write_plain(pages.set_column(pages.schema.get_field_index("html"), "html",
                                 pa.array(html, pa.binary()))
                .set_column(pages.schema.get_field_index("text"), "text",
                            pa.array([h.decode("utf-8", "ignore") for h in html],
                                     pa.string())))
    assert os.path.getsize(path) == size
    os.utime(path, ns=(mtime_ns + 10**9, mtime_ns + 10**9))

    _rerun_equals_fresh(fx, out, str(tmp_path / "fresh"), first_nodes)


def test_checkpointed_matches_oracle(ray_session, tiny_fixture, tmp_path, oracle_result):
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed
    out = str(tmp_path / "ckpt")
    run_kg_checkpointed(tiny_fixture, out, KGConfig(),
                        concurrency=2)
    got_t = pq.read_table(os.path.join(out, "triples"))
    want_t = oracle_result["triples"]
    cols = ["url", "subj", "pred", "obj", "subj_key", "obj_key"]
    assert _table_key_set(got_t, cols) == _table_key_set(want_t, cols)
    got_e = pq.read_table(os.path.join(out, "graph", "edges"))
    ecols = ["subj_id", "pred", "obj_id", "weight"]
    assert _table_key_set(got_e, ecols) == _table_key_set(oracle_result["edges"], ecols)


def test_split_text_reference_vectors():
    """Ports the reference's own test vectors (text_utils_test.go:10-38)."""
    from ner_backend_ray.core.split import split_text_custom_length, split_text
    s, o = split_text_custom_length(b"hello \n\n world \t\t how are you", 2)
    assert s == [b"hello \n\n world", b"how are", b"you"]
    assert o == [0, 18, 26]
    s, o = split_text(b"hello .!/////!!??world \n\n\n\n \t\t\t\t\t\t how are you")
    assert s == [b"hello .!/////!!??world \n\n\n\n \t\t\t\t\t\t how are you"]
    assert o == [0]


def test_lineage_metrics_rollup(ray_session, tiny_fixture, tmp_path):
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import (lineage_metrics,
                                                        run_kg_checkpointed)
    import pyarrow.compute as pc
    out = str(tmp_path / "m")
    s = run_kg_checkpointed(tiny_fixture, out, KGConfig(), concurrency=2)
    m = lineage_metrics(out)
    assert m.num_rows == s["partitions_total"]
    assert int(pc.sum(m["triples"]).as_py()) == s["triples"]
    assert int(pc.sum(m["token_count"]).as_py()) == s["token_count"]
    assert all(v > 0 for v in m["mb_per_hour"].to_pylist())


def test_triple_precision_recall_vs_oracle(ray_session, tiny_fixture, oracle_result):
    """North-rule criterion stated explicitly: triple P/R >= 0.95 vs the
    reference-semantics oracle (the pipeline is in fact exactly equal)."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.kg import read_pages, tag_pages, kg_tables

    cfg = KGConfig()
    docs = tag_pages(read_pages(tiny_fixture), cfg, tiny_fixture).materialize()
    got = _collect(kg_tables(docs, cfg, tiny_fixture)["triples"])
    cols = ["url", "subj", "pred", "obj"]
    got_set = _table_key_set(got, cols)
    want_set = _table_key_set(oracle_result["triples"], cols)
    tp = len(got_set & want_set)
    precision = tp / max(1, len(got_set))
    recall = tp / max(1, len(want_set))
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)
    assert precision == 1.0 and recall == 1.0  # bit-exact by construction


def test_hot_key_skew_bounded_shuffle(ray_session):
    """North-rule skew handling: a hot entity key contributes at most one partial
    row per (block, label, surface) to the canonicalization shuffle — raw mention
    rows never concentrate on one reducer."""
    import ray.data
    from ner_backend_ray.stages.canonicalize import partial_node_counts
    n_blocks, rows_per_block = 8, 5000
    hot = [{"entity_key": "NAME:0", "label": "NAME", "text": "Hot Entity"}
           for _ in range(rows_per_block)]
    ds = ray.data.from_items(hot * n_blocks).repartition(n_blocks)
    partials = ds.map_batches(partial_node_counts, batch_format="pyarrow",
                              batch_size=rows_per_block).take_all()
    hot_rows = [r for r in partials if r["entity_key"] == "NAME:0"]
    # 40k identical mentions → <= one partial row per block reaches the shuffle
    assert len(hot_rows) <= n_blocks
    assert sum(r["partial_count"] for r in hot_rows) == n_blocks * rows_per_block


_MENTIONS_FIELDS = [
    ("url", pa.string()), ("start", pa.int64()), ("end", pa.int64()),
    ("label", pa.string()), ("text", pa.string()), ("lcontext", pa.string()),
    ("rcontext", pa.string()), ("is_custom", pa.bool_()),
    ("entity_key", pa.string()), ("candidate_id", pa.string()),
    ("link_score", pa.float64())]
_TRIPLES_FIELDS = [(c, pa.string()) for c in (
    "url", "subj", "pred", "obj", "subj_label", "obj_label", "subj_key",
    "obj_key")]
_GROUPS_FIELDS = [("url", pa.string()), ("group_name", pa.string())]
_DOCS_FIELDS = [("url", pa.string()), ("token_count", pa.int64())]


def _fields(t: pa.Table) -> list[tuple[str, pa.DataType]]:
    return [(f.name, f.type) for f in t.schema]


def test_output_schemas_are_pinned(tiny_docs, tiny_fixture, tmp_path):
    """The streaming mentions/triples/groups tables and the checkpointed
    docs/mentions/groups/triples Parquet keep their field names, order and
    Arrow types: a drift from the tag output's null padding or casts fails
    here."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_phase1
    from ner_backend_ray.pipelines.kg import kg_tables

    want = {"mentions": _MENTIONS_FIELDS, "triples": _TRIPLES_FIELDS,
            "groups": _GROUPS_FIELDS}
    tables = kg_tables(tiny_docs, KGConfig(), tiny_fixture,
                       tables=tuple(want))
    assert {n: _fields(_collect(ds)) for n, ds in tables.items()} == want

    out = str(tmp_path / "ckpt")
    run_phase1(tiny_fixture, out, KGConfig(), concurrency=2)
    want["docs"] = _DOCS_FIELDS
    assert {n: _fields(pq.read_table(os.path.join(out, n)))
            for n in want} == want


def test_phase1_parts_equal_streaming_partials(ray_session, tiny_fixture, tmp_path,
                                               monkeypatch):
    """The checkpointed phase 1 and ``tag_pages`` run one phase-1 function,
    per input file and per read block: with the streaming read planned as
    one task per pages file (so one read block per file, as the
    checkpointed runner writes one partition per file), the ``parts/``
    Parquet holds, sorted, byte for byte the rows of the streaming
    ``combined_partials``."""
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines import kg
    from ner_backend_ray.pipelines.checkpointed import run_phase1

    out = str(tmp_path / "ckpt")
    run_phase1(tiny_fixture, out, KGConfig(), concurrency=2)
    written = pq.read_table(os.path.join(out, "parts"))
    monkeypatch.setattr(kg, "phase1_tasks",
                        lambda footers: [[i] for i in range(len(footers))])
    docs = kg.tag_pages(kg.read_pages(tiny_fixture), KGConfig(), tiny_fixture)
    streamed = _collect(docs.map_batches(kg.combined_partials,
                                         batch_format="pyarrow"))
    assert written.num_rows > 0
    assert _ipc(written) == _ipc(streamed)


def test_run_kg_job_entrypoint(tiny_fixture, oracle_result, tmp_path):
    """``jobs/run_kg.py``, the ``ray job submit`` entrypoint, run as its own
    process over the tiny fixture: its JSON summary has the oracle's doc,
    mention, group, triple, node and edge counts, and the graph lands under
    ``{out}/graph/``."""
    import json
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, os.path.join(root, "jobs", "run_kg.py"),
                           "--fixture-dir", tiny_fixture, "--out", str(out)],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    names = ("mentions", "groups", "triples", "nodes", "edges")
    assert {n: summary[n] for n in names} == {
        n: oracle_result[n].num_rows for n in names}
    stats = oracle_result["stats"]
    assert (summary["rows"], summary["token_count"]) == (
        stats["n_docs"][0].as_py(), stats["total_tokens"][0].as_py())
    for name in ("nodes", "edges"):
        assert pq.read_table(out / "graph" / name).num_rows == summary[name]
