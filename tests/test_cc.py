"""Distributed connected components + mega-bucket dedup (round-2 scale fixes).

Covers the round-1 verdict items: silent LSH bucket caps removed (a 2,000-member
duplicate cluster is fully recovered) and driver union-find replaced by a
budget-guarded distributed resolution (an adversarial pair set canonicalizes
without collecting the pair list)."""

import random

import numpy as np
import pytest


def _disjoint_graph():
    """One edge set holding a chain (worst diameter), a clique, a star and
    three random graphs in disjoint node ranges — one CC run checks them all."""
    rng = random.Random(42)
    edges = [(i, i + 1) for i in range(50)]                       # chain
    edges += [(100 + i, 100 + j) for i in range(12) for j in range(i + 1, 12)]
    edges += [(200, 200 + i) for i in range(1, 40)]               # star
    for base in (300, 400, 500):
        edges += [(base + rng.randrange(60), base + rng.randrange(60))
                  for _ in range(80)]
    return edges


def test_connected_components_matches_union_find(ray_session):
    import ray.data
    from ner_backend_ray.ops.cc import connected_components, union_find

    edges = _disjoint_graph()
    want = union_find(edges)
    ds = ray.data.from_items([{"a": a, "b": b} for a, b in edges])
    got = {r["node"]: r["root"] for r in connected_components(ds).take_all()}
    # same clustered nodes, same cluster minimum for each
    assert got == {k: v for k, v in want.items() if k != v}


def test_connected_components_string_nodes(ray_session):
    import ray.data
    from ner_backend_ray.ops.cc import connected_components, union_find

    edges = [("surf:aa", "surf:ab"), ("surf:ab", "surf:ac"),
             ("surf:zz", "surf:zy")]
    want = union_find(edges)
    ds = ray.data.from_items([{"a": a, "b": b} for a, b in edges])
    got = {r["node"]: r["root"] for r in connected_components(ds).take_all()}
    assert got == want


def test_resolve_roots_budgeted_fallback_paths(ray_session):
    import ray.data
    from ner_backend_ray.ops.cc import resolve_roots_budgeted, union_find

    edges = [(i, i + 1) for i in range(200)] + [(500 + i, 500) for i in range(1, 30)]
    ds = ray.data.from_items([{"a": a, "b": b} for a, b in edges])
    want = union_find(edges)
    fast = resolve_roots_budgeted(ds, budget=10_000)
    assert fast == want
    # budget=0 forces the distributed path; union_find keeps self-rooted
    # entries out of CC output only when node == root, normalize both
    slow = resolve_roots_budgeted(ds, budget=0)
    assert {k: v for k, v in slow.items()} == \
        {k: v for k, v in want.items() if k != v}


def test_minhash_mega_cluster_recovered(ray_session):
    """2,000 identical docs in one LSH bucket — round-1 code silently emitted
    zero pairs (cap 512); now the whole cluster resolves to one root through
    the pair operator + resolver that ``q_minhash_neardups`` runs."""
    import ray.data
    from ner_backend_ray.ops.cc import resolve_roots_budgeted
    from ner_backend_ray.ops.dedup import neardup_pairs_lsh_exact

    text = "the quick brown fox jumps over the lazy dog " * 6
    rows = [{"doc_id": i, "text": text} for i in range(2000)]
    rows.append({"doc_id": 9999, "text": "completely different content here ok"})
    roots = resolve_roots_budgeted(neardup_pairs_lsh_exact(
        ray.data.from_items(rows), jaccard_threshold=0.8))
    assert set(roots) == set(range(1, 2000))
    assert set(roots.values()) == {0}


def test_minhash_distributed_cc_parity(ray_session):
    """budget=0 (forced distributed CC) over the MinHash pair operator yields
    the driver union-find's root map."""
    import ray.data
    from ner_backend_ray.ops.cc import resolve_roots_budgeted, union_find
    from ner_backend_ray.ops.dedup import neardup_pairs_lsh_exact

    rng = random.Random(7)
    texts = [
        "sphinx of black quartz judge my vow tonight " * 4,
        "pack my box with five dozen liquor jugs now " * 4,
        "how vexingly quick daft zebras jump around here " * 4,
        "the five boxing wizards jump quickly over walls " * 4,
        "waltz bad nymph for quick jigs vex every player " * 4,
    ]
    rows = []
    for c, t in enumerate(texts):
        for i in range(40):
            rows.append({"doc_id": c * 100 + i, "text": t})
    rows.append({"doc_id": 7777, "text": "unique snowflake " + str(rng.random())})
    pairs = neardup_pairs_lsh_exact(ray.data.from_items(rows),
                                    jaccard_threshold=0.8).materialize()
    want = union_find([(r["a"], r["b"]) for r in pairs.take_all()])
    slow = resolve_roots_budgeted(pairs, budget=0)
    assert slow == want
    assert sorted(set(want.values())) == [0, 100, 200, 300, 400]


def test_simhash_mega_cluster_all_pairs(ray_session):
    """Identical simhash values beyond the old 512 cap still emit every pair."""
    import ray.data
    from ner_backend_ray.ops.dedup import simhash_near_dups

    text = "alpha beta gamma delta epsilon zeta eta theta"
    rows = [{"doc_id": i, "text": text} for i in range(600)]
    pairs = simhash_near_dups(ray.data.from_items(rows), max_hamming=3)
    assert len(pairs) == 600 * 599 // 2


def test_embedding_bucket_beyond_old_cap(ray_session):
    """>2048 vectors in one LSH bucket (old cap) are still verified exactly."""
    import ray.data
    from ner_backend_ray.ops.dedup import embedding_near_dups

    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    rows = []
    for i in range(2100):
        v = base + rng.standard_normal(16) * 1e-4   # one tight cluster
        rows.append({"vec_id": i, "embedding": v.tolist()})
    far = -base + rng.standard_normal(16) * 1e-4
    rows.append({"vec_id": 9999, "embedding": far.tolist()})
    pairs = embedding_near_dups(ray.data.from_items(rows), cos_threshold=0.999)
    assert len(pairs) == 2100 * 2099 // 2


def test_canonicalize_mega_bucket_splits(ray_session):
    """Over-cap canonicalization buckets split by signature instead of dropping."""
    import pyarrow as pa
    from ner_backend_ray.stages.canonicalize import bucket_pairs, resolve_roots

    # 400 identical surface keys (same signature) + 3 distinct-but-near keys
    keys = [f"surf:Acme Corporation" for _ in range(1)]  # dedup inside fn
    keys = ["surf:Acme Corporation"] * 400 + [
        "surf:Acme Corporatio", "surf:Acme Corporation Inc", "surf:Zzz Unrelated"]
    # distinct-key set is what matters — emulate a bucket with many distinct
    # near-identical keys instead (sets dedupe identical strings)
    keys = [f"surf:Acme Corporation {i:04d}" for i in range(400)] + ["surf:qq zz"]
    g = pa.table({"entity_key": pa.array(keys, pa.string()),
                  "band": pa.array([0] * len(keys), pa.int32()),
                  "band_hash": pa.array([1] * len(keys), pa.int64())})
    out = bucket_pairs(g)
    roots = resolve_roots(list(zip(out["root"].to_pylist(),
                                   out["entity_key"].to_pylist())))
    # all 400 near-identical keys form one cluster rooted at the lexicographic min
    clustered = {k for k in roots} | set(roots.values())
    assert "surf:qq zz" not in clustered
    assert len([k for k in clustered if k.startswith("surf:Acme")]) == 400


def test_metrics_counter(ray_session):
    from ner_backend_ray.state.metrics import (incr_metric, metrics_snapshot,
                                               reset_metrics)
    reset_metrics()
    incr_metric("demo", 2)
    incr_metric("demo")
    import time
    for _ in range(50):
        if metrics_snapshot().get("demo") == 3:
            break
        time.sleep(0.05)
    assert metrics_snapshot()["demo"] == 3
    reset_metrics()


def test_neardup_pairs_lsh_exact_matches_bruteforce(ray_session):
    """LSH-blocked exact-verify pairs == brute-force char-ngram Jaccard pairs
    on the sf0.001 documents table (the predicate the DuckDB oracle uses)."""
    import itertools
    import pyarrow.parquet as pq
    import ray.data
    from ner_backend_ray.ops.dedup import char_ngram_set, neardup_pairs_lsh_exact

    SF = "/root/testdata/sf0.001"
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids, texts = t["doc_id"].to_pylist(), t["text"].to_pylist()
    sh = {i: char_ngram_set(x) for i, x in zip(ids, texts)}
    want = set()
    for i, j in itertools.combinations(sorted(ids), 2):
        inter = len(sh[i] & sh[j])
        if inter and inter / (len(sh[i]) + len(sh[j]) - inter) >= 0.7:
            want.add((i, j))
    ds = ray.data.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"])
    got = {(r["a"], r["b"])
           for r in neardup_pairs_lsh_exact(ds, jaccard_threshold=0.7).take_all()}
    assert got == want
    assert len(want) > 0  # fixture actually exercises the path


def test_lang_id_ngram_held_out_sentences():
    from ner_backend_ray.ops.textstats import lang_id_ngram
    held_out = {
        "en": "she walked through the garden and said that the weather was "
              "very nice today",
        "de": "er ging durch den garten und sagte dass das wetter heute "
              "wirklich schön ist",
        "fr": "elle marchait dans le jardin et disait que le temps était "
              "très beau aujourd'hui",
        "es": "ella caminaba por el jardín y decía que el tiempo estaba "
              "muy bueno hoy",
    }
    for lang, sentence in held_out.items():
        assert lang_id_ngram(sentence) == lang


def test_embedding_neardups_multitable_recall(ray_session):
    """16-table LSH finds a tight synthetic cluster exactly (cos >= 0.999)."""
    import numpy as np
    import ray.data
    from ner_backend_ray.ops.dedup import embedding_near_dups

    rng = np.random.default_rng(11)
    base = rng.standard_normal(32)
    rows = [{"vec_id": i, "embedding": (base + rng.standard_normal(32) * 1e-4).tolist()}
            for i in range(40)]
    rows += [{"vec_id": 100 + i, "embedding": rng.standard_normal(32).tolist()}
             for i in range(60)]
    pairs = embedding_near_dups(ray.data.from_items(rows), cos_threshold=0.999,
                                n_planes=8, n_tables=16)
    assert len(pairs) == 40 * 39 // 2
    assert all(a < 40 and b < 40 for a, b in pairs)


def test_union_find_tables_reads_arrow_columns():
    """The union-find input built from two Arrow columns, over several
    tables (an empty one and one without columns among them), gives the
    list-built ``union_find``'s map."""
    import pyarrow as pa

    from ner_backend_ray.ops.cc import union_find, union_find_tables

    edges = _disjoint_graph()
    tables = [pa.table({"a": [a for a, _ in edges[:100]],
                        "b": [b for _, b in edges[:100]]}),
              pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}),
              pa.table({}),
              pa.table({"b": [b for _, b in edges[100:]],
                        "a": [a for a, _ in edges[100:]]})]
    assert union_find_tables(tables, "a", "b") == union_find(edges)
    assert union_find_tables([], "a", "b") == {}
