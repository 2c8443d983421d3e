"""Tests for the training-data ops over the driver testdata tables."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data
    return ray.data.read_parquet(f"{SF_DIR}/documents.parquet")


@pytest.fixture(scope="module")
def embs_ds(ray_session):
    import ray.data
    return ray.data.read_parquet(f"{SF_DIR}/embeddings.parquet")


def test_dedup_exact_matches_duckdb(docs_ds):
    import duckdb
    from ner_backend_ray.ops.dedup import dedup_exact
    got = sorted(r["doc_id"] for r in dedup_exact(docs_ds).take_all())
    want = [r[0] for r in duckdb.sql(
        f"SELECT min(doc_id) FROM '{SF_DIR}/documents.parquet' "
        "GROUP BY md5(text) ORDER BY 1").fetchall()]
    assert got == want


def test_minhash_finds_planted_near_dups(ray_session):
    import ray.data
    from ner_backend_ray.ops.cc import resolve_roots_budgeted
    from ner_backend_ray.ops.dedup import neardup_pairs_lsh_exact
    base = ("spark join filter the quick brown fox jumps over the lazy dog "
            "while streams wind through valleys " * 3)
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " tiny suffix"},          # near-dup of 1
        {"doc_id": 3, "text": base.replace("fox", "cat")},     # near-dup of 1
        {"doc_id": 4, "text": "completely different words about databases and engines"},
    ]
    roots = resolve_roots_budgeted(neardup_pairs_lsh_exact(
        ray.data.from_items(rows), jaccard_threshold=0.7))
    assert roots.get(2) == 1 and roots.get(3) == 1
    assert 4 not in roots


def test_simhash_near_dups(ray_session):
    import ray.data
    from ner_backend_ray.ops.dedup import simhash_near_dups
    # 9 distinct tokens x3 → per-bit accumulator is 3*(odd sum), never 0, so one
    # extra token flips at most the bits where |acc|<1 → none: tiny Hamming dist
    base = "alpha beta gamma delta epsilon zeta eta theta iota " * 3
    rows = [{"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base + "kappa"},
            {"doc_id": 3, "text": "unrelated content entirely here today friend"}]
    pairs = simhash_near_dups(ray.data.from_items(rows), max_hamming=3)
    assert (1, 2) in pairs
    assert all(3 not in p for p in pairs)


def test_embedding_near_dups(ray_session):
    import ray.data
    from ner_backend_ray.ops.dedup import embedding_near_dups
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    rows = [{"vec_id": 1, "embedding": v.tolist()},
            {"vec_id": 2, "embedding": (v + 0.01 * rng.standard_normal(16)).tolist()},
            {"vec_id": 3, "embedding": rng.standard_normal(16).tolist()}]
    pairs = embedding_near_dups(ray.data.from_items(rows), cos_threshold=0.99)
    assert (1, 2) in pairs and len(pairs) == 1


def test_brute_force_topk_exact(embs_ds):
    from ner_backend_ray.ops.ann import brute_force_topk
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist())
    queries = mat[:3]
    got = brute_force_topk(embs_ds, queries, [0, 1, 2], k=5)
    # reference: direct numpy
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sims = nm @ qn.T
    for qi in range(3):
        order = np.lexsort((ids, -sims[:, qi]))[:5]
        want = ids[order].tolist()
        rows = [r for r in got.to_pylist() if r["query_id"] == qi]
        rows.sort(key=lambda r: r["rank"])
        assert [r["neighbor_id"] for r in rows] == want


def test_lsh_topk_reasonable_recall(embs_ds):
    from ner_backend_ray.ops.ann import brute_force_topk, lsh_topk
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    queries = mat[:3]
    exact = brute_force_topk(embs_ds, queries, [0, 1, 2], k=5).to_pylist()
    approx = lsh_topk(embs_ds, queries, [0, 1, 2], k=5, n_planes=8, probe_bits=2).to_pylist()
    exact_sets = {q: {r["neighbor_id"] for r in exact if r["query_id"] == q} for q in (0, 1, 2)}
    approx_sets = {q: {r["neighbor_id"] for r in approx if r["query_id"] == q} for q in (0, 1, 2)}
    # the query vectors are rows of the table, so the self-neighbor (rank 1) must
    # always be found (same bucket by construction)
    for q in (0, 1, 2):
        assert q in approx_sets[q]
    recall = np.mean([len(exact_sets[q] & approx_sets[q]) / 5 for q in (0, 1, 2)])
    # random dim-64 embeddings ≈ uniform cosine: LSH recall is modest by nature,
    # but must beat the ~15% bucket-coverage chance level clearly
    assert recall >= 0.4


def test_lsh_candidates_seam_consistent(embs_ds):
    """The export seam: lsh_candidates (same seed/planes) must admit every
    neighbor lsh_topk reports, and an exact top-k restricted to the candidate
    set must reproduce lsh_topk's ranking — what the SQL oracle re-derives."""
    from ner_backend_ray.ops.ann import lsh_candidates, lsh_topk
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist())
    queries = mat[:3]
    topk = lsh_topk(embs_ds, queries, [0, 1, 2], k=5, n_planes=8,
                    probe_bits=2).to_pylist()
    cand = lsh_candidates(embs_ds, queries, [0, 1, 2], n_planes=8,
                          probe_bits=2).take_all()
    cand_sets: dict[int, set] = {0: set(), 1: set(), 2: set()}
    for r in cand:
        cand_sets[r["query_id"]].add(r["vec_id"])
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    for q in (0, 1, 2):
        got = sorted((r for r in topk if r["query_id"] == q),
                     key=lambda r: r["rank"])
        assert all(r["neighbor_id"] in cand_sets[q] for r in got)
        cmask = np.isin(ids, list(cand_sets[q]))
        sims = nm[cmask] @ nm[q]
        order = np.lexsort((ids[cmask], -sims))[:5]
        assert [r["neighbor_id"] for r in got] == ids[cmask][order].tolist()


def test_fingerprint_window_hashes_kernel():
    from ner_backend_ray.ops.textstats import (fingerprint,
                                               fingerprint_window_hashes)
    assert fingerprint_window_hashes("") == [0]
    assert fingerprint("") == 0
    short = "one two three"
    assert len(fingerprint_window_hashes(short)) == 1
    assert fingerprint(short) == fingerprint_window_hashes(short)[0]
    long = " ".join(f"tok{i}" for i in range(20))
    whs = fingerprint_window_hashes(long, window=8)
    assert len(whs) == 20 - 8 + 1
    assert fingerprint(long, window=8) == min(whs)
    assert all(0 <= h < 2 ** 64 for h in whs)


def test_broadcast_and_bucket_join_agree(ray_session):
    import ray.data
    from ner_backend_ray.ops.joins import broadcast_join, bucket_hash_join
    left = ray.data.read_parquet(f"{SF_DIR}/orders.parquet",
                                 columns=["o_orderkey", "o_custkey", "o_totalprice"])
    right_t = pq.read_table(f"{SF_DIR}/customer.parquet",
                            columns=["c_custkey", "c_name"]).rename_columns(
                                ["o_custkey", "c_name"])
    got_b = broadcast_join(left, right_t, "o_custkey").to_pandas()
    right_ds = ray.data.from_arrow(right_t)
    got_h = bucket_hash_join(left, right_ds, "o_custkey", n_buckets=8).to_pandas()
    want = (pq.read_table(f"{SF_DIR}/orders.parquet",
                          columns=["o_orderkey", "o_custkey", "o_totalprice"])
            .to_pandas().merge(right_t.to_pandas(), on="o_custkey"))
    for got in (got_b, got_h):
        a = got.sort_values(["o_orderkey"]).reset_index(drop=True)[want.columns.tolist()]
        b = want.sort_values(["o_orderkey"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_gated_dim_join_size_switch(ray_session, monkeypatch):
    """The size-gated planner rule (round-3 verdict item 1): with the budget
    forced to 0 every dimension table routes through bucket_hash_join, and the
    result is identical to the broadcast path."""
    from ner_backend_ray.pipelines.queries import (q_regional_revenue,
                                                   q_topk_per_group)

    def run(name, fn):
        out = fn(SF_DIR)
        d = out.to_pandas() if hasattr(out, "to_pandas") else out.to_pandas()
        return d.sort_values(list(d.columns)).reset_index(drop=True)

    monkeypatch.delenv("GRAFT_BROADCAST_BUDGET_BYTES", raising=False)
    bc_topk = run("topk", q_topk_per_group)
    bc_rev = run("rev", q_regional_revenue)
    monkeypatch.setenv("GRAFT_BROADCAST_BUDGET_BYTES", "0")
    pd.testing.assert_frame_equal(run("topk", q_topk_per_group), bc_topk,
                                  check_dtype=False)
    pd.testing.assert_frame_equal(run("rev", q_regional_revenue), bc_rev,
                                  check_dtype=False)


def test_char_gram_matrix_matches_sets():
    """The vectorized shingle-matrix kernel (round-3 verdict item 4) is an
    exact stand-in for per-rep char_ngram_set comparisons."""
    import numpy as np
    from ner_backend_ray.ops.dedup import char_gram_matrix, char_ngram_set
    texts = ["", "a", "abc", "the quick brown fox", "the quick brown fix",
             "héllo wörld", "日本語テスト", "abc" * 50]
    m, sizes = char_gram_matrix(texts, 3)
    for i, t in enumerate(texts):
        assert sizes[i] == len(char_ngram_set(t, 3))
    for i in range(len(texts)):
        for j in range(len(texts)):
            want = len(char_ngram_set(texts[i], 3) & char_ngram_set(texts[j], 3))
            assert int(m[i] @ m[j]) == want


def test_tumbling_window_matches_pandas(ray_session):
    import ray.data
    from ner_backend_ray.ops.window import tumbling_window
    events = ray.data.read_parquet(f"{SF_DIR}/events.parquet")
    got = tumbling_window(events).to_pandas().sort_values(
        ["event_type", "window_start"]).reset_index(drop=True)
    df = pq.read_table(f"{SF_DIR}/events.parquet").to_pandas()
    df["window_start"] = (df["ts"].astype("int64") // 1_000_000 // 3600 * 3600 * 1_000_000)
    want = (df.groupby(["event_type", "window_start"], as_index=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
            .sort_values(["event_type", "window_start"]).reset_index(drop=True))
    assert got["n_events"].sum() == want["n_events"].sum()
    assert len(got) == len(want)
    np.testing.assert_allclose(
        got.sort_values(["event_type", "window_start"])["sum_value"].to_numpy(),
        want["sum_value"].to_numpy(), rtol=1e-9)


def test_quality_and_langid(ray_session):
    import ray.data
    from ner_backend_ray.ops.textstats import (lang_id, quality_features,
                                               quality_filter, total_tokens)
    t = pa.table({"text": pa.array(["the quick brown fox is in the house",
                                    "x!!!", ""])})
    f = quality_features(t)
    assert f["n_tokens"].to_pylist() == [8, 1, 0]
    assert f["punct_ratio"].to_pylist()[1] > 0.5
    assert lang_id("the cat and the dog is in that house for a while") == "en"
    assert lang_id("der hund und die katze ist nicht im haus") == "de"
    ds = ray.data.from_arrow(t)
    assert quality_filter(ds, min_tokens=2).count() == 1
    assert total_tokens(ds) == 9


def test_redact_exact():
    from ner_backend_ray.ops.redact import redact_text
    text = b"Call Leo Morgan at 012-345-6789 or ask Leo Morgan."
    ents = [
        {"start": 5, "end": 15, "label": "NAME", "text": "Leo Morgan"},
        {"start": 19, "end": 31, "label": "PHONENUMBER", "text": "012-345-6789"},
        {"start": 39, "end": 49, "label": "NAME", "text": "Leo Morgan"},
    ]
    red, assigned = redact_text(text, ents)
    assert red == "Call [NAME_1] at [PHONENUMBER_1] or ask [NAME_1]."
    assert assigned == {"Leo Morgan_NAME": "[NAME_1]",
                        "012-345-6789_PHONENUMBER": "[PHONENUMBER_1]"}


def test_ivf_topk_self_neighbor_and_recall(embs_ds):
    from ner_backend_ray.ops.ann import brute_force_topk, build_ivf_centroids, ivf_topk
    t = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    queries = mat[:3]
    cents = build_ivf_centroids(embs_ds, n_centroids=8, iters=3)
    assert cents.shape[1] == mat.shape[1]
    exact = brute_force_topk(embs_ds, queries, [0, 1, 2], k=5).to_pylist()
    approx = ivf_topk(embs_ds, queries, [0, 1, 2], k=5, nprobe=4,
                      centroids=cents).to_pylist()
    exact_sets = {q: {r["neighbor_id"] for r in exact if r["query_id"] == q}
                  for q in (0, 1, 2)}
    approx_sets = {q: {r["neighbor_id"] for r in approx if r["query_id"] == q}
                   for q in (0, 1, 2)}
    for q in (0, 1, 2):
        # self-vector shares its own centroid by construction → always found
        assert q in approx_sets[q]
    recall = np.mean([len(exact_sets[q] & approx_sets[q]) / 5 for q in (0, 1, 2)])
    assert recall >= 0.4  # nprobe=4 of 8 centroids ≈ half the space scanned


def test_lang_id_ngram():
    from ner_backend_ray.ops.textstats import lang_id_ngram
    assert lang_id_ngram("the cat and the dog were in the house with the children") == "en"
    assert lang_id_ngram("der hund und die katze waren mit den kindern im haus") == "de"
    assert lang_id_ngram("le chien et le chat étaient dans la maison avec les enfants") == "fr"
    assert lang_id_ngram("el perro y el gato estaban en la casa con los niños") == "es"
    assert lang_id_ngram("") == "und"


def test_minhash_sig_vectorized_properties():
    from ner_backend_ray.ops.dedup import minhash_sig
    a = minhash_sig("the quick brown fox jumps over the lazy dog " * 3)
    b = minhash_sig("the quick brown fox jumps over the lazy dog " * 3)
    assert (a == b).all() and a.dtype == np.uint32 and len(a) == 64
    c = minhash_sig("completely different text about engines and databases")
    sim_ab = float(np.mean(a == b))
    sim_ac = float(np.mean(a == c))
    assert sim_ab == 1.0 and sim_ac < 0.3


def test_minhash_sigs_batch_matches_single():
    """The batched kernel must be bit-identical to the per-text path (the
    canonicalize band-row stage and the sequential oracle rely on it)."""
    from ner_backend_ray.ops.dedup import minhash_sig, minhash_sigs_batch
    texts = ["john smith", "jon smith", "acme corporation", "x",
             "the quick brown fox " * 5, ""]
    datas = [t.lower().encode("utf-8") for t in texts]
    batch = minhash_sigs_batch(datas, k=64)
    for t, row in zip(texts, batch):
        assert (row == minhash_sig(t, k=64)).all()
    assert minhash_sigs_batch([], 64).shape == (0, 64)


def test_simhash_pairs_distinct_and_match_collector(ray_session):
    """simhash_pairs emits each pair exactly once (first-intact-block
    ownership — no dedup shuffle needed) and agrees with the driver-scale
    collector."""
    import ray.data
    from ner_backend_ray.ops.dedup import simhash_near_dups, simhash_pairs
    base = "alpha beta gamma delta epsilon zeta eta theta iota " * 3
    rows = [{"doc_id": 1, "text": base},
            {"doc_id": 2, "text": base + "kappa"},
            {"doc_id": 3, "text": base},            # identical to 1
            {"doc_id": 4, "text": base},            # identical to 1
            {"doc_id": 5, "text": "unrelated content entirely here today friend"}]
    ds = ray.data.from_items(rows)
    raw = [(r["a"], r["b"]) for r in simhash_pairs(ds, max_hamming=3).take_all()]
    assert len(raw) == len(set(raw)), "pair emitted from more than one block"
    assert set(raw) == set(simhash_near_dups(ds, max_hamming=3))
    assert {(1, 3), (1, 4), (3, 4), (1, 2)} <= set(raw)


def test_embedding_pairs_distinct_across_tables(ray_session):
    """With n_tables>1 a colliding pair lands in several tables; the pair
    Dataset must still emit it once (first-collision ownership)."""
    import ray.data
    from ner_backend_ray.ops.dedup import embedding_near_dups, embedding_pairs
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    w = rng.standard_normal(16)
    rows = [{"vec_id": 1, "embedding": v.tolist()},
            {"vec_id": 2, "embedding": (v + 0.01 * rng.standard_normal(16)).tolist()},
            {"vec_id": 3, "embedding": (v + 0.01 * rng.standard_normal(16)).tolist()},
            {"vec_id": 4, "embedding": w.tolist()},
            {"vec_id": 5, "embedding": rng.standard_normal(16).tolist()}]
    ds = ray.data.from_items(rows)
    raw = [(r["a"], r["b"]) for r in
           embedding_pairs(ds, cos_threshold=0.99, n_planes=6, n_tables=8).take_all()]
    assert len(raw) == len(set(raw)), "pair emitted from more than one table"
    pairs = embedding_near_dups(ds, cos_threshold=0.99, n_planes=6, n_tables=8)
    assert set(raw) == set(pairs)
    assert {(1, 2), (1, 3), (2, 3)} <= set(raw)


def _asof_brute(levts, revts, allow_exact):
    """Per-row reference for asof_join: max (on, tiebreak) right row ≤/< left on."""
    out = []
    for (lk, lon, lid) in levts:
        best = None
        for (rk, ron, rid, rv) in revts:
            if rk != lk:
                continue
            if ron > lon or (not allow_exact and ron == lon):
                continue
            if best is None or (ron, rid) > (best[0], best[1]):
                best = (ron, rid, rv)
        out.append((lid, None if best is None else best[1],
                    None if best is None else best[2]))
    return sorted(out)


def test_asof_join_matches_bruteforce(ray_session):
    import numpy as np
    import ray.data
    from ner_backend_ray.ops.joins import asof_join
    rng = np.random.default_rng(11)
    n_l, n_r = 300, 200
    levts = [(int(rng.integers(0, 9)), int(rng.integers(0, 50)), i)
             for i in range(n_l)]
    revts = [(int(rng.integers(0, 9)), int(rng.integers(0, 50)), 1000 + i,
              float(i) / 4) for i in range(n_r)]
    left = ray.data.from_arrow(pa.table({
        "k": [e[0] for e in levts], "ts": pa.array([e[1] for e in levts], pa.int64()),
        "lid": [e[2] for e in levts]}))
    right = ray.data.from_arrow(pa.table({
        "rk": [e[0] for e in revts], "rts": pa.array([e[1] for e in revts], pa.int64()),
        "rid": pa.array([e[2] for e in revts], pa.int64()),
        "rv": [e[3] for e in revts]}))
    for allow_exact in (True, False):
        got = asof_join(left, right, left_by="k", right_by="rk",
                        left_on="ts", right_on="rts", tiebreak="rid",
                        allow_exact_matches=allow_exact, n_buckets=4)
        tbl = pa.concat_tables([b for b in got.iter_batches(batch_format="pyarrow")])
        # dtype contract: right int column stays int64-with-nulls, not float
        assert tbl.schema.field("rid").type == pa.int64()
        rows = sorted((r["lid"], r["rid"], r["rv"]) for r in tbl.to_pylist())
        assert rows == _asof_brute(levts, revts, allow_exact)


def test_range_join_matches_bruteforce(ray_session):
    import numpy as np
    import ray.data
    from ner_backend_ray.ops.joins import range_join
    rng = np.random.default_rng(13)
    levts = [(int(rng.integers(0, 7)), int(rng.integers(0, 40)), i)
             for i in range(250)]
    revts = [(int(rng.integers(0, 7)), int(rng.integers(0, 40)), 1000 + i)
             for i in range(250)]
    left = ray.data.from_arrow(pa.table({
        "k": [e[0] for e in levts], "ts": pa.array([e[1] for e in levts], pa.int64()),
        "lid": [e[2] for e in levts]}))
    right = ray.data.from_arrow(pa.table({
        "rk": [e[0] for e in revts], "rts": pa.array([e[1] for e in revts], pa.int64()),
        "rid": pa.array([e[2] for e in revts], pa.int64())}))
    lo, hi = -5, 3  # window [ts-5, ts+3): crosses zero, asymmetric
    got = range_join(left, right, left_by="k", right_by="rk",
                     left_on="ts", right_on="rts",
                     low_offset=lo, high_offset=hi, n_buckets=4)
    rows = sorted((r["lid"], r["rid"]) for r in got.take_all())
    want = sorted((l[2], r[2]) for l in levts for r in revts
                  if l[0] == r[0] and l[1] + lo <= r[1] < l[1] + hi)
    assert rows == want


def test_range_join_empty_side(ray_session):
    import ray.data
    from ner_backend_ray.ops.joins import range_join
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()), "ts": pa.array([5, 9], pa.int64()),
        "lid": pa.array([0, 1], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([], pa.int64()), "rts": pa.array([], pa.int64()),
        "rid": pa.array([], pa.int64())}))
    assert range_join(left, right, "k", "rk", "ts", "rts", -2, 2,
                      n_buckets=2).count() == 0


def test_edit1_pairs_matches_brute_force(ray_session):
    """Deletion-neighborhood blocking + exact verify == brute-force DP
    Levenshtein <= 1 over distinct values (duplicates in the input collapse)."""
    import random

    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.fuzzy import edit1_pairs

    def lev(a: str, b: str) -> int:  # independent DP oracle
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    rng = random.Random(11)
    vocab = ["".join(rng.choice("abc") for _ in range(rng.randint(1, 5)))
             for _ in range(300)]
    vocab += [w + "x" for w in vocab[:40]]          # insertion neighbors
    vocab += [w.replace("a", "b", 1) for w in vocab[:40]]  # substitution
    rows = vocab * 2 + vocab[:50]                   # duplicates in the input
    rng.shuffle(rows)
    ds = ray.data.from_arrow(pa.table({"s": pa.array(rows, pa.string())}))
    ds = ds.repartition(5)

    got = {(r["a"], r["b"])
           for r in edit1_pairs(ds, "s", n_buckets=8).take_all()}
    uniq = sorted(set(rows))
    want = {(a, b) for i, a in enumerate(uniq) for b in uniq[i + 1:]
            if lev(a, b) <= 1}
    assert got == want
    assert all(a < b for a, b in got)


def test_interval_self_pairs_matches_brute_force(ray_session):
    """Tiled overlap join == brute-force over all pairs, with small tiles
    forcing multi-tile replication + ownership dedup, equal starts, and
    zero-length / inverted (dropped) intervals."""
    import random

    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.intervals import interval_self_pairs

    rng = random.Random(23)
    ids, ss, ee = [], [], []
    for i in range(400):
        s = rng.randrange(0, 3000)
        ln = rng.choice([0, 1, 3, 7, 40, 200])  # incl. zero-length + long
        ids.append(i)
        ss.append(s)
        ee.append(s + ln)
    ss[7] = ss[8] = 100; ee[7] = 105; ee[8] = 101        # equal starts
    ids.append(400); ss.append(50); ee.append(40)        # inverted: dropped
    ds = ray.data.from_arrow(pa.table({
        "id": pa.array(ids, pa.int64()), "s": pa.array(ss, pa.int64()),
        "e": pa.array(ee, pa.int64())})).repartition(6)

    want = set()
    rows = [(i, s, e) for i, s, e in zip(ids, ss, ee) if e >= s]
    for x in range(len(rows)):
        for y in range(len(rows)):
            (ia, sa, ea), (ib, sb, eb) = rows[x], rows[y]
            if (sa, ia) < (sb, ib) and sb <= ea and sa <= eb:
                want.add((ia, ib))

    for width in (None, 16):  # default (>= max len) and forced tiny tiles
        got = {(r["a_id"], r["b_id"]) for r in
               interval_self_pairs(ds, "id", "s", "e", tile_width=width,
                                   n_buckets=4).take_all()}
        assert got == want


def test_interval_self_pairs_empty(ray_session):
    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.intervals import interval_self_pairs
    ds = ray.data.from_arrow(pa.table({
        "id": pa.array([], pa.int64()), "s": pa.array([], pa.int64()),
        "e": pa.array([], pa.int64())}))
    assert interval_self_pairs(ds, "id", "s", "e").count() == 0


def test_anyorder_funnel_matches_brute_force(ray_session):
    """Set-coverage funnel == brute-force any-window check, including users
    missing a stage, exact window-boundary hits, and out-of-order stages."""
    import random

    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.funnel import anyorder_funnel

    rng = random.Random(31)
    stages = ["a", "b", "c"]
    rows = []
    for u in range(60):
        for _ in range(rng.randrange(1, 9)):
            rows.append((u, rng.randrange(0, 1000),
                         rng.choice(stages + ["x"])))
    rows.append((100, 10, "c"))   # out of order but within window
    rows.append((100, 11, "a"))
    rows.append((100, 12, "b"))
    rows.append((101, 0, "a"))    # exact boundary: b at t+W inclusive
    rows.append((101, 50, "b"))
    rows.append((101, 25, "c"))
    W = 50
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows])})).repartition(5)

    by_user: dict[int, list[tuple[int, str]]] = {}
    for u, t, s in rows:
        by_user.setdefault(u, []).append((t, s))
    done = 0
    for u, evs in by_user.items():
        ok = any(all(any(t <= t2 <= t + W for t2, s2 in evs if s2 == s)
                     for s in stages) for t, _ in evs)
        done += ok
    got = anyorder_funnel(ds, stages, window=W, n_buckets=4).take_all()
    assert got == [{"n_completed": done, "n_users": len(by_user)}]


def test_retention_cohorts_matches_brute_force(ray_session):
    import random
    from collections import defaultdict

    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.funnel import retention_cohorts

    rng = random.Random(7)
    P = 100
    rows = [(u, rng.randrange(0, 2500))
            for u in range(80) for _ in range(rng.randrange(1, 7))]
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64())})).repartition(5)

    first: dict[int, int] = {}
    for u, t in rows:
        first[u] = min(first.get(u, 1 << 60), t // P)
    want: dict[tuple[int, int], set] = defaultdict(set)
    for u, t in rows:
        want[(first[u], t // P - first[u])].add(u)
    got = {(r["cohort"], r["offset"]): r["n_users"]
           for r in retention_cohorts(ds, period=P).take_all()}
    assert got == {k: len(v) for k, v in want.items()}


def test_canonicalize_url_column_vectors():
    """Handcrafted spellings → canonical identities, incl. the corners:
    consecutive tracking params, tracking-only query, non-default scheme
    keeps its port, non-URLs pass through."""
    import pyarrow as pa

    from ner_backend_ray.ops.urlnorm import canonicalize_url_column

    cases = [
        ("HTTPS://WWW.Ex.COM:443/A/b/?utm_s=1&gclid=2#frag",
         "https://ex.com/A/b"),
        ("http://ex.com:80/x?utm_a=1&utm_b=2&c=3", "http://ex.com/x?c=3"),
        ("http://ex.com/x?a=1&utm_z=9", "http://ex.com/x?a=1"),
        ("https://ex.com:8443/x", "https://ex.com:8443/x"),
        ("ftp://WWW.Ex.com:443/f/", "ftp://ex.com:443/f"),
        ("http://www.ex.com", "http://ex.com"),
        ("http://ex.com/", "http://ex.com"),
        ("not a url", "not a url"),
        ("https://ex.com/p?page=2", "https://ex.com/p?page=2"),
        # names that merely contain a tracking name, and a path segment
        # spelled like one, are page identity: kept verbatim
        ("http://ex.com/p?xgclid=5&b=1", "http://ex.com/p?xgclid=5&b=1"),
        ("http://ex.com/gclid=path", "http://ex.com/gclid=path"),
        ("http://ex.com/p?my_utm_source=x", "http://ex.com/p?my_utm_source=x"),
    ]
    got = canonicalize_url_column(
        pa.array([c[0] for c in cases])).to_pylist()
    assert got == [c[1] for c in cases]


def test_cross_doc_dup_grams_matches_brute_force(ray_session):
    """Offset-sweep + bucketed tally == brute-force distinct-gram sets,
    incl. docs shorter than the gram, within-doc repeats (count once), and
    grams duplicated across >2 docs."""
    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.dedup import cross_doc_dup_grams

    L = 5
    texts = {
        0: "abcdefghij",          # shares 'bcdef'.. with 1
        1: "xbcdefgzzzbcdef",     # 'bcdef' twice within doc -> counts once
        2: "zzzzzzzz",            # run: its grams all equal, shared w/ 3
        3: "qqzzzzzq",
        4: "tiny",                # shorter than L -> no grams
        5: "unique content here",
    }
    want = {}
    grams = {d: {t[i:i + L] for i in range(len(t) - L + 1)}
             for d, t in texts.items()}
    for d, gs in grams.items():
        n = sum(1 for g in gs
                if any(g in grams[o] for o in grams if o != d))
        if n:
            want[d] = n
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()))})).repartition(3)
    got = {r["doc"]: r["n_dup_grams"] for r in
           cross_doc_dup_grams(ds, "text", "doc_id", gram_len=L,
                               n_buckets=4).take_all()}
    assert got == want


def test_trailing_active_counts_matches_brute_force(ray_session):
    """Exploded-window distinct == brute-force trailing-window sets, incl.
    day gaps (windows anchored only at present days) and multi-day users."""
    import random
    from collections import defaultdict

    import pyarrow as pa

    import ray.data
    from ner_backend_ray.ops.window import trailing_active_counts

    rng = random.Random(13)
    rows = [(rng.randrange(0, 40),
             rng.choice([1, 2, 3, 5, 9, 17, 25, 33]) * 100 + rng.randrange(100))
            for _ in range(400)]  # gappy day distribution
    ds = ray.data.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.int64())})).repartition(5)

    P, W = 100, 7
    active = defaultdict(set)
    for u, t in rows:
        active[t // P].add(u)
    days = sorted(active)
    want = {d: len(set().union(*[active.get(d - o, set())
                                 for o in range(W)]))
            for d in days}
    got = {r["day"]: r["n_active"] for r in
           trailing_active_counts(ds, "user_id", "ts", period=P, window=W,
                                  n_buckets=4).take_all()}
    assert got == want
