"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: the exact baseline — the (small) query matrix is broadcast
  (``ray.put`` once / closure capture), each batch does one float64 matmul against
  it and emits only its local top-k rows per query (combiner); one merge
  task (:func:`merge_topk`) then reduces the k·blocks·queries partial
  rows to global top-k inside a worker. Only the k·queries RESULT rows reach the
  driver — no shuffle of the embedding table, no driver-side partial collection.
- ``lsh_topk``: the scale path — random-hyperplane buckets with multi-probe: only
  vectors sharing a bucket with the query are scored. Falls back gracefully
  (recall<1) — the standard ANN trade.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .combine import segment_rank

_TOPK_SCHEMA = pa.schema([("query_id", pa.int64()),
                          ("neighbor_id", pa.int64()),
                          ("rank", pa.int64())])


@ray.remote
def _merge_blocks(k: int, *blocks: pa.Table) -> pa.Table:
    """ONE vectorized lexsort + segment mask picks each query's k best
    partial rows by (sim desc, neighbor_id asc) — no per-query Python call."""
    blocks = [b for b in blocks if b.num_rows]
    if not blocks:
        return _TOPK_SCHEMA.empty_table()
    g = pa.concat_tables(blocks)
    q = g["query_id"].to_numpy(zero_copy_only=False)
    s = g["sim"].to_numpy(zero_copy_only=False)
    n = g["neighbor_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((n, -s, q))  # query asc, sim desc, id asc
    qs, ns = q[order], n[order]
    pos = segment_rank(qs)
    keep = pos < k
    return pa.table({"query_id": pa.array(qs[keep], pa.int64()),
                     "neighbor_id": pa.array(ns[keep], pa.int64()),
                     "rank": pa.array(pos[keep] + 1, pa.int64())})


def merge_topk(partials: ray.data.Dataset, k: int) -> pa.Table:
    """Final top-k over (query_id, neighbor_id, sim) partials, merged in ONE
    Ray task: the partials hold at most k × queries × input blocks rows,
    and at the sizes the queries run a query-bucketed shuffle over so few
    rows only adds empty groups (each a shuffle task and a schema-less
    block). The partials stay in the cluster; only the
    k·|queries| result rows reach the driver. Returns (query_id,
    neighbor_id, rank) sorted by (query, rank)."""
    out = ray.get(_merge_blocks.remote(k, *partials.to_arrow_refs()))
    return out.take(pc.sort_indices(
        out, sort_keys=[("query_id", "ascending"), ("rank", "ascending")]))


def _as_matrix(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """list<float> column → (rows × dim) float64 matrix from the flattened
    values buffer, with no per-row Python objects."""
    flat = np.asarray(pc.list_flatten(col), dtype=np.float64)
    n = len(col)
    return flat.reshape(n, flat.size // n if n else 0)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    return m / norms[:, None]


def brute_force_topk(embs: ray.data.Dataset, queries: np.ndarray,
                     query_ids: list[int], k: int = 5,
                     id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
    """Exact cosine top-k. Returns (query_id, neighbor_id, rank) — rank 1..k by
    (similarity desc, neighbor_id asc); scores stay internal so results are
    deterministic and hashable."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    qids = list(query_ids)

    def partial(batch: pa.Table) -> pa.Table:
        vecs = _normalize(_as_matrix(batch[vec_col]))
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        sims = vecs @ qn.T  # (n, q)
        out_q, out_n, out_s = [], [], []
        topk = min(k, len(ids))
        for qi in range(len(qids)):
            col = sims[:, qi]
            # local top-k partial per query (combiner) — avoids shuffling the table
            idx = np.lexsort((ids, -col))[:topk]
            out_q.extend([qids[qi]] * len(idx))
            out_n.extend(ids[idx].tolist())
            out_s.extend(col[idx].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    return merge_topk(embs.map_batches(partial, batch_format="pyarrow"), k)


def _lsh_probe_sets(queries: np.ndarray, n_planes: int, probe_bits: int,
                    seed: int):
    """Shared deterministic probe-set construction for lsh_topk /
    lsh_candidates: random hyperplanes, query buckets, and per-query probe
    buckets (exact bucket + all ≤probe_bits-bit flips)."""
    from itertools import combinations
    q = np.asarray(queries, dtype=np.float64)
    planes = np.random.default_rng(seed).standard_normal((q.shape[1], n_planes))
    powers = 1 << np.arange(n_planes)
    q_buckets = ((q @ planes) > 0).dot(powers).astype(np.int64)
    flips = [0]
    for nbits in range(1, probe_bits + 1):
        for bits in combinations(range(n_planes), nbits):
            flips.append(sum(1 << b for b in bits))
    probe_sets = [{int(b) ^ f for f in flips} for b in q_buckets]
    return q, planes, powers, probe_sets, set().union(*probe_sets)


def lsh_candidates(embs: ray.data.Dataset, queries: np.ndarray,
                   query_ids: list[int], n_planes: int = 8,
                   probe_bits: int = 1, seed: int = 7, id_col: str = "vec_id",
                   vec_col: str = "embedding") -> ray.data.Dataset:
    """The (query_id, vec_id) candidate pairs lsh_topk would score — the
    verification seam: an exact top-k restricted to these pairs (SQL oracle)
    must equal lsh_topk's output. Same planes/probes (same seed) by
    construction."""
    _, planes, powers, probe_sets, all_probes = _lsh_probe_sets(
        queries, n_planes, probe_bits, seed)
    qids = list(query_ids)

    def pairs(batch: pa.Table) -> pa.Table:
        vecs = _as_matrix(batch[vec_col])
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        buckets = ((vecs @ planes) > 0).dot(powers).astype(np.int64)
        out_q, out_v = [], []
        for qi, qid in enumerate(qids):
            cand = np.isin(buckets, list(probe_sets[qi]))
            out_q.extend([qid] * int(cand.sum()))
            out_v.extend(ids[cand].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_v, pa.int64())})

    return embs.map_batches(pairs, batch_format="pyarrow")


def lsh_topk(embs: ray.data.Dataset, queries: np.ndarray, query_ids: list[int],
             k: int = 5, n_planes: int = 8, probe_bits: int = 1, seed: int = 7,
             id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
    """Approximate cosine top-k: score only vectors whose hyperplane bucket matches
    a query bucket (multi-probe: exact bucket + up-to-``probe_bits``-bit flips)."""
    q, planes, powers, probe_sets, all_probes = _lsh_probe_sets(
        queries, n_planes, probe_bits, seed)
    qn = _normalize(q)
    qids = list(query_ids)

    def partial(batch: pa.Table) -> pa.Table:
        vecs = _as_matrix(batch[vec_col])
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        buckets = ((vecs @ planes) > 0).dot(powers).astype(np.int64)
        mask = np.isin(buckets, list(all_probes))
        if not mask.any():
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        vecs, ids, buckets = vecs[mask], ids[mask], buckets[mask]
        nv = _normalize(vecs)
        sims = nv @ qn.T
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            cand = np.isin(buckets, list(probe_sets[qi]))
            if not cand.any():
                continue
            col = sims[cand, qi]
            cids = ids[cand]
            idx = np.lexsort((cids, -col))[:k]
            out_q.extend([qids[qi]] * len(idx))
            out_n.extend(cids[idx].tolist())
            out_s.extend(col[idx].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    return merge_topk(embs.map_batches(partial, batch_format="pyarrow"), k)


# --------------------------------- IVF ---------------------------------

def build_ivf_centroids(embs: ray.data.Dataset, n_centroids: int = 16,
                        iters: int = 5, seed: int = 11,
                        vec_col: str = "embedding",
                        sample_rows: int = 4096) -> np.ndarray:
    """Deterministic distributed-ish k-means coarse quantizer: init from a
    driver-side sample (small), then `iters` rounds of assign(+partial sums) via
    map_batches and centroid update on the driver. The per-round shuffle moves
    only (centroid, partial_sum, count) rows — the classic combiner pattern."""
    sample = embs.limit(sample_rows).take_all()
    mat = _normalize(np.array([r[vec_col] for r in sample], dtype=np.float64))
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mat), size=min(n_centroids, len(mat)), replace=False)
    centroids = mat[np.sort(idx)]

    for _ in range(iters):
        cref = centroids

        def partial(batch: pa.Table) -> pa.Table:
            vecs = _normalize(_as_matrix(batch[vec_col]))
            assign = np.argmax(vecs @ cref.T, axis=1)
            sums, counts = [], []
            for c in range(len(cref)):
                mask = assign == c
                sums.append(vecs[mask].sum(axis=0))
                counts.append(int(mask.sum()))
            return pa.table({
                "centroid": pa.array(range(len(cref)), pa.int32()),
                "psum": pa.array([s.tolist() for s in sums],
                                 pa.list_(pa.float64())),
                "pcount": pa.array(counts, pa.int64()),
            })

        parts = embs.map_batches(partial, batch_format="pyarrow").take_all()
        dim = centroids.shape[1]
        acc = np.zeros((len(centroids), dim))
        cnt = np.zeros(len(centroids))
        for r in parts:
            acc[r["centroid"]] += np.array(r["psum"])
            cnt[r["centroid"]] += r["pcount"]
        nonzero = cnt > 0
        centroids = centroids.copy()
        centroids[nonzero] = _normalize(acc[nonzero] / cnt[nonzero, None])
    return centroids


def ivf_topk(embs: ray.data.Dataset, queries: np.ndarray, query_ids: list[int],
             k: int = 5, n_centroids: int = 16, nprobe: int = 4,
             centroids: np.ndarray | None = None,
             id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
    """IVF approximate top-k: score only vectors whose nearest centroid is among
    each query's `nprobe` closest centroids. Centroids are broadcast; candidate
    scoring is a per-batch matmul combiner like brute_force_topk."""
    if centroids is None:
        centroids = build_ivf_centroids(embs, n_centroids, vec_col=vec_col)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_probes = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    probe_sets = [set(int(c) for c in row) for row in q_probes]
    qids = list(query_ids)

    def partial(batch: pa.Table) -> pa.Table:
        vecs = _normalize(_as_matrix(batch[vec_col]))
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        assign = np.argmax(vecs @ centroids.T, axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            cand = np.isin(assign, list(probe_sets[qi]))
            if not cand.any():
                continue
            col = vecs[cand] @ qn[qi]
            cids = ids[cand]
            idx = np.lexsort((cids, -col))[:k]
            out_q.extend([qids[qi]] * len(idx))
            out_n.extend(cids[idx].tolist())
            out_s.extend(col[idx].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "neighbor_id": pa.array(out_n, pa.int64()),
                         "sim": pa.array(out_s, pa.float64())})

    return merge_topk(embs.map_batches(partial, batch_format="pyarrow"), k)
