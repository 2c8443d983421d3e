"""Canonicalization: combiner partials on entity keys + MinHash alias
clustering, then node/edge materialization.

North-rule stage (SURVEY.md §2.5 A9, §2.7 D4/D5; no reference analog). Design:

1. **Node aggregation** is a two-phase (combiner) aggregate: ``map_batches`` first
   reduces each Arrow batch to distinct (entity_key, label, surface, partial_count)
   rows — this is the implicit salt: a hot key contributes at most one row per
   (batch, label, surface), so the one shuffle that follows moves partials, not
   mentions. That shuffle is the ``canonical_id`` sort of the nodes output: the
   partials get their canonical id first, and since ``entity_key → canonical_id``
   is a function, each sort partition holds whole key runs and is merged in one
   vectorized kernel (pipelines/kg.py ``_merge_node_block``, with the two-level
   label election). Head-domain / high-frequency-entity skew therefore never
   concentrates raw mention rows on one reducer.
2. **MinHash-LSH alias clustering** merges near-duplicate *unlinked* surface keys:
   char-3-gram shingles → k=32 minhashes (the shared multiply-shift kernel from
   ops/dedup.py, batched across keys — one numpy pass per Arrow batch) → b=8
   bands of r=4 → ``groupby(band, band_hash)`` buckets → verified Jaccard >= 0.5
   pairs → min-label propagation to connected-component roots. The mapping (only
   keys that actually cluster) is small and is broadcast, not joined.
3. **canonical_id** = "e:" + blake2b(root_key)[:16], so ids are a pure function of
   cluster membership (deterministic across runs and partitionings).
4. **Edges**: triples → raw-key partial counts per batch (combiner again) →
   (subj_id, pred, obj_id) via the root mapping, re-aggregated per block →
   one sort on the triple key, summed per sort partition → weight.

Outputs are sorted by canonical id (global shuffle sort), the sort that also
groups them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..ops.dedup import band_hashes_from_sigs, minhash_sigs_batch

MINHASH_K = 32
LSH_BANDS = 8
LSH_ROWS = 4  # k = bands * rows
_JACCARD_THRESHOLD = 0.5
_BUCKET_CAP = 256   # above: split by identical-signature groups, never drop
_REP_CAP = 1024     # above: sorted-neighborhood window + metrics counter


def canonical_id(root_key: str) -> str:
    return "e:" + hashlib.blake2b(root_key.encode("utf-8"), digest_size=8).hexdigest()


def _shingles(s: str) -> set[bytes]:
    b = (" " + s + " ").encode("utf-8")
    if len(b) <= 3:
        return {b}
    return {b[i:i + 3] for i in range(len(b) - 2)}


def _key_bytes(key: str) -> bytes:
    return (" " + key + " ").encode("utf-8")


def minhash_signatures(keys: list[str]) -> np.ndarray:
    """(len(keys) × MINHASH_K) uint32 signatures over padded char-3-gram
    shingles — ops/dedup.py's multiply-shift kernel, batched across keys (the
    round-2 per-gram crc32 loop was ~100× slower and ran per distinct key in
    every band-row stage)."""
    return minhash_sigs_batch([_key_bytes(k) for k in keys], MINHASH_K)


def lsh_band_arrays(keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LSH banding for a batch of surface keys: returns
    (band_ids, band_hashes), each of shape (len(keys) × LSH_BANDS), row-major
    aligned with ``keys``."""
    sigs = minhash_signatures(keys)
    hashes = band_hashes_from_sigs(sigs, LSH_BANDS)
    bands = np.broadcast_to(np.arange(LSH_BANDS, dtype=np.int32),
                            hashes.shape)
    return bands, hashes


def lsh_band_rows(key: str) -> list[tuple[int, int]]:
    """(band_id, band_hash) pairs for one surface key (sequential-oracle path;
    the pipeline uses :func:`lsh_band_arrays` over whole batches)."""
    bands, hashes = lsh_band_arrays([key])
    return list(zip(bands[0].tolist(), hashes[0].tolist()))


def jaccard(a: str, b: str) -> float:
    sa, sb = _shingles(a), _shingles(b)
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if inter else 0.0


# ------------------------- batch-level (combiner) kernels -------------------------

def partial_node_counts(batch: pa.Table) -> pa.Table:
    """Combiner: mentions-with-entity_key batch → distinct
    (entity_key, label, surface, partial_count) rows (vectorized group-count)."""
    t = pa.table({"entity_key": batch["entity_key"], "label": batch["label"],
                  "surface": batch["text"]})
    agg = t.group_by(["entity_key", "label", "surface"]).aggregate([([], "count_all")])
    return agg.rename_columns(["entity_key", "label", "surface", "partial_count"])


def bucket_pairs(group: pa.Table) -> pa.Table:
    """map_groups over (band, band_hash): emit verified near-dup (key, root) edges,
    root = lexicographic min of the verified pair.

    Mega buckets are SPLIT, not dropped (round-1 verdict fix): above
    ``_BUCKET_CAP`` distinct keys, identical-signature groups link via O(n)
    verified star edges (covers template-duplicate surfaces at any size) and
    pairwise verification runs over one representative per distinct signature;
    above ``_REP_CAP`` representatives a sorted-neighborhood window applies and
    the bucket is counted in the metrics actor ("canon_lossy_buckets")."""
    keys = sorted(set(group["entity_key"].to_pylist()))
    out_key, out_root = [], []
    n = len(keys)

    def emit(a: str, b: str) -> None:
        if jaccard(a[5:], b[5:]) >= _JACCARD_THRESHOLD:  # strip "surf:"
            out_key.append(b)
            out_root.append(a)

    if 1 < n <= _BUCKET_CAP:
        for i in range(n):
            for j in range(i + 1, n):
                emit(keys[i], keys[j])
    elif n > _BUCKET_CAP:
        sigs = minhash_signatures([k[5:] for k in keys])
        by_sig: dict[bytes, list[str]] = {}
        for k, sig in zip(keys, sigs):
            by_sig.setdefault(sig.tobytes(), []).append(k)
        reps = sorted(ids[0] for ids in by_sig.values())  # keys pre-sorted
        for ids in by_sig.values():
            for k in ids[1:]:
                emit(ids[0], k)
        if len(reps) <= _REP_CAP:
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    emit(reps[i], reps[j])
        else:
            from ..state.metrics import incr_metric
            incr_metric("canon_lossy_buckets")
            for w in range(1, 17):
                for a, b in zip(reps[:-w], reps[w:]):
                    emit(a, b)
    return pa.table({"entity_key": pa.array(out_key, pa.string()),
                     "root": pa.array(out_root, pa.string())})


def resolve_roots(edges: list[tuple[str, str]]) -> dict[str, str]:
    """Union-find over the (small) verified near-dup edge list → key → root map."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for k, r in edges:
        rk, rr = find(k), find(r)
        if rk != rr:
            a, b = sorted((rk, rr))
            parent[b] = a
    return {k: find(k) for k in parent}
