"""Finetune seams: the reference's CSV sample format + distributed training.

The reference's FinetuneAndSave (internal/core/bolt/bolt_unix.go:89-133,
processor.go:802-902) serializes (tokens, labels) samples to a two-column CSV
(space-joined fields; writeSamplesToCSV, bolt_unix.go:152-168) and trains the
BOLT model for ``epochs`` passes at ``learningRate``. This module reproduces
that seam — :func:`write_samples_csv` / :func:`read_samples_csv` are
byte-compatible with the Go csv writer for the sample shapes the API allows —
and adds the Ray-native scale path: :func:`finetune_perceptron_ipm`, a
distributed structured perceptron via **iterative parameter mixing**
(McDonald, Hall & Mann, NAACL 2010 — a public algorithm): each epoch shards
the sample Dataset, every shard runs one local perceptron pass from the
current mixed weights, and the per-shard weight *deltas* are averaged into
the next epoch's model. Only (bucket → Δvec) rows cross the cluster — never
the samples after the initial shuffle, never the full model per sample.

Determinism: shard assignment is a pure hash of the sample index, per-shard
iteration order is sorted by sample index, and mixing is an order-independent
mean — so output is identical across schedulers and re-runs.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pyarrow as pa

import ray.data

from ..sources import fs
from .hash_tagger import NUM_TAGS, HashEmbeddingTagger

Sample = tuple[list[str], list[str]]


# ----------------------------- CSV sample seam -----------------------------

def write_samples_csv(path: str, samples: list[Sample],
                      tokens_col: str = "source", tags_col: str = "target") -> None:
    """writeSamplesToCSV parity (bolt_unix.go:152-168): header row, then one
    row per sample with space-joined tokens and space-joined labels. The
    default column names mirror the reference's NER source/target contract
    (NER_source_target_cols, bolt_unix.go:90-94)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")  # Go csv.Writer emits \n
    w.writerow([tokens_col, tags_col])
    for tokens, labels in samples:
        if len(tokens) != len(labels):
            raise ValueError("tokens/labels length mismatch")
        w.writerow([" ".join(tokens), " ".join(labels)])
    with fs.open_file(path, "w") as f:
        f.write(buf.getvalue())


def read_samples_csv(path: str) -> list[Sample]:
    """Inverse seam — what the reference's NER_train consumes. Tokens and
    labels are split on single spaces (the writer's join separator)."""
    with fs.open_file(path) as f:
        data = f.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    rows = list(csv.reader(io.StringIO(data)))
    out: list[Sample] = []
    for row in rows[1:]:  # skip header
        if len(row) != 2:
            raise ValueError(f"malformed sample row: {row!r}")
        tokens = row[0].split(" ") if row[0] else []
        labels = row[1].split(" ") if row[1] else []
        if len(tokens) != len(labels):
            raise ValueError("tokens/labels length mismatch in CSV row")
        out.append((tokens, labels))
    return out


# ----------------------- distributed perceptron (IPM) -----------------------

def samples_dataset(samples: list[Sample], shards: int) -> ray.data.Dataset:
    """Samples → Dataset with a deterministic shard key. At real scale the
    samples already live in parquet; this is the in-memory constructor the
    tests and the FinetuneAndSave seam use."""
    tbl = pa.table({
        "idx": pa.array(range(len(samples)), pa.int64()),
        "shard": pa.array([i % max(1, shards) for i in range(len(samples))],
                          pa.int32()),
        "tokens": pa.array([t for t, _ in samples], pa.list_(pa.string())),
        "labels": pa.array([l for _, l in samples], pa.list_(pa.string())),
    })
    return ray.data.from_arrow(tbl)


def _shard_pass(group: pa.Table, model: HashEmbeddingTagger, lr: float) -> pa.Table:
    """One local perceptron pass over one shard, starting from the mixed
    weights of ``model``, which arrives as a task argument (``fn_args``), so
    the task waits on no object itself. Returns (bucket, delta, errors) rows
    — the only thing that leaves the shard."""
    import copy
    # plasma-deserialized numpy arrays are read-only and the object may be
    # shared by other tasks in this worker — train on a private copy
    base = copy.deepcopy(model)
    # order by sample index: deterministic within the shard
    group = group.sort_by("idx")
    samples = list(zip(group["tokens"].to_pylist(),
                       group["labels"].to_pylist()))
    before = {b: v.copy() for b, v in base._learned.items()}
    errors = base.finetune_perceptron(samples, epochs=1, lr=lr)
    # sentinel row (bucket −1) carries the shard's error count; real rows
    # carry only buckets whose weights actually moved
    buckets, deltas = [-1], [np.zeros(NUM_TAGS, np.float32).tolist()]
    for b, v in base._learned.items():
        d = v - before.get(b, np.zeros(NUM_TAGS, np.float32))
        if np.any(d):
            buckets.append(b)
            deltas.append(d.tolist())
    shard = int(group["shard"][0].as_py()) if group.num_rows else -1
    return pa.table({
        "bucket": pa.array(buckets, pa.int64()),
        "shard": pa.array([shard] * len(buckets), pa.int32()),
        "delta": pa.array(deltas, pa.list_(pa.float32())),
        "errors": pa.array([errors] + [0] * (len(buckets) - 1), pa.int64()),
    })


def finetune_perceptron_ipm(model: HashEmbeddingTagger,
                            samples_ds: ray.data.Dataset,
                            epochs: int = 8,
                            lr: float = 2.0) -> tuple[HashEmbeddingTagger, int]:
    """Iterative parameter mixing (McDonald et al. 2010): per epoch, broadcast
    the current model once (an ``fn_args`` of the map, which Ray Data puts in
    the object store once per operator and hands each task as an argument),
    run one perceptron pass per shard in
    parallel (groupby(shard).map_groups — each shard's samples stay on their
    node after the first shuffle), then average the per-shard weight deltas
    into the model. Stops early when an epoch ends with zero errors on every
    shard. Returns (trained model, residual error count).

    Scale shape: the broadcast is one object per epoch (not per batch); the
    reduce is (bucket, Δvec) rows — proportional to *mispredicted* vocabulary,
    not corpus size; sample text never returns to the driver."""
    n_shards = len(samples_ds.unique("shard"))
    cur = model
    errors = 0
    for _ in range(epochs):
        rows = (samples_ds
                .groupby("shard")
                .map_groups(_shard_pass, fn_args=(cur, lr), batch_format="pyarrow")
                .take_all())
        errors = sum(r["errors"] for r in rows)
        # uniform mixing: mean of per-shard deltas per bucket (buckets a shard
        # didn't touch contribute implicit zeros, divisor = shard count —
        # the w_mix = Σ μ_i w_i of the paper with μ_i = 1/S). Accumulation is
        # float64 in (bucket, shard) order: take_all row order is not stable
        # across runs, and float32 summation order would make non-dyadic lr
        # values run-dependent when several shards touch one bucket.
        mixed64: dict[int, np.ndarray] = {}
        for r in sorted(rows, key=lambda r: (int(r["bucket"]), int(r["shard"]))):
            b = int(r["bucket"])
            if b < 0:
                continue  # sentinel error-count row
            d = np.asarray(r["delta"], dtype=np.float64)
            mixed64[b] = mixed64.get(b, np.zeros(NUM_TAGS, np.float64)) + d
        if mixed64:
            cur = _apply_mixed(cur, {b: (d / n_shards).astype(np.float32)
                                     for b, d in mixed64.items()})
        if errors == 0:
            break
    return cur, errors


MAX_FINETUNE_PAYLOAD = 2 * 1024 * 1024  # model.go:92 — const maxPayload = 2 MB


def chunk_samples(samples: list[Sample],
                  max_payload: int = MAX_FINETUNE_PAYLOAD) -> list[list[Sample]]:
    """Greedy bounded-payload chunking, the transport half of the reference's
    FinetuneAndSave RPC contract (internal/core/python/model.go:112-150): a
    sample's estimated size is the sum of its token and label byte lengths;
    when appending a sample would push the running chunk past ``max_payload``
    the chunk is flushed FIRST and the sample starts the next one — so a
    single sample larger than the budget still ships, alone in its own chunk,
    exactly as the Go loop behaves. Order within and across chunks preserves
    the input order; concatenating the chunks reproduces ``samples``."""
    chunks: list[list[Sample]] = []
    curr: list[Sample] = []
    curr_size = 0
    for tokens, labels in samples:
        est = sum(len(t.encode("utf-8") if isinstance(t, str) else t)
                  for t in tokens)
        est += sum(len(l.encode("utf-8")) for l in labels)
        if curr and curr_size + est > max_payload:
            chunks.append(curr)
            curr, curr_size = [], 0
        curr.append((tokens, labels))
        curr_size += est
    if curr:
        chunks.append(curr)
    return chunks


def finetune_streamed(base: HashEmbeddingTagger, samples: list[Sample],
                      save_dir: str | None = None, epochs: int = 5,
                      seed: int = 0,
                      max_payload: int = MAX_FINETUNE_PAYLOAD,
                      ) -> HashEmbeddingTagger:
    """FinetuneAndSave with the reference's bounded-payload streaming shape
    (model.go:91-157): ``epochs`` passes (the Go loop is fixed at 5 — our
    default), each pass shuffles the samples then ships them to the model in
    greedy ≤``max_payload`` chunks, one finetune call per chunk. The
    reference's ``rand.Shuffle`` is nondeterministic; here the shuffle is a
    seeded permutation so runs reproduce (the chunk *boundaries* are what the
    contract pins, not a specific order). Saves the artifact dir at the end
    when ``save_dir`` is given."""
    rng = np.random.default_rng(seed)
    model = base
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        shuffled = [samples[i] for i in order]
        for chunk in chunk_samples(shuffled, max_payload):
            model = model.finetune(chunk)
    if save_dir is not None:
        model.save(save_dir)
    return model


def _apply_mixed(model: HashEmbeddingTagger,
                 mixed: dict[int, np.ndarray]) -> HashEmbeddingTagger:
    """New model = old model + mixed deltas (kept out-of-place so the caller's
    broadcast object is immutable across epochs)."""
    new = HashEmbeddingTagger(model._vocab, model._o_vocab)
    for b, d in model._learned.items():
        new._learned[b] = d.copy()
    for b, d in mixed.items():
        new._learned[b] = new._learned.get(b, np.zeros(NUM_TAGS, np.float32)) + d
    for b, d in new._learned.items():
        vec = new.tok_scores.get(b)
        if vec is None:
            vec = new.tok_scores[b] = np.zeros(NUM_TAGS, np.float32)
        vec += d
    new._word_cache.clear()
    return new


def finetune_and_save_csv(base: HashEmbeddingTagger, csv_path: str,
                          save_dir: str, epochs: int = 8, lr: float = 2.0,
                          distributed: bool = False,
                          shards: int = 4) -> HashEmbeddingTagger:
    """The full FinetuneAndSave contract over the CSV seam
    (bolt_unix.go:89-133: read samples ← CSV, train(lr, epochs), Save):
    gazetteer accumulation for coverage, then perceptron epochs (sequential or
    IPM-distributed), then persist the artifact dir (local or fsspec URL).

    ``epochs`` is honored exactly as passed (the reference trains precisely
    the requested passes; defaultEpochs=1 in bolt_unix.go — our DEFAULT is 8
    because the perceptron usually needs several passes to separate, but a
    caller asking for fewer gets fewer)."""
    samples = read_samples_csv(csv_path)
    tuned = base.finetune(samples)
    if distributed:
        ds = samples_dataset(samples, shards)
        tuned, _ = finetune_perceptron_ipm(tuned, ds, epochs=epochs, lr=lr)
    else:
        tuned.finetune_perceptron(samples, epochs=epochs, lr=lr)
    tuned.save(save_dir)
    return tuned
