"""Deterministic BOLT-style hash-embedding token classifier + CRF decode.

From-scratch re-implementation of the reference's production tagger *contract*
(internal/core/onnx.go:147-303): CleanTextWithSpans → tokenize → per-subtoken
emissions (here: hashed token/shape feature buckets instead of an ONNX CNN; the
hash-bucket design follows the BOLT UDT idea referenced in
internal/core/bolt/bolt_unix.go:41-74 — hash token → bucket, no stored vocab) →
CRF ViterbiDecode (onnx.go:62-108) → subword→word alignment (getWordIds,
onnx.go:110-130) → first-non-O aggregation (onnx.go:132-145) → entities at
*original* byte offsets (onnx.go:283-296).

Everything is deterministic: weights are a pure function of the (surface, label)
vocabulary passed at construction (crc32 feature hashing, fixed seeds), so a
single-threaded oracle and distributed tag tasks produce identical output.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..core.clean import clean_batch, clean_text_with_spans
from ..core.crf import CRF, aggregate_predictions, get_word_ids
from ..core.entity import Entity, create_entity
from .base import register_tagger

# internal/core/onnx.go:33-38 — the reference label set.
IDX2TAG = [
    "ADDRESS", "CARD_NUMBER", "COMPANY", "CREDIT_SCORE", "DATE",
    "EMAIL", "ETHNICITY", "GENDER", "ID_NUMBER", "LICENSE_PLATE",
    "LOCATION", "NAME", "O", "PHONENUMBER", "SERVICE_CODE",
    "SEXUAL_ORIENTATION", "SSN", "URL", "VIN",
]
TAG2IDX = {t: i for i, t in enumerate(IDX2TAG)}
O_IDX = TAG2IDX["O"]
NUM_TAGS = len(IDX2TAG)

_N_BUCKETS = 1 << 20
_TOK_SALT = b"tok\x00"
_SHAPE_SALT = b"shape\x00"
_CSHAPE_SALT = b"cshape\x00"

_SHAPE_TABLE = bytes(
    (57 if 48 <= c <= 57 else          # digit -> '9'
     97 if 97 <= c <= 122 else         # lower -> 'a'
     65 if 65 <= c <= 90 else          # upper -> 'A'
     c)
    for c in range(256)
)


def _h(salt: bytes, data: bytes) -> int:
    return zlib.crc32(salt + data) % _N_BUCKETS


def _shape(token: bytes) -> bytes:
    return token.translate(_SHAPE_TABLE)


def _collapse_shape(token: bytes) -> bytes:
    """Run-collapsed shape ("012-345-6789" → "9-9-9", "a.b@c.d" → "a.a@a.a") —
    generalizes over variable-length formats (emails, URLs)."""
    shaped = token.translate(_SHAPE_TABLE)
    out = bytearray()
    prev = -1
    for c in shaped:
        if c != prev:
            out.append(c)
            prev = c
    return bytes(out)


def _subtokens(token: bytes, start: int) -> list[tuple[int, int]]:
    """Split a cleaned token into subword pieces (digit / alpha / other runs),
    exercising the reference's subword→word alignment path. Offsets are into the
    cleaned text."""
    if len(token) <= 3:
        return [(start, start + len(token))]
    pieces: list[tuple[int, int]] = []
    run_start = 0

    def klass(c: int) -> int:
        if 48 <= c <= 57:
            return 0
        if 65 <= c <= 90 or 97 <= c <= 122:
            return 1
        return 2

    cur = klass(token[0])
    for i in range(1, len(token)):
        k = klass(token[i])
        if k != cur:
            pieces.append((start + run_start, start + i))
            run_start = i
            cur = k
    pieces.append((start + run_start, start + len(token)))
    return pieces


class HashEmbeddingTagger:
    """Gazetteer-hash + shape-hash emission model with CRF decode.

    "Training" is a closed-form accumulation over the vocabulary: each (surface,
    label) pair is cleaned and tokenized, and every token adds weight to its
    exact-token bucket and its shape bucket for that label. Exact-token hits get a
    much larger weight than shape hits, so gazetteer matches dominate; shape
    generalizes to unseen numbers (phones, SSNs, cards, ISO dates...).
    """

    EXACT_W = np.float32(8.0)
    XSHAPE_W = np.float32(2.0)
    CSHAPE_W = np.float32(1.5)
    O_BIAS = np.float32(1.0)

    def __init__(self, vocab: list[tuple[str, str]], o_vocab: list[str] | None = None):
        self._vocab = list(vocab)          # kept for finetune (closed-form retrain)
        self._o_vocab = list(o_vocab or [])
        tok_table: dict[int, np.ndarray] = {}
        xshape_counts: dict[int, np.ndarray] = {}
        cshape_counts: dict[int, np.ndarray] = {}

        def add(table: dict[int, np.ndarray], bucket: int, tag_idx: int, w: float):
            vec = table.get(bucket)
            if vec is None:
                vec = np.zeros(NUM_TAGS, dtype=np.float32)
                table[bucket] = vec
            vec[tag_idx] += w

        label_tok_counts: dict[str, int] = {}
        pairs: list[tuple[bytes, str]] = []
        for surface, label in vocab:
            if label not in TAG2IDX:
                raise ValueError(f"unknown label {label!r}")
            b = surface.encode("utf-8") if isinstance(surface, str) else surface
            cleaned, _, spans = clean_text_with_spans(b)
            toks = [cleaned[s:e] for s, e in spans]
            pairs.append((b, label))
            label_tok_counts[label] = label_tok_counts.get(label, 0) + len(toks)
            for tok in toks:
                add(tok_table, _h(_TOK_SALT, tok.lower()), TAG2IDX[label], 1.0)

        # Shape features apply only to tokens with non-alpha characters (numbers,
        # emails, URLs, plates...): pure-alpha words are gazetteer-or-O, so unknown
        # capitalized words never get spurious labels. Shape weights are
        # frequency-normalized per label so a label with many vocabulary entries
        # doesn't steamroll a rarer label sharing the shape.
        for b, label in pairs:
            cleaned, _, spans = clean_text_with_spans(b)
            norm = 1.0 / max(1, label_tok_counts[label])
            for s, e in spans:
                tok = cleaned[s:e]
                if tok.isalpha():
                    continue
                add(xshape_counts, _h(_SHAPE_SALT, _shape(tok)), TAG2IDX[label], norm)
                add(cshape_counts, _h(_CSHAPE_SALT, _collapse_shape(tok)), TAG2IDX[label], norm)

        for word in (o_vocab or []):
            wb = word.encode("utf-8") if isinstance(word, str) else word
            add(tok_table, _h(_TOK_SALT, wb.lower()), O_IDX, 1.0)

        # Collapse to winner-take-all score vectors (argmax label per bucket).
        self.tok_scores: dict[int, np.ndarray] = {}
        for bucket, counts in tok_table.items():
            vec = np.zeros(NUM_TAGS, dtype=np.float32)
            vec[int(counts.argmax())] = self.EXACT_W
            self.tok_scores[bucket] = vec
        self.xshape_scores: dict[int, np.ndarray] = {}
        for bucket, counts in xshape_counts.items():
            vec = np.zeros(NUM_TAGS, dtype=np.float32)
            vec[int(counts.argmax())] = self.XSHAPE_W
            self.xshape_scores[bucket] = vec
        self.cshape_scores: dict[int, np.ndarray] = {}
        for bucket, counts in cshape_counts.items():
            vec = np.zeros(NUM_TAGS, dtype=np.float32)
            vec[int(counts.argmax())] = self.CSHAPE_W
            self.cshape_scores[bucket] = vec

        transitions = np.zeros((NUM_TAGS, NUM_TAGS), dtype=np.float32)
        np.fill_diagonal(transitions, 0.5)  # same-label continuation bonus
        self.crf = CRF(transitions, np.zeros(NUM_TAGS, np.float32), np.zeros(NUM_TAGS, np.float32))
        # word → (relative subtoken pieces, emission block). Emissions are a pure
        # function of the word bytes, and real corpora repeat words heavily, so
        # this cache removes the per-occurrence hash/shape/piece work entirely.
        self._word_cache: dict[bytes, tuple[list[tuple[int, int]], np.ndarray]] = {}
        self._word_cache_cap = 262_144
        # perceptron-learned emission deltas (bucket → Δvec), persisted by save()
        self._learned: dict[int, np.ndarray] = {}

    def _word_info(self, word: bytes) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Cached (relative subtoken pieces, emission block) for one word —
        exactly the per-subtoken emissions _emissions computes, hoisted to
        once-per-distinct-word."""
        info = self._word_cache.get(word)
        if info is not None:
            return info
        rel = _subtokens(word, 0)
        em = np.zeros((len(rel), NUM_TAGS), dtype=np.float32)
        em[:, O_IDX] = self.O_BIAS
        vec = self.tok_scores.get(_h(_TOK_SALT, word.lower()))
        if vec is not None:
            em += vec
        if not word.isalpha():
            svec = self.xshape_scores.get(_h(_SHAPE_SALT, _shape(word)))
            if svec is not None:
                em += svec
            cvec = self.cshape_scores.get(_h(_CSHAPE_SALT, _collapse_shape(word)))
            if cvec is not None:
                em += cvec
        for i, (s, e) in enumerate(rel):
            piece = word[s:e]
            if piece != word:
                pvec = self.tok_scores.get(_h(_TOK_SALT, piece.lower()))
                if pvec is not None:
                    em[i] += 0.5 * pvec
        if len(self._word_cache) < self._word_cache_cap:
            self._word_cache[word] = (rel, em)
        return rel, em

    def _doc_features(self, text: bytes):
        """(original_spans, cleaned_spans, sub_offsets, emissions) for one doc,
        via the per-word cache."""
        cleaned, original_spans, cleaned_spans = clean_text_with_spans(text)
        if not cleaned_spans:
            return original_spans, cleaned_spans, [], None
        sub_offsets: list[tuple[int, int]] = []
        blocks: list[np.ndarray] = []
        for (s, e) in cleaned_spans:
            rel, em_block = self._word_info(cleaned[s:e])
            sub_offsets.extend((s + rs, s + re_) for rs, re_ in rel)
            blocks.append(em_block)
        em = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        return original_spans, cleaned_spans, sub_offsets, em

    def _decode_to_entities(self, text: bytes, original_spans, cleaned_spans,
                            sub_offsets, tag_idx: list[int]) -> list[Entity]:
        sub_tags = [IDX2TAG[i] for i in tag_idx]
        word_ids = get_word_ids(cleaned_spans, sub_offsets)
        word_tags = aggregate_predictions(sub_tags, word_ids, len(cleaned_spans))
        ents: list[Entity] = []
        for wid, tag in enumerate(word_tags):
            if tag == "O":
                continue
            s, e = original_spans[wid]
            ents.append(create_entity(tag, text, s, e))
        return ents

    def predict(self, text: bytes) -> list[Entity]:
        original_spans, cleaned_spans, sub_offsets, em = self._doc_features(text)
        if em is None:
            return []
        tag_idx = self.crf.viterbi_decode(em)
        return self._decode_to_entities(text, original_spans, cleaned_spans,
                                        sub_offsets, tag_idx)

    def predict_batch(self, texts: list[bytes]) -> list[list[Entity]]:
        """``[predict(t) for t in texts]``, computed batch-wide.

        ``clean_batch`` cleans and tokenizes every doc at once. Each distinct
        word of the batch gets its emission block once (``_word_info``), and
        the blocks are gathered into one sub-token matrix. The CRF decodes
        the docs in length-sorted groups of 64, so a long doc does not pad a
        group of short ones. Each word takes the tag of its first non-O
        sub-token: a sub-token's word id is the word it was cut from, which
        is getWordIds's answer, since sub-tokens lie inside their word.
        """
        out: list[list[Entity]] = [[] for _ in texts]
        words, starts, ends, doc_starts = clean_batch(texts)
        if len(words) == 0:
            return out
        enc = words.dictionary_encode()
        codes = enc.indices.to_numpy()
        blocks = [self._word_info(w)[1] for w in enc.dictionary.to_pylist()]
        n_sub = np.array([b.shape[0] for b in blocks], dtype=np.int64)
        first_row = np.cumsum(n_sub) - n_sub
        per_word = n_sub[codes]
        sub_bounds = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(per_word, out=sub_bounds[1:])
        word_of_sub = np.repeat(np.arange(len(codes)), per_word)
        rows = np.arange(sub_bounds[-1]) + (first_row[codes] - sub_bounds[:-1])[word_of_sub]
        em = np.concatenate(blocks)[rows]

        word_bounds = np.searchsorted(starts, doc_starts)
        doc_sub = sub_bounds[word_bounds]  # doc d's sub-tokens: doc_sub[d]:doc_sub[d + 1]
        lens = np.diff(doc_sub)
        order = np.argsort(lens, kind="stable")
        order = order[lens[order] > 0].tolist()
        tags = np.empty(len(em), dtype=np.int64)
        group = 64
        for g in range(0, len(order), group):
            ids = order[g:g + group]
            decoded = self.crf.viterbi_decode_batch(
                [em[doc_sub[d]:doc_sub[d + 1]] for d in ids])
            for d, seq in zip(ids, decoded):
                tags[doc_sub[d]:doc_sub[d + 1]] = seq

        hits = np.flatnonzero(tags != O_IDX)
        hit_words = word_of_sub[hits]
        first = np.ones(len(hits), dtype=bool)
        first[1:] = hit_words[1:] != hit_words[:-1]
        ent_words = hit_words[first]
        ent_docs = np.searchsorted(word_bounds, ent_words, side="right") - 1
        base = doc_starts[ent_docs]
        for d, s, e, k in zip(ent_docs.tolist(), (starts[ent_words] - base).tolist(),
                              (ends[ent_words] - base).tolist(),
                              tags[hits[first]].tolist()):
            out[d].append(create_entity(IDX2TAG[k], texts[d], s, e))
        return out

    # ------------------------- finetune / save / load -------------------------
    # The reference's Model.FinetuneAndSave + artifact store contract
    # (internal/core/model.go:41-47, bolt_unix.go:89-133, processor.go:802-902).
    # "Training" here is closed-form vocabulary accumulation: token-level samples
    # ({Tokens, Labels} parallel arrays, pkg/api/models.go:94-97) contribute
    # their non-O labeled runs as new (surface, label) gazetteer entries, and the
    # model is rebuilt deterministically — so finetuned actors stay bit-equal to
    # a finetuned oracle.

    def finetune(self, samples: list[tuple[list[str], list[str]]]) -> "HashEmbeddingTagger":
        """samples: (tokens, labels) parallel arrays; adjacent same-label non-O
        tokens form one surface. Returns a NEW tagger (old one unchanged)."""
        new_vocab = list(self._vocab)
        new_o = list(self._o_vocab)
        for tokens, labels in samples:
            if len(tokens) != len(labels):
                raise ValueError("tokens/labels length mismatch")
            run: list[str] = []
            run_label: str | None = None
            for tok, lab in list(zip(tokens, labels)) + [("", None)]:
                if lab == run_label and lab not in (None, "O"):
                    run.append(tok)
                    continue
                if run and run_label not in (None, "O"):
                    new_vocab.append((" ".join(run), run_label))
                run = [tok]
                run_label = lab
                if lab == "O":
                    new_o.append(tok)
        return HashEmbeddingTagger(new_vocab, new_o)

    # -- perceptron training (the "actually learns from errors" depth the
    # gazetteer accumulation lacks) ----------------------------------------

    def _sample_word_tags(self, tokens: list[bytes]) -> list[str]:
        """Decode a token sequence with the current weights → word-level tags
        (the same subtoken → first-non-O aggregation predict() uses)."""
        sub_offsets: list[tuple[int, int]] = []
        blocks: list[np.ndarray] = []
        spans: list[tuple[int, int]] = []
        pos = 0
        for tok in tokens:
            rel, em = self._word_info(tok)
            spans.append((pos, pos + len(tok)))
            sub_offsets.extend((pos + rs, pos + re_) for rs, re_ in rel)
            blocks.append(em)
            pos += len(tok) + 1
        em_all = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
        tag_idx = self.crf.viterbi_decode(em_all)
        word_ids = get_word_ids(spans, sub_offsets)
        return aggregate_predictions([IDX2TAG[i] for i in tag_idx], word_ids,
                                     len(spans))

    def finetune_perceptron(self, samples: list[tuple[list[str], list[str]]],
                            epochs: int = 8, lr: float = 2.0) -> int:
        """Structured-perceptron correction (Collins 2002, public algorithm):
        decode each sample with the CURRENT weights; for every mispredicted
        word, move its exact-token bucket toward the gold tag and away from
        the predicted one. Deterministic (fixed iteration order, early stop at
        zero errors). Returns the residual error count. Updates are recorded
        in ``self._learned`` so save()/load() round-trips the trained state."""
        for _ in range(epochs):
            errors = 0
            for tokens, labels in samples:
                toks = [t.encode("utf-8") if isinstance(t, str) else t
                        for t in tokens]
                pred = self._sample_word_tags(toks)
                for tok, gold, got in zip(toks, labels, pred):
                    if gold == got:
                        continue
                    errors += 1
                    bucket = _h(_TOK_SALT, tok.lower())
                    vec = self.tok_scores.get(bucket)
                    if vec is None:
                        vec = self.tok_scores[bucket] = np.zeros(
                            NUM_TAGS, dtype=np.float32)
                    vec[TAG2IDX[gold]] += lr
                    vec[TAG2IDX[got]] -= lr
                    self._learned[bucket] = (
                        self._learned.get(bucket, np.zeros(NUM_TAGS, np.float32))
                        + self._one_hot(TAG2IDX[gold], lr)
                        - self._one_hot(TAG2IDX[got], lr))
            # the lowercased-token bucket is shared by every case variant (and
            # emission blocks depend on subtoken pieces too), so popping the
            # exact token would leave stale pre-update entries for siblings —
            # drop the whole cache once per epoch instead
            self._word_cache.clear()
            if errors == 0:
                break
        return errors

    @staticmethod
    def _one_hot(idx: int, v: float) -> np.ndarray:
        out = np.zeros(NUM_TAGS, dtype=np.float32)
        out[idx] = v
        return out

    def save(self, save_dir: str) -> None:
        """Persist the artifact dir. ``save_dir`` may be a local path or an
        fsspec URL (memory://, s3://, ...) — the reference's artifact store is
        S3-backed (s3_test.go:58-293); ours goes through sources/fs.py."""
        import json
        from ..sources import fs
        fs.makedirs(save_dir)
        with fs.open_file(fs.join(save_dir, "model.json"), "w") as f:
            json.dump({"vocab": self._vocab, "o_vocab": self._o_vocab,
                       "learned": {str(b): v.tolist()
                                   for b, v in sorted(self._learned.items())},
                       "format": "hash_embedding_v2"}, f)

    @classmethod
    def load(cls, save_dir: str) -> "HashEmbeddingTagger":
        import json
        from ..sources import fs
        with fs.open_file(fs.join(save_dir, "model.json")) as f:
            meta = json.load(f)
        model = cls([tuple(p) for p in meta["vocab"]], meta["o_vocab"])
        for b_str, delta in meta.get("learned", {}).items():
            bucket = int(b_str)
            d = np.asarray(delta, dtype=np.float32)
            vec = model.tok_scores.get(bucket)
            if vec is None:
                vec = model.tok_scores[bucket] = np.zeros(NUM_TAGS, np.float32)
            vec += d
            model._learned[bucket] = d.copy()
        return model

    def finetune_and_save(self, samples, save_dir: str) -> "HashEmbeddingTagger":
        """The Model.FinetuneAndSave contract (model.go:44, processor.go:802-902):
        gazetteer accumulation for coverage, then perceptron epochs to correct
        residual errors on the samples (e.g. a token whose gazetteer argmax
        collides with an existing label), then persist the artifact dir."""
        new = self.finetune(samples)
        new.finetune_perceptron(samples)
        new.save(save_dir)
        return new


def build_default_tagger(alias_path: str | None = None) -> HashEmbeddingTagger:
    """Build the tagger from the deterministic fixture vocabulary (and optionally
    the alias dictionary parquet). Loaded once per worker process in ``__init__`` —
    the reference's download-once/load-per-task pattern (processor.go:408-436),
    strictly amortized over the kernel's lifetime."""
    from ..fixtures.pools import tagger_vocab, o_vocab
    vocab = tagger_vocab()
    if alias_path is not None:
        import pyarrow.parquet as pq
        t = pq.read_table(alias_path, columns=["surface_form", "label"])
        vocab = vocab + list(zip(t["surface_form"].to_pylist(), t["label"].to_pylist()))
    return HashEmbeddingTagger(vocab, o_vocab())


register_tagger("hash_embedding", lambda alias_path=None: build_default_tagger(alias_path))
# saved-artifact loader — the "download from model bucket, load from dir" path
# (processor.go:408-436); the dir is the artifact, shipped to workers by path
register_tagger("hash_embedding_saved", lambda path: HashEmbeddingTagger.load(path))
