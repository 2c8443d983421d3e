"""Text-analysis operators: token counting, quality scoring, language ID,
document fingerprinting. All are vectorized per-batch map_batches kernels; the
aggregates follow the combiner pattern (per-batch partials → tiny groupby).

Token counting mirrors the reference's whitespace semantics
(internal/core/processor.go:640-641, strings.Fields).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "that", "was", "for",
           "on", "with", "as", "at", "by", "this", "from"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein",
           "eine", "nicht", "im", "den", "zu"},
    "fr": {"le", "la", "les", "et", "de", "des", "un", "une", "est", "dans",
           "pour", "que", "qui", "sur", "avec"},
    "es": {"el", "la", "los", "las", "y", "de", "del", "un", "una", "es", "en",
           "que", "por", "con", "para"},
}


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch partial token counts. Tokens = ``\\S+`` runs (RE2), matching the
    DuckDB oracle's regexp_extract_all; Go strings.Fields differs only on exotic
    unicode spaces."""
    counts = pc.count_substring_regex(batch[text_col], r"\S+")
    return pa.table({"partial_tokens": pa.array([int(pc.sum(counts).as_py() or 0)],
                                                pa.int64()),
                     "partial_docs": pa.array([batch.num_rows], pa.int64())})


def total_tokens(docs: ray.data.Dataset, text_col: str = "text") -> int:
    parts = docs.map_batches(lambda b: token_count_batch(b, text_col),
                             batch_format="pyarrow").take_all()
    return sum(r["partial_tokens"] for r in parts)


def quality_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds n_tokens, punct_ratio, alpha_ratio, stopword_ratio, mean_token_len —
    the usual web-text quality heuristics, all Arrow-vectorized where possible."""
    text = batch[text_col]
    n_chars = pc.utf8_length(text)
    tokens = pc.utf8_split_whitespace(text)
    n_tokens = pc.count_substring_regex(text, r"\S+")
    # punct / alpha counts via regex replace (count = len - len(stripped))
    no_punct = pc.replace_substring_regex(text, r"[^\w\s]", "")
    punct_count = pc.subtract(n_chars, pc.utf8_length(no_punct))
    only_alpha = pc.replace_substring_regex(text, r"[^A-Za-z]", "")
    alpha_count = pc.utf8_length(only_alpha)
    safe_chars = pc.max_element_wise(n_chars, pa.scalar(1, pa.int32()))
    # stopword ratio + mean token length, fully vectorized: flatten the token
    # lists, score every token once, then per-row segment sums via cumsum
    # diffs (robust to empty rows, unlike reduceat). Integer sums ÷ counts in
    # float64 — bit-identical to the per-row Python loop it replaced (the
    # doc_quality oracle hash depends on that).
    la = tokens.combine_chunks()
    row_lens = pc.list_value_length(la).to_numpy(zero_copy_only=False)
    offsets = np.zeros(len(row_lens) + 1, dtype=np.int64)
    np.cumsum(row_lens, out=offsets[1:])
    flat = pc.list_flatten(la)
    tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    nonempty = tok_lens > 0  # split_whitespace can emit "" at text edges
    is_stop = pc.is_in(pc.utf8_lower(flat),
                       value_set=pa.array(sorted(_STOPWORDS["en"]))) \
        .to_numpy(zero_copy_only=False)

    def seg_sum(vals: np.ndarray) -> np.ndarray:
        c = np.zeros(len(vals) + 1, dtype=np.int64)
        np.cumsum(vals, out=c[1:])
        return c[offsets[1:]] - c[offsets[:-1]]

    cnt = seg_sum(nonempty)
    tot_len = seg_sum(tok_lens)          # empty tokens add 0 anyway
    stop_cnt = seg_sum(is_stop & nonempty)
    denom = np.maximum(cnt, 1)
    stop_ratio = np.where(cnt > 0, stop_cnt / denom, 0.0)
    mean_len = np.where(cnt > 0, tot_len / denom, 0.0)
    return (batch
            .append_column("n_tokens", n_tokens.cast(pa.int64()))
            .append_column("punct_ratio",
                           pc.divide(punct_count.cast(pa.float64()),
                                     safe_chars.cast(pa.float64())))
            .append_column("alpha_ratio",
                           pc.divide(alpha_count.cast(pa.float64()),
                                     safe_chars.cast(pa.float64())))
            .append_column("stopword_ratio", pa.array(stop_ratio, pa.float64()))
            .append_column("mean_token_len", pa.array(mean_len, pa.float64())))


def quality_filter(docs: ray.data.Dataset, min_tokens: int = 10,
                   max_punct_ratio: float = 0.2,
                   text_col: str = "text") -> ray.data.Dataset:
    def f(batch: pa.Table) -> pa.Table:
        feats = quality_features(batch, text_col)
        keep = pc.and_(pc.greater_equal(feats["n_tokens"], min_tokens),
                       pc.less(feats["punct_ratio"], max_punct_ratio))
        return batch.filter(keep)
    return docs.map_batches(f, batch_format="pyarrow")


def lang_id(text: str) -> str:
    """Stopword-vote language heuristic (n-gram-free but deterministic)."""
    toks = [t.lower() for t in text.split()[:200]]
    best_lang, best = "und", 0
    for lang in sorted(_STOPWORDS):
        score = sum(1 for t in toks if t in _STOPWORDS[lang])
        if score > best:
            best_lang, best = lang, score
    return best_lang


# ---------------------- char-n-gram language profiles ----------------------
# Seed text per language (public pangram/sample phrases); profiles are the
# frequency-ranked trigram sets — the classic Cavnar-Trenkle out-of-place
# method, deterministic and dependency-free.

_LANG_SEEDS = {
    "en": ("the quick brown fox jumps over the lazy dog and then it was the "
           "best of times it was the worst of times this is a test of the "
           "english language with many common words and the usual endings"),
    "de": ("der schnelle braune fuchs springt über den faulen hund und es war "
           "die beste zeit es war die schlechteste zeit das ist ein test der "
           "deutschen sprache mit vielen üblichen wörtern und den endungen"),
    "fr": ("le rapide renard brun saute par dessus le chien paresseux et "
           "c'était le meilleur des temps c'était le pire des temps ceci est "
           "un test de la langue française avec beaucoup de mots usuels"),
    "es": ("el rápido zorro marrón salta sobre el perro perezoso y era el "
           "mejor de los tiempos era el peor de los tiempos esto es una "
           "prueba de la lengua española con muchas palabras comunes"),
}


def _trigram_profile(text: str, top: int = 300) -> dict[str, int]:
    counts: dict[str, int] = {}
    s = " " + " ".join(text.lower().split()) + " "
    for i in range(len(s) - 2):
        g = s[i:i + 3]
        counts[g] = counts.get(g, 0) + 1
    ranked = sorted(counts, key=lambda g: (-counts[g], g))[:top]
    return {g: r for r, g in enumerate(ranked)}

_LANG_PROFILES = {lang: _trigram_profile(seed) for lang, seed in _LANG_SEEDS.items()}


def lang_id_ngram(text: str, max_chars: int = 1000) -> str:
    """Char-trigram out-of-place distance against per-language profiles."""
    prof = _trigram_profile(text[:max_chars], top=100)
    if not prof:
        return "und"
    best_lang, best = "und", None
    for lang in sorted(_LANG_PROFILES):
        ref = _LANG_PROFILES[lang]
        miss = len(ref)
        dist = sum(abs(r - ref.get(g, miss)) for g, r in prof.items())
        if best is None or dist < best:
            best_lang, best = lang, dist
    return best_lang


def fingerprint_window_hashes(text: str, window: int = 8) -> list[int]:
    """Per-window blake2b hashes (uint64) over rolling token windows — the
    trusted kernel under ``fingerprint`` (pinned by unit tests) and the
    export seam for its SQL oracle (the min-aggregation re-derived in SQL).
    Empty text → [0]; short text → one hash of all tokens."""
    toks = text.lower().split()
    if not toks:
        return [0]
    if len(toks) <= window:
        h = hashlib.blake2b(" ".join(toks).encode(), digest_size=8).digest()
        return [int.from_bytes(h, "little")]
    return [int.from_bytes(
        hashlib.blake2b(" ".join(toks[i:i + window]).encode(),
                        digest_size=8).digest(), "little")
        for i in range(len(toks) - window + 1)]


def fingerprint(text: str, window: int = 8) -> int:
    """Winnowing-style document fingerprint: min blake2b hash over rolling token
    windows — stable under small edits outside the min window."""
    return min(fingerprint_window_hashes(text, window))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    vals = np.array([fingerprint(t) for t in batch[text_col].to_pylist()],
                    dtype=np.uint64)
    return batch.append_column("fingerprint", pa.array(vals))
