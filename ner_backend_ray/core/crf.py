"""CRF Viterbi decode, subword→word alignment, and first-non-O aggregation.

Reference semantics: internal/core/onnx.go:40-145 (CRF.ViterbiDecode, getWordIds,
aggregatePredictions). Decode is float32 with first-maximum tie-breaking (the Go loop
keeps the earliest strictly-greater index, which matches numpy argmax).

``viterbi_decode`` decodes one sequence, as the reference does; the oracle and
per-doc ``predict`` use it. ``viterbi_decode_batch`` decodes many at once and
returns the same tags (the batch tagger uses it). ``get_word_ids`` and
``aggregate_predictions`` serve the per-doc path; the batch tagger computes
both with array operations (models/hash_tagger.py::predict_batch).
"""

from __future__ import annotations

import numpy as np


class CRF:
    """Transition/start/end score matrices; onnx.go:40-56."""

    def __init__(self, transitions: np.ndarray, start_probs: np.ndarray, end_probs: np.ndarray):
        self.transitions = np.asarray(transitions, dtype=np.float32)
        self.start_probs = np.asarray(start_probs, dtype=np.float32)
        self.end_probs = np.asarray(end_probs, dtype=np.float32)

    @property
    def num_tags(self) -> int:
        return len(self.transitions)

    def viterbi_decode(self, emissions: np.ndarray) -> list[int]:
        """onnx.go:62-108; emissions shape (seq_len, num_tags), float32."""
        em = np.asarray(emissions, dtype=np.float32)
        seq_len = em.shape[0]
        if seq_len == 0:
            return []
        dp = em[0] + self.start_probs
        bps = np.empty((seq_len, self.num_tags), dtype=np.int64)
        for t in range(1, seq_len):
            # scores[prev, curr] = dp[prev] + T[prev, curr] + em[t][curr]
            scores = dp[:, None] + self.transitions
            best_prev = scores.argmax(axis=0)          # first max, like the Go loop
            dp = scores[best_prev, np.arange(self.num_tags)] + em[t]
            bps[t] = best_prev
        dp = dp + self.end_probs
        seq = [0] * seq_len
        seq[-1] = int(dp.argmax())
        for t in range(seq_len - 1, 0, -1):
            seq[t - 1] = int(bps[t][seq[t]])
        return seq

    def viterbi_decode_batch(self, emissions_list: list[np.ndarray]) -> list[list[int]]:
        """Batched decode, equal per sequence to ``viterbi_decode``: each
        timestep is a few numpy calls for the whole batch.

        The batch runs longest first and batch-last, in (tag, sequence)
        arrays, so the max over the previous tag is an elementwise maximum
        of contiguous rows, and a sequence leaves the batch after its last
        step. The forward pass keeps each step's scores and takes no argmax
        (``scores.max`` is the float the gather at ``argmax`` gives). The
        back-trace re-derives the best previous tag only for the tag each
        path takes: one masked argmax per timestep across the batch, with
        the same first-maximum tie-break.
        """
        if not emissions_list:
            return []
        n = self.num_tags
        lens = np.array([e.shape[0] for e in emissions_list], dtype=np.int64)
        order = np.argsort(-lens, kind="stable")
        lens = lens[order]
        bsz, lmax = len(order), int(lens[0])
        if lmax == 0:
            return [[] for _ in emissions_list]
        em = np.zeros((lmax, n, bsz), dtype=np.float32)
        for j, i in enumerate(order.tolist()):
            em[:lens[j], :, j] = emissions_list[i]
        # active[t]: the sequences (a prefix) that have a step t
        active = np.searchsorted(-lens, -np.arange(lmax), side="left").tolist()

        dp = np.empty((lmax, n, bsz), dtype=np.float32)   # dp[t]: scores after step t
        np.add(em[0], self.start_probs[:, None], out=dp[0])
        trans = self.transitions[:, :, None]
        for t in range(1, lmax):
            k = active[t]
            scores = dp[t - 1, :, None, :k] + trans          # (prev, curr, k)
            np.add(scores.max(axis=0), em[t, :, :k], out=dp[t, :, :k])

        done = active[0]  # the rest are empty
        last = dp[lens[:done] - 1, :, np.arange(done)] + self.end_probs  # (done, n)
        cur = last.argmax(axis=1)
        seq = np.empty((lmax, done), dtype=np.int64)
        for t in range(lmax - 1, 0, -1):
            seq[t] = cur
            k = active[t]
            # best previous tag of each path's tag at step t
            cur[:k] = (dp[t - 1, :, :k] + self.transitions[:, cur[:k]]).argmax(axis=0)
        seq[0] = cur
        seq = seq.T
        out: list[list[int]] = [[] for _ in emissions_list]
        for j, i in enumerate(order[:done].tolist()):
            out[i] = seq[j, :lens[j]].tolist()
        return out


def get_word_ids(word_offsets: list[tuple[int, int]], token_offsets: list[tuple[int, int]]) -> list[int]:
    """onnx.go:110-130 — assumes non-overlapping, sorted offsets."""
    word_ids = [0] * len(token_offsets)
    word_id = 0
    n_words = len(word_offsets)
    for i, (tok_start, tok_end) in enumerate(token_offsets):
        while word_id < n_words and word_offsets[word_id][1] <= tok_start:
            word_id += 1
        if word_id < n_words and word_offsets[word_id][0] < tok_end:
            word_ids[i] = word_id
        else:
            word_ids[i] = -1
    return word_ids


def aggregate_predictions(tags: list[str], word_ids: list[int], num_words: int) -> list[str]:
    """onnx.go:132-145 — first non-O subword tag wins per word."""
    preds = ["O"] * num_words
    for tag, wid in zip(tags, word_ids):
        if wid >= 0 and preds[wid] == "O":
            preds[wid] = tag
    return preds
