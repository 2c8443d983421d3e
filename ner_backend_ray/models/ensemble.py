"""Ensemble (majority-vote) tagger.

Port of the reference's plugin ensemble
(plugin/plugin-python/models/ensemble/ensemble.py:37-92): each member model
produces one tag per whitespace token; the ensemble takes the per-token
majority (``Counter.most_common`` — ties resolve to the first member's tag,
matching the reference) and emits ONE entity per non-O token located with the
same forward ``text.find`` scan (ensemble.py:58-76; tokens are not merged).

Members are any registered taggers (model.go:49-75 registry seam), so an
ensemble composes e.g. the hash-embedding CRF with the presidio bank or a
custom regex tagger; it loads once per Ray worker process like every other tagger.
"""

from __future__ import annotations

from collections import Counter

from ..core.entity import Entity, create_entity
from .base import Tagger, load_tagger, register_tagger


def _token_tags(text: bytes, tokens: list[tuple[int, int]],
                entities: list[Entity]) -> list[str]:
    """One tag per token: a token takes the label of the first entity whose
    span overlaps it (members emit token-aligned entities, so overlap is
    exact in practice), else "O"."""
    tags = ["O"] * len(tokens)
    ei = 0
    ents = sorted(entities, key=lambda e: (e.start, e.end))
    for ti, (ts, te) in enumerate(tokens):
        while ei < len(ents) and ents[ei].end <= ts:
            ei += 1
        if ei < len(ents) and ents[ei].start < te:
            tags[ti] = ents[ei].label
    return tags


def _tokenize_ws(text: bytes) -> list[tuple[int, int]]:
    """Whitespace tokens as (start, end) byte spans, forward-scan like the
    reference's ``text.find(tok, offset)`` (ensemble.py:60-65)."""
    spans = []
    off = 0
    for tok in text.split():
        idx = text.find(tok, off)
        if idx == -1:
            idx = off
        spans.append((idx, idx + len(tok)))
        off = idx + len(tok)
    return spans


class EnsembleTagger:
    def __init__(self, members: list[dict]):
        if not members:
            raise ValueError("ensemble needs at least one member model")
        self.models: list[Tagger] = [
            load_tagger(m["model_type"], **m.get("model_kwargs", {}))
            for m in members]

    def predict(self, text: bytes) -> list[Entity]:
        tokens = _tokenize_ws(text)
        if not tokens:
            return []
        votes = [_token_tags(text, tokens, m.predict(text)) for m in self.models]
        out: list[Entity] = []
        for ti, (ts, te) in enumerate(tokens):
            choices = [v[ti] for v in votes]
            tag = Counter(choices).most_common(1)[0][0]
            if tag == "O":
                continue
            out.append(create_entity(tag, text, ts, te))
        return out

    def predict_batch(self, texts: list[bytes]) -> list[list[Entity]]:
        return [self.predict(t) for t in texts]


register_tagger("ensemble", lambda members=None: EnsembleTagger(members or []))
