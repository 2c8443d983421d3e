"""Entity linking: candidate generation + scoring against the alias dictionary.

No reference analog (SURVEY.md §2.3 T7 — the linking target from the north rule);
the *pattern* is the reference's model-loading one generalized: the dictionary is
small-side state loaded once per worker process in ``__init__`` (broadcast, not
shuffled — SURVEY.md §2.4). At 100 TB scale the dictionary is hash-sharded by
``hash(surface_form) % P`` (the ``shard`` column written by the fixture builder);
each worker loads all shards when they fit (fixture case) or the pipeline falls back
to the partitioned hash join in ops/joins.py when they don't.

Key normalization (SURVEY.md §2.8, defined by us): NFC → lower → collapse
whitespace → strip edge punctuation.
"""

from __future__ import annotations

import unicodedata

_EDGE_PUNCT = ".,!?:;\"'`)]}([{-_"


def normalize_surface(surface: bytes | str) -> str:
    if isinstance(surface, bytes):
        surface = surface.decode("utf-8", "ignore")
    s = unicodedata.normalize("NFC", surface).lower()
    s = " ".join(s.split())
    return s.strip(_EDGE_PUNCT + " ")


def surface_entity_key(surface: bytes | str) -> str:
    """The canonicalization key for an unlinked mention."""
    return "surf:" + normalize_surface(surface)


class AliasDict:
    """The load-once broadcast dictionary state shared by the link kernels."""

    def __init__(self, alias_path: str, min_score: float = 0.0):
        import pyarrow.parquet as pq
        t = pq.read_table(alias_path,
                          columns=["surface_form", "entity_id", "label", "prior"])
        self.dict: dict[str, tuple[str, str, float]] = {}
        for sf, eid, label, prior in zip(t["surface_form"].to_pylist(),
                                         t["entity_id"].to_pylist(),
                                         t["label"].to_pylist(),
                                         t["prior"].to_pylist()):
            self.dict.setdefault(sf, (eid, label, prior))
        self.min_score = min_score

    def link(self, text: str, label: str) -> tuple[str, str, float]:
        """Returns (entity_key, candidate_id, score)."""
        norm = normalize_surface(text)
        hit = self.dict.get(norm)
        if hit is not None and hit[1] == label and hit[2] >= self.min_score:
            return hit[0], hit[0], hit[2]
        return "surf:" + norm, "", 0.0

    def batch_linker(self):
        """A memoizing link fn scoped to one batch: surfaces repeat heavily
        (head entities), so NFC-normalization + lookup runs once per DISTINCT
        (text, label) and every repeat is a dict hit (round-1 verdict #5 —
        'link distinct surfaces once per batch')."""
        memo: dict[tuple[str, str], tuple[str, str, float]] = {}
        raw_link = self.link

        def link(text: str, label: str) -> tuple[str, str, float]:
            k = (text, label)
            r = memo.get(k)
            if r is None:
                r = raw_link(text, label)
                memo[k] = r
            return r

        return link

