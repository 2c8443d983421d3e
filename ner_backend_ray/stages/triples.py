"""Dependency-pattern triple extraction — per-document, stateless.

No reference analog (north-rule extension). Deterministic marker rules over
consecutive mention pairs within a sentence: for pair (L, R) the inter-mention text
is matched against an ordered rule table; attribute predicates (has_email,
has_phone) backtrack to the nearest preceding NAME as subject. Pairs whose
inter-text crosses a sentence terminator are skipped. Pure function of
(text, mentions) — shared verbatim by the oracle and the distributed stage.
"""

from __future__ import annotations

import pyarrow as pa

from ..core.entity import Entity

# (marker, predicate, subj_label, obj_label, allow_subj_backtrack)
TripleRules: list[tuple[bytes, str, str, str, bool]] = [
    (b" works at ", "works_at", "NAME", "COMPANY", False),
    (b" is based in ", "located_in", "COMPANY", "LOCATION", False),
    (b" in ", "located_in", "COMPANY", "LOCATION", False),
    (b" was born on ", "born_on", "NAME", "DATE", False),
    (b" lives at ", "lives_at", "NAME", "ADDRESS", False),
    (b" visited ", "visited", "NAME", "LOCATION", False),
    (b" at ", "has_email", "NAME", "EMAIL", True),
    (b" or ", "has_phone", "NAME", "PHONENUMBER", True),
]

_SENTENCE_TERMINATORS = (b".", b"!", b"?")


def extract_triples_from_doc(text: bytes, mentions: list[Entity], surfaces: list[str]
                             ) -> list[tuple[str, str, str, str, str]]:
    """``mentions``: the doc's coalesced entities, sorted by start;
    ``surfaces``: their texts as str. Returns (subj, pred, obj,
    subj_label, obj_label) tuples."""
    out: list[tuple[str, str, str, str, str]] = []
    n = len(mentions)
    if n < 2:
        return out
    # sentence-boundary flags per inter-mention gap (mention *content* may contain
    # dots — emails, URLs, ISO dates — so only the gaps are inspected)
    gap_breaks = [
        any(t in text[mentions[i].end:mentions[i + 1].start]
            for t in _SENTENCE_TERMINATORS)
        for i in range(n - 1)
    ]
    for i in range(n - 1):
        if gap_breaks[i]:
            continue
        left, right = mentions[i], mentions[i + 1]
        inter_l = text[left.end:right.start].lower()
        for marker, pred, subj_label, obj_label, backtrack in TripleRules:
            if marker not in inter_l or right.label != obj_label:
                continue
            if left.label == subj_label:
                subj = i
            elif backtrack:
                subj = None
                for k in range(i - 1, -1, -1):
                    if gap_breaks[k]:  # stay within the sentence
                        break
                    if mentions[k].label == subj_label:
                        subj = k
                        break
                if subj is None:
                    continue
            else:
                continue
            out.append((surfaces[subj], pred, surfaces[i + 1], subj_label, obj_label))
            break
    return out
