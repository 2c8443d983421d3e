"""Per-document inference chain — the unit of work the whole engine parallelizes.

Port of the reference's per-object path (internal/core/processor.go:565-686,
runInferenceOnObject): model predict → FilterEntities → excluded-tag drop →
report-tag allowlist → custom-regex entities → group-filter evaluation (on the
*pre-coalesce* label map, processor.go:649-658) → coalesceEntities → per-tag counts
(split regular/custom, processor.go:675-679) → whitespace token count
(processor.go:640-641).

This is a pure function of (text, config); the single-threaded oracle and the Ray
tag stages call exactly this code, which is what makes distributed output
bit-identical to the oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .clean import UNICODE_WHITESPACE
from .coalesce import EXCLUDED_TAGS, coalesce_entities
from .dsl import Filter
from .entity import Entity, to_valid_utf8
from .validators import filter_entities


@dataclass
class DocResult:
    mentions: list[Entity] = field(default_factory=list)   # coalesced, start-ordered
    groups: list[str] = field(default_factory=list)        # matching group names
    tag_count: dict[str, int] = field(default_factory=dict)
    custom_tag_count: dict[str, int] = field(default_factory=dict)
    token_count: int = 0


_GO_FIELD = re.compile("[^" + re.escape(UNICODE_WHITESPACE) + "]+")
_PY_ONLY_SPACE = re.compile("[\x1c-\x1f]")


def count_tokens(text: bytes) -> int:
    """Go strings.Fields semantics: fields between runs of Go's unicode
    whitespace (``clean.UNICODE_WHITESPACE``); invalid bytes decode to U+FFFD,
    which is not whitespace, matching Go's rune-error behavior. ``str.split``
    agrees with Go on a text holding none of U+001C-U+001F."""
    s = text.decode("utf-8", "replace")
    if _PY_ONLY_SPACE.search(s) is None:
        return len(s.split())
    return len(_GO_FIELD.findall(s))


def run_inference_on_doc(
    text: bytes,
    model,
    tags: set[str] | None = None,
    custom_patterns: dict[str, re.Pattern] | None = None,
    group_filters: dict[str, Filter] | None = None,
    precomputed_entities: list[Entity] | None = None,
) -> DocResult:
    """``tags=None`` admits every non-excluded model label (a report with the full
    allowlist); custom patterns bypass the allowlist, as in the reference.
    ``precomputed_entities`` lets batch callers (stages/tag.py) run the model once
    per batch via ``predict_batch`` — bit-identical to per-doc ``predict``."""
    result = DocResult()
    label_to_entities: dict[str, list[Entity]] = {}

    chunk_entities = (precomputed_entities if precomputed_entities is not None
                      else model.predict(text))
    chunk_entities = filter_entities(text, chunk_entities)

    for entity in chunk_entities:
        if entity.label in EXCLUDED_TAGS:
            continue
        if tags is not None and entity.label not in tags:
            continue
        label_to_entities.setdefault(entity.label, []).append(entity)

    if custom_patterns:
        for tag, rx in custom_patterns.items():
            pat = rx if isinstance(rx, re.Pattern) else re.compile(
                rx.encode("utf-8") if isinstance(rx, str) else rx)
            for m in pat.finditer(text):
                start, end = m.start(), m.end()
                label_to_entities.setdefault(tag, []).append(Entity(
                    label=tag,
                    text=text[start:end],
                    start=start,
                    end=end,
                    lcontext=to_valid_utf8(text[max(0, start - 20):start]),
                    rcontext=to_valid_utf8(text[end:min(len(text), end + 20)]),
                ))

    result.token_count = count_tokens(text)

    if group_filters:
        for name, filt in group_filters.items():
            if filt.matches(label_to_entities):
                result.groups.append(name)

    result.mentions = coalesce_entities(label_to_entities)

    custom_names = set(custom_patterns or ())
    for entity in result.mentions:
        bucket = result.custom_tag_count if entity.label in custom_names else result.tag_count
        bucket[entity.label] = bucket.get(entity.label, 0) + 1

    return result
