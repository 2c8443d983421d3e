"""Length-preserving text normalization with span maps.

Reference semantics: internal/core/preprocess.go:9-60 (CleanTextWithSpans).
Punctuation adjacent to whitespace is replaced by a space (length-preserving), then the
text is tokenized on ``\\S+``; the cleaned text is rebuilt as ``" " + token`` per token,
returning parallel (original_span, cleaned_span) byte-offset arrays that map cleaned
tokens back to raw-text byte ranges.

Operates on bytes: Go strings are byte slices and the reference's offsets are byte
offsets; ``\\s``/``\\S`` match the same ASCII whitespace classes in Go regexp and in
Python bytes regexes, so token boundaries and offsets agree byte-for-byte.
"""

from __future__ import annotations

import re

_PUNCT = b"-,.!?:_\"'`)]}([{"  # preprocess.go:10

_PUNCT_THEN_SPACE = re.compile(rb"(\S)[" + re.escape(_PUNCT) + rb"](\s)")
_SPACE_THEN_PUNCT = re.compile(rb"(\s)[" + re.escape(_PUNCT) + rb"](\S)")
_TOKEN = re.compile(rb"\S+")


def _replace_punct(text: bytes) -> bytes:
    # preprocess.go:18-34 — both substitutions are length-preserving.
    new = _PUNCT_THEN_SPACE.sub(rb"\1 \2", text)
    new = _SPACE_THEN_PUNCT.sub(rb"\1 \2", new)
    if len(new) != len(text):
        raise RuntimeError("punctuation replacement changed the length "
                           f"{len(text)} -> {len(new)}")
    return new


def clean_text_with_spans(text: bytes) -> tuple[bytes, list[tuple[int, int]], list[tuple[int, int]]]:
    """Returns (cleaned_text, original_spans, cleaned_spans); preprocess.go:36-60."""
    text = _replace_punct(text)

    original_spans: list[tuple[int, int]] = []
    cleaned_spans: list[tuple[int, int]] = []
    parts: list[bytes] = []
    pos = 0
    for m in _TOKEN.finditer(text):
        token = m.group(0)
        parts.append(b" ")
        parts.append(token)
        cleaned_start = pos + 1
        pos = cleaned_start + len(token)
        original_spans.append((m.start(), m.end()))
        cleaned_spans.append((cleaned_start, pos))

    return b"".join(parts), original_spans, cleaned_spans
