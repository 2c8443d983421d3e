"""Token-window text splitting — port of the reference's SplitTextCustomLength
(internal/core/utils/text_utils.go:11-30): split into windows of `length`
non-whitespace token spans, each window the byte slice from its first token's
start to its last token's end, returning (windows, start_offsets). Used by the
BOLT/python model paths (internal/core/bolt/bolt_unix.go:45-48) and by
``models/base.py::WindowedTagger``.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(rb"\S+")

DEFAULT_SENTENCE_LENGTH = 100  # text_utils.go:9


def split_text_custom_length(text: bytes, length: int) -> tuple[list[bytes], list[int]]:
    """Byte-offset-exact port: windows of `length` tokens, offsets into `text`."""
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    sentences: list[bytes] = []
    offsets: list[int] = []
    for i in range(0, len(spans), length):
        end = min(i + length, len(spans))
        start_off = spans[i][0]
        end_off = spans[end - 1][1]
        sentences.append(text[start_off:end_off])
        offsets.append(start_off)
    return sentences, offsets


def split_text(text: bytes) -> tuple[list[bytes], list[int]]:
    return split_text_custom_length(text, DEFAULT_SENTENCE_LENGTH)
