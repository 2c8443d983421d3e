"""Length-preserving text normalization with span maps.

Reference semantics: internal/core/preprocess.go:9-60 (CleanTextWithSpans).
Punctuation adjacent to whitespace is replaced by a space (length-preserving), then the
text is tokenized on ``\\S+``; the cleaned text is rebuilt as ``" " + token`` per token,
returning parallel (original_span, cleaned_span) byte-offset arrays that map cleaned
tokens back to raw-text byte ranges.

Operates on bytes: Go strings are byte slices and the reference's offsets are byte
offsets. Whitespace is Go RE2's ``\\s``, ``[\\t\\n\\f\\r ]`` (``WHITESPACE``), which is
not Python's bytes ``\\s``: that one also holds ``\\x0b``. Both forms below are built
from ``WHITESPACE``:

- ``clean_text_with_spans``: one doc, by regex (the reference port; the oracle
  and per-doc ``predict`` use it);
- ``clean_batch``: many docs joined end to end, by numpy byte masks (the batch
  tagger uses it). Pattern 2 reads pattern 1's output and the matches of one
  pattern never overlap (a match's last byte is whitespace for pattern 1 and not
  for pattern 2, and no punctuation byte is whitespace), so a per-byte mask per
  pattern is exact. A doc's first and last byte have no neighbour in the doc.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

WHITESPACE = b"\t\n\f\r "  # Go RE2 \s
# Go's unicode.IsSpace, the separators of strings.Fields (the reference's
# token count, core/inference.py::count_tokens). Python's str.split() also
# splits on U+001C-U+001F, which Go does not.
UNICODE_WHITESPACE = ("\t\n\v\f\r \x85\xa0\u1680"
                      + "".join(map(chr, range(0x2000, 0x200B)))
                      + "\u2028\u2029\u202f\u205f\u3000")
_PUNCT = b"-,.!?:_\"'`)]}([{"  # preprocess.go:10

_S = b"[" + re.escape(WHITESPACE) + b"]"
_NS = b"[^" + re.escape(WHITESPACE) + b"]"
_P = b"[" + re.escape(_PUNCT) + b"]"
_PUNCT_THEN_SPACE = re.compile(b"(" + _NS + b")" + _P + b"(" + _S + b")")
_SPACE_THEN_PUNCT = re.compile(b"(" + _S + b")" + _P + b"(" + _NS + b")")
_TOKEN = re.compile(_NS + b"+")

_IS_SPACE = np.zeros(256, bool)
_IS_SPACE[list(WHITESPACE)] = True
_IS_PUNCT = np.zeros(256, bool)
_IS_PUNCT[list(_PUNCT)] = True


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


def clean_batch(texts: list[bytes]) -> tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray]:
    """``clean_text_with_spans`` over every doc of ``texts`` at once.

    Returns ``(tokens, starts, ends, doc_starts)``: ``tokens`` are the
    cleaned tokens of every doc, in order, as one Arrow binary array;
    ``starts``/``ends`` are their [start, end) in the docs joined end to end;
    and ``doc_starts`` (one more entry than ``texts``) are the docs' offsets
    there. Doc ``d``'s ``original_spans`` are its tokens' bounds minus
    ``doc_starts[d]``.
    """
    lens = np.fromiter(map(len, texts), np.int64, len(texts))
    doc_starts = np.zeros(len(texts) + 1, np.int64)
    np.cumsum(lens, out=doc_starts[1:])
    buf = np.frombuffer(b"".join(texts), np.uint8)
    n = buf.size
    # byte 0 and byte n-1 are a doc's first and last byte, so the [1:-1]
    # windows below see both neighbours of every byte they test
    nonempty = lens > 0
    first = np.zeros(n, bool)
    first[doc_starts[:-1][nonempty]] = True
    last = np.zeros(n, bool)
    last[doc_starts[1:][nonempty] - 1] = True
    inner = ~(first | last)[1:-1]
    space = _IS_SPACE[buf]
    punct = _IS_PUNCT[buf]
    # (\S)P(\s) -> " ", then (\s)P(\S) on its output
    sub = np.zeros(n, bool)
    sub[1:-1] = punct[1:-1] & inner & ~space[:-2] & space[2:]
    space |= sub
    sub2 = np.zeros(n, bool)
    sub2[1:-1] = punct[1:-1] & ~sub[1:-1] & inner & space[:-2] & ~space[2:]
    space |= sub2
    # \S+ runs: a token starts after whitespace or at a doc's first byte and
    # ends before whitespace or at a doc's last byte
    word = ~space
    begin = word.copy()
    begin[1:] &= space[:-1] | first[1:]
    end = word.copy()
    end[:-1] &= space[1:] | last[:-1]
    starts, ends = np.flatnonzero(begin), np.flatnonzero(end) + 1
    offsets = np.zeros(starts.size + 1, np.int64)
    np.cumsum(ends - starts, out=offsets[1:])
    # the substitutions only turn bytes into spaces, so a token's bytes are
    # its raw bytes
    tokens = pa.Array.from_buffers(pa.large_binary(), starts.size,
                                   [None, pa.py_buffer(offsets), pa.py_buffer(buf[word])])
    return tokens, starts, ends, doc_starts
