"""Entity (mention) type with byte-offset semantics.

Reference semantics: internal/core/types/entity.go:5-26 — a mention is a byte-offset
span into the raw document text, with ±20-byte context windows; Text/LContext/RContext
are scrubbed of invalid UTF-8 (Go strings.ToValidUTF8(s, "")) but Start/End remain
*byte* offsets into the raw (possibly invalid-UTF-8) text.

Because Go strings are byte slices, all per-document processing here operates on
``bytes``; text/context fields are kept as (scrubbed) bytes until row emission, where
they decode losslessly (scrubbing guarantees valid UTF-8).
"""

from __future__ import annotations

from dataclasses import dataclass

CONTEXT_LENGTH = 20  # entity.go:5


def to_valid_utf8(b: bytes) -> bytes:
    """Drop invalid UTF-8 sequences (Go strings.ToValidUTF8(s, "") with empty
    replacement). Returns the UTF-8 encoding of the surviving runes."""
    try:
        b.decode("utf-8", "strict")
        return b  # fast path: already valid
    except UnicodeDecodeError:
        return b.decode("utf-8", "ignore").encode("utf-8")


@dataclass(slots=True)
class Entity:
    label: str
    text: bytes       # scrubbed bytes of the span
    start: int        # byte offset into raw doc text
    end: int
    lcontext: bytes = b""
    rcontext: bytes = b""


def create_entity(label: str, context: bytes, start: int, end: int) -> Entity:
    """Port of types.CreateEntity (entity.go:16-26)."""
    lo, hi = max(0, start - CONTEXT_LENGTH), end + CONTEXT_LENGTH
    text, lcontext, rcontext = context[start:end], context[lo:start], context[end:hi]
    if not context[lo:hi].isascii():  # ASCII is valid UTF-8 as it stands
        text, lcontext, rcontext = (to_valid_utf8(text), to_valid_utf8(lcontext),
                                    to_valid_utf8(rcontext))
    return Entity(label, text, start, end, lcontext, rcontext)
