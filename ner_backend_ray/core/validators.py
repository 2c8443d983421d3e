"""Label-aware post-filtering of token entities.

Reference semantics: internal/core/postprocess.go:26-176 (FilterEntities and the
isValid* checks). Adjacent same-label runs (gap <= 1 byte) of PHONENUMBER /
CARD_NUMBER / SSN are merged and the merged text must validate; EMAIL gets a
structural check; CREDIT_SCORE requires "credit" and "score" within the ±20-byte
context; every other label passes through unchanged.
"""

from __future__ import annotations

import re
import unicodedata

from .entity import Entity

# postprocess.go:11-23 — Go regexp MatchString is an unanchored search.
_PHONE_RE = re.compile(
    rb"(?:\+?[0-9]{1,3}[ .-]?)?"
    rb"(?:\(?[0-9]{1,3}\)?[ .-]?)?"
    rb"(?:[0-9]{1,3}[ .-]?){1,3}"
    rb"[0-9]{1,4}"
    rb"(?: *(?:x|ext|extension) *[0-9]{1,6})?"
)
_CREDIT_SCORE_RE = re.compile(rb"\b[0-9]{2,3}\b")
_SSN_RE = re.compile(rb"(?:[0-9]{3}[- .][0-9]{2}[- .][0-9]{4}|[0-9]{9})")


def _strip_non_digits(s: bytes) -> str:
    """postprocess.go:152-160 — keep runes where unicode.IsDigit (category Nd)."""
    if s.isascii():
        return "".join(chr(c) for c in s if 48 <= c <= 57)
    text = s.decode("utf-8", "ignore")
    return "".join(ch for ch in text if ch.isascii() and ch.isdigit()
                   or (not ch.isascii() and unicodedata.category(ch) == "Nd"))


def luhn_valid(digits: str) -> bool:
    """postprocess.go:162-176 — parity computed from the string head."""
    total = 0
    parity = len(digits) % 2
    for i, ch in enumerate(digits):
        d = ord(ch) - 48
        if i % 2 == parity:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def is_valid_ssn(ssn: bytes) -> bool:
    if len(_strip_non_digits(ssn)) != 9:
        return False
    return _SSN_RE.search(ssn) is not None


def is_valid_phone(num: bytes) -> bool:
    n = len(_strip_non_digits(num))
    if n < 7 or n > 15:
        return False
    return _PHONE_RE.search(num) is not None


def is_valid_card(num: bytes) -> bool:
    digits = _strip_non_digits(num)
    if len(digits) < 12 or len(digits) > 19:
        return False
    return luhn_valid(digits)


def is_valid_credit_score(score: bytes, full: bytes, s: int, e: int) -> bool:
    # postprocess.go:120-134
    if _CREDIT_SCORE_RE.search(score) is None:
        return False
    ctx = (full[max(0, s - 20):s] + full[e:min(len(full), e + 20)]).lower()
    return b"credit" in ctx and b"score" in ctx


def is_valid_email(email: bytes) -> bool:
    # postprocess.go:136-150
    parts = email.split(b"@", 1)
    if len(parts) != 2:
        return False
    local, domain = parts
    if len(local) < 2 or len(domain) < 2:
        return False
    if domain.lower() == b"localhost":
        return True
    return b"." in domain


def filter_entities(full_text: bytes, token_entities: list[Entity]) -> list[Entity]:
    """Port of FilterEntities (postprocess.go:26-94). ``token_entities`` must be in
    offset order (the reference relies on upstream taggers emitting in token order)."""
    out: list[Entity] = []
    n = len(token_entities)
    i = 0
    while i < n:
        ent = token_entities[i]
        lbl = ent.label
        if lbl in ("PHONENUMBER", "CARD_NUMBER", "SSN"):
            group_start = ent.start
            group_end = ent.end
            j = i + 1
            while j < n and token_entities[j].label == lbl:
                prev_end = token_entities[j - 1].end
                next_start = token_entities[j].start
                if next_start == prev_end or next_start == prev_end + 1:
                    group_end = token_entities[j].end
                    j += 1
                else:
                    break
            merged = full_text[group_start:group_end]
            if lbl == "PHONENUMBER":
                keep = is_valid_phone(merged)
            elif lbl == "CARD_NUMBER":
                keep = is_valid_card(merged)
            else:
                keep = is_valid_ssn(merged)
            if keep:
                out.extend(token_entities[i:j])
            i = j
        elif lbl == "EMAIL":
            if is_valid_email(ent.text):
                out.append(ent)
            i += 1
        elif lbl == "CREDIT_SCORE":
            if is_valid_credit_score(ent.text, full_text, ent.start, ent.end):
                out.append(ent)
            i += 1
        else:
            out.append(ent)
            i += 1
    return out
