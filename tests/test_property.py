"""Property-based tests (hypothesis) for the byte-exactness-critical kernels.

The reference has no property tests (SURVEY.md §5); these pin the invariants the
distributed pipeline relies on: offset maps stay in bounds, sentence
splits are byte-exact, coalescing preserves order, redaction is span-safe.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

TEXTS = st.text(alphabet=st.characters(codec="utf-8"), max_size=400)
ASCII_TEXTS = st.text(
    alphabet=" \t\nabcdefghijklmnop.!?,0123456789-@", max_size=400)


@given(TEXTS)
@settings(max_examples=200, deadline=None)
def test_clean_spans_invariants(s):
    from ner_backend_ray.core.clean import clean_text_with_spans
    b = s.encode("utf-8")
    cleaned, original_spans, cleaned_spans = clean_text_with_spans(b)
    assert len(original_spans) == len(cleaned_spans)
    prev_end = 0
    for (os_, oe), (cs, ce) in zip(original_spans, cleaned_spans):
        # offsets in bounds, strictly increasing, token slices non-empty
        assert 0 <= os_ < oe <= len(b)
        assert 0 <= cs < ce <= len(cleaned)
        assert os_ >= prev_end
        prev_end = oe
        # cleaned tokens never contain whitespace
        assert not re.search(rb"\s", cleaned[cs:ce])


@given(ASCII_TEXTS, st.integers(min_value=1, max_value=7))
@settings(max_examples=200, deadline=None)
def test_split_text_partitions_tokens(s, length):
    from ner_backend_ray.core.split import split_text_custom_length
    b = s.encode("utf-8")
    sentences, offsets = split_text_custom_length(b, length)
    all_tokens = re.findall(rb"\S+", b)
    rebuilt = []
    for sent in sentences:
        toks = re.findall(rb"\S+", sent)
        assert 1 <= len(toks) <= length
        rebuilt.extend(toks)
    assert rebuilt == all_tokens
    assert offsets == sorted(offsets)
    for off, sent in zip(offsets, sentences):
        assert b[off:off + len(sent)] == sent   # offsets are byte-exact


_LABELS = ("NAME", "COMPANY", "LOCATION", "EMAIL")


@st.composite
def entity_lists(draw):
    from ner_backend_ray.core.entity import create_entity
    text = draw(ASCII_TEXTS.filter(lambda t: len(t) >= 4)).encode("utf-8")
    n = draw(st.integers(min_value=0, max_value=8))
    ents = []
    for _ in range(n):
        start = draw(st.integers(min_value=0, max_value=len(text) - 2))
        end = draw(st.integers(min_value=start + 1, max_value=len(text)))
        label = draw(st.sampled_from(_LABELS))
        ents.append(create_entity(label, text, start, end))
    return text, ents


@given(entity_lists())
@settings(max_examples=200, deadline=None)
def test_coalesce_sorted_and_count_bounded(case):
    from ner_backend_ray.core.coalesce import coalesce_entities
    text, ents = case
    label_map = {}
    for e in ents:
        label_map.setdefault(e.label, []).append(e)
    out = coalesce_entities(label_map)
    starts = [e.start for e in out]
    assert starts == sorted(starts)
    assert len(out) <= len(ents)
    for e in out:
        assert 0 <= e.start < e.end


@given(entity_lists())
@settings(max_examples=200, deadline=None)
def test_redact_no_entities_identity_and_spans_removed(case):
    from ner_backend_ray.ops.redact import redact_text
    text, ents = case
    red0, _ = redact_text(text, [])
    assert red0 == text.decode("utf-8", "ignore")
    dicts = [{"start": e.start, "end": e.end, "label": e.label,
              "text": e.text.decode("utf-8", "ignore")} for e in ents]
    red, assigned = redact_text(text, dicts)
    # every assigned placeholder appears; non-overlapping prefix survives
    for token in assigned.values():
        assert token in red


@st.composite
def keyed_series(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    keys = draw(st.lists(st.integers(min_value=-3, max_value=3),
                         min_size=n, max_size=n))
    ons = draw(st.lists(st.integers(min_value=-50, max_value=50),
                        min_size=n, max_size=n))
    return keys, ons


@given(keyed_series(), keyed_series(),
       st.integers(min_value=-10, max_value=10),
       st.integers(min_value=-10, max_value=10))
@settings(max_examples=200, deadline=None)
def test_range_window_pairs_matches_bruteforce(l, r, a, b):
    import numpy as np
    from ner_backend_ray.ops.joins import range_window_pairs
    lo, hi = min(a, b), max(a, b)
    lkey, lon = (np.asarray(x, np.int64) for x in l)
    rkey, ron = (np.asarray(x, np.int64) for x in r)
    li, ri = range_window_pairs(lkey, lon, rkey, ron, lo, hi)
    got = sorted(zip(li.tolist(), ri.tolist()))
    want = sorted((i, j)
                  for i in range(len(lon)) for j in range(len(ron))
                  if lkey[i] == rkey[j] and lon[i] + lo <= ron[j] < lon[i] + hi)
    assert got == want
