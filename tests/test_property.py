"""Property-based tests (hypothesis) for the byte-exactness-critical kernels.

The reference has no property tests (SURVEY.md §5); these pin the invariants the
distributed pipeline relies on: offset maps stay in bounds, sentence
splits are byte-exact, coalescing preserves order, redaction is span-safe.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

TEXTS = st.text(alphabet=st.characters(codec="utf-8"), max_size=400)
ASCII_TEXTS = st.text(
    alphabet=" \t\nabcdefghijklmnop.!?,0123456789-@", max_size=400)


@given(TEXTS)
@settings(max_examples=200, deadline=None)
def test_clean_spans_invariants(s):
    from ner_backend_ray.core.clean import WHITESPACE, clean_text_with_spans
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
        # cleaned tokens never contain whitespace (Go RE2's class)
        assert not set(cleaned[cs:ce]) & set(WHITESPACE)


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


# pieces of tagger docs: vocabulary surfaces the model tags, O words, every
# whitespace byte (\x0b is not whitespace in Go), punctuation the cleaner
# replaces, and bytes that are not valid UTF-8
_DOC_PIECES = st.sampled_from([
    b"Leo Morgan", b"Sonia", b"Acme Corp", b"Boston", b"works at", b"female",
    b"leo.morgan0@example.net", b"201-100-1000", b"100-10-1000", b"1960-01-01",
    b"4000 0000 0000 0002", b"credit score", b"300", b"the",
    "Grüße".encode("utf-8"), b" ", b"\t", b"\n", b"\x0b", b"\x0c", b"\r",
    b"-", b",", b".", b"(", b")", b"'", b"\"", b":", b"\xff", b"\xc3", b"\xe2\x82"])
_DOCS = st.one_of(
    st.lists(_DOC_PIECES, max_size=12).map(b"".join),
    st.sampled_from([b"", b" \t\n\x0c\r ", b"\x0b", b"-Leo Morgan,", b"(300)", b"\xff."]))


@st.composite
def tagger_batches(draw):
    """Short docs (empty, whitespace-only and punctuation-edged ones among
    them), sometimes more than one decode group of 64, with one long doc in
    the batch half the time."""
    docs = draw(st.lists(_DOCS, max_size=8) | st.lists(_DOCS, min_size=65, max_size=80))
    if draw(st.booleans()):
        long_doc = b" ".join(draw(st.lists(_DOCS, min_size=40, max_size=80)))
        docs.insert(draw(st.integers(0, len(docs))), long_doc)
    return docs


@pytest.fixture(scope="module")
def tagger():
    from ner_backend_ray.models import load_tagger
    return load_tagger("hash_embedding")


@given(tagger_batches())
@settings(max_examples=150, deadline=None)
def test_batch_tagger_equals_per_doc(tagger, texts):
    assert tagger.predict_batch(texts) == [tagger.predict(t) for t in texts]


@given(tagger_batches())
@settings(max_examples=300, deadline=None)
def test_clean_batch_equals_per_doc(texts):
    from ner_backend_ray.core.clean import clean_batch, clean_text_with_spans
    tokens, starts, ends, doc_starts = clean_batch(texts)
    tokens = tokens.to_pylist()
    bounds = list(zip(starts.tolist(), ends.tolist()))
    for d, text in enumerate(texts):
        lo, hi = doc_starts[d], doc_starts[d + 1]
        mine = [i for i, (s, _) in enumerate(bounds) if lo <= s < hi]
        cleaned, original_spans, _ = clean_text_with_spans(text)
        assert [(bounds[i][0] - lo, bounds[i][1] - lo) for i in mine] == original_spans
        assert b"".join(b" " + tokens[i] for i in mine) == cleaned


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
