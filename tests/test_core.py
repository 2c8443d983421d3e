"""Operator unit tests with exact expected values, ported from the reference's own
test vectors (SURVEY.md §5 layer 1)."""

import numpy as np
import pytest

from ner_backend_ray.core.clean import clean_text_with_spans
from ner_backend_ray.core.coalesce import coalesce_entities
from ner_backend_ray.core.crf import CRF, aggregate_predictions, get_word_ids
from ner_backend_ray.core.entity import Entity, create_entity, to_valid_utf8
from ner_backend_ray.core.validators import filter_entities


def make_token_entities(full_text: bytes, label: str) -> list[Entity]:
    # postprocess_test.go:11-31 helper
    entities = []
    offset = 0
    for w in full_text.split():
        idx = full_text[offset:].find(w)
        if idx < 0:
            continue
        start = offset + idx
        end = start + len(w)
        entities.append(Entity(label=label, text=w, start=start, end=end))
        offset = end
    return entities


# ---------------- FilterEntities (postprocess_test.go) ----------------

@pytest.mark.parametrize("text,want", [
    (b"123-4567", True), (b"+1 800 555 1234 ext 567", True),
    (b"12345", False), (b"12345678901234567890", False),
    (b"ABC-DEF-GHIJ", False),
])
def test_filter_phone(text, want):
    out = filter_entities(text, make_token_entities(text, "PHONENUMBER"))
    assert (len(out) > 0) == want


@pytest.mark.parametrize("text,want", [
    (b"4111 1111 1111 1111", True), (b"5500-0000-0000-0004", True),
    (b"1234 5678 901", False), (b"1234 5678 9012 3456 7890", False),
    (b"4111 1111 1111 1112", False), (b"abcd-efgh-ijkl-mnop", False),
])
def test_filter_card(text, want):
    out = filter_entities(text, make_token_entities(text, "CARD_NUMBER"))
    assert (len(out) > 0) == want


@pytest.mark.parametrize("text,want", [
    (b"123-45-6789", True), (b"123 45 6789", True), (b"123456789", True),
    (b"123-45-678", False), (b"1234-56-7890", False), (b"12a-45-6789", False),
])
def test_filter_ssn(text, want):
    out = filter_entities(text, make_token_entities(text, "SSN"))
    assert (len(out) > 0) == want


@pytest.mark.parametrize("text,want", [
    (b"john.doe@example.com", True), (b"user@localhost", True),
    (b"johndoeexample.com", False), (b"a@b.com", False),
    (b"ab@c", False), (b"ab@domaincom", False),
])
def test_filter_email(text, want):
    ent = Entity(label="EMAIL", text=text, start=0, end=len(text))
    out = filter_entities(text, [ent])
    assert (len(out) == 1) == want


@pytest.mark.parametrize("full,snippet,start,end,want", [
    (b"My credit score is 750 and rising.", b"750", 17, 20, True),
    (b"He scored 750 points yesterday.", b"750", 10, 13, False),
    (b"This 800 number is high credit.", b"800", 5, 8, False),
    (b"My credit score is 5.", b"5", 17, 18, False),
    (b"Check credit score: 1000 exactly.", b"1000", 19, 23, False),
])
def test_filter_credit_score(full, snippet, start, end, want):
    ent = Entity(label="CREDIT_SCORE", text=snippet, start=start, end=end)
    out = filter_entities(full, [ent])
    assert (len(out) == 1) == want


def test_filter_keeps_other_labels():
    ent = Entity(label="PERSON", text=b"Alice", start=0, end=5)
    out = filter_entities(b"Alice went home.", [ent])
    assert len(out) == 1 and out[0].label == "PERSON" and out[0].text == b"Alice"


# ---------------- CRF decode + alignment (onnx_test.go) ----------------

def test_crf_golden():
    crf = CRF(
        [[0.8, 0.5, 0.2, 0.1], [0.2, 0.4, 0.1, 0.3],
         [0.3, 0.6, 0.9, 0.3], [0.9, 0.9, 0.9, 0.3]],
        [0.7, 0.8, 0.0, 0.5], [0.4, 0.1, 0.3, 0.2])
    emissions = [
        [[0.2, 0.7, 0.1, 0.9], [0.1, 0.6, 0.8, 0.8],
         [0.8, 0.9, 0.3, 0.1], [0.9, 0.8, 0.3, 0.9]],
        [[0.6, 0.0, 0.5, 0.7], [0.1, 0.4, 0.1, 0.6], [0.3, 0.7, 0.3, 0.0]],
        [[0.5, 0.6, 0.7, 0.5], [0.9, 0.5, 0.4, 0.3], [0.0, 0.8, 0.9, 0.4],
         [0.8, 0.7, 0.5, 0.8], [0.7, 0.5, 0.8, 0.1]],
    ]
    expected = [[1, 3, 0, 0], [3, 3, 1], [3, 2, 2, 2, 2]]
    for em, want in zip(emissions, expected):
        assert crf.viterbi_decode(np.array(em, np.float32)) == want


@pytest.mark.parametrize("token_offsets,word_offsets,want", [
    ([(0, 3), (4, 6), (7, 10)], [(0, 3), (4, 6), (7, 10)], [0, 1, 2]),
    ([(0, 2), (3, 5), (6, 8)], [(0, 3), (4, 6), (7, 10)], [0, 1, 2]),
    ([(0, 2), (3, 5), (6, 8)], [(0, 3), (4, 6)], [0, 1, -1]),
    ([(0, 2), (5, 7)], [(3, 5), (8, 10)], [-1, -1]),
    ([(3, 5), (8, 10)], [(0, 2), (5, 7)], [-1, -1]),
    ([(0, 3), (4, 6), (7, 10)], [(0, 2), (3, 5), (6, 8)], [0, 1, 2]),
    ([(0, 1), (2, 4), (7, 10)], [(0, 3), (5, 7)], [0, 0, -1]),
    ([(0, 1), (3, 5), (8, 10)], [(0, 3), (6, 7), (7, 10)], [0, -1, 2]),
    ([(0, 3), (4, 6), (7, 10), (11, 13)], [(0, 3), (5, 8), (12, 14)], [0, 1, 1, 2]),
    ([(0, 3), (4, 6), (7, 10)], [], [-1, -1, -1]),
    ([], [(0, 3), (4, 6), (7, 10)], []),
])
def test_get_word_ids(token_offsets, word_offsets, want):
    assert get_word_ids(word_offsets, token_offsets) == want


def test_aggregate_predictions_first_non_o_wins():
    tags = ["O", "NAME", "COMPANY", "NAME"]
    word_ids = [0, 0, 0, 1]
    assert aggregate_predictions(tags, word_ids, 2) == ["NAME", "NAME"]


# ---------------- CleanTextWithSpans (preprocess.go) ----------------

def test_clean_text_spans_roundtrip():
    text = b"Hello, world! This is (a) test."
    cleaned, orig, cspans = clean_text_with_spans(text)
    assert cleaned == b" Hello world This is a test."
    # spans map cleaned tokens back to original byte ranges
    for (os_, oe), (cs, ce) in zip(orig, cspans):
        tok = cleaned[cs:ce]
        assert text[os_:oe].translate(None) is not None
        assert len(tok) == oe - os_


def test_clean_preserves_interior_punct():
    text = b"phone: 012-345-6789 end"
    cleaned, orig, cspans = clean_text_with_spans(text)
    toks = [cleaned[s:e] for s, e in cspans]
    assert b"012-345-6789" in toks


def test_clean_bytes_offsets_multibyte():
    text = "Grüße aus München.\n".encode("utf-8")
    cleaned, orig, cspans = clean_text_with_spans(text)
    s, e = orig[0]
    assert text[s:e] == "Grüße".encode("utf-8")


def test_clean_whitespace_is_go_class():
    """Whitespace is Go RE2's \\s, [\\t\\n\\f\\r ]: \\x0b, which Python's bytes
    \\s holds, is a token byte, in both the per-doc and the batch cleaner."""
    from ner_backend_ray.core.clean import clean_batch
    for ws in b"\t\n\x0c\r ":
        assert clean_text_with_spans(b"a" + bytes([ws]) + b"b")[1] == [(0, 1), (2, 3)]
    assert clean_text_with_spans(b"a\x0bb") == (b" a\x0bb", [(0, 3)], [(1, 4)])
    # punctuation next to \x0b is not next to whitespace
    assert clean_text_with_spans(b"a,\x0bb. c")[0] == b" a,\x0bb c"
    tokens, starts, ends, _ = clean_batch([b"a\x0bb", b"a\tb", b"a,\x0bb. c"])
    assert tokens.to_pylist() == [b"a\x0bb", b"a", b"b", b"a,\x0bb", b"c"]


def test_count_tokens_splits_on_go_space():
    """The token count is Go's strings.Fields: Python's unicode whitespace
    minus U+001C-U+001F (not ``unicode.IsSpace`` in Go), so ``a\\x1cb`` is
    one token; the other unicode spaces, \\x0b included, split."""
    import sys

    from ner_backend_ray.core.clean import UNICODE_WHITESPACE
    from ner_backend_ray.core.inference import count_tokens
    python = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert set(UNICODE_WHITESPACE) == python - set("\x1c\x1d\x1e\x1f")
    for sep in "\x1c\x1d\x1e\x1f":
        assert count_tokens(f"a{sep}b".encode()) == 1
        assert count_tokens(f"a{sep}b c\x85d".encode()) == 3
    for ws in UNICODE_WHITESPACE:
        assert count_tokens(f" a{ws}{ws}b ".encode()) == 2
    # invalid UTF-8 is a token byte, as Go's rune error is not a space
    assert count_tokens(b"\xff \x1f\xe3\x80\x80\xc2") == 3


# ---------------- coalesce (processor.go:519-554) ----------------

def _ent(label, text, start, end, rctx=b""):
    return Entity(label=label, text=text, start=start, end=end, rcontext=rctx)


def test_coalesce_merges_adjacent_same_label():
    full = b"4111 1111 1111 1111"
    ents = {"CARD_NUMBER": [
        create_entity("CARD_NUMBER", full, 0, 4),
        create_entity("CARD_NUMBER", full, 5, 9),
        create_entity("CARD_NUMBER", full, 10, 14),
        create_entity("CARD_NUMBER", full, 15, 19),
    ]}
    out = coalesce_entities(ents)
    assert len(out) == 1
    assert out[0].text == full
    assert (out[0].start, out[0].end) == (0, 19)


def test_coalesce_no_merge_on_gap_or_label():
    ents = {
        "A": [_ent("A", b"x", 0, 1, b"  "), _ent("A", b"y", 3, 4)],   # gap 2
        "B": [_ent("B", b"z", 5, 6)],
    }
    out = coalesce_entities(ents)
    assert len(out) == 3
    assert [e.start for e in out] == [0, 3, 5]


def test_to_valid_utf8():
    assert to_valid_utf8(b"abc\xff\xfedef") == b"abcdef"
    assert to_valid_utf8("héllo".encode()) == "héllo".encode()


def test_finetune_save_load_roundtrip(tmp_path):
    """Model.FinetuneAndSave contract (model.go:41-47): token-level samples add
    gazetteer entries; saved artifacts load to a bit-equal tagger."""
    from ner_backend_ray.models import load_tagger
    from ner_backend_ray.models.hash_tagger import HashEmbeddingTagger

    base = HashEmbeddingTagger([("Alice Smith", "NAME")], ["hello", "from"])
    text = b"hello from Zorblax Quux today"
    assert base.predict(text) == []

    tuned = base.finetune_and_save(
        [(["hello", "from", "Zorblax", "Quux", "today"],
          ["O", "O", "NAME", "NAME", "O"])], str(tmp_path / "m1"))
    got = tuned.predict(text)
    assert [(e.label, e.text) for e in got] == [("NAME", b"Zorblax"), ("NAME", b"Quux")]
    # original untouched
    assert base.predict(text) == []

    loaded = load_tagger("hash_embedding_saved", path=str(tmp_path / "m1"))
    assert [(e.start, e.end, e.label) for e in loaded.predict(text)] == \
           [(e.start, e.end, e.label) for e in tuned.predict(text)]


def test_dsl_search_backends_agree(tmp_path):
    """Ray groupby search vs DuckDB to_sql search over the same mentions table."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import os
    import ray
    import ray.data
    from ner_backend_ray.ops.search import search_mentions, search_mentions_sql
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
    t = pa.table({
        "url": ["a", "a", "a", "b", "b", "c"],
        "label": ["NAME", "NAME", "EMAIL", "NAME", "PHONENUMBER", "EMAIL"],
        "text": ["Ann Lee", "Bob Ray", "x@y.com", "Ann Lee", "555-1234", "z@w.io"],
        "start": [0, 10, 20, 0, 10, 0],
        "end": [7, 17, 27, 7, 18, 6],
    })
    d = str(tmp_path / "mentions")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "part-0.parquet"))
    queries = [
        'COUNT(NAME) > 1',
        'COUNT(NAME) = 1 AND COUNT(PHONENUMBER) > 0',
        'EMAIL CONTAINS "y.com" OR NOT COUNT(NAME) > 0',
        'NAME = "Ann Lee"',
        'NAME > "B" AND NAME < "C"',
    ]
    ds = ray.data.read_parquet(d)
    for q in queries:
        ray_urls = sorted(r["url"] for r in search_mentions(ds, q).take_all())
        sql_urls = search_mentions_sql(d, q)
        assert ray_urls == sql_urls, q


def test_windowed_tagger_matches_whole_doc():
    """T2 contract: window → predict → offset-shift equals whole-doc prediction
    when entities don't straddle window boundaries."""
    from ner_backend_ray.models import load_tagger
    whole = load_tagger("hash_embedding")
    windowed = load_tagger("windowed_hash", window_tokens=6)
    text = (b"Contact Aaron Abbott at aaron.abbott0@example.com now. "
            b"Maria Garcia works at Acme Corp in Denver today.")
    w = [(e.start, e.end, e.label) for e in whole.predict(text)]
    v = [(e.start, e.end, e.label) for e in windowed.predict(text)]
    assert w == v and len(w) > 0



def test_predict_batch_equals_predict():
    """Batched CRF decode + word-cached emissions must be bit-identical to the
    per-doc path, including on docs that repeat words and empty docs."""
    import pyarrow.parquet as pq
    import glob
    from ner_backend_ray.models import load_tagger
    from ner_backend_ray.fixtures.pages import generate_pages
    fd = generate_pages(0.0002)
    t = pq.read_table(sorted(glob.glob(fd + "/pages/part-*.parquet"))[0],
                      columns=["html"])
    texts = t["html"].to_pylist()[:60] + [b"", b"   ", b"spark spark spark"]
    m = load_tagger("hash_embedding")
    per_doc = [m.predict(x) for x in texts]
    batched = m.predict_batch(texts)
    assert per_doc == batched
    # warm-cache second pass identical too
    assert m.predict_batch(texts) == per_doc


def test_viterbi_batch_equals_single():
    import numpy as np
    from ner_backend_ray.core.crf import CRF
    rng = np.random.default_rng(11)
    n = 5
    T = rng.standard_normal((n, n)).astype(np.float32)
    crf = CRF(T, rng.standard_normal(n).astype(np.float32),
              rng.standard_normal(n).astype(np.float32))
    for trial in range(50):
        ems = [rng.standard_normal((int(rng.integers(0, 25)), n)).astype(np.float32)
               for _ in range(int(rng.integers(1, 9)))]
        if trial % 3 == 0:
            ems = [np.round(e) for e in ems]   # frequent exact ties
        assert crf.viterbi_decode_batch(ems) == [crf.viterbi_decode(e) for e in ems]
