"""NER tagging stage — the stateful per-doc kernel.

The analog of the reference's per-task inference loop
(internal/core/processor.go:174-406): the model is loaded ONCE per worker
process in ``__init__`` (the reference downloads + loads per task,
processor.go:408-436; a per-process kernel amortizes strictly better). Each
Arrow batch of pages is tagged by one ``predict_batch`` call, which cleans,
featurizes and Viterbi-decodes the whole batch as arrays; then each doc runs
the rest of the per-document chain (core/inference.py: validators, coalesce,
group filters) and triple extraction. The rows are gathered column by column
into one flat table in the union layout below: a doc row (url, token_count)
plus the doc's mention, triple and group rows, told apart by ``kind``.
Consumers take the rows of one kind with ``rows_of``.

Usage: ``pipelines/kg.py::tag_pages`` runs the kernel over whole read blocks,
``KGConfig.batch_size`` docs per call, so the read fuses into the tag task
(stages/kernel.py builds the kernel once per process for the stage):
    tag_pages(read_pages(fixture_dir), cfg, fixture_dir)
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.dsl import parse_query
from ..core.inference import run_inference_on_doc

# The one layout of the tag output: a ``kind`` column plus typed columns,
# null where a row's kind has no such field. ``TagDocs`` emits the first four
# kinds; pipelines/kg.py::with_partials appends the last three. Consumers take
# a kind's rows with ``rows_of`` and never build a layout of their own.
DOC, MENTION, TRIPLE, GROUP, BAND, NODE, EDGE = range(7)

UNION_SCHEMA = pa.schema([
    ("kind", pa.int8()), ("url", pa.string()), ("token_count", pa.int64()),
    ("start", pa.int64()), ("end", pa.int64()), ("label", pa.string()),
    ("text", pa.string()), ("lcontext", pa.string()), ("rcontext", pa.string()),
    ("is_custom", pa.bool_()), ("entity_key", pa.string()),
    ("candidate_id", pa.string()), ("link_score", pa.float64()),
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("subj_label", pa.string()), ("obj_label", pa.string()),
    ("subj_key", pa.string()), ("obj_key", pa.string()),
    ("group_name", pa.string()), ("band", pa.int32()), ("band_hash", pa.int64()),
    ("surface", pa.string()), ("partial_count", pa.int64()),
    ("partial_weight", pa.int64()),
])

# each kind's columns, in the order ``rows_of`` hands them out; mention and
# triple rows carry the linked fields when TagDocs links (null otherwise)
KIND_COLUMNS = {
    DOC: ["url", "token_count"],
    MENTION: ["url", "start", "end", "label", "text", "lcontext", "rcontext",
              "is_custom", "entity_key", "candidate_id", "link_score"],
    TRIPLE: ["url", "subj", "pred", "obj", "subj_label", "obj_label",
             "subj_key", "obj_key"],
    GROUP: ["url", "group_name"],
    BAND: ["entity_key", "band", "band_hash"],
    NODE: ["entity_key", "label", "surface", "partial_count"],
    EDGE: ["subj_key", "pred", "obj_key", "partial_weight"],
}


def union_of(kind: int, rows: pa.Table | dict[str, list]) -> pa.Table:
    """``rows`` of one ``kind`` in the union layout. ``rows`` is a table of
    (some of) that kind's columns, or a dict of column name to values; a
    column that is absent is null."""
    if isinstance(rows, dict):
        rows = pa.table({c: pa.array(v, UNION_SCHEMA.field(c).type)
                         for c, v in rows.items()})
    n = rows.num_rows
    cols = [pa.array(np.full(n, kind, np.int8))]
    for f in list(UNION_SCHEMA)[1:]:
        cols.append(rows[f.name].cast(f.type) if f.name in rows.column_names
                    else pa.nulls(n, f.type))
    return pa.table(cols, schema=UNION_SCHEMA)


def tagged_rows(docs: dict[str, list], mentions: dict[str, list],
                triples: dict[str, list], groups: dict[str, list]) -> pa.Table:
    """The row builder of ``TagDocs``: each kind's columns (name to
    values) → one union table."""
    return pa.concat_tables([union_of(DOC, docs), union_of(MENTION, mentions),
                             union_of(TRIPLE, triples), union_of(GROUP, groups)])


def rows_of(union: pa.Table, kind: int) -> pa.Table:
    """The ``kind`` rows of a union table, with that kind's columns."""
    return union.filter(pc.equal(union["kind"], kind)).select(KIND_COLUMNS[kind])


def _decode(b: bytes) -> str:
    # mention text for custom tags is the raw slice (processor.go:619); scrub at the
    # Arrow boundary only.
    return b.decode("utf-8", "ignore")


class TagDocs:
    def __init__(self,
                 model_type: str = "hash_embedding",
                 model_kwargs: dict | None = None,
                 tags: list[str] | None = None,
                 custom_patterns: dict[str, str] | None = None,
                 group_queries: dict[str, str] | None = None,
                 text_column: str = "html",
                 emit_triples: bool = True,
                 alias_path: str | None = None,
                 min_link_score: float = 0.0):
        from ..models import load_tagger  # late import keeps kernel pickling light
        self.model = load_tagger(model_type, **(model_kwargs or {}))
        self.tags = set(tags) if tags is not None else None
        self.custom = {name: re.compile(p.encode("utf-8") if isinstance(p, str) else p)
                       for name, p in (custom_patterns or {}).items()}
        self.groups = {name: parse_query(q) for name, q in (group_queries or {}).items()}
        self.text_column = text_column
        self.emit_triples = emit_triples
        self.aliases = None
        if alias_path is not None:
            from .link import AliasDict
            self.aliases = AliasDict(alias_path, min_link_score)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        col = batch[self.text_column]
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            texts = col.to_pylist()
        else:
            texts = [t.encode("utf-8") for t in col.to_pylist()]

        from .triples import extract_triples_from_doc

        # one model call per batch when the model supports it; equal to the
        # per-doc path (tests/test_property.py::test_batch_tagger_equals_per_doc)
        predict_batch = getattr(self.model, "predict_batch", None)
        batch_entities = predict_batch(texts) if predict_batch is not None else None
        # the batch's rows, column by column
        token_counts: list[int] = []
        mentions: list = []                      # coalesced entities, doc by doc
        m_url: list[str] = []
        m_text: list[str] = []
        found: list[tuple] = []                  # (subj, pred, obj, subj_label, obj_label)
        t_url: list[str] = []
        groups: dict[str, list] = {"url": [], "group_name": []}
        for di, (url, text) in enumerate(zip(urls, texts)):
            res = run_inference_on_doc(
                text, self.model, self.tags, self.custom, self.groups,
                precomputed_entities=None if batch_entities is None
                else batch_entities[di])
            token_counts.append(res.token_count)
            surfaces = [_decode(m.text) for m in res.mentions]
            mentions += res.mentions
            m_url += [url] * len(surfaces)
            m_text += surfaces
            groups["url"] += [url] * len(res.groups)
            groups["group_name"] += res.groups
            if self.emit_triples:
                doc_triples = extract_triples_from_doc(text, res.mentions, surfaces)
                found += doc_triples
                t_url += [url] * len(doc_triples)

        custom_names = set(self.custom)
        labels = [m.label for m in mentions]
        mention_cols = {
            "url": m_url, "start": [m.start for m in mentions],
            "end": [m.end for m in mentions], "label": labels, "text": m_text,
            "lcontext": [_decode(m.lcontext) for m in mentions],
            "rcontext": [_decode(m.rcontext) for m in mentions],
            "is_custom": [label in custom_names for label in labels]}
        triple_cols = dict(zip(("subj", "pred", "obj", "subj_label", "obj_label"),
                               map(list, zip(*found))), url=t_url)
        if self.aliases is not None:
            # batch-scoped memoized linker: normalization + dict lookup run
            # once per distinct (surface, label) in the batch
            link = self.aliases.batch_linker()
            linked = [link(surface, label) for surface, label in zip(m_text, labels)]
            mention_cols["entity_key"] = [key for key, _, _ in linked]
            mention_cols["candidate_id"] = [cand for _, cand, _ in linked]
            mention_cols["link_score"] = [score for _, _, score in linked]
            triple_cols["subj_key"] = [link(s, sl)[0] for s, _, _, sl, _ in found]
            triple_cols["obj_key"] = [link(o, ol)[0] for _, _, o, _, ol in found]
        return tagged_rows({"url": urls, "token_count": token_counts}, mention_cols,
                           triple_cols, groups)
