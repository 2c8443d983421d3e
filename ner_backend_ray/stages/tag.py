"""NER tagging stage — the stateful per-doc kernel.

The analog of the reference's per-task inference loop
(internal/core/processor.go:174-406): the model is loaded ONCE per worker
process in ``__init__`` (the reference downloads + loads per task,
processor.go:408-436; a per-process kernel amortizes strictly better), then
each Arrow batch of pages runs the per-document chain (core/inference.py) and
emits one row per document with nested mentions/groups — downstream stateless
stages explode those into flat tables.

Usage: ``pipelines/kg.py::tag_pages`` runs the kernel over whole read blocks,
``KGConfig.batch_size`` docs per call, so the read fuses into the tag task
(stages/kernel.py builds the kernel once per process for the stage):
    tag_pages(read_pages(fixture_dir), cfg, fixture_dir)
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..core.dsl import parse_query
from ..core.inference import run_inference_on_doc

MENTION_TYPE = pa.struct([
    ("start", pa.int64()), ("end", pa.int64()), ("label", pa.string()),
    ("text", pa.string()), ("lcontext", pa.string()), ("rcontext", pa.string()),
    ("is_custom", pa.bool_()),
])

# when TagDocs is given an alias_path the link step is fused into the tag kernel
# (one stage, one pass — the dictionary is load-once state exactly like the model)
LINKED_MENTION_TYPE = pa.struct(list(MENTION_TYPE) + [
    ("entity_key", pa.string()), ("candidate_id", pa.string()),
    ("link_score", pa.float64()),
])

TRIPLE_TYPE = pa.struct([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("subj_label", pa.string()), ("obj_label", pa.string()),
])

LINKED_TRIPLE_TYPE = pa.struct(list(TRIPLE_TYPE) + [
    ("subj_key", pa.string()), ("obj_key", pa.string()),
])

DOC_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("token_count", pa.int64()),
    ("mentions", pa.list_(MENTION_TYPE)),
    ("groups", pa.list_(pa.string())),
    ("triples", pa.list_(TRIPLE_TYPE)),
])


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

        custom_names = set(self.custom)
        out_tokens: list[int] = []
        out_mentions: list[list[dict]] = []
        out_groups: list[list[str]] = []
        out_triples: list[list[dict]] = []
        # batch-scoped memoized linker: normalization + dict lookup run once
        # per distinct (surface, label) in the batch, repeats are dict hits
        link = self.aliases.batch_linker() if self.aliases is not None else None
        # one model call per batch when the model supports it (batched CRF
        # decode amortizes small-array kernel overhead); bit-identical to the
        # per-doc path (tests/test_core.py::test_predict_batch_equals_predict)
        predict_batch = getattr(self.model, "predict_batch", None)
        batch_entities = predict_batch(texts) if predict_batch is not None else None
        for di, text in enumerate(texts):
            res = run_inference_on_doc(
                text, self.model, self.tags, self.custom, self.groups,
                precomputed_entities=None if batch_entities is None
                else batch_entities[di])
            out_tokens.append(res.token_count)
            mentions = [
                {"start": m.start, "end": m.end, "label": m.label,
                 "text": _decode(m.text), "lcontext": _decode(m.lcontext),
                 "rcontext": _decode(m.rcontext), "is_custom": m.label in custom_names}
                for m in res.mentions
            ]
            if link is not None:
                for m in mentions:
                    key, cand, score = link(m["text"], m["label"])
                    m["entity_key"] = key
                    m["candidate_id"] = cand
                    m["link_score"] = score
            out_mentions.append(mentions)
            out_groups.append(res.groups)
            if self.emit_triples:
                triples = [
                    {"subj": s, "pred": p, "obj": o, "subj_label": sl, "obj_label": ol}
                    for (s, p, o, sl, ol) in extract_triples_from_doc(text, mentions)
                ]
                if link is not None:
                    for t in triples:
                        t["subj_key"] = link(t["subj"], t["subj_label"])[0]
                        t["obj_key"] = link(t["obj"], t["obj_label"])[0]
                out_triples.append(triples)
            else:
                out_triples.append([])

        mention_type = LINKED_MENTION_TYPE if link is not None else MENTION_TYPE
        triple_type = LINKED_TRIPLE_TYPE if link is not None else TRIPLE_TYPE
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "token_count": pa.array(out_tokens, pa.int64()),
            "mentions": pa.array(out_mentions, pa.list_(mention_type)),
            "groups": pa.array(out_groups, pa.list_(pa.string())),
            "triples": pa.array(out_triples, pa.list_(triple_type)),
        })


def _explode_struct_list(batch: pa.Table, list_col: str,
                         parent_cols: tuple[str, ...] = ("url",)) -> pa.Table:
    """Vectorized explode: list<struct> column → flat table with parent columns
    repeated per element and one column per struct field (schema-generic, so the
    fused linked schemas pass through untouched)."""
    import numpy as np
    import pyarrow.compute as pc

    lst = batch[list_col].combine_chunks()
    lengths = pc.list_value_length(lst).fill_null(0).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lst)
    idx = pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), lengths))
    cols: dict[str, pa.Array] = {c: pc.take(batch[c], idx) for c in parent_cols}
    for field in lst.type.value_type:
        cols[field.name] = pc.struct_field(flat, field.name)
    return pa.table(cols)


def explode_mentions(batch: pa.Table) -> pa.Table:
    """Stateless: per-doc nested rows → flat mentions table (the ObjectEntity analog,
    internal/database/schema.go:135-144). Linked fields pass through when present."""
    return _explode_struct_list(batch, "mentions")


def explode_triples(batch: pa.Table) -> pa.Table:
    """Stateless: per-doc nested triples → flat (url, subj, pred, obj, labels[, keys])."""
    return _explode_struct_list(batch, "triples")


def explode_groups(batch: pa.Table) -> pa.Table:
    """Stateless: (url, group) rows — the ObjectGroup analog (schema.go:146-150)."""
    import numpy as np
    import pyarrow.compute as pc

    lst = batch["groups"].combine_chunks()
    lengths = pc.list_value_length(lst).fill_null(0).to_numpy(zero_copy_only=False)
    idx = pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), lengths))
    return pa.table({"url": pc.take(batch["url"], idx),
                     "group_name": pc.list_flatten(lst)})
