"""Oversized-document chunking (SURVEY.md §1.2 "Chunk stream", §2.1 S6).

The reference streams ≤512 MB chunks per object with running byte offsets
(internal/storage/parser.go:98-122) and runs the model per chunk while
accumulating the object-level label map; validators / custom tags / group
queries / coalescing apply per OBJECT, with entity offsets shifted by the chunk
offset (internal/core/processor.go:565-686, 615-628).

Ray form:
1. ``explode_chunks`` — stateless flat-map: docs whose payload exceeds
   ``max_chunk_bytes`` become multiple (url, chunk_offset, chunk) rows. Chunks
   split at whitespace boundaries so ``b"".join(chunks) == text`` exactly
   (the reference splits at arbitrary buffer boundaries, which can cut tokens —
   we keep tokens whole, a strict improvement with the same offset contract).
2. ``PredictChunks`` — task map_batches over a per-process kernel
   (stages/kernel.py): model.predict per chunk, raw
   entities shifted to document offsets; custom-regex tags per chunk (the
   reference's per-chunk custom tag path, processor.go:615-628).
3. ``assemble_docs`` — groupby("url").map_groups: reassemble the document text,
   then the object-level tail of the reference chain: excluded/allowlist drop,
   FilterEntities, group queries, coalesce — identical code to the unchunked
   path (core/inference.py), so chunked and unchunked runs agree. Each doc
   leaves as doc, mention and group rows of the tag output's union layout,
   built by the same row builder as ``TagDocs`` (stages/tag.py).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..core.coalesce import EXCLUDED_TAGS, coalesce_entities
from ..core.entity import Entity, to_valid_utf8
from ..core.inference import count_tokens
from ..core.validators import filter_entities
from .kernel import per_process
from .tag import UNION_SCHEMA, tagged_rows

_WS = b" \t\n\r\x0b\x0c"


def split_into_chunks(text: bytes, max_chunk_bytes: int) -> list[tuple[int, bytes]]:
    """(offset, chunk) list; chunks concatenate byte-exactly to ``text``; splits
    happen at the last whitespace within the window (or hard at max if none)."""
    if len(text) <= max_chunk_bytes:
        return [(0, text)]
    out: list[tuple[int, bytes]] = []
    pos = 0
    n = len(text)
    while pos < n:
        end = min(pos + max_chunk_bytes, n)
        if end < n:
            cut = end
            while cut > pos and text[cut - 1] not in _WS:
                cut -= 1
            if cut > pos:
                end = cut
        out.append((pos, text[pos:end]))
        pos = end
    return out


def explode_chunks(batch: pa.Table, text_column: str = "html",
                   max_chunk_bytes: int = 1 << 20) -> pa.Table:
    urls, offsets, chunks = [], [], []
    col = batch[text_column]
    is_bin = pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)
    for url, payload in zip(batch["url"].to_pylist(), col.to_pylist()):
        data = payload if is_bin else payload.encode("utf-8")
        for off, chunk in split_into_chunks(data, max_chunk_bytes):
            urls.append(url)
            offsets.append(off)
            chunks.append(chunk)
    return pa.table({"url": pa.array(urls, pa.string()),
                     "chunk_offset": pa.array(offsets, pa.int64()),
                     "chunk": pa.array(chunks, pa.binary())})


RAW_ENTITY_TYPE = pa.struct([
    ("start", pa.int64()), ("end", pa.int64()), ("label", pa.string()),
    ("text", pa.binary()), ("lcontext", pa.binary()), ("rcontext", pa.binary()),
])


class PredictChunks:
    """Kernel: model loads once per worker process (``per_process``); per chunk,
    raw model entities + custom-regex entities with offsets shifted to document
    coordinates (processor.go:600-628)."""

    def __init__(self, model_type: str = "hash_embedding",
                 model_kwargs: dict | None = None,
                 custom_patterns: dict[str, str] | None = None):
        from ..models import load_tagger
        self.model = load_tagger(model_type, **(model_kwargs or {}))
        self.custom = {name: re.compile(p.encode("utf-8") if isinstance(p, str) else p)
                       for name, p in (custom_patterns or {}).items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: list[list[dict]] = []
        for off, chunk in zip(batch["chunk_offset"].to_pylist(),
                              batch["chunk"].to_pylist()):
            ents = []
            for e in self.model.predict(chunk):
                ents.append({"start": e.start + off, "end": e.end + off,
                             "label": e.label, "text": e.text,
                             "lcontext": e.lcontext, "rcontext": e.rcontext})
            for tag, rx in self.custom.items():
                for m in rx.finditer(chunk):
                    s, t = m.start(), m.end()
                    ents.append({
                        "start": s + off, "end": t + off, "label": tag,
                        "text": chunk[s:t],
                        "lcontext": to_valid_utf8(chunk[max(0, s - 20):s]),
                        "rcontext": to_valid_utf8(chunk[t:min(len(chunk), t + 20)]),
                    })
            out.append(ents)
        return pa.table({"url": batch["url"],
                         "chunk_offset": batch["chunk_offset"],
                         "chunk": batch["chunk"],
                         "entities": pa.array(out, pa.list_(RAW_ENTITY_TYPE))})


def make_assemble_docs(tags: set[str] | None, custom_names: set[str],
                       group_queries: dict[str, str] | None):
    """Build the per-doc map_groups fn: reassemble text, run the object-level
    tail (filter → excluded/allowlist → groups → coalesce), emit the doc's
    rows through the unchunked TagDocs stage's row builder."""
    from ..core.dsl import parse_query

    groups = {name: parse_query(q) for name, q in (group_queries or {}).items()}

    def assemble(group: pa.Table) -> pa.Table:
        url = group["url"][0].as_py()
        parts = sorted(zip(group["chunk_offset"].to_pylist(),
                           group["chunk"].to_pylist(),
                           group["entities"].to_pylist()))
        text = b"".join(chunk for _, chunk, _ in parts)
        raw: list[Entity] = []
        for _, _, ents in parts:
            for e in ents:
                raw.append(Entity(label=e["label"], text=e["text"],
                                  start=e["start"], end=e["end"],
                                  lcontext=e["lcontext"], rcontext=e["rcontext"]))
        raw.sort(key=lambda e: (e.start, e.end))
        # model entities pass validators; custom-tag entities bypass them and the
        # allowlist, exactly as in core/inference.py
        model_ents = [e for e in raw if e.label not in custom_names]
        custom_ents = [e for e in raw if e.label in custom_names]
        model_ents = filter_entities(text, model_ents)
        label_map: dict[str, list[Entity]] = {}
        for e in model_ents:
            if e.label in EXCLUDED_TAGS:
                continue
            if tags is not None and e.label not in tags:
                continue
            label_map.setdefault(e.label, []).append(e)
        for e in custom_ents:
            label_map.setdefault(e.label, []).append(e)

        matched = [name for name, filt in groups.items()
                   if filt.matches(label_map)]
        mentions = coalesce_entities(label_map)

        def _d(b: bytes) -> str:
            return b.decode("utf-8", "ignore")

        rows = [{"url": url, "start": m.start, "end": m.end, "label": m.label,
                 "text": _d(m.text), "lcontext": _d(m.lcontext),
                 "rcontext": _d(m.rcontext), "is_custom": m.label in custom_names}
                for m in mentions]
        return tagged_rows([{"url": url, "token_count": count_tokens(text)}],
                           rows, [], [{"url": url, "group_name": g} for g in matched])

    return assemble


def tag_chunked_pages(pages, cfg, max_chunk_bytes: int = 1 << 20,
                      concurrency: int | None = None):
    """pages → the tag output via the chunked path: union-layout doc,
    mention and group rows, as ``TagDocs`` emits them unlinked and without
    triples (``tag_pages`` adds linking, triples and the partials).
    ``concurrency`` caps the concurrent predict tasks."""
    chunks = pages.map_batches(
        lambda b: explode_chunks(b, max_chunk_bytes=max_chunk_bytes),
        batch_format="pyarrow")
    predicted = chunks.map_batches(
        per_process(PredictChunks, model_type=cfg.model_type,
                    model_kwargs=cfg.model_kwargs,
                    custom_patterns=cfg.custom_patterns),
        batch_format="pyarrow", concurrency=concurrency)
    assemble = make_assemble_docs(
        set(cfg.tags) if cfg.tags is not None else None,
        set(cfg.custom_patterns or ()), cfg.group_queries)

    # hash-bucket the docs instead of one Ray group per url (per-group
    # machinery dominates at corpus-scale doc counts); inside a bucket the
    # unchanged per-doc assemble runs over url segments of one sorted table.
    import numpy as np
    import pyarrow.compute as pc

    from ..ops.joins import _bucket_of, buckets_for
    n_buckets = buckets_for(0)

    def tag_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("__b", _bucket_of(batch["url"],
                                                     n_buckets))

    def assemble_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            # assemble() indexes row 0, so an empty group needs a typed
            # empty table with its output schema, not a call into it
            return UNION_SCHEMA.empty_table()
        idx = pc.sort_indices(g, sort_keys=[("url", "ascending")])
        t = g.take(idx).drop_columns(["__b"])
        urls = np.asarray(t["url"].to_pylist(), dtype=object)
        seg = np.empty(len(urls), dtype=bool)
        seg[0] = True
        seg[1:] = urls[1:] != urls[:-1]
        bounds = np.append(np.flatnonzero(seg), len(urls))
        pieces = [assemble(t.slice(int(bounds[i]),
                                   int(bounds[i + 1] - bounds[i])))
                  for i in range(len(bounds) - 1)]
        return pa.concat_tables(pieces)

    return (predicted.map_batches(tag_bucket, batch_format="pyarrow")
            .groupby("__b").map_groups(assemble_bucket,
                                       batch_format="pyarrow"))
