"""Preview builder — the reference's ObjectPreview path (SURVEY.md §2.2 M9).

Port of internal/core/processor.go:438-517, 630-646: per object, truncate to the
first ≤1000 whitespace tokens, re-run the model over the truncated text, and emit
parallel tokens/tags arrays (the JSON token-tag blobs of
internal/database/schema.go:129-133, here proper Arrow list columns).

Ray form: a task ``map_batches`` over a per-process kernel (the model loads once
per worker process, like the tag stage); stateless token slicing is vectorized
per batch.
"""

from __future__ import annotations

import pyarrow as pa

PREVIEW_TOKENS = 1000  # processor.go:581, 630-638


def truncate_tokens(text: bytes, max_tokens: int = PREVIEW_TOKENS) -> bytes:
    """First ≤max_tokens whitespace tokens of the raw bytes (byte-preserving up to
    the end of the last kept token, matching the reference's strings.Fields walk)."""
    decoded = text.decode("utf-8", "replace")
    if len(decoded.split()) <= max_tokens:
        return text
    pos = 0
    for _ in range(max_tokens):
        while pos < len(decoded) and decoded[pos].isspace():
            pos += 1
        while pos < len(decoded) and not decoded[pos].isspace():
            pos += 1
    return decoded[:pos].encode("utf-8", "surrogateescape")


class PreviewDocs:
    """Per-process kernel stage: (url, html|text) → (url, tokens list<str>, tags list<str>).

    Tags are per-token labels from the model over the truncated text with the
    first-non-O word aggregation already applied by the tagger; untagged tokens
    get "O" (processor.go:471-507 semantics)."""

    def __init__(self, model_type: str = "hash_embedding",
                 model_kwargs: dict | None = None, text_column: str = "html",
                 max_tokens: int = PREVIEW_TOKENS):
        from ..models import load_tagger
        self.model = load_tagger(model_type, **(model_kwargs or {}))
        self.text_column = text_column
        self.max_tokens = max_tokens

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_column]
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            texts = col.to_pylist()
        else:
            texts = [t.encode("utf-8") for t in col.to_pylist()]

        out_tokens: list[list[str]] = []
        out_tags: list[list[str]] = []
        for text in texts:
            trunc = truncate_tokens(text, self.max_tokens)
            ents = self.model.predict(trunc)
            decoded = trunc.decode("utf-8", "replace")
            tokens = decoded.split()
            # token byte spans over trunc (re-walk, mirrors utils SplitText)
            spans: list[tuple[int, int]] = []
            pos = 0
            for tok in tokens:
                b = tok.encode("utf-8", "surrogateescape")
                start = trunc.find(b, pos)
                if start < 0:
                    start = pos
                spans.append((start, start + len(b)))
                pos = start + len(b)
            tags = ["O"] * len(tokens)
            for e in ents:
                for i, (s, t) in enumerate(spans):
                    if tags[i] == "O" and not (t <= e.start or s >= e.end):
                        tags[i] = e.label
            out_tokens.append(tokens)
            out_tags.append(tags)

        return pa.table({
            "url": batch["url"],
            "tokens": pa.array(out_tokens, pa.list_(pa.string())),
            "tags": pa.array(out_tags, pa.list_(pa.string())),
        })
