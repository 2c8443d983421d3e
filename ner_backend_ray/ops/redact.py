"""Redaction: replace mention spans with stable ``[LABEL_n]`` placeholders.

Port of the chat redaction path (internal/chat/session.go:67-107): entities are
sorted by (start asc, end desc), overlapping later spans are skipped
(session.go:84-88 first-wins cursor), and each distinct surface gets a stable
numbered placeholder per label (the Assigned/TagMap/LabelCounts state).
"""

from __future__ import annotations

import pyarrow as pa


def redact_text(text: bytes, entities: list[dict],
                assigned: dict[str, str] | None = None,
                label_counts: dict[str, int] | None = None,
                tag_map: dict[str, str] | None = None) -> tuple[str, dict[str, str]]:
    """``entities``: dicts with start/end/label/text (byte offsets). Returns the
    redacted text and the placeholder map. ``assigned``/``label_counts`` carry
    session state across calls (stable numbering); ``tag_map`` (if given) gains
    the placeholder→surface inverse at assignment time (session.go:97-98)."""
    assigned = assigned if assigned is not None else {}
    label_counts = label_counts if label_counts is not None else {}
    ents = sorted(entities, key=lambda e: (e["start"], -e["end"]))
    out = bytearray()
    cursor = 0
    for e in ents:
        if e["start"] < cursor or e["end"] > len(text):
            continue  # overlap: first wins (session.go:86-88)
        surface_key = f'{e["text"]}_{e["label"]}'  # session.go:92
        token = assigned.get(surface_key)
        if token is None:
            n = label_counts.get(e["label"], 0) + 1  # 1-based (session.go:95-96)
            label_counts[e["label"]] = n
            token = f'[{e["label"]}_{n}]'
            assigned[surface_key] = token
            if tag_map is not None:
                tag_map[token] = str(e["text"])
        out += text[cursor:e["start"]]
        out += token.encode("utf-8")
        cursor = e["end"]
    out += text[cursor:]
    return out.decode("utf-8", "ignore"), assigned


class RedactDocs:
    """Per-process kernel stage: (id, text) → (id, redacted). The tagger loads
    ONCE per worker process in ``__init__`` (the TagDocs/PreviewDocs pattern,
    via stages/kernel.py::per_process) — never inside the
    per-batch function, where it would recompile the pattern bank every batch."""

    def __init__(self, model_type: str = "regex",
                 model_kwargs: dict | None = None, text_column: str = "text",
                 id_column: str = "doc_id"):
        from ..models import load_tagger
        self.model = load_tagger(model_type, **(model_kwargs or {}))
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for t in batch[self.text_column].to_pylist():
            b = t.encode("utf-8")
            ents = [{"start": e.start, "end": e.end, "label": e.label,
                     "text": e.text.decode("utf-8", "ignore")}
                    for e in self.model.predict(b)]
            red, _ = redact_text(b, ents)
            out.append(red)
        return pa.table({self.id_column: batch[self.id_column],
                         "redacted": pa.array(out, pa.string())})

