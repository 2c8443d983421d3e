"""HTML→text extraction stage with the per-row byte-identity invariant.

Reference semantics: internal/storage/parser.go:98-122 (parsePlaintext) — the
"extractor" is the identity over raw page bytes: no tag stripping, no transcoding.
At the Arrow-string boundary invalid UTF-8 sequences are dropped (Go strings carry
invalid bytes; Arrow strings cannot), which for valid-UTF-8 pages (>99%) means
``text == html`` byte-for-byte.

``extract_text_batch`` recomputes text from ``html`` and (optionally) asserts
equality with the table's existing ``text`` column — the enforced per-row invariant
from BASELINE.json input_hint.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def extract_text(html: bytes) -> str:
    return html.decode("utf-8", "ignore")


def extract_text_batch(batch: pa.Table, check_invariant: bool = True) -> pa.Table:
    """map_batches(fn, batch_format="pyarrow") stage: html binary → extracted text.

    Fast path: a whole-column binary→string cast (validates UTF-8 in C); rows that
    fail fall back to per-row lossy decode.
    """
    html = batch["html"]
    try:
        extracted = html.cast(pa.string())
    except pa.ArrowInvalid:
        extracted = pa.array([extract_text(h) for h in html.to_pylist()], pa.string())

    if check_invariant and "text" in batch.column_names:
        eq = pc.equal(extracted, batch["text"])
        # min_count=0: a 0-row batch satisfies the invariant
        if not pc.all(eq, min_count=0).as_py():
            bad = pc.filter(batch["url"], pc.invert(pc.fill_null(eq, False)))
            raise AssertionError(
                f"byte-identity invariant violated for {len(bad)} urls, e.g. {bad[0]}")

    if "text" in batch.column_names:
        batch = batch.drop_columns(["text"])
    return batch.append_column("text", extracted)
