"""URL canonicalization — the first step of every web-crawl dedup pipeline.

Web corpora address documents by URL, and the same page arrives under many
spellings: scheme/host case, default ports, ``www.`` prefixes, fragments,
tracking parameters, trailing slashes. Canonicalizing BEFORE exact/near dedup
(ops/dedup.py) collapses those families so URL-keyed dedup and per-site
grouping see one key per page — the reference's ingest keys objects by their
store path (internal/storage/s3_connector.go) and never faces this; it is a
crawl-specific need.

Normalization applied (conservative, lossless for page identity):
- scheme and host lowercased (path/query case is significant, left alone),
- ``www.`` host prefix dropped,
- default ports stripped (``:80`` for http, ``:443`` for https),
- fragment (``#…``) dropped,
- tracking query parameters dropped (``utm_*``, ``gclid``, ``fbclid``) — only
  whole parameter names in the query, never the path — with separator
  cleanup (dangling ``?``/``&``),
- trailing ``/`` dropped (except the bare root, which normalizes to no
  trailing slash too — host root and host-slash are the same resource).

Everything is vectorized Arrow: one ``extract_regex`` to split
scheme/host/rest, then ``replace_substring_regex`` chains. Arrow and DuckDB
both compile RE2, so an oracle can mirror every pattern verbatim with
``regexp_replace(…, 'g')`` — the parity the driver check exploits.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .combine import combine_by

# a tracking parameter of the query, with the separator before it: a
# parameter whose name merely ends in one (``?xgclid=``, ``?my_utm_x=``) does
# not match. Applied to the query part only; a query left starting with '&'
# gets its '?' back, and a final pass drops a dangling '?' or '&'
_TRACK = r"[?&](utm_[^&=#]*|gclid|fbclid)=[^&#]*"
_DANGLING = r"[?&]$"


def canonicalize_url_column(url: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized canonical form of a URL string column (see module doc).
    Rows that don't parse as ``scheme://host…`` pass through unchanged."""
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    parts = pc.extract_regex(
        url, r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
             r"(?P<host>[^/?#]*)(?P<rest>.*)$")
    ok = parts.is_valid()
    scheme = pc.utf8_lower(pc.struct_field(parts, "scheme"))
    host = pc.utf8_lower(pc.struct_field(parts, "host"))
    rest = pc.struct_field(parts, "rest")

    host = pc.if_else(pc.starts_with(host, "www."),
                      pc.utf8_slice_codeunits(host, 4, 2**30), host)
    host = pc.if_else(
        pc.equal(scheme, "http"),
        pc.replace_substring_regex(host, r":80$", "", max_replacements=1),
        pc.if_else(
            pc.equal(scheme, "https"),
            pc.replace_substring_regex(host, r":443$", "",
                                       max_replacements=1),
            host))
    rest = pc.replace_substring_regex(rest, r"#.*$", "", max_replacements=1)
    split = pc.extract_regex(rest, r"^(?P<path>[^?]*)(?P<query>.*)$")
    query = pc.replace_substring_regex(pc.struct_field(split, "query"),
                                       _TRACK, "")
    query = pc.replace_substring_regex(query, r"^&", "?", max_replacements=1)
    rest = pc.binary_join_element_wise(pc.struct_field(split, "path"), query, "")
    rest = pc.replace_substring_regex(rest, _DANGLING, "",
                                      max_replacements=1)
    rest = pc.replace_substring_regex(rest, r"/$", "", max_replacements=1)
    canon = pc.binary_join_element_wise(scheme, "://", host, rest, "")
    return pc.if_else(ok, canon, url.cast(pa.string()))


def canonical_url_counts(ds: ray.data.Dataset,
                         col: str = "url") -> ray.data.Dataset:
    """(canonical_url, n) — page-identity dedup counts after normalization.
    Per-batch combiner partials (one row per distinct canonical per batch)
    feed a single string-keyed groupby; only distinct keys shuffle."""
    return combine_by(
        ds, "canonical_url",
        lambda b: pa.table({"canonical_url": canonicalize_url_column(b[col])}),
        {"n": (None, "count")})
