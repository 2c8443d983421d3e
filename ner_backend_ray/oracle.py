"""Single-threaded reference-semantics oracle.

Runs the exact per-document chain (core/inference.py — the port of
internal/core/processor.go:565-686) plus linking / triple extraction /
canonicalization sequentially over a pages fixture, with no Ray. The distributed
pipeline must match this output exactly (mention parity) / at P/R >= 0.95 (triples,
BASELINE.md) — both call the *same* pure functions, so any divergence is a
distribution bug (ordering, partitioning, serialization), which is what this oracle
exists to catch.
"""

from __future__ import annotations

import glob
import os
import re
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from .core.inference import run_inference_on_doc
from .models import load_tagger
from .stages.canonicalize import (bucket_pairs, canonical_id, lsh_band_rows,
                                  jaccard, resolve_roots, _JACCARD_THRESHOLD)
from .stages.link import AliasDict
from .stages.triples import extract_triples_from_doc


@dataclass
class KGConfig:
    model_type: str = "hash_embedding"
    model_kwargs: dict = field(default_factory=dict)
    tags: list[str] | None = None
    custom_patterns: dict[str, str] = field(
        default_factory=lambda: {"CUSTOM_TOKEN": r"\b[a-z][0-9][a-z][0-9][a-z][0-9]\b"})
    group_queries: dict[str, str] = field(default_factory=lambda: {
        "has_contact": 'COUNT(EMAIL) > 0 AND COUNT(PHONENUMBER) > 0',
        "org_pages": 'COUNT(COMPANY) > 1 OR COUNT(LOCATION) > 2',
    })
    min_link_score: float = 0.0
    batch_size: int = 256  # docs per TagDocs call, in both runners


def _decode(b: bytes) -> str:
    return b.decode("utf-8", "ignore")


def cluster_surface_keys(keys: list[str]) -> dict[str, str]:
    """MinHash-LSH clustering of unlinked surface keys → key → root map. Exactly the
    same bucketing / verification / union-find semantics as the distributed stage
    (stages/canonicalize.py), expressed sequentially."""
    buckets: dict[tuple[int, int], list[str]] = {}
    for key in set(keys):
        for band, h in lsh_band_rows(key[5:] if key.startswith("surf:") else key):
            buckets.setdefault((band, h), []).append(key)
    edges: list[tuple[str, str]] = []
    for bucket_keys in buckets.values():
        ks = sorted(set(bucket_keys))
        n = len(ks)
        if n > 1 and n <= 256:
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = ks[i], ks[j]
                    if jaccard(a[5:], b[5:]) >= _JACCARD_THRESHOLD:
                        edges.append((b, a))
    return resolve_roots(edges)


def run_oracle(fixture_dir: str, cfg: KGConfig | None = None) -> dict[str, pa.Table]:
    cfg = cfg or KGConfig()
    model = load_tagger(cfg.model_type, **cfg.model_kwargs)
    aliases = AliasDict(os.path.join(fixture_dir, "alias_dict.parquet"),
                        cfg.min_link_score)
    tags = set(cfg.tags) if cfg.tags is not None else None
    custom = {k: re.compile(v.encode()) for k, v in cfg.custom_patterns.items()}
    from .core.dsl import parse_query
    groups = {k: parse_query(v) for k, v in cfg.group_queries.items()}
    custom_names = set(custom)

    m_rows = {k: [] for k in ("url", "start", "end", "label", "text", "lcontext",
                              "rcontext", "is_custom", "entity_key", "candidate_id",
                              "link_score")}
    g_rows = {"url": [], "group_name": []}
    t_rows = {k: [] for k in ("url", "subj", "pred", "obj", "subj_label", "obj_label",
                              "subj_key", "obj_key")}
    node_counts: dict[str, dict] = {}
    total_tokens = 0
    n_docs = 0

    for path in sorted(glob.glob(os.path.join(fixture_dir, "pages", "part-*.parquet"))):
        table = pq.read_table(path, columns=["url", "html"])
        for url, html in zip(table["url"].to_pylist(), table["html"].to_pylist()):
            n_docs += 1
            res = run_inference_on_doc(html, model, tags, custom, groups)
            total_tokens += res.token_count
            surfaces = []
            for m in res.mentions:
                text = _decode(m.text)
                key, cand, score = aliases.link(text, m.label)
                surfaces.append(text)
                m_rows["url"].append(url); m_rows["start"].append(m.start)
                m_rows["end"].append(m.end); m_rows["label"].append(m.label)
                m_rows["text"].append(text)
                m_rows["lcontext"].append(_decode(m.lcontext))
                m_rows["rcontext"].append(_decode(m.rcontext))
                m_rows["is_custom"].append(m.label in custom_names)
                m_rows["entity_key"].append(key)
                m_rows["candidate_id"].append(cand)
                m_rows["link_score"].append(score)
                nc = node_counts.setdefault(key, {"labels": {}, "surfaces": set(), "n": 0})
                nc["labels"][m.label] = nc["labels"].get(m.label, 0) + 1
                nc["surfaces"].add(text)
                nc["n"] += 1
            for g in res.groups:
                g_rows["url"].append(url)
                g_rows["group_name"].append(g)
            for (s, p, o, sl, ol) in extract_triples_from_doc(html, res.mentions, surfaces):
                t_rows["url"].append(url); t_rows["subj"].append(s)
                t_rows["pred"].append(p); t_rows["obj"].append(o)
                t_rows["subj_label"].append(sl); t_rows["obj_label"].append(ol)
                t_rows["subj_key"].append(aliases.link(s, sl)[0])
                t_rows["obj_key"].append(aliases.link(o, ol)[0])

    # canonicalization
    surface_keys = [k for k in node_counts if k.startswith("surf:")]
    root_map = cluster_surface_keys(surface_keys)

    def canon(key: str) -> str:
        return canonical_id(root_map.get(key, key))

    # two-level label election matching the distributed node merge
    # (pipelines/kg.py _merge_node_block) exactly: elect a label per entity_key
    # first, then per canonical cluster weighted by each key's mention count.
    node_agg: dict[str, dict] = {}
    for key, nc in node_counts.items():
        cid = canon(key)
        key_label = max(sorted(nc["labels"]), key=lambda x: nc["labels"][x])
        na = node_agg.setdefault(cid, {"labels": {}, "surfaces": set(), "n": 0})
        na["labels"][key_label] = na["labels"].get(key_label, 0) + nc["n"]
        na["surfaces"] |= nc["surfaces"]
        na["n"] += nc["n"]

    node_ids = sorted(node_agg)
    nodes = pa.table({
        "canonical_id": pa.array(node_ids, pa.string()),
        "surface_forms": pa.array([sorted(node_agg[c]["surfaces"]) for c in node_ids],
                                  pa.list_(pa.string())),
        "label": pa.array([max(sorted(node_agg[c]["labels"]),
                               key=lambda x: node_agg[c]["labels"][x])
                           for c in node_ids], pa.string()),
        "mention_count": pa.array([node_agg[c]["n"] for c in node_ids], pa.int64()),
    })

    edge_counts: dict[tuple[str, str, str], int] = {}
    for sk, p, ok in zip(t_rows["subj_key"], t_rows["pred"], t_rows["obj_key"]):
        k = (canon(sk), p, canon(ok))
        edge_counts[k] = edge_counts.get(k, 0) + 1
    ekeys = sorted(edge_counts)
    edges = pa.table({
        "subj_id": pa.array([k[0] for k in ekeys], pa.string()),
        "pred": pa.array([k[1] for k in ekeys], pa.string()),
        "obj_id": pa.array([k[2] for k in ekeys], pa.string()),
        "weight": pa.array([edge_counts[k] for k in ekeys], pa.int64()),
    })

    m_types = {"start": pa.int64(), "end": pa.int64(), "is_custom": pa.bool_(),
               "link_score": pa.float64()}
    return {
        "mentions": pa.table({k: pa.array(v, m_types.get(k, pa.string()))
                              for k, v in m_rows.items()}),
        "groups": pa.table({k: pa.array(v, pa.string()) for k, v in g_rows.items()}),
        "triples": pa.table({k: pa.array(v, pa.string()) for k, v in t_rows.items()}),
        "nodes": nodes,
        "edges": edges,
        "stats": pa.table({"n_docs": pa.array([n_docs], pa.int64()),
                           "total_tokens": pa.array([total_tokens], pa.int64())}),
    }
