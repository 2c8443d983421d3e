"""Deterministic synthetic Common-Crawl-style pages table + ground truth + alias dict.

Schema per BASELINE.json input_hint: (url string, warc_ts timestamp[us], html binary,
text string, lang string). ``html`` is the raw page bytes; ``text`` is the reference
extractor's output for those bytes — the extractor is the identity over bytes
(internal/storage/parser.go:98-122), materialized at the Arrow-string boundary with
invalid UTF-8 sequences dropped (Go strings can carry invalid bytes; Arrow strings
cannot). ~1% of rows carry injected invalid-UTF-8 bytes and unicode sentences,
mirroring the reference's multilingual corpus
(internal/integration_tests/inference_test.go:35-44).

Everything is a pure function of (sf, seed): partition p is generated from
SeedSequence([seed, p]), so any partition can be (re)generated independently and
byte-identically — the property the resume test relies on.

Sidecar truth tables record every injected mention (with exact byte offsets into
``html``) and every template-implied triple.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .pools import O_WORDS, entity_pools

FIXTURE_VERSION = 1
_EPOCH_US = 1735689600_000_000  # 2025-01-01T00:00:00Z in microseconds

N_DOMAINS = 50
_DOMAINS = [f"site-{i:02d}.example" for i in range(N_DOMAINS)]

# Templates: (segments, triples). A segment is a literal str or a slot dict-key into
# the pools; triples are (subj_slot, predicate, obj_slot) over slot positions.
# ``expect`` False marks injections the tagger/validators are *supposed* to drop.
TEMPLATES: list[dict] = [
    {"segs": ["Contact ", "NAME", " at ", "EMAIL", " or ", "PHONENUMBER", "."],
     "triples": [(0, "has_email", 1), (0, "has_phone", 2)], "w": 10},
    {"segs": ["", "NAME", " works at ", "COMPANY", " in ", "LOCATION", "."],
     "triples": [(0, "works_at", 1), (1, "located_in", 2)], "w": 10},
    {"segs": ["", "NAME", " works at ", "COMPANY", "."],
     "triples": [(0, "works_at", 1)], "w": 8},
    {"segs": ["", "COMPANY", " is based in ", "LOCATION", "."],
     "triples": [(0, "located_in", 1)], "w": 8},
    {"segs": ["", "NAME", " lives at ", "ADDRESS", "."],
     "triples": [(0, "lives_at", 1)], "w": 6},
    {"segs": ["", "NAME", " was born on ", "DATE", "."],
     "triples": [(0, "born_on", 1)], "w": 6},
    {"segs": ["", "NAME", " visited ", "LOCATION", "."],
     "triples": [(0, "visited", 1)], "w": 6},
    {"segs": ["My credit score is ", "CREDIT_SCORE", " and rising."], "triples": [], "w": 3},
    {"segs": ["Card: ", "CARD_NUMBER", " on file."], "triples": [], "w": 3},
    {"segs": ["SSN: ", "SSN", " on file."], "triples": [], "w": 3},
    {"segs": ["Visit ", "URL", " for details."], "triples": [], "w": 3},
    {"segs": ["Vehicle ", "VIN", " with plate ", "LICENSE_PLATE", "."], "triples": [], "w": 2},
    {"segs": ["Customer id ", "ID_NUMBER", " was updated."], "triples": [], "w": 2},
    # excluded tags: injected but must be dropped (processor.go:43-48)
    {"segs": ["The form listed ", "GENDER", " and ", "ETHNICITY", "."],
     "triples": [], "w": 2, "expect": False},
    # custom-token sentence (mirrors processor_test.go:84's (\w\d){3})
    {"segs": ["this is a custom token a1b2c3."], "triples": [], "w": 2},
]
_T_WEIGHTS = np.array([t["w"] for t in TEMPLATES], dtype=np.float64)
_T_WEIGHTS /= _T_WEIGHTS.sum()


def _zipf_domain_idx(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zipf-skewed domain choice (head-domain skew → hot keys)."""
    ranks = np.arange(1, N_DOMAINS + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    return rng.choice(N_DOMAINS, size=n, p=probs)


def _gen_partition(pid: int, n_rows: int, row0: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, pid]))
    pools = entity_pools()
    labels = list(pools)

    urls, ts, htmls, texts, langs = [], [], [], [], []
    m_url, m_start, m_end, m_label, m_surface, m_entity, m_expect = [], [], [], [], [], [], []
    t_url, t_subj, t_pred, t_obj, t_slab, t_olab = [], [], [], [], [], []

    domain_idx = _zipf_domain_idx(rng, n_rows)
    n_sents = rng.integers(5, 31, size=n_rows)
    o_words = O_WORDS

    for r in range(n_rows):
        i = row0 + r
        url = f"https://{_DOMAINS[domain_idx[r]]}/page-{i}"
        parts: list[bytes] = []
        pos = 0
        page_mentions = []  # (start, end, label, surface, entity_id, expect)
        page_triples = []   # (subj_surface, pred, obj_surface, subj_label, obj_label)

        for s in range(int(n_sents[r])):
            if s > 0:
                parts.append(b" ")
                pos += 1
            kind = rng.random()
            if kind < 0.45:
                # filler sentence of O words
                k = int(rng.integers(5, 13))
                widx = rng.integers(0, len(o_words), size=k)
                sent = (" ".join(o_words[j] for j in widx) + ".").encode()
                parts.append(sent)
                pos += len(sent)
            else:
                t = TEMPLATES[int(rng.choice(len(TEMPLATES), p=_T_WEIGHTS))]
                expect = t.get("expect", True)
                slot_info = []  # (surface, label, entity_id)
                for seg in t["segs"]:
                    if seg in pools:
                        pool = pools[seg]
                        pi = int(rng.integers(0, len(pool)))
                        surface = pool[pi]
                        sb = surface.encode("utf-8")
                        start = pos
                        parts.append(sb)
                        pos += len(sb)
                        end = pos
                        eid = f"{seg}:{pi}"
                        page_mentions.append((start, end, seg, surface, eid, expect))
                        slot_info.append((surface, seg, eid))
                    else:
                        sb = seg.encode("utf-8")
                        parts.append(sb)
                        pos += len(sb)
                for (si, pred, oi) in t["triples"]:
                    ssurf, slab, _ = slot_info[si]
                    osurf, olab, _ = slot_info[oi]
                    page_triples.append((ssurf, pred, osurf, slab, olab))

        # ~1% invalid-UTF-8 tail, ~1% unicode/emoji filler
        if rng.random() < 0.01:
            tail = b" \xff\xfe\x80 tail."
            parts.append(tail)
            pos += len(tail)
        if rng.random() < 0.01:
            extra = " Grüße aus München — 東京 🗼.".encode("utf-8")
            parts.append(extra)
            pos += len(extra)
        parts.append(b"\n")
        html = b"".join(parts)

        urls.append(url)
        ts.append(_EPOCH_US + i * 1_000_000)
        htmls.append(html)
        texts.append(html.decode("utf-8", "ignore"))  # extractor output at the string boundary
        langs.append("en" if rng.random() < 0.95 else ["de", "ja", "ru"][int(rng.integers(0, 3))])

        for (start, end, label, surface, eid, expect) in page_mentions:
            m_url.append(url); m_start.append(start); m_end.append(end)
            m_label.append(label); m_surface.append(surface)
            m_entity.append(eid); m_expect.append(expect)
        for (ssurf, pred, osurf, slab, olab) in page_triples:
            t_url.append(url); t_subj.append(ssurf); t_pred.append(pred)
            t_obj.append(osurf); t_slab.append(slab); t_olab.append(olab)

    pages = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })
    truth_mentions = pa.table({
        "url": pa.array(m_url), "start": pa.array(m_start, pa.int64()),
        "end": pa.array(m_end, pa.int64()), "label": pa.array(m_label),
        "surface": pa.array(m_surface), "entity_id": pa.array(m_entity),
        "expect": pa.array(m_expect, pa.bool_()),
    })
    truth_triples = pa.table({
        "url": pa.array(t_url), "subj": pa.array(t_subj), "pred": pa.array(t_pred),
        "obj": pa.array(t_obj), "subj_label": pa.array(t_slab), "obj_label": pa.array(t_olab),
    })
    return pages, truth_mentions, truth_triples


def _gen_and_write(pid: int, n: int, row0: int, seed: int, pages_dir: str):
    pages, tm, tt = _gen_partition(pid, n, row0, seed)
    pq.write_table(pages, os.path.join(pages_dir, f"part-{pid:05d}.parquet"))
    return tm, tt


def build_alias_dict(n_shards: int = 16) -> pa.Table:
    """Entity-linking dictionary over the fixture pools (FIXTURES.md §2): canonical
    surfaces plus deterministic alias variants, sharded by hash(surface_form)."""
    from ..stages.link import normalize_surface
    pools = entity_pools()
    rows: dict[str, tuple[str, str, float]] = {}

    def add(surface: str, eid: str, label: str, prior: float):
        key = normalize_surface(surface.encode("utf-8"))
        if key and key not in rows:
            rows[key] = (eid, label, prior)

    for label, surfaces in pools.items():
        if label in ("GENDER", "ETHNICITY", "SEXUAL_ORIENTATION", "SERVICE_CODE"):
            continue
        for i, s in enumerate(surfaces):
            eid = f"{label}:{i}"
            prior = 1.0 - i / 1_000_000.0
            add(s, eid, label, prior)
            if label == "NAME":
                first, _, last = s.partition(" ")
                if last:
                    add(f"{first[0]}. {last}", eid, label, prior * 0.8)
            elif label == "COMPANY":
                add(s.replace(" Inc", ", Inc."), eid, label, prior * 0.9)

    surface_forms = sorted(rows)
    return pa.table({
        "surface_form": pa.array(surface_forms),
        "entity_id": pa.array([rows[s][0] for s in surface_forms]),
        "label": pa.array([rows[s][1] for s in surface_forms]),
        "prior": pa.array([rows[s][2] for s in surface_forms], pa.float64()),
        "shard": pa.array([zlib.crc32(s.encode()) % n_shards for s in surface_forms], pa.int32()),
    })


def rows_for_sf(sf: float) -> int:
    return max(200, int(round(sf * 1_000_000)))


def partitions_for_rows(rows: int) -> int:
    return max(8, -(-rows // 2048))  # ceil


def generate_pages(sf: float, base_dir: str = "/tmp/ner_ray_fixtures", seed: int = 42,
                   force: bool = False) -> str:
    """Generate (or reuse) the cached fixture set for a scale factor. Returns the
    fixture directory containing pages/part-*.parquet, truth_mentions.parquet,
    truth_triples.parquet, alias_dict.parquet, meta.json."""
    out = os.path.join(base_dir, f"v{FIXTURE_VERSION}-sf{sf}")
    marker = os.path.join(out, "meta.json")
    if os.path.exists(marker) and not force:
        return out

    n_rows = rows_for_sf(sf)
    n_parts = partitions_for_rows(n_rows)
    per = -(-n_rows // n_parts)

    tmp = out + ".tmp"
    pages_dir = os.path.join(tmp, "pages")
    os.makedirs(pages_dir, exist_ok=True)

    jobs = []
    for pid in range(n_parts):
        row0 = pid * per
        n = min(per, n_rows - row0)
        if n <= 0:
            break
        jobs.append((pid, n, row0, seed, pages_dir))

    # partitions are pure functions of (seed, pid) → generate them in parallel;
    # truth sidecars come back (small), page parquet is written by the worker
    tm_list, tt_list = [], []
    if len(jobs) >= 4:
        import multiprocessing as mp
        with mp.Pool(min(len(jobs), max(2, (os.cpu_count() or 8) - 2))) as pool:
            for tm, tt in pool.starmap(_gen_and_write, jobs):
                tm_list.append(tm)
                tt_list.append(tt)
    else:
        for job in jobs:
            tm, tt = _gen_and_write(*job)
            tm_list.append(tm)
            tt_list.append(tt)

    pq.write_table(pa.concat_tables(tm_list), os.path.join(tmp, "truth_mentions.parquet"))
    pq.write_table(pa.concat_tables(tt_list), os.path.join(tmp, "truth_triples.parquet"))
    pq.write_table(build_alias_dict(), os.path.join(tmp, "alias_dict.parquet"))
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"sf": sf, "rows": n_rows, "partitions": n_parts,
                   "seed": seed, "version": FIXTURE_VERSION}, f)
    if os.path.exists(out):
        import shutil
        shutil.rmtree(out)
    os.replace(tmp, out)
    return out


def pages_fixture_dir(sf_dir_or_sf) -> str:
    """Map a driver sf dir (``/root/testdata/sf0.01``) or a float sf to the
    generated pages fixture dir for the same scale."""
    if isinstance(sf_dir_or_sf, (int, float)):
        return generate_pages(float(sf_dir_or_sf))
    base = os.path.basename(str(sf_dir_or_sf).rstrip("/"))
    sf = float(base[2:]) if base.startswith("sf") else 0.001
    return generate_pages(sf)
