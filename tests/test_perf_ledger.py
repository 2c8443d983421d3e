"""The traced benchmark's tag ledger runs against the engine.

``perfbench/layers.py`` times the tag sub-layers by patching engine names by
attribute (``hash_tagger.clean_text_with_spans``, ``CRF.viterbi_decode_batch``,
...). This runs its ``trace_tag_slice`` on tiny-fixture batches, so a renamed
name, or a tag path that no longer calls one the ledger charges, fails here
and not in a traced benchmark run. Nothing under ``perfbench/`` is changed.
"""

import math
import os

import pyarrow.parquet as pq

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tag_ledger_builds_every_figure(tiny_fixture, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from ner_backend_ray.oracle import KGConfig

    cfg = KGConfig()
    pages = pq.read_table(os.path.join(tiny_fixture, "pages"), columns=["url", "html"])
    batches = [pages.slice(0, 40), pages.slice(40, 40)]
    kwargs = dict(model_type=cfg.model_type, model_kwargs=cfg.model_kwargs,
                  tags=cfg.tags, custom_patterns=cfg.custom_patterns,
                  group_queries=cfg.group_queries, text_column="html",
                  alias_path=os.path.join(tiny_fixture, "alias_dict.parquet"),
                  min_link_score=cfg.min_link_score)
    out = layers.trace_tag_slice(batches, kwargs, rounds=1)

    figures = [f"{layer}.self_ms_per_doc" for layer in layers.SLICE_LAYERS]
    figures += ["stages.tag.ms_per_doc", "stages.link.calls",
                "stages.link.memo_hit_ratio", "stages.link.dict_hit_ratio",
                "trace.overhead_pct"]
    assert all(isinstance(out.get(f), (int, float)) and math.isfinite(out[f])
               for f in figures), out
    # the batch tag path runs every layer but the per-doc cleaner and aligner
    idle = {"core.clean", "core.crf.align"}
    assert all(out[f"{layer}.self_ms_per_doc"] > 0
               for layer in layers.SLICE_LAYERS if layer not in idle), out
    assert out["stages.link.calls"] > 0
