"""ner_backend_ray — a Ray-Data-native data-processing / KG-construction engine.

From-scratch re-implementation of the query and data-processing capabilities of
ThirdAILabs/ner-backend (reference snapshot at /root/reference, cited per-module as
file:line), re-expressed as streaming ``ray.data.Dataset`` pipelines:

- per-document transforms are vectorized ``map_batches`` stages over Arrow batches,
- stateful stages (taggers, linkers) are task ``map_batches`` over a kernel
  built once per worker process (stages/kernel.py::per_process),
- wide steps (canonicalization, edge dedup, artifact sorts) are explicit
  groupby/aggregate shuffles with partial pre-aggregation and hot-key salting,
- outputs are partitioned Parquet with per-partition lineage for resume.

Nothing is copied from the reference; Go semantics (byte offsets, UTF-8 scrubbing,
validator rules, CRF decode contract) are re-derived and covered by ported test vectors.
"""

__version__ = "0.1.0"
