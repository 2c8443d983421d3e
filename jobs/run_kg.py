"""`ray job submit` entrypoint for the flagship KG pipeline (north rule: runs are
submitted with `ray job submit` to fixed-size clusters).

    ray start --head
    ray job submit --working-dir . -- python jobs/run_kg.py \
        --sf 0.01 --out /tmp/kg_out
    ray stop

It runs the resumable checkpointed runner (pipelines/checkpointed.py): the
phase-1 tables go to ``{out}/{docs,mentions,groups,triples,parts}``, the
graph to ``{out}/graph/{nodes,edges}``, and a re-run into the same ``--out``
resumes. It prints one JSON summary line.

Also runs standalone (`python jobs/run_kg.py ...`): Ray Data auto-initialises,
attaching to a running cluster when RAY_ADDRESS is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.01,
                    help="pages fixture scale factor (synthesized+cached)")
    ap.add_argument("--fixture-dir", default=None,
                    help="existing pages fixture dir (overrides --sf)")
    ap.add_argument("--out", default="/tmp/kg_out")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, ignore_reinit_error=True)
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from ner_backend_ray.fixtures.pages import generate_pages
    from ner_backend_ray.oracle import KGConfig
    from ner_backend_ray.pipelines.checkpointed import run_kg_checkpointed

    fixture_dir = args.fixture_dir or generate_pages(args.sf)
    summary = run_kg_checkpointed(fixture_dir, args.out, KGConfig())

    print(json.dumps({"fixture_dir": fixture_dir, "out": args.out, **summary}))
    ray.shutdown()


if __name__ == "__main__":
    main()
