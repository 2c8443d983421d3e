"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline (SURVEY.md §3.4) over the
deterministic sf0.001 pages fixture and returns the triples Dataset. ``queries()``
exposes one callable per implemented operator/pipeline from SURVEY.md §2 plus the
training-data ops; ``oracle_sql()`` carries the DuckDB-equivalent SQL for every
checkable entry (same column names both sides). Approximate/near-dup queries are
verified via exact SQL recomputation (brute-force Jaccard/Hamming/cosine, with a
recursive-CTE connected-components oracle for cluster roots); the KG family
(kg_nodes/kg_edges/kg_mentions/kg_triples/kg_groups), lsh_topk, fingerprints and
kg_search via an export seam (the query writes its trusted flat inputs —
candidate pairs / per-window hashes / flat mentions + key map — to
/tmp/ner_ray_oracle and the oracle re-derives the distributed
aggregation/ranking in SQL). The driver oracle-checks only the FIRST 50
``queries()`` entries each round (the ``QUERIES`` ordering contract in
ner_backend_ray/pipelines/queries.py); the entries past that window are not
driver-checked, and rely on tests/test_entry.py, which checks every
``oracle_sql()`` entry against DuckDB at sf0.001. Approximation quality (LSH
recall, cluster content) is additionally pinned by tests/.

Ray is initialised by the driver BEFORE this module is imported: nothing here (or
in the library) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship KG pipeline on the sf0.001 pages fixture → triples Dataset."""
    from ner_backend_ray.pipelines.queries import kg_results
    return kg_results(0.001)["triples"]


def queries() -> dict[str, Callable[[str], Any]]:
    from ner_backend_ray.pipelines.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from ner_backend_ray.pipelines.queries import ORACLE_SQL
    return dict(ORACLE_SQL)
