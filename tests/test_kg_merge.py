"""Ray-free tests of the graph phase's per-partition kernels
(pipelines/kg.py), on hand-built blocks."""

import pyarrow as pa

from ner_backend_ray.pipelines.kg import (_EDGE_SCHEMA, _KEY_MAP_SCHEMA,
                                          _NODE_SCHEMA, _key_pairs,
                                          _merge_edge_block, _merge_node_block,
                                          canonicalize_edge_partials,
                                          canonicalize_nodes)


def _partials(rows) -> pa.Table:
    """Node partials as one canonical_id sort partition holds them: whole
    canonical_id runs in key order, rows inside a run in any order."""
    cols = ("canonical_id", "entity_key", "label", "surface", "partial_count")
    return pa.table({c: [r[i] for r in rows] for i, c in enumerate(cols)},
                    schema=pa.schema([(c, pa.int64() if c == "partial_count"
                                       else pa.string()) for c in cols]))


def test_merge_node_block_two_level_election():
    block = _partials([
        # key A: X 3, Y 2 (total 5) elects X; key B: Y 4 elects Y. The cluster
        # elects X by 5 to 4; one election over all partials would pick Y (6 to 3)
        ("e:1", "A", "X", "a1", 2),
        ("e:1", "B", "Y", "a1", 1),
        ("e:1", "A", "Y", "a2", 2),
        ("e:1", "B", "Y", "b1", 3),
        ("e:1", "A", "X", "a2", 1),
        # label ties go to the smaller label, inside a key (PER/ORG 2 to 2)…
        ("e:2", "C", "PER", "c", 2),
        ("e:2", "C", "ORG", "c", 2),
        # …and across keys (D elects LOC 3, E elects GPE 3)
        ("e:3", "D", "LOC", "d", 3),
        ("e:3", "E", "GPE", "e", 3),
        # one key's partials split over rows with overlapping surfaces
        ("e:4", "F", "PER", "Robert", 2),
        ("e:4", "F", "PER", "Bob", 1),
        ("e:4", "F", "PER", "Bob", 4),
    ])
    want = pa.table({
        "canonical_id": ["e:1", "e:2", "e:3", "e:4"],
        "surface_forms": [["a1", "a2", "b1"], ["c"], ["d", "e"], ["Bob", "Robert"]],
        "label": ["X", "ORG", "GPE", "PER"],
        "mention_count": [9, 4, 6, 7],
    }, schema=_NODE_SCHEMA)
    got = _merge_node_block(block)
    assert got.equals(want), got.to_pydict()
    # the merge does not rely on the row order inside a partition
    assert _merge_node_block(block.take(list(reversed(range(block.num_rows))))).equals(want)


def test_key_pairs_one_row_per_key():
    block = _partials([("e:1", "A", "X", "a", 1), ("e:1", "B", "X", "b", 1),
                       ("e:1", "A", "Y", "a", 2), ("e:2", "C", "X", "c", 1)])
    want = pa.table({"entity_key": ["A", "B", "C"],
                     "canonical_id": ["e:1", "e:1", "e:2"]}, schema=_KEY_MAP_SCHEMA)
    assert _key_pairs(block).equals(want)


def test_merge_edge_block_sums_weights():
    block = pa.table({"subj_id": ["e:1", "e:1", "e:1"], "pred": ["p", "p", "q"],
                      "obj_id": ["e:2", "e:2", "e:2"], "partial_weight": [2, 3, 1]})
    want = pa.table({"subj_id": ["e:1", "e:1"], "pred": ["p", "q"],
                     "obj_id": ["e:2", "e:2"], "weight": [5, 1]}, schema=_EDGE_SCHEMA)
    assert _merge_edge_block(block).equals(want)


def test_graph_kernels_type_empty_blocks():
    """An empty block in is a typed empty table out, so no schema-less block
    reaches a shuffle."""
    empty = _partials([]).drop_columns(["canonical_id"])
    keyed = canonicalize_nodes(empty, root_map={})
    assert keyed.num_rows == 0
    assert keyed.schema.field("canonical_id").type == pa.string()
    assert _merge_node_block(keyed).schema == _NODE_SCHEMA
    assert _key_pairs(keyed).schema == _KEY_MAP_SCHEMA

    edges = canonicalize_edge_partials(pa.table(
        {"subj_key": pa.array([], pa.string()), "pred": pa.array([], pa.string()),
         "obj_key": pa.array([], pa.string()),
         "partial_weight": pa.array([], pa.int64())}), root_map={})
    assert edges.schema == pa.schema([("subj_id", pa.string()), ("pred", pa.string()),
                                      ("obj_id", pa.string()),
                                      ("partial_weight", pa.int64())])
    assert _merge_edge_block(edges).schema == _EDGE_SCHEMA
