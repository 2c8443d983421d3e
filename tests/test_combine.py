"""The grouped combiner and the local top-k combiner (ops/combine.py)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ner_backend_ray.ops.combine import combine_by, segment_rank, topk_by
from ner_backend_ray.pipelines.queries import _collect_table


def _blocks(t: pa.Table) -> ray.data.Dataset:
    """``t`` split into uneven blocks, one of them empty."""
    return ray.data.from_arrow([t.slice(0, 0), t.slice(0, 2), t.slice(2, 3),
                                t.slice(5)])


def test_combine_by_equals_one_arrow_group_by(ray_session):
    t = pa.table({"g": ["a", "b", "a", "c", "b", "a", "c"],
                  "v": pa.array([1, 2, 3, 4, 5, 6, -7], pa.int64())})
    got = _collect_table(combine_by(
        _blocks(t), "g", lambda b: b,
        {"s": ("v", "sum"), "n": (None, "count"), "lo": ("v", "min"),
         "hi": ("v", "max")}))
    want = (t.group_by("g")
            .aggregate([("v", "sum"), ([], "count_all"), ("v", "min"),
                        ("v", "max")])
            .rename_columns(["g", "s", "n", "lo", "hi"]))
    assert got.column_names == ["g", "s", "n", "lo", "hi"]
    assert got.sort_by("g").equals(want.sort_by("g"))


def test_combine_by_project_may_filter_every_row(ray_session):
    t = pa.table({"g": ["a", "b"], "v": pa.array([1, 2], pa.int64())})
    out = combine_by(_blocks(t), "g",
                     lambda b: b.filter(pc.greater(b["v"], 10)),
                     {"s": ("v", "sum")})
    assert out.count() == 0


def test_segment_rank_and_topk_by(ray_session):
    assert segment_rank(np.array(["a", "a", "b", "c", "c", "c"])).tolist() \
        == [0, 1, 0, 0, 1, 2]
    assert segment_rank(np.array([], np.int64)).tolist() == []
    t = pa.table({"g": ["a", "b", "a", "a", "b", "c", "a"],
                  "v": pa.array([5, 1, 9, 7, 3, 2, 7], pa.int64()),
                  "id": pa.array(range(7), pa.int64())})
    got = _collect_table(topk_by(_blocks(t), "g",
                                 [("v", "descending"), ("id", "ascending")],
                                 k=2))
    got = got.sort_by([("g", "ascending"), ("v", "descending"),
                       ("id", "ascending")])
    assert got.column_names == ["g", "v", "id"]
    assert list(zip(got["g"].to_pylist(), got["id"].to_pylist())) == [
        ("a", 2), ("a", 3), ("b", 4), ("b", 1), ("c", 5)]
