"""Invariant guards raise typed errors; none is a bare ``assert``, so none
disappears under ``python -O``."""

import os
import re
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest


def _funnel_offset_range():
    from ner_backend_ray.ops.funnel import _bucket_cohorts
    g = pa.table({"user_id": ["u", "u"], "ts": pa.array([0, 1 << 20], pa.int64())})
    _bucket_cohorts(g, "user_id", period=1)


def _range_join_composite():
    from ner_backend_ray.ops.joins import range_window_pairs
    range_window_pairs(np.array([0, 1]), np.array([0, 1 << 61]),
                       np.array([0]), np.array([0]), 0, 1)


def _cc_collected_roots(monkeypatch):
    from ner_backend_ray.ops import cc
    monkeypatch.setattr(cc, "resolve_roots_or_stars", lambda *a, **k: [])
    cc.resolve_roots_budgeted(None)


def _clean_length(monkeypatch):
    from ner_backend_ray.core import clean
    # a substitution that inserts a byte breaks the length invariant
    monkeypatch.setattr(clean, "_PUNCT_THEN_SPACE", re.compile(rb"(\S)(\s)"))
    clean.clean_text_with_spans(b"a b")


@pytest.mark.parametrize("trigger, error", [
    (lambda mp: _funnel_offset_range(), ValueError),
    (lambda mp: _range_join_composite(), ValueError),
    (_cc_collected_roots, RuntimeError),
    (_clean_length, RuntimeError),
], ids=["funnel_offset_range", "range_join_composite", "cc_collected_roots",
        "clean_length"])
def test_guard_raises(monkeypatch, trigger, error):
    with pytest.raises(error):
        trigger(monkeypatch)


@pytest.mark.skipif(sys.flags.optimize > 0, reason="already running under -O")
def test_guards_raise_under_python_O():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", os.path.abspath(__file__), "-q",
         "-p", "no:cacheprovider", "-k", "test_guard_raises"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "4 passed" in proc.stdout, proc.stdout[-3000:]
