"""No engine module changes the session's Ray Data context.

``DataContext.get_current()`` is the session's context: every Dataset
created later copies it, and ``pipelines/kg.py::_graph_budget`` reads its
target block size. A setting the engine needs for one Dataset goes on that
Dataset's own context (``ds.context``, as ``kg.with_phase1_target`` does),
where it cannot leak into other pipelines. The scripts that own their
session (``jobs/``, ``bench.py``) may configure it, so only the package is
scanned."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_get_current(node: ast.AST) -> bool:
    """``DataContext.get_current()``, however ``DataContext`` is reached."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get_current"
            and (getattr(node.func.value, "id", None) == "DataContext"
                 or getattr(node.func.value, "attr", None) == "DataContext"))


def session_context_writes(source: str) -> list[int]:
    """Lines of ``source`` that assign to an attribute of the session's
    context: directly, through a name bound to it, or by ``setattr``."""
    tree = ast.parse(source)
    aliases = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and _is_get_current(node.value)
               for t in node.targets if isinstance(t, ast.Name)}

    def is_session(node: ast.AST) -> bool:
        return _is_get_current(node) or (isinstance(node, ast.Name)
                                         and node.id in aliases)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
              and node.args and is_session(node.args[0])):
            lines.append(node.lineno)
            continue
        else:
            continue
        lines += [node.lineno for t in targets
                  if isinstance(t, ast.Attribute) and is_session(t.value)]
    return sorted(lines)


def test_detector_finds_every_form():
    src = "\n".join([
        "import ray.data",
        "from ray.data import DataContext",
        "ray.data.DataContext.get_current().target_max_block_size = 1",
        "DataContext.get_current().x += 1",
        "ctx = DataContext.get_current()",
        "ctx.enable_progress_bars = False",
        "setattr(ctx, 'y', 2)",
        "ds.context.target_max_block_size = 2",  # a Dataset's own context
        "n = DataContext.get_current().target_max_block_size",  # a read
    ])
    assert session_context_writes(src) == [3, 4, 6, 7]


def test_engine_never_writes_the_session_context():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "ner_backend_ray", "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as f:
            found += [f"{os.path.relpath(path, ROOT)}:{line}"
                      for line in session_context_writes(f.read())]
    assert not found, found
