"""No module of the engine defines the same top-level function or class
name twice: the later definition silently replaces the earlier one, so the
earlier body is dead code that still reads as if it ran."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_top_level_name_defined_twice():
    repeated = []
    for pkg in ("ner_backend_ray", "jobs"):
        for path in sorted(glob.glob(os.path.join(ROOT, pkg, "**", "*.py"),
                                     recursive=True)):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            seen: dict[str, int] = {}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if node.name in seen:
                        repeated.append(f"{os.path.relpath(path, ROOT)}: "
                                        f"{node.name} at lines {seen[node.name]} "
                                        f"and {node.lineno}")
                    seen.setdefault(node.name, node.lineno)
    assert not repeated, repeated
