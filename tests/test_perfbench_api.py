"""The benchmark still finds every lightband name it uses: each perfbench
tracer target and each lightband attribute perfbench/*.py reads exists."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tracer_targets_exist():
    """perfbench/tracer.py patches each (owner, attr) in TARGETS by reading
    owner.__dict__; a renamed or deleted target breaks a traced benchmark run.
    The file is executed from its text, so nothing is written beside it."""
    path = ROOT / "perfbench" / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = [
        (owner.__name__, attr)
        for owner, attr, *_ in namespace["TARGETS"]
        if attr not in owner.__dict__
    ]
    assert missing == []


def _lightband_references(tree) -> list:
    """(module, attribute path) for each name the code reads off lightband.

    Covers `from lightband[.module] import name` and attribute chains on a
    name bound by `import lightband` or `from lightband import module`.
    """
    bound, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names
                         if a.name.split(".")[0] == "lightband")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lightband"):
            for alias in node.names:
                if node.module == "lightband":  # a module: importing it checks it
                    bound[alias.asname or alias.name] = f"lightband.{alias.name}"
                    refs.append((f"lightband.{alias.name}", []))
                else:
                    refs.append((node.module, [alias.name]))
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in bound:
            refs.append((bound[node.id], path))
    return refs


def test_perfbench_lightband_references_exist():
    """Every lightband module attribute perfbench/*.py reads must exist, so
    a rename or deletion fails here rather than in a benchmark run."""
    missing, checked = [], 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for module, attrs in _lightband_references(ast.parse(path.read_text())):
            value = importlib.import_module(module)
            for attr in attrs:
                if not hasattr(value, attr):
                    missing.append(f"{path.name}: {module}.{'.'.join(attrs)}")
                    break
                value = getattr(value, attr)
            checked += 1
    assert missing == []
    assert checked > 50  # the workloads and the tracer were read
