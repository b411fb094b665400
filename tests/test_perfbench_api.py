"""The benchmark still finds every lightband name it uses: each perfbench
tracer target and each lightband attribute perfbench/*.py reads exists, and
the values it reads keep the Python types it relies on."""

import ast
import importlib
import io
from pathlib import Path

import numpy as np

from conftest import E, F, R, make_trace
from lightband import mlp

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


def _model_text(model) -> str:
    sink = io.StringIO()
    mlp.save_model(model, sink)
    return sink.getvalue()


def test_values_perfbench_reads_keep_their_python_types():
    """perfbench/workloads.py builds MlpConfig(output_dim=max(y) + 1) from
    trace_to_dataset's labels, and live_stream sums `predict_labels(model,
    [row])[0] != want` into a count it writes as JSON, which refuses numpy
    integers."""
    trace = make_trace([[i, 2 * i, 3, 4, 5] for i in range(6)], [R, E, F, R, E, F])
    x, y = mlp.trace_to_dataset(trace)
    cfg = mlp.MlpConfig(hidden=(4,), output_dim=max(y) + 1, epochs=2, seed=1)
    assert isinstance(max(y), np.integer)
    assert type(cfg.output_dim) is int and cfg.output_dim == 3
    plain = mlp.MlpConfig(hidden=(4,), output_dim=3, epochs=2, seed=1)
    assert cfg == plain
    model, _ = mlp.train(x, y, cfg)
    assert _model_text(model) == _model_text(mlp.train(x, y, plain)[0])
    for row in (x[0], x[0].tolist(), tuple(int(v) for v in x[0])):
        assert type(mlp.predict_labels(model, [row])[0]) is int
