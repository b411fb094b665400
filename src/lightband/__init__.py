"""Gesture recognition for 5-channel fiber-optic light-intensity streams.

Synthetic stream generation, relax-baseline tracking, signature matching,
a from-scratch MLP classifier, and confusion-matrix evaluation.

The signature path needs no network, so `mlp` loads on first use:
`lightband.mlp`, `from lightband import mlp` and `import lightband.mlp` all
give the one module.
"""

from . import baseline, evaluate, ingest, signature, simulate, types


def __getattr__(name):
    if name == "mlp":  # the import sets the attribute, so this runs once
        import importlib

        return importlib.import_module(f"{__name__}.mlp")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
