"""Gesture recognition for 5-channel fiber-optic light-intensity streams.

Synthetic stream generation, relax-baseline tracking, signature matching,
a from-scratch MLP classifier, and confusion-matrix evaluation.
"""

from . import baseline, evaluate, ingest, mlp, signature, simulate, types
