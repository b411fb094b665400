"""Scoring: confusion matrices and accuracy with transition exclusion.

Frames whose true label is TRANSITION are not scored. Frames predicted as
TRANSITION while the truth is a stable class stay visible in a dedicated
column so the smoothing cost is never silently dropped.
"""

from __future__ import annotations

import math

import numpy as np

from .types import CLASS_LABELS, SCOREABLE_CLASSES, label_codes


def confusion(truth, pred) -> np.ndarray:
    """Count (truth, prediction) pairs, excluding TRANSITION truths, into a
    read-only (4, 5) int array: rows SCOREABLE_CLASSES, columns CLASS_LABELS
    (the last is predicted TRANSITION); a label's class index is both.

    Each side is GestureLabel members or an array of class indices
    (label_codes), which raises FrameError at a bad label's row."""
    truth = label_codes(truth)
    pred = label_codes(pred)
    if len(truth) != len(pred):
        raise ValueError(f"length mismatch: {len(truth)} truths vs {len(pred)} predictions")
    rows, cols = len(SCOREABLE_CLASSES), len(CLASS_LABELS)
    scored = truth < rows
    cells = np.bincount(
        truth[scored].astype(np.intp) * cols + pred[scored], minlength=rows * cols
    )
    m = cells.reshape(rows, cols)
    m.flags.writeable = False
    return m


def accuracy(m: np.ndarray) -> float:
    """Diagonal fraction; predicted-TRANSITION counts score as errors."""
    total = int(m.sum())
    if total == 0:
        raise ValueError("no scorable frames")
    return int(np.trace(m)) / total


def accuracy_percent(m: np.ndarray) -> float:
    """Accuracy as a percentage truncated (not rounded) to one decimal."""
    return math.floor(accuracy(m) * 1000) / 10


def render_report(m: np.ndarray) -> str:
    """Aligned text table with per-row totals and the overall accuracy."""
    if m.sum() == 0:
        return "no scorable frames\n"
    headers = ["truth"] + [c.name for c in CLASS_LABELS] + ["total"]
    rows = []
    for i, cls in enumerate(SCOREABLE_CLASSES):
        rows.append([cls.name, *map(str, m[i].tolist()), str(m[i].sum())])
    widths = [max(len(r[col]) for r in [headers] + rows) for col in range(len(headers))]
    lines = []
    for row in [headers] + rows:
        lines.append(
            "  ".join(
                cell.ljust(widths[0]) if col == 0 else cell.rjust(widths[col])
                for col, cell in enumerate(row)
            ).rstrip()
        )
    lines.append(f"accuracy: {accuracy_percent(m):.1f}%")
    return "\n".join(lines) + "\n"

