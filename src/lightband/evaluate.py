"""Scoring: confusion matrices and accuracy with transition exclusion.

Frames whose true label is TRANSITION are not scored. Frames predicted as
TRANSITION while the truth is a stable class stay visible in a dedicated
column so the smoothing cost is never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .types import CLASS_INDEX, CLASS_LABELS, SCOREABLE_CLASSES

# The scoreable classes, then TRANSITION. A label's class index is its row
# as a truth (TRANSITION's is past the last row) and its column as a
# prediction.
PREDICTED_COLUMNS = CLASS_LABELS


@dataclass(frozen=True)
class ConfusionMatrix:
    """Truth-by-prediction counts over RELAX, EXTEND, FIST, ONE.

    Rows are truth classes; columns are the four classes plus a final
    predicted-TRANSITION column. total is the number of scored frames.
    """

    counts: tuple = field(
        default=tuple(tuple(0 for _ in PREDICTED_COLUMNS) for _ in SCOREABLE_CLASSES)
    )

    def __post_init__(self):
        counts = tuple(tuple(int(c) for c in row) for row in self.counts)
        if len(counts) != len(SCOREABLE_CLASSES) or any(
            len(row) != len(PREDICTED_COLUMNS) for row in counts
        ):
            raise ValueError("counts must be 4 rows by 5 prediction columns")
        if any(c < 0 for row in counts for c in row):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def classes(self) -> tuple:
        return SCOREABLE_CLASSES

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_total(self, row: int) -> int:
        return sum(self.counts[row])


def _positions(labels) -> np.ndarray:
    try:
        return np.fromiter(map(CLASS_INDEX.__getitem__, labels), dtype=np.intp)
    except (KeyError, TypeError):  # TypeError: an unhashable non-label
        raise ValueError("labels must be GestureLabel members") from None


def confusion(truth, pred) -> ConfusionMatrix:
    """Count (truth, prediction) pairs, excluding TRANSITION truths."""
    truth = _positions(truth)
    pred = _positions(pred)
    if len(truth) != len(pred):
        raise ValueError(f"length mismatch: {len(truth)} truths vs {len(pred)} predictions")
    rows, cols = len(SCOREABLE_CLASSES), len(PREDICTED_COLUMNS)
    scored = truth < rows
    cells = np.bincount(truth[scored] * cols + pred[scored], minlength=rows * cols)
    return ConfusionMatrix(counts=cells.reshape(rows, cols).tolist())


def accuracy(m: ConfusionMatrix) -> float:
    """Diagonal fraction; predicted-TRANSITION counts score as errors."""
    total = m.total
    if total == 0:
        raise ValueError("no scorable frames")
    correct = sum(m.counts[i][i] for i in range(len(SCOREABLE_CLASSES)))
    return correct / total


def accuracy_percent(m: ConfusionMatrix) -> float:
    """Accuracy as a percentage truncated (not rounded) to one decimal."""
    return math.floor(accuracy(m) * 1000) / 10


def render_report(m: ConfusionMatrix) -> str:
    """Aligned text table with per-row totals and the overall accuracy."""
    if m.total == 0:
        return "no scorable frames\n"
    headers = ["truth"] + [c.name for c in PREDICTED_COLUMNS] + ["total"]
    rows = []
    for i, cls in enumerate(SCOREABLE_CLASSES):
        rows.append([cls.name] + [str(c) for c in m.counts[i]] + [str(m.row_total(i))])
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

