"""The ROC curve, kept as the oracle for the rank-based AUC.

The trapezoid area under this curve equals ``metrics.auc`` on any input,
ties included; tests/test_metrics.py and acceptance criterion 3 check
that. No code in the package draws the curve itself.
"""

import numpy as np

from leakguard.metrics import _check_scored_input, _tie_bounds


def roc_curve(labels, scores) -> list[tuple[float, float]]:
    """(fpr, tpr) points swept over all distinct score thresholds.

    Starts at (0, 0), ends at (1, 1); tied scores move as one block, so
    ties show up as diagonal segments.
    """
    y, s = _check_scored_input(labels, scores)
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    order = np.argsort(-s, kind="stable")
    ends = _tie_bounds(s[order])[1:]
    tp = np.cumsum(y[order] == 1)[ends - 1]
    fp = ends - tp
    return [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))
