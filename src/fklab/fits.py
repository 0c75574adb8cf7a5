"""The fits that read fklab's exponential rates: one function per kind.

``drift`` reads the growth rate of a random-walk-like cumulative series (a
log-mass); ``line`` is the least-squares line through a log-tail or a log
residual sequence; ``late_half`` is the window every residual rate fit
reads.  Callers choose the x values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["drift", "late_half", "line"]


def drift(series, tail=0.5, n_blocks=8):
    """Drift of a cumulative series over its tail: ``(slope, stderr)``.

    The series behaves like a random walk with drift, so the efficient
    estimator is the increment mean (endpoint difference over the window);
    the stderr comes from batch means of the increments, which absorbs
    their autocorrelation.
    """
    series = np.asarray(series, dtype=float)
    k = len(series)
    start = int(k * (1 - tail)) - 1
    ys = series[max(start, 0) :]
    if ys.size < 4:
        raise ValueError("series too short for a slope fit")
    inc = np.diff(ys)
    slope = float(inc.mean())
    b = min(n_blocks, inc.size // 2)
    if b >= 2:
        means = np.array([blk.mean() for blk in np.array_split(inc, b)])
        stderr = float(means.std(ddof=1) / np.sqrt(b))
    else:
        stderr = float(inc.std(ddof=1) / np.sqrt(inc.size))
    return slope, stderr


def late_half(seq):
    """The late half ``k >= (k_max + 1) // 2`` of a sequence indexed
    ``k = 1..k_max``: the window every residual rate fit reads, as
    ``(ks, values)``."""
    ks = np.arange(1, len(seq) + 1)
    keep = ks >= (len(seq) + 1) // 2
    return ks[keep], np.asarray(seq, dtype=float)[keep]


def line(x, y):
    """Least-squares line ``y ~ slope x + intercept``: ``(slope, intercept,
    r2)``, with ``r2`` NaN when ``y`` is constant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if np.ptp(y) > 0 and ss_tot > 0 else np.nan
    return float(slope), float(intercept), r2
