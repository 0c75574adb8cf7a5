import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab import fits


def reference_drift(series, tail, n_blocks):
    """The drift fit written out by hand: the increments from index
    int(k (1 - tail)) - 1 on, their mean, and the stderr of b contiguous
    batch means (the first len % b batches one longer; one increment per
    batch when fewer than two batches of two fit)."""
    k = len(series)
    start = max(int(k * (1 - tail)) - 1, 0)
    inc = [series[i + 1] - series[i] for i in range(start, k - 1)]
    n = len(inc)
    b = min(n_blocks, n // 2)
    if b < 2:
        groups = [[v] for v in inc]
    else:
        size, extra = divmod(n, b)
        bounds = np.cumsum([0] + [size + (i < extra) for i in range(b)])
        groups = [inc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    means = [sum(g) / len(g) for g in groups]
    mbar = sum(means) / len(means)
    var = sum((m - mbar) ** 2 for m in means) / (len(means) - 1)
    return sum(inc) / n, math.sqrt(var / len(means))


increments = st.lists(st.floats(-10, 10), min_size=8, max_size=120)


@settings(max_examples=60, deadline=None)
@given(inc=increments, tail=st.sampled_from([0.25, 0.5, 0.75, 1.0]), n_blocks=st.integers(2, 10))
def test_drift_is_the_increment_mean_with_batch_means_stderr(inc, tail, n_blocks):
    series = np.cumsum([0.0] + inc)
    k = len(series)
    if k - max(int(k * (1 - tail)) - 1, 0) < 4:
        with pytest.raises(ValueError):
            fits.drift(series, tail=tail, n_blocks=n_blocks)
        return
    slope, stderr = fits.drift(series, tail=tail, n_blocks=n_blocks)
    ref_slope, ref_stderr = reference_drift(series.tolist(), tail, n_blocks)
    assert slope == pytest.approx(ref_slope, rel=1e-9, abs=1e-9)
    assert stderr == pytest.approx(ref_stderr, rel=1e-7, abs=1e-9)


def test_drift_of_a_straight_line_is_exact():
    slope, stderr = fits.drift(0.25 * np.arange(60.0))
    assert (slope, stderr) == (0.25, 0.0)


@pytest.mark.parametrize("tail", [0.5, 1.0])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_drift_rejects_a_series_shorter_than_4(k, tail):
    with pytest.raises(ValueError, match="too short"):
        fits.drift(np.arange(float(k)), tail=tail)
    fits.drift(np.arange(4.0), tail=1.0)


# distinct integer x (as the fits' step counts are) and y on a 0.01 grid
points = st.lists(
    st.tuples(st.integers(-200, 200), st.integers(-10_000, 10_000).map(lambda v: v / 100)),
    min_size=2, max_size=60, unique_by=lambda p: p[0],
)


@settings(max_examples=60, deadline=None)
@given(pts=points)
def test_line_is_polyfit_with_its_r2(pts):
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts])
    slope, intercept, r2 = fits.line([p[0] for p in pts], y.tolist())
    assert (slope, intercept) == tuple(np.polyfit(x, y, 1))
    if np.ptp(y) == 0:
        assert math.isnan(r2)
        return
    assert r2 <= 1.0
    # with an intercept, r2 is the squared correlation of x and y
    assert r2 == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2, abs=1e-7)


@given(c=st.floats(-1e6, 1e6), n=st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_line_r2_is_nan_for_a_constant_y(c, n):
    slope, intercept, r2 = fits.line(np.arange(n), np.full(n, c))
    assert math.isnan(r2)
    assert slope == pytest.approx(0.0, abs=1e-9 * max(1.0, abs(c)))


def test_line_through_exact_points():
    slope, intercept, r2 = fits.line([1, 2, 3, 4], [1.0, 3.0, 5.0, 7.0])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(-1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, rel=1e-12)
