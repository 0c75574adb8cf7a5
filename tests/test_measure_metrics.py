import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fklab import kernel_lab as kl
from fklab import measure_metrics
from conftest import (
    dual_lipschitz_bounds,
    fresh_python,
    generated_kernels,
    random_kernel_potential,
    transport_bounds,
)
from fklab.measure_metrics import (
    DiscreteMeasure,
    _union_support,
    distances,
    dual_lipschitz,
    kantorovich_theta,
    lipschitz_constant,
    verify_metric_sandwich,
)


def dirac(x):
    return DiscreteMeasure.dirac(np.atleast_1d(x))


def random_measure(rng, m=5, d=2, scale=1.0):
    return DiscreteMeasure(rng.uniform(-scale, scale, size=(m, d)), rng.dirichlet(np.ones(m)))


def test_dual_lipschitz_identical_measures(rng):
    mu = random_measure(rng)
    assert dual_lipschitz(mu, mu) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("x", [0.25, 1.0, 2.0, 7.5, 1e6])
def test_dual_lipschitz_dirac_closed_form(x):
    # optimum of min(2s, t x) under s + t = 1 is 2x / (x + 2)
    val = dual_lipschitz(dirac(0.0), dirac(x))
    assert val == pytest.approx(2 * x / (x + 2), abs=1e-9)


def test_dual_lipschitz_saturates_at_two():
    assert dual_lipschitz(dirac(0.0), dirac(1e9)) == pytest.approx(2.0, abs=1e-6)


def test_dual_lipschitz_one_point_with_unequal_masses():
    # the LP value with a zero-weight second point: only the mass gap counts
    one = dual_lipschitz(DiscreteMeasure([[0.0]], [1.0]), DiscreteMeasure([[0.0]], [0.6]))
    two = dual_lipschitz(DiscreteMeasure([[0.0], [5.0]], [1.0, 0.0]), DiscreteMeasure([[0.0]], [0.6]))
    assert one == pytest.approx(0.4, abs=1e-12)
    assert one == pytest.approx(two, abs=1e-12)
    assert dual_lipschitz(dirac(0.0), dirac(0.0)) == 0.0


def test_dual_lipschitz_symmetry(rng):
    a, b = random_measure(rng), random_measure(rng)
    assert dual_lipschitz(a, b) == pytest.approx(dual_lipschitz(b, a), abs=1e-10)


def test_kantorovich_dirac_pair_is_truncated_distance():
    assert kantorovich_theta(dirac(0.0), dirac(0.1), 4.0) == pytest.approx(0.4, abs=1e-10)
    assert kantorovich_theta(dirac(0.0), dirac(0.5), 4.0) == pytest.approx(1.0, abs=1e-10)


def test_kantorovich_two_atom_brute_force(rng):
    # one-parameter family of plans between two 2-atom measures on a line
    for _ in range(25):
        x = np.sort(rng.uniform(-1, 1, 2))
        y = np.sort(rng.uniform(-1, 1, 2))
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(0.5, 5.0))
        mu1 = DiscreteMeasure(x[:, None], [a, 1 - a])
        mu2 = DiscreteMeasure(y[:, None], [b, 1 - b])
        cost = np.minimum(1.0, theta * np.abs(x[:, None] - y[None, :]))
        lo = max(0.0, a - (1 - b))
        hi = min(a, b)
        grid = np.linspace(lo, hi, 2001)
        vals = (
            grid * cost[0, 0]
            + (a - grid) * cost[0, 1]
            + (b - grid) * cost[1, 0]
            + (1 - a - b + grid) * cost[1, 1]
        )
        assert kantorovich_theta(mu1, mu2, theta) == pytest.approx(vals.min(), abs=1e-6)


def test_kantorovich_requires_probability(rng, path_searches):
    bad = DiscreteMeasure(rng.normal(size=(3, 1)), [0.2, 0.2, 0.2])
    good = random_measure(rng, m=3, d=1)
    with pytest.raises(ValueError):
        kantorovich_theta(bad, good, 1.0)
    assert path_searches == []


def test_kantorovich_monotone_in_theta(rng):
    a, b = random_measure(rng), random_measure(rng)
    thetas = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [kantorovich_theta(a, b, t) for t in thetas]
    assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


def test_triangle_inequality_on_random_triples(rng):
    for _ in range(15):
        a, b, c = (random_measure(rng, m=4) for _ in range(3))
        for dist in (dual_lipschitz, lambda u, v: kantorovich_theta(u, v, 2.0)):
            dab, dbc, dac = dist(a, b), dist(b, c), dist(a, c)
            assert dac <= dab + dbc + 1e-9


def test_vanishes_only_on_equal_measures(rng):
    pts = rng.normal(size=(4, 2))
    w = rng.dirichlet(np.ones(4))
    a = DiscreteMeasure(pts, w)
    b = DiscreteMeasure(pts[::-1].copy(), w[::-1].copy())  # same measure, reordered
    assert dual_lipschitz(a, b) == pytest.approx(0.0, abs=1e-10)
    assert kantorovich_theta(a, b, 1.0) == pytest.approx(0.0, abs=1e-10)
    c = DiscreteMeasure(pts, rng.dirichlet(np.ones(4)))
    assert dual_lipschitz(a, c) > 1e-4


def test_support_merge_dedupes():
    m = DiscreteMeasure(np.array([[0.0], [0.0], [1.0]]), [0.25, 0.25, 0.5])
    assert m.support.shape[0] == 2
    assert m.weights.sum() == pytest.approx(1.0)
    assert sorted(m.weights) == pytest.approx([0.5, 0.5])


def test_support_merge_ignores_the_other_atoms():
    # (0, 0) and (5e-13, 5e-13) are distinct atoms, whatever sorts between
    # them; equal rows merge wherever they sit, -0.0 and 0.0 as one atom
    m = DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 5000.0], [5e-13, 5e-13]]), [0.25, 0.25, 0.5])
    assert m.support.tolist() == [[0.0, 0.0], [0.0, 5000.0], [5e-13, 5e-13]]
    m = DiscreteMeasure(np.array([[5e-13, 5e-13], [0.0, 5000.0], [-0.0, 0.0], [5e-13, 5e-13]]), [0.125] * 4)
    assert m.support.tolist() == [[0.0, 0.0], [0.0, 5000.0], [5e-13, 5e-13]]
    assert m.weights.tolist() == [0.125, 0.125, 0.25]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, 2), elements=st.sampled_from([0.0, -0.0, 5e-13, 1.0, 5000.0])),
            arrays(np.float64, n, elements=st.integers(0, 64).map(lambda k: k / 64)),
            st.permutations(range(n)),
        )
    )
)
def test_support_merge_is_invariant_under_permutation(case):
    # dyadic weights sum exactly in any order, so the merged weights agree exactly
    pts, w, perm = case
    m, p = DiscreteMeasure(pts, w), DiscreteMeasure(pts[list(perm)], w[list(perm)])
    assert np.array_equal(m.support, p.support) and np.array_equal(m.weights, p.weights)
    if not np.signbit(pts).any():  # a run of 0.0 and -0.0 keeps its first zero's sign
        assert m.support.tobytes() == p.support.tobytes()


def running_total_merge(pts, w):
    """The merge as one running total per run of equal points, point by point in sorted order."""
    order = np.lexsort(pts.T[::-1])
    pts, w = pts[order], w[order]
    keep_pts, keep_w = [pts[0]], [w[0]]
    for prev, p, wi in zip(pts[:-1], pts[1:], w[1:]):
        if np.array_equal(p, prev):
            keep_w[-1] += wi
        else:
            keep_pts.append(p)
            keep_w.append(wi)
    return np.asarray(keep_pts), np.asarray(keep_w)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, 2), elements=st.sampled_from([0.0, 1e-13, 0.5, 1.0])),
            arrays(np.float64, n, elements=st.floats(-1.0, 1.0)),
        )
    )
)
def test_support_merge_sums_like_a_running_total(case):
    # coarse coordinates make long runs, where a pairwise sum would round differently
    pts, w = case
    got_pts, got_w = measure_metrics._merge_equal(pts, w)
    ref_pts, ref_w = running_total_merge(pts, w)
    assert np.array_equal(got_pts, ref_pts)
    assert got_w.tobytes() == ref_w.tobytes()


def test_union_support_collapses_shared_points():
    a = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
    b = DiscreteMeasure(np.array([[1.0], [2.0]]), [0.25, 0.75])
    pts, c = _union_support(a, b)
    assert pts[:, 0].tolist() == [0.0, 1.0, 2.0]
    assert c.tolist() == [0.5, 0.25, -0.75]


def test_lipschitz_constant_skips_coincident_points():
    pts = np.array([0.0, 0.0, 1.0, 3.0])
    d = np.abs(pts[:, None] - pts[None, :])
    assert lipschitz_constant(np.array([0.0, 5.0, 1.0, 2.0]), d) == 4.0  # |5 - 1| / 1
    assert lipschitz_constant(np.array([0.0, 0.0, 1.0, 2.0]), d) == 1.0


def test_sandwich_identical_measures(rng):
    mu = random_measure(rng)
    rep = verify_metric_sandwich(mu, mu, theta=1.0, diam=4.0)
    assert rep.ok
    assert rep.kantorovich == pytest.approx(0.0, abs=1e-10)
    assert rep.dual_lip == pytest.approx(0.0, abs=1e-10)


def test_sandwich_dirac_pair_at_diameter():
    diam = 3.0
    rep = verify_metric_sandwich(dirac(0.0), dirac(diam), theta=1.0 / diam, diam=diam)
    assert rep.ok
    assert rep.kantorovich == pytest.approx(1.0, abs=1e-10)


def test_sandwich_random_pairs(rng):
    for _ in range(100):
        a, b = random_measure(rng, m=5), random_measure(rng, m=5)
        theta = float(rng.uniform(0.5, 4.0))
        rep = verify_metric_sandwich(a, b, theta=theta, diam=2 * np.sqrt(2) + 0.1)
        assert rep.ok


def test_sandwich_rejects_small_theta(path_searches):
    with pytest.raises(ValueError):
        verify_metric_sandwich(dirac(0.0), dirac(1.0), theta=0.01, diam=2.0)
    assert path_searches == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distances_equal_cdist_bitwise(data):
    # dimensions past 8 too, where a pairwise-summed reduction would differ
    from scipy.spatial.distance import cdist

    d = data.draw(st.integers(1, 40))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    x = data.draw(arrays(float, (data.draw(st.integers(1, 24)), d), elements=coord))
    y = data.draw(arrays(float, (data.draw(st.integers(1, 24)), d), elements=coord))
    assert np.array_equal(distances(x, y), cdist(x, y))


def _measure(data, d):
    # coordinates on a coarse grid, so support points often coincide and merge
    m = data.draw(st.integers(1, 6))
    pts = data.draw(arrays(float, (m, d), elements=st.integers(-4, 4).map(lambda k: k / 4)))
    w = data.draw(arrays(float, m, elements=st.floats(0.05, 1.0)))
    return DiscreteMeasure(pts, w / w.sum())


def _plan_lp(mu1, mu2, theta):
    # the transport plan LP with every row and column constraint, no shortcut,
    # at the feasibility tolerances the stacked solve uses; HiGHS's presolve
    # reads some balanced plans with weights near 1e-11 as infeasible
    from scipy.optimize import linprog
    from scipy.spatial.distance import cdist

    m, n = len(mu1.weights), len(mu2.weights)
    A_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    cost = np.minimum(1.0, theta * cdist(mu1.support, mu2.support)).ravel()
    b_eq = np.concatenate([mu1.weights, mu2.weights])
    options = dict(measure_metrics._HIGHS_TOLERANCES, presolve=False)
    return linprog(cost, A_eq=A_eq, b_eq=b_eq, method="highs", options=options).fun


def _oracle_measure(data, d, scale, mass=1.0):
    # 1-12 points: on a coarse grid (costs tie) or a fine one, each
    # coordinate maybe shifted by about the 1e-12 merge tolerance; one-atom
    # sides come up by draw or by merging
    m = data.draw(st.integers(1, 12))
    step = data.draw(st.sampled_from([2, 1000]))
    base = data.draw(arrays(float, (m, d), elements=st.integers(-step, step).map(lambda k: k / step)))
    shift = data.draw(arrays(float, (m, d), elements=st.sampled_from([0.0, 0.5e-12, 1e-12, 1.5e-12])))
    w = data.draw(arrays(float, m, elements=st.floats(0.05, 1.0)))
    return DiscreteMeasure(scale * base + shift, mass * w / w.sum())


def _paths_rounding(c, top=1.0):
    """How far the paths may sit from the exact value on the signed weights
    ``c`` when their largest cost is ``top``: they relax a path only on a
    decrease beyond m + n ulps of the largest cost, over at most m + n edges,
    so each unit of mass moved may cost (m + n)^2 ulps of it too much, and
    they round sums of masses of at most ||c||_1, so
    (m + n)^2 eps ||c||_1 max(1, top)."""
    return c.size**2 * np.finfo(float).eps * np.abs(c).sum() * max(1.0, top)


def _transport_rounding(c):
    """The paths' rounding on K_theta, whose costs are at most 1, and its
    masses': K_theta moves min(P, N) of the masses of c+ and c-, which
    rounding leaves |P - N| = |sum c| apart, at costs of at most 1.  (Only
    for masses meant equal is |sum c| a rounding.)"""
    return abs(c.sum()) + _paths_rounding(c)


def _assert_certified(value, lo, hi, r):
    # the value within the certified bounds up to the paths' rounding r, and
    # the bounds within 1e-6 of each other, so that they still check something
    assert lo - r <= value <= hi + r
    assert hi - lo <= 1e-6 * max(1.0, hi)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_metrics_match_the_highs_oracle(data):
    # K_theta and the dual-Lipschitz value inside the bounds that HiGHS's
    # solutions certify (conftest: each is the value of a feasible point of
    # the LP or of its dual, in exact arithmetic, so it holds whatever HiGHS's
    # 1e-10 tolerances), up to the paths' rounding, at coordinate scales from
    # 1e-6 to 1e6 and, for the dual-Lipschitz value, unequal masses.  On
    # 48,000 drawn cases the values lay at most 0.40 r (K) and 0.15 r outside
    # the bounds, and the bounds at most 7.9e-11 (K) and 9.1e-8 apart
    # relative to max(1, hi), most to the last bits
    d = data.draw(st.integers(1, 3))
    scale = 10.0 ** data.draw(st.integers(-6, 6))
    mu1, mu2 = _oracle_measure(data, d, scale), _oracle_measure(data, d, scale)
    pts, c = _union_support(mu1, mu2)
    theta = data.draw(st.floats(0.25, 8.0)) / scale
    _assert_certified(kantorovich_theta(mu1, mu2, theta), *transport_bounds(pts, c, theta), _transport_rounding(c))
    heavier = _oracle_measure(data, d, scale, mass=data.draw(st.floats(0.25, 4.0)))
    pts, c = _union_support(mu1, heavier)
    r = _paths_rounding(c, distances(pts[c > 0], pts[c < 0]).max(initial=0.0))
    _assert_certified(dual_lipschitz(mu1, heavier), *dual_lipschitz_bounds(pts, c), r)


def test_metrics_where_highs_stopped_short():
    # drawn cases where HiGHS stopped short: two where its value missed by
    # more than the floors the oracle test once used (1e-9 and 1e-11), and
    # one where it found no solution.  The dual-Lipschitz value of
    # 1/2 d(-1e-6) + 1/2 d(1.5e-12) against a mass-4 measure on five points
    # within 1e-6 is 3: f = -1 attains it, and on a 2e-6 spread a Lipschitz
    # part t costs 3t and gains at most 1e-5 t.  HiGHS read 2.9999999986478
    from fractions import Fraction

    mu1 = DiscreteMeasure([[-1e-6], [1.5e-12]], [0.5, 0.5])
    heavier = DiscreteMeasure(
        [[5e-7], [-5e-7 + 1.5e-12], [5e-13], [5e-7], [-5e-7], [-5e-7], [1e-6]], np.full(7, 4 / 7)
    )
    assert dual_lipschitz(mu1, heavier) == pytest.approx(3.0, rel=0, abs=_paths_rounding(_union_support(mu1, heavier)[1]))
    # K_theta at scale 1e-2 from two sources 1.2e-12 apart, whose costs to
    # each target differ by at most 1.02e-10: source 0 takes the targets in
    # increasing order of that difference, here in exact arithmetic.  HiGHS
    # read 0.8252937286019552, 2e-11 above
    mu1 = DiscreteMeasure([[5e-13, 1.5e-12, 5e-13], [1.5e-12, 1e-12, 0.0]], [0.49292520952679114, 0.5070747904732089])
    mu2 = DiscreteMeasure(
        [[-0.00656, 0.0035700000015, -0.006779999999], [-0.0019599999985, 0.000980000001, 0.006920000001],
         [-0.00124, -0.0061499999985, -0.0097499999985], [-0.000619999999, -0.0057999999985, 0.0020100000015],
         [5e-05, 0.0012100000015, 0.0024300000015], [0.0001400000015, 0.0075100000015, 0.0018200000005],
         [0.0030000000015, 0.0100000000015, -0.0018799999995]],
        [0.16709277637530517, 0.02901480564874244, 0.1636854281822718, 0.11139518425020345, 0.22056025773991483,
         0.024316396146505083, 0.28393515165705735],
    )
    pts, c = _union_support(mu1, mu2)
    cost = [[Fraction(x) for x in row] for row in np.minimum(1.0, 125.0 * distances(pts[c > 0], pts[c < 0]))]
    (a0, _), b = [Fraction(x) for x in c[c > 0]], [Fraction(-x) for x in c[c < 0]]
    exact, left = sum(bj * cost[1][j] for j, bj in enumerate(b)), a0
    for j in sorted(range(len(b)), key=lambda j: cost[0][j] - cost[1][j]):
        take = min(left, b[j])
        exact, left = exact + take * (cost[0][j] - cost[1][j]), left - take
    assert float(exact) == 0.8252937285822022
    assert kantorovich_theta(mu1, mu2, 125.0) == pytest.approx(float(exact), rel=0, abs=_transport_rounding(c))
    # six atoms within 1.6e-12 against one of mass 0.99999, where HiGHS ended
    # in status Unknown while the oracle divided its distance row by 1.6e-12
    mu1 = DiscreteMeasure([[5e-13, 0.0, 0.0], [0.0, 1.5e-12, 0.0]] + [[0.0, 0.0, 0.0]] * 4, np.full(6, 1 / 6))
    lighter = DiscreteMeasure([[0.0, 0.0, 0.0]], [0.99999])
    pts, c = _union_support(mu1, lighter)
    _assert_certified(dual_lipschitz(mu1, lighter), *dual_lipschitz_bounds(pts, c), _paths_rounding(c))


def test_metrics_resolve_what_highs_misses_near_the_merge_tolerance():
    # two Diracs 1.5e-12 apart: the closed form 2x / (x + 2), where HiGHS
    # read 0; two plans 3.1e-13 apart in cost: the cheaper, where HiGHS
    # stopped at the dearer
    for x in (1.5e-12, 1e-10):
        assert dual_lipschitz(dirac(0.0), dirac(x)) == pytest.approx(2 * x / (x + 2), rel=1e-12, abs=0)
    x = 1.5e-12
    mu1 = DiscreteMeasure([[0.0, 0.0], [0.0, 0.5]], [0.5, 0.5])
    mu2 = DiscreteMeasure([[0.0, x], [x, x]], [0.5, 0.5])
    best = 0.5 * x + 0.5 * np.hypot(x, 0.5 - x)  # (0, 0) to (0, x) and (0, 0.5) to (x, x)
    assert kantorovich_theta(mu1, mu2, 1.0) == pytest.approx(best, rel=1e-15, abs=0)


def _factor_bounds(K, rows, theta):
    """Bounds on the contraction factor of the unit-mass ``rows``: over the
    pairs of states, the largest of each pair's certified transport bounds,
    widened by the paths' rounding, over the pair's truncated distance.  (Two
    rows whose masses differ by 5.6e-17 once put HiGHS's value, the cost of
    the first row's mass, 2.4e-12 above the factor's, which moves the lesser.)"""
    return np.max([
        (np.array(transport_bounds(K.points, c, theta)) + [-_transport_rounding(c), _transport_rounding(c)])
        / min(1.0, theta * K.dists[u, v])
        for u in range(K.n)
        for v in range(u + 1, K.n)
        for c in [rows[u] - rows[v]]
    ], axis=0)


@settings(max_examples=60, deadline=None)
@given(kernel=generated_kernels(), m=st.integers(1, 3), theta=st.floats(1.0, 16.0))
def test_contraction_factor_matches_the_highs_oracle(kernel, m, theta):
    # states on the integers, so many pairs tie in cost; every pair's plan
    # within the bounds its HiGHS LP certifies
    K, V = kernel
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    assume(t.extension_ok)
    theta /= K.diam
    rows = np.linalg.matrix_power(M / t.lam, m) * t.h[None, :] / t.h[:, None]
    rows /= rows.sum(axis=1, keepdims=True)  # the factor's unit-mass rows
    lo, hi = _factor_bounds(K, rows, theta)
    assert lo * (1 - 1e-12) <= kl.kantorovich_contraction_factor(M, t, K.points, theta, m) <= hi * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sandwich_equals_separate_metrics(data):
    d = data.draw(st.integers(1, 3))
    mu1, mu2 = _measure(data, d), _measure(data, d)
    theta = data.draw(st.floats(0.5, 8.0))
    rep = verify_metric_sandwich(mu1, mu2, theta=theta, diam=4.0)
    assert rep.kantorovich == pytest.approx(kantorovich_theta(mu1, mu2, theta), abs=1e-12)
    assert rep.dual_lip == pytest.approx(dual_lipschitz(mu1, mu2), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kantorovich_sees_only_the_difference(data):
    # K_theta(mu1 + nu, mu2 + nu) = K_theta(mu1, mu2): mass the two share stays put
    d = data.draw(st.integers(1, 3))
    mu1, mu2, nu = (_measure(data, d) for _ in range(3))
    nu_mass = data.draw(st.floats(0.1, 2.0))
    theta = data.draw(st.floats(0.25, 8.0))

    def plus_nu(mu):
        return DiscreteMeasure(np.vstack([mu.support, nu.support]), np.r_[mu.weights, nu_mass * nu.weights])

    K = kantorovich_theta(mu1, mu2, theta)
    assert kantorovich_theta(plus_nu(mu1), plus_nu(mu2), theta) == pytest.approx(K, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kantorovich_is_homogeneous(data):
    # K_theta(a mu1, a mu2) = a K_theta(mu1, mu2) for equal sub-probability masses a
    d = data.draw(st.integers(1, 3))
    mu1, mu2 = _measure(data, d), _measure(data, d)
    a = data.draw(st.floats(0.01, 1.0))
    theta = data.draw(st.floats(0.25, 8.0))
    scaled = [DiscreteMeasure(mu.support, a * mu.weights) for mu in (mu1, mu2)]
    assert kantorovich_theta(*scaled, theta) == pytest.approx(a * kantorovich_theta(mu1, mu2, theta), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sandwich_holds_on_generated_measures(data):
    # the diameter of the pair's own union support, the tightest the check allows
    d = data.draw(st.integers(1, 3))
    mu1, mu2 = _measure(data, d), _measure(data, d)
    pts = np.vstack([mu1.support, mu2.support])
    diam = float(distances(pts, pts).max()) or 1.0
    theta = data.draw(st.floats(1.0, 16.0)) / diam
    assert verify_metric_sandwich(mu1, mu2, theta=theta, diam=diam).ok


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_contraction_factor_equals_pairwise_plan_lps(data):
    # the worst ratio K_theta(delta_u P^m, delta_v P^m) / (1 ^ theta d_uv) of
    # the normalized dual semigroup, one full plan LP per pair of distinct points
    n = data.draw(st.integers(2, 6))
    d = data.draw(st.integers(1, 2))
    points = data.draw(arrays(float, (n, d), elements=st.integers(-4, 4).map(lambda k: k / 4)))
    P = data.draw(arrays(float, (n, n), elements=st.floats(0.0, 1.0)))
    P[np.arange(n), np.roll(np.arange(n), 1)] += 0.1  # a cycle keeps every state reaching every other
    K = kl.FiniteKernel(points=points, P=P, A=np.arange(n))
    M = kl.build_tilted_matrix(K, kl.PotentialVector.from_values(K, data.draw(arrays(float, n, elements=st.floats(-1, 1)))))
    t = kl.perron_triple(M, K.A)
    m = data.draw(st.integers(1, 3))
    dist = K.dists
    theta = data.draw(st.floats(1.0, 16.0)) / (dist.max() or 1.0)
    rows = np.linalg.matrix_power(M / t.lam, m) * t.h[None, :] / t.h[:, None]
    rows /= rows.sum(axis=1, keepdims=True)  # probabilities, up to h's rounding
    mus = [DiscreteMeasure(points, row) for row in rows]
    pairwise = [
        _plan_lp(mus[u], mus[v], theta) / min(1.0, theta * dist[u, v])
        for u in range(n)
        for v in range(u + 1, n)
        if dist[u, v] > 0
    ]
    factor = kl.kantorovich_contraction_factor(M, t, points, theta, m)
    assert factor == pytest.approx(max([0.0] + pairwise), rel=1e-9, abs=1e-12)


def test_metric_paths_load_no_scipy():
    # the sandwich, the dual-Lipschitz value and a contraction search run on
    # shortest paths alone, with no LP solver behind them
    code = (
        "import sys, numpy as np\n"
        "from fklab import kernel_lab as kl\n"
        "from fklab.measure_metrics import DiscreteMeasure, dual_lipschitz, verify_metric_sandwich\n"
        "rng = np.random.default_rng(1)\n"
        "a, b = (DiscreteMeasure(rng.uniform(-1, 1, (5, 2)), rng.dirichlet(np.ones(5))) for _ in range(2))\n"
        "assert verify_metric_sandwich(a, b, theta=2.0, diam=3.0).ok and dual_lipschitz(a, b) > 0\n"
        "K = kl.FiniteKernel(points=[[0.0], [1.0], [2.0]], P=np.full((3, 3), 1 / 3), A=[0, 1, 2])\n"
        "M = kl.build_tilted_matrix(K, kl.PotentialVector.from_values(K, [0.0, 0.1, 0.2]))\n"
        "kl.contraction_search(M, kl.perron_triple(M, K.A), K.points)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code).splitlines()[-1] == "[]"


def test_contraction_factor_on_14_states_equals_the_pairwise_oracle():
    # 91 pairs of rows, each moving up to 14 atoms: past the sizes the
    # benchmark uses, every pair's plan within the bounds its HiGHS LP certifies
    K, V = random_kernel_potential(np.random.default_rng(3), 14, v_scale=0.5)
    M = kl.build_tilted_matrix(K, V)
    t = kl.perron_triple(M, K.A)
    theta = 4.0 / K.diam
    rows = M / t.lam * t.h[None, :] / t.h[:, None]
    rows /= rows.sum(axis=1, keepdims=True)  # the factor's unit-mass rows
    lo, hi = _factor_bounds(K, rows, theta)
    assert lo * (1 - 1e-12) <= kl.kantorovich_contraction_factor(M, t, K.points, theta, 1) <= hi * (1 + 1e-12)


METRIC_CALLS = {
    "transport": lambda a, b: kantorovich_theta(a, b, 1.0),
    "dual-Lipschitz": dual_lipschitz,
    "metric sandwich": lambda a, b: verify_metric_sandwich(a, b, theta=1.0, diam=4.0),
}


@pytest.mark.parametrize("kind", list(METRIC_CALLS))
def test_augmentation_bound_names_the_kind(rng, monkeypatch, kind):
    monkeypatch.setattr(measure_metrics, "_AUGMENTATIONS", 0)
    with pytest.raises(RuntimeError, match=f"^{kind}: more than 0 augmentations"):
        METRIC_CALLS[kind](random_measure(rng), random_measure(rng))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure([[0.0], [bad]], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure([[0.0], [1.0]], [0.5, bad])


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_non_finite_theta_is_rejected_before_any_solve(rng, path_searches, theta):
    a, b = random_measure(rng), random_measure(rng)
    with pytest.raises(ValueError, match="theta"):
        kantorovich_theta(a, b, theta)
    with pytest.raises(ValueError, match="theta"):
        verify_metric_sandwich(a, b, theta=theta, diam=4.0)
    assert path_searches == []
