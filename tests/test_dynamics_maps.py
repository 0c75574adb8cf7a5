import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import etdrk2_burgers
from fklab import dynamics_maps
from fklab.dynamics_maps import BurgersMap, ToyDiagonalMap, l1_circle_metric


@pytest.fixture(scope="module")
def burgers():
    return BurgersMap(nu=1.0, modes=32, dt=1e-3)


def smooth_state(rng, dim, norm, decay=0.3):
    v = rng.normal(size=dim) * np.exp(-decay * np.arange(dim))
    return v * (norm / np.linalg.norm(v))


def test_zero_is_fixed_point(burgers):
    assert np.abs(burgers.apply(np.zeros(burgers.dim))).max() == 0.0


def test_parseval(burgers, rng):
    v = smooth_state(rng, burgers.dim, 0.7)
    phys = burgers.physical(v)
    G = phys.shape[-1]
    l2 = np.sqrt(2 * np.pi / G * (phys**2).sum())
    assert l2 == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_small_amplitude_heat_decay(burgers):
    # a single low mode at tiny amplitude follows the linear heat flow
    for a in (1e-3, 5e-4):
        u = np.zeros(burgers.dim)
        u[0] = a
        out = np.linalg.norm(burgers.apply(u))
        assert out == pytest.approx(a * np.exp(-burgers.nu), rel=0.05)


def test_energy_decay_and_poincare_bound(burgers, rng):
    for norm in (0.2, 0.6, 1.0):
        v = smooth_state(rng, burgers.dim, norm)
        w = burgers.apply(v)
        ratio = np.linalg.norm(w) / np.linalg.norm(v)
        # lowest-frequency convention: Poincare constant one on the circle
        assert ratio <= np.exp(-burgers.nu) + 1e-10
        assert ratio > 0


def test_energy_strictly_decreasing_along_flow(rng):
    bm = BurgersMap(nu=0.3, modes=24, dt=2e-3)
    v = smooth_state(rng, bm.dim, 1.0)
    norms = [np.linalg.norm(v)]
    for _ in range(4):
        v = bm.apply(v)
        norms.append(np.linalg.norm(v))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_spectral_convergence_under_mode_doubling(rng):
    b1 = BurgersMap(nu=0.5, modes=32, dt=1e-3)
    b2 = BurgersMap(nu=0.5, modes=64, dt=1e-3)
    v = smooth_state(rng, b1.dim, 0.5, decay=0.4)
    v2 = np.zeros(b2.dim)
    v2[: b1.dim] = v
    o1 = b1.apply(v)
    o2 = b2.apply(v2)
    diff = np.sqrt(np.linalg.norm(o2[: b1.dim] - o1) ** 2 + np.linalg.norm(o2[b1.dim :]) ** 2)
    assert diff < 1e-6


def test_time_step_order_two(rng):
    # ETDRK2 converges onto the exact Cole-Hopf flow at second order: its
    # distance to the map shrinks about 4x per halving of dt
    for modes, dts in ((16, (2e-2, 1e-2, 5e-3)), (64, (2e-3, 1e-3, 5e-4))):
        bm = BurgersMap(nu=1.0, modes=modes)
        U = np.stack([smooth_state(rng, bm.dim, norm, decay=0.25) for norm in (0.3, 0.6, 1.0)])
        exact = bm.apply_batch(U)
        errs = np.array([np.abs(etdrk2_burgers(1.0, modes, dt, U) - exact).max() for dt in dts])
        assert np.all((errs[:-1] / errs[1:] >= 3.5) & (errs[:-1] / errs[1:] <= 4.5)), errs


def test_l1_subcontraction_sampled(burgers, rng):
    n = 300
    base = rng.normal(size=(n, burgers.dim)) * np.exp(-0.25 * np.arange(burgers.dim))
    base *= 0.6 * rng.random((n, 1)) / np.maximum(np.linalg.norm(base, axis=1, keepdims=True), 1e-12)
    other = base + 0.2 * rng.normal(size=base.shape) * np.exp(-0.25 * np.arange(burgers.dim))
    metric = l1_circle_metric(burgers)
    num = metric(burgers.apply_batch(base), burgers.apply_batch(other))
    den = metric(base, other)
    assert np.all(num <= (1 + 1e-6) * den)


def test_burgers_blowup_detection():
    bm = BurgersMap(nu=1e-4, modes=16)
    with pytest.raises(FloatingPointError, match=r"row 0 outside the Cole-Hopf domain"):
        bm.apply(np.full(bm.dim, 2e3))
    with pytest.raises(FloatingPointError, match=r"row 0 outside .* = nan > 25$"):
        bm.apply(np.full(bm.dim, np.nan))


def test_burgers_blowup_names_the_row_in_the_batch(rng):
    # the bad rows sit in the second chunk; the first of them is named, counted from the batch
    bm = BurgersMap(nu=1e-4, modes=16)
    bad = bm._tables["chunk"] + 5
    U = 1e-6 * rng.normal(size=(bad + 10, bm.dim))
    U[bad] = 2e3
    U[bad + 3] = np.inf
    with pytest.raises(FloatingPointError, match=rf"in row {bad} outside the Cole-Hopf domain"):
        bm.apply_batch(U)


def fft_grid_values(bm, U):
    """Field values on the 4M grid by an inverse FFT of the modes."""
    M = bm.modes
    spec = np.zeros(U.shape[:-1] + (2 * M + 1,), dtype=complex)
    spec[..., 1 : M + 1] = (U[..., 0::2] - 1j * U[..., 1::2]) / (2 * np.sqrt(np.pi))
    return np.fft.irfft(spec, n=4 * M, axis=-1, norm="forward")


def map_on_4x_grid(bm):
    """The map ``bm`` with the Cole-Hopf grid four times as fine."""
    grid = dynamics_maps._grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics_maps, "_grid", lambda modes: 4 * grid(modes))
        fine = BurgersMap(nu=bm.nu, modes=bm.modes)
    assert fine._tables["G"] == 4 * bm._tables["G"]
    return fine


def oscillation(bm, U):
    """osc(U0) / (2 nu) on the map's grid, the quantity its domain guard bounds."""
    return np.ptp(np.atleast_2d(U) @ bm._tables["F"], axis=-1)


@st.composite
def burgers_states(draw, max_rows=6, norm=None):
    """A map with M in 1..128 and nu in 0.3..1, and a batch of states.
    With ``norm``, each state has L2 norm at most ``norm`` and any
    spectrum; otherwise mode 1 has unit size, the other coordinates are at
    most exp(-0.3 i), and the batch is scaled to an oscillation up to 99% of
    the guard's limit (the 4x grid sees a slightly larger one)."""
    bm = BurgersMap(nu=draw(st.floats(0.3, 1.0)), modes=draw(st.integers(1, 128)))
    rows = draw(st.integers(1, max_rows))
    U = draw(arrays(np.float64, (rows, bm.dim), elements=st.floats(-1.0, 1.0)))
    if norm is not None:
        scale = draw(arrays(np.float64, (rows, 1), elements=st.floats(0.0, 1.0)))
        U /= np.maximum(np.abs(U).max(axis=1, keepdims=True), 1e-300)  # no underflow in the norm
        return bm, norm * scale * U / np.maximum(np.linalg.norm(U, axis=1, keepdims=True), 1.0)
    theta = draw(arrays(np.float64, rows, elements=st.floats(0.0, 2 * np.pi)))
    U[:, 0], U[:, 1] = np.cos(theta), np.sin(theta)
    U *= np.exp(-0.3 * np.arange(bm.dim))
    reach = draw(arrays(np.float64, (rows, 1), elements=st.floats(1e-3, 0.99)))
    return bm, U * (reach * dynamics_maps.OSC_LIMIT / oscillation(bm, U)[:, None])


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(burgers_states(norm=2.0), burgers_states()))
def test_burgers_map_matches_its_4n_grid_reference(case):
    bm, U = case
    out = bm.apply_batch(U)
    ref = map_on_4x_grid(bm).apply_batch(U)
    # relative to the input as well: the flow damps high modes far below the scale it rounds at
    assert np.abs(out - ref).max() <= 1e-12 * max(np.abs(ref).max(), np.abs(U).max())
    assert np.array_equal(bm.apply(U[-1]), out[-1])
    l1 = (2 * np.pi / (4 * bm.modes)) * np.abs(fft_grid_values(bm, U)).sum(axis=-1)
    assert np.abs(bm.l1_norm(U) - l1).max() < 1e-12 * max(1.0, l1.max())


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(burgers_states(norm=2.0), burgers_states()))
def test_burgers_map_decays_the_l2_norm_at_rate_nu(case):
    # the nonlinear term does no work and Poincare's constant is one on
    # zero-mean fields, so the exact flow decays by e^-nu; projecting only lowers it
    bm, U = case
    gain = np.linalg.norm(bm.apply_batch(U), axis=1) - np.exp(-bm.nu) * np.linalg.norm(U, axis=1)
    assert gain.max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(case=burgers_states(), dt=st.floats(1e-6, 1.0))
def test_burgers_map_ignores_dt(case, dt):
    bm, U = case
    assert np.array_equal(BurgersMap(nu=bm.nu, modes=bm.modes, dt=dt).apply_batch(U), bm.apply_batch(U))


@settings(max_examples=30, deadline=None)
@given(case=burgers_states(max_rows=1))
def test_burgers_guard_fires_just_past_its_limit(case):
    bm, U = case
    edge = U * (dynamics_maps.OSC_LIMIT / oscillation(bm, U)[:, None])
    assert np.isfinite(bm.apply_batch(edge * (1 - 1e-9))).all()
    with pytest.raises(FloatingPointError, match="row 0 outside the Cole-Hopf domain"):
        bm.apply_batch(edge * (1 + 1e-9))


@pytest.mark.parametrize("modes", [16, 48, 60, 64, 66, 72, 80, 96, 128])
def test_burgers_rows_equal_one_row_calls_across_a_chunk_boundary(rng, modes):
    # one full chunk and an 8-row tail, at the smallest nu (the widest heat table)
    bm = BurgersMap(nu=0.3, modes=modes)
    chunk = bm._tables["chunk"]
    U = 0.8 * rng.normal(size=(chunk + 8, bm.dim)) * np.exp(-0.2 * np.arange(bm.dim))
    out = bm.apply_batch(U)
    assert [i for i in range(chunk + 8) if not np.array_equal(bm.apply(U[i]), out[i])] == []


def test_burgers_product_tables_are_c_contiguous():
    # an F-ordered table makes OpenBLAS pick another kernel for a full chunk
    # than for an 8-row call, and the rows then stop matching one-row calls
    for modes in (1, 16, 64):
        t = BurgersMap(nu=0.5, modes=modes)._tables
        assert all(t[k].flags.c_contiguous for k in ("F", "H", "S", "B"))


def test_toy_map_zero_and_linearity(rng):
    toy = ToyDiagonalMap.geometric(5, base=0.7, ratio=0.8)
    assert np.all(toy.apply(np.zeros(5)) == 0)
    u = rng.normal(size=5)
    # q = 0: exactly diagonal
    assert np.allclose(toy.apply(u), toy.factors * u)
    n = 3
    for k in range(1, 4):
        v = u.copy()
        for _ in range(k):
            v = toy.apply(v)
        assert np.linalg.norm(v) <= toy.factors[0] ** k * np.linalg.norm(u) + 1e-12


def test_toy_map_tail_projection_constant(rng):
    toy = ToyDiagonalMap.geometric(6, base=0.9, ratio=0.75)
    u = rng.normal(size=6)
    for N in (1, 3, 5):
        e = np.zeros(6)
        e[N] = 1.0
        diff = toy.apply(u + 1e-4 * e) - toy.apply(u)
        assert np.linalg.norm(diff[N:]) / 1e-4 == pytest.approx(toy.factors[N], rel=1e-9)


def test_toy_map_quadratic_coupling_smooth(rng):
    toy = ToyDiagonalMap.geometric(4, base=0.6, ratio=0.8, q=0.2, cutoff_radius=2.0)
    u = rng.normal(size=4) * 0.5
    out = toy.apply(u)
    assert np.all(np.isfinite(out))
    # reproducibility of the nonlinear branch
    assert np.array_equal(out, toy.apply(u))


def test_toy_map_rejects_bad_factors():
    with pytest.raises(ValueError):
        ToyDiagonalMap(factors=np.array([0.5, 0.7]))
    with pytest.raises(ValueError):
        ToyDiagonalMap(factors=np.array([0.5, -0.1]))
