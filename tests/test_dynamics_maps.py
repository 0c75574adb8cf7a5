import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    # Richardson slopes against a fine reference; ETDRK2 is second order
    ref = BurgersMap(nu=0.3, modes=24, dt=1.25e-4)
    v = smooth_state(rng, ref.dim, 0.8)
    target = ref.apply(v)
    errs = []
    dts = [2e-3, 1e-3, 5e-4]
    for dt in dts:
        errs.append(np.linalg.norm(BurgersMap(nu=0.3, modes=24, dt=dt).apply(v) - target))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
    assert np.all(np.abs(slopes - 2.0) < 0.2)


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
    bm = BurgersMap(nu=1e-4, modes=16, dt=0.25)
    huge = np.full(bm.dim, 2e3)
    with pytest.raises(FloatingPointError):
        bm.apply(huge)


def test_burgers_blowup_names_the_row_in_the_batch(rng):
    # the bad row sits in the second chunk; its index counts from the batch
    bm = BurgersMap(nu=1e-4, modes=16, dt=0.25)
    bad = bm._tables["chunk"] + 5
    U = 1e-3 * rng.normal(size=(bad + 10, bm.dim))
    U[bad] = 2e3
    with pytest.raises(FloatingPointError, match=rf"inner step 0 in row {bad}\b"):
        bm.apply_batch(U)


def reference_etdrk2(bm, U):
    """ETDRK2 with the nonlinear term on the 4M grid, all rows at once."""
    M, G = bm.modes, 4 * bm.modes
    j = np.arange(1, M + 1)
    z = -bm.nu * j**2 * bm.dt
    E, phi1, phi2 = np.exp(z), np.expm1(z) / z, (np.expm1(z) - z) / z**2
    Z = (U[:, 0::2] - 1j * U[:, 1::2]) / (2 * np.sqrt(np.pi))

    def nonlinear(Z):
        spec = np.zeros((Z.shape[0], G // 2 + 1), dtype=complex)
        spec[:, 1 : M + 1] = G * Z
        u = np.fft.irfft(spec, n=G, axis=-1)
        return -0.5j * j * (np.fft.rfft(u * u, axis=-1) / G)[:, 1 : M + 1]

    for _ in range(bm.steps_per_unit):
        N0 = nonlinear(Z)
        Za = E * Z + bm.dt * phi1 * N0
        Z = Za + bm.dt * phi2 * (nonlinear(Za) - N0)
    out = np.empty_like(U)
    out[:, 0::2] = 2 * np.sqrt(np.pi) * Z.real
    out[:, 1::2] = -2 * np.sqrt(np.pi) * Z.imag
    return out


def fft_grid_values(bm, U):
    """Field values on the 4M grid by an inverse FFT of the modes."""
    M = bm.modes
    spec = np.zeros(U.shape[:-1] + (2 * M + 1,), dtype=complex)
    spec[..., 1 : M + 1] = (U[..., 0::2] - 1j * U[..., 1::2]) / (2 * np.sqrt(np.pi))
    return np.fft.irfft(spec, n=4 * M, axis=-1, norm="forward")


@st.composite
def burgers_batches(draw):
    modes = draw(st.integers(1, 40))
    bm = BurgersMap(nu=draw(st.floats(0.3, 1.0)), modes=modes, dt=0.05)
    rows = draw(st.integers(1, 12))
    coef = draw(arrays(np.float64, (rows, bm.dim), elements=st.floats(-1.0, 1.0)))
    return bm, coef * np.exp(-0.2 * np.arange(bm.dim))


@settings(max_examples=40, deadline=None)
@given(case=burgers_batches())
def test_half_grid_products_match_4m_fft_reference(case):
    bm, U = case
    out = bm.apply_batch(U)
    assert np.abs(out - reference_etdrk2(bm, U)).max() < 1e-12
    assert np.array_equal(bm.apply(U[-1]), out[-1])
    l1 = (2 * np.pi / (4 * bm.modes)) * np.abs(fft_grid_values(bm, U)).sum(axis=-1)
    assert np.abs(bm.l1_norm(U) - l1).max() < 1e-12 * max(1.0, l1.max())


@pytest.mark.parametrize("modes, G, chunk", [(16, 49, 640), (64, 193, 160)])
def test_burgers_chunks_and_grid_match_4m_reference(rng, modes, G, chunk):
    # the odd 3M+1 (3M+2) grid is alias-free like 4M, so only roundoff separates them;
    # a coarse dt keeps the reference loop cheap without changing that
    bm = BurgersMap(nu=0.5, modes=modes, dt=5e-3)
    assert (bm._tables["G"], bm._tables["chunk"]) == (G, chunk)
    U = 0.8 * rng.normal(size=(2 * chunk + 3, bm.dim)) * np.exp(-0.2 * np.arange(bm.dim))
    ref = reference_etdrk2(bm, U)
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        assert np.abs(bm.apply_batch(U[:n]) - ref[:n]).max() < 1e-12
    out = bm.apply_batch(U)
    for i in (0, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 2):
        assert np.array_equal(bm.apply(U[i]), out[i])
    assert bm.physical(U[0]).shape[-1] == 4 * modes


@pytest.mark.parametrize("modes", [16, 48, 60, 64, 66, 72, 80, 96, 128])
def test_burgers_rows_equal_one_row_calls_across_a_chunk_boundary(rng, modes):
    # one full chunk and an 8-row tail; a coarse dt keeps chunk + 8 one-row calls cheap
    bm = BurgersMap(nu=0.5, modes=modes, dt=0.05)
    chunk = bm._tables["chunk"]
    U = 0.8 * rng.normal(size=(chunk + 8, bm.dim)) * np.exp(-0.2 * np.arange(bm.dim))
    out = bm.apply_batch(U)
    assert [i for i in range(chunk + 8) if not np.array_equal(bm.apply(U[i]), out[i])] == []


def test_burgers_short_tail_chunk_reads_the_first_rows_of_the_factor_tables(rng):
    # two full chunks of 640 rows and a 46-row tail, padded to 48: the tail
    # multiplies by the first 48 rows of the tiled E table
    bm = BurgersMap(nu=0.5, modes=16, dt=0.05)
    chunk = bm._tables["chunk"]
    assert chunk == 640 and bm._tables["E"].shape == (2, chunk, bm.modes)
    U = 0.8 * rng.normal(size=(2 * chunk + 46, bm.dim)) * np.exp(-0.2 * np.arange(bm.dim))
    out = bm.apply_batch(U)
    assert [i for i in range(U.shape[0]) if not np.array_equal(bm.apply(U[i]), out[i])] == []


def test_burgers_product_tables_are_c_contiguous():
    # an F-ordered table makes OpenBLAS pick another kernel for a full chunk
    # than for an 8-row call, and the rows then stop matching one-row calls
    for modes in (1, 16, 64):
        t = BurgersMap(nu=0.5, modes=modes)._tables
        assert all(t[k].flags.c_contiguous for k in ("F", "B1", "B2"))


def unfolded_etdrk2(bm, U):
    """ETDRK2 on the half grid with the [alpha | beta] rows side by side and
    phi_1 dt, phi_2 dt applied to the nonlinear term after each product."""
    M, G = bm.modes, bm._tables["G"]
    H = (G + 1) // 2
    j = np.arange(1, M + 1)
    z = -bm.nu * j**2.0 * bm.dt
    x = (2.0 * np.pi / G) * (np.outer(j, np.arange(H)) % G)
    cos, sin = np.cos(x), np.sin(x)
    jG = j * np.sqrt(np.pi) / G
    w = np.r_[1.0, np.full(H - 1, 2.0)]
    C, S = cos / np.sqrt(np.pi), sin / np.sqrt(np.pi)
    Da, Db = (-4.0 * jG[:, None] * sin).T, (jG[:, None] * w * cos).T
    E = np.tile(np.exp(z), 2)
    p1, p2 = np.tile(bm.dt * np.expm1(z) / z, 2), np.tile(bm.dt * (np.expm1(z) - z) / z**2, 2)

    def nonlinear(X):
        c, s = X[:, :M] @ C, X[:, M:] @ S
        return np.hstack([(c * s) @ Da, (c**2 + s**2) @ Db])

    X = np.hstack([U[:, 0::2], U[:, 1::2]])
    for _ in range(bm.steps_per_unit):
        N0 = nonlinear(X)
        Xa = E * X + p1 * N0
        X = Xa + p2 * (nonlinear(Xa) - N0)
    out = np.empty_like(U)
    out[:, 0::2], out[:, 1::2] = X[:, :M], X[:, M:]
    return out


@settings(max_examples=40, deadline=None)
@given(case=burgers_batches())
def test_folded_factors_match_the_unfolded_step(case):
    # folding phi_1 dt and phi_2 dt into the backward tables only reorders
    # the rounding of a linear map; the flow damps the state, so its
    # roundoff is measured against the input
    bm, U = case
    err = np.abs(bm.apply_batch(U) - unfolded_etdrk2(bm, U)).max()
    assert err <= 4 * np.finfo(float).eps * np.abs(U).max()


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
