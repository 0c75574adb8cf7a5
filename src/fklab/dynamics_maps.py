"""Concrete time-one maps: the exact viscous Burgers flow and a diagonal toy.

The Burgers map is the time-one flow of the unforced viscous Burgers
equation u_t = nu u_xx - u u_x on the circle, projected onto M zero-mean
Fourier modes.  The state vector interleaves cosine/sine coefficients in
the orthonormal basis ``cos(jx)/sqrt(pi), sin(jx)/sqrt(pi)`` so that the
Euclidean norm of the vector equals the L2 norm of the field; kicks from
:mod:`fklab.rds_core` act directly on these coordinates.

``apply_batch`` solves the flow exactly, with no time step, by the
Cole-Hopf substitution u = -2 nu (log phi)_x (Hopf 1950, Cole 1951) into
the heat equation phi_t = nu phi_xx.  On the grid x_g = 2 pi g / N a chunk
of rows takes four real products: Y = -U0/(2 nu), U0 the zero-mean
antiderivative of u (table F), minus its row maximum; the modes k <= K of
phi0 - 1 = expm1(Y) times the heat factors exp(-nu k^2) (H; the constant 1
enters mode 0 alone, so 0 maps to 0 exactly); phi(1) and phi'(1) on the
grid (S); u(1) = -2 nu phi'/phi projected onto the M modes (B).
N = max(128, 8M), never state-dependent; it agrees with 4N to 1e-12 on
states of norm up to 2 and on smooth ones up to the domain limit (tested),
where N = 4M does not.  K is the largest k with exp(-nu k^2) >= machine
epsilon, capped below N/2.  A row whose osc(Y) = osc(U0)/(2 nu) on the grid
exceeds ``OSC_LIMIT`` = 25, or is not finite, raises FloatingPointError
naming the first such row: phi(1) loses digits as osc(Y) grows, and past
about 26 a 64-mode ETDRK2 at dt = 1e-3 is more accurate.

Chunks of ``8 * max(1, 10**6 // (16 N max(M, 2K + 1)))`` rows and zero
padding of every batch to a multiple of 8 rows let BLAS see only multiples
of 8 rows, and no product passes 10^6 multiply-adds unless a chunk is
already the 8 rows of a one-row call; above that size OpenBLAS on AVX-512
rounded a full chunk unlike an 8-row call, as it did with an F-ordered
table, so every table is C-contiguous.  So every row of a batch equals the
one-row result bitwise (tested across a chunk boundary for M = 16 to 128).
``physical()`` and the L1 norm use the 4M grid as one synthesis product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BurgersMap", "ToyDiagonalMap", "l1_circle_metric"]

ROOT_PI = np.sqrt(np.pi)
OSC_LIMIT = 25.0  # largest osc(U0) / (2 nu) on the grid that apply_batch maps


def _trig(j, g, n):
    """cos and sin of 2 pi j g / n over the outer grid of ``j`` and ``g``,
    with j g reduced mod n first."""
    x = (2.0 * np.pi / n) * (np.outer(j, g) % n)
    return np.cos(x), np.sin(x)


def _grid(modes):
    """The Cole-Hopf grid size N for M modes."""
    return max(128, 8 * modes)


def _interleave(a, b):
    """Rows a_1, b_1, a_2, b_2, ... of two (M, ...) arrays."""
    return np.stack([a, b], axis=1).reshape((-1,) + a.shape[1:])


@dataclass(frozen=True)
class BurgersMap:
    """Time-one flow of du/dt = nu u_xx - u u_x on zero-mean circle modes.

    ``dt`` is validated (dt > 0) but not read: the flow is exact in time.
    """

    nu: float
    modes: int = 64
    dt: float = 1e-3
    _tables: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.nu <= 0 or self.modes < 1 or self.dt <= 0:
            raise ValueError("need nu > 0, modes >= 1, dt > 0")
        M, nu = self.modes, self.nu
        N = _grid(M)
        K = min(N // 2 - 1, int(np.sqrt(-np.log(np.finfo(float).eps) / nu)))
        j, k, g = np.arange(1, M + 1), np.arange(1, K + 1), np.arange(N)
        cj, sj = _trig(j, g, N)
        ck, sk = _trig(k, g, N)
        anti = 1.0 / ((2.0 * nu * ROOT_PI) * j[:, None])
        heat = (2.0 / N) * np.exp(-nu * k**2.0)[:, None]
        chunk = 8 * max(1, 10**6 // (16 * N * max(M, 2 * K + 1)))
        tables = {
            "F": _interleave(-anti * sj, anti * cj),
            "H": np.concatenate([np.full((1, N), 1.0 / N), heat * ck, heat * sk]).T.copy(),
            "S": np.block([[np.ones((1, N)), np.zeros((1, N))], [ck, -k[:, None] * sk], [sk, k[:, None] * ck]]),
            "B": (_interleave(cj, sj) * (-4.0 * np.pi * nu / (N * ROOT_PI))).T.copy(),
            "G": N,  # the grid size; perfbench/spans._burgers_sizes reads it
            "chunk": chunk,
            "synth": np.stack(_trig(j, np.arange(4 * M), 4 * M), axis=1).reshape(2 * M, 4 * M) / ROOT_PI,
        }
        object.__setattr__(self, "_tables", tables)

    @property
    def dim(self):
        return 2 * self.modes

    @property
    def steps_per_unit(self):
        return 1  # one exact solve per unit; perfbench/spans._burgers_sizes reads it

    # -- public surface -----------------------------------------------------

    def apply(self, u):
        return self.apply_batch(np.asarray(u, dtype=float)[None, :])[0]

    def apply_batch(self, U):
        U = np.asarray(U, dtype=float)
        if U.shape[-1] != self.dim:
            raise ValueError(f"state must have dimension {self.dim}")
        t = self._tables
        rows = U.reshape(-1, self.dim)
        n, N = rows.shape[0], t["G"]
        X = np.zeros((-(-n // 8) * 8, self.dim))
        X[:n] = rows
        for lo in range(0, n, t["chunk"]):
            Y = X[lo : lo + t["chunk"]] @ t["F"]
            Y -= Y.max(axis=1, keepdims=True)
            ok = Y.min(axis=1) >= -OSC_LIMIT  # NaN fails
            if not ok.all():
                row = lo + int(np.argmin(ok))
                raise FloatingPointError(
                    f"Burgers state in row {row} outside the Cole-Hopf domain: "
                    f"osc(U0)/(2 nu) = {-Y[row - lo].min():.6g} > {OSC_LIMIT:g}"
                )
            C = np.expm1(Y, out=Y) @ t["H"]
            C[:, 0] += 1.0
            P = C @ t["S"]
            np.divide(P[:, N:], P[:, :N], out=Y)
            X[lo : lo + t["chunk"]] = Y @ t["B"]
        return X[:n].reshape(U.shape)

    def physical(self, u):
        """Field values on the 4M grid (x_g = 2 pi g / (4M))."""
        return np.asarray(u, dtype=float) @ self._tables["synth"]

    def l1_norm(self, U):
        """L1(circle) norm by the periodic trapezoid rule on the 4M grid."""
        return (np.pi / (2 * self.modes)) * np.abs(self.physical(U)).sum(axis=-1)


def l1_circle_metric(map_):
    """Batched translation-invariant L1 metric for the subcontraction check."""

    def metric(U1, U2):
        return map_.l1_norm(np.asarray(U1) - np.asarray(U2))

    return metric


@dataclass(frozen=True)
class ToyDiagonalMap:
    """Diagonal linear map (optionally with a cutoff quadratic coupling).

    With q = 0 everything is exact: Lipschitz constant gamma_1, tail
    smoothing constant gamma_{N+1}, contraction iff gamma_1 < 1.
    """

    factors: np.ndarray
    q: float = 0.0
    cutoff_radius: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.factors, dtype=float)
        object.__setattr__(self, "factors", g)
        if g.ndim != 1 or g.size == 0 or np.any(g <= 0):
            raise ValueError("factors must be a nonempty vector of positive numbers")
        if np.any(np.diff(g) > 1e-12):
            raise ValueError("factors must be nonincreasing")

    @classmethod
    def geometric(cls, dim, base=0.7, ratio=0.8, **kw):
        return cls(factors=base * ratio ** np.arange(dim), **kw)

    @property
    def dim(self):
        return self.factors.shape[0]

    def apply(self, u):
        return self.apply_batch(np.asarray(u, dtype=float)[None, :])[0]

    def apply_batch(self, U):
        U = np.asarray(U, dtype=float)
        V = U * self.factors[None, :]
        if self.q != 0.0:
            # forward-neighbor product with a smooth cutoff: feeds every
            # coordinate from the next one, so tail perturbations reach the
            # leading block (the coupling cascade is nontrivial)
            cut = np.exp(-(np.linalg.norm(U, axis=-1, keepdims=True) / self.cutoff_radius) ** 2)
            quad = np.zeros_like(U)
            quad[..., :-1] = U[..., :-1] * U[..., 1:]
            V = V + self.q * cut * quad
        return V
