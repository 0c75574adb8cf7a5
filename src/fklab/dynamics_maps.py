"""Concrete time-one maps: spectral Galerkin Burgers flow and a diagonal toy.

The Burgers map integrates the unforced viscous Burgers equation on the
circle over one time unit in a zero-mean Fourier truncation.  The state
vector interleaves cosine/sine coefficients in the orthonormal basis
``cos(jx)/sqrt(pi), sin(jx)/sqrt(pi)`` so that the Euclidean norm of the
vector equals the L2 norm of the field; kicks from :mod:`fklab.rds_core`
act directly on these coordinates.

``apply_batch`` integrates the stack ``[alpha; beta]`` of cosine and sine
coefficients in real arithmetic, with no FFT: diffusion exactly through the
ETDRK2 factors, the quadratic term on the odd grid G = 3M+1 (3M+2 for odd
M), alias-free since G > 3M.  With [c; s] = X @ F, one stacked product
against F = [C; S], u is c_g + s_g at x_g and c_g - s_g at x_{G-g}, so
N = h(X) @ [Da; Db] with h(X) = [c s; c^2 + s^2] over the half grid
g = 0..(G-1)/2.  The backward transform is linear, so the diagonal factors
phi_1 dt and phi_2 dt live in its tables, B1 = [Da; Db] diag(phi_1 dt) and
B2 = [Da; Db] diag(phi_2 dt), and a step is four stacked products.
``physical()`` and the L1 norm use the 4M grid, part of the metric, as one
synthesis product.  Chunks of ``8 * max(1, min(2**17 // (64M + 24H),
10**6 // (8MH)))`` rows (H = (G+1)/2) and zero padding of every batch to a
multiple of 8 rows let BLAS see only multiples of 8 rows, and no product
passes 10^6 multiply-adds, above which OpenBLAS on AVX-512 rounded a full
chunk unlike an 8-row call (most likely the size limit of its small-matrix
kernel); every table is C-contiguous, as an F-ordered one gave the same
fault.  So every row of a batch equals the one-row result bitwise (tested
across a chunk boundary for M = 16 to 128).  Each chunk reads E tiled to
(2, chunk, M), sliced to the chunk's rows, so that it multiplies the state
in one contiguous pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BurgersMap", "ToyDiagonalMap", "l1_circle_metric"]

ROOT_PI = np.sqrt(np.pi)
BLOWUP_SQ = (2.0 * ROOT_PI * 1e6) ** 2  # alpha^2 + beta^2 bound: |zeta_j| <= 1e6


def _trig(j, g, n):
    """cos and sin of 2 pi j g / n over the outer grid of ``j`` and ``g``,
    with j g reduced mod n first."""
    x = (2.0 * np.pi / n) * (np.outer(j, g) % n)
    return np.cos(x), np.sin(x)


@dataclass(frozen=True)
class BurgersMap:
    """Time-one flow of du/dt = nu u_xx - u u_x on zero-mean circle modes."""

    nu: float
    modes: int = 64
    dt: float = 1e-3
    _tables: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.nu <= 0 or self.modes < 1 or self.dt <= 0:
            raise ValueError("need nu > 0, modes >= 1, dt > 0")
        M = self.modes
        j = np.arange(1, M + 1)
        z = -self.nu * j**2.0 * self.dt
        G = 3 * M + 1 + M % 2
        H = (G + 1) // 2
        cos, sin = _trig(j, np.arange(H), G)
        w = np.r_[1.0, np.full(H - 1, 2.0)]
        jG = j * ROOT_PI / G
        chunk = 8 * max(1, min(2**17 // (64 * M + 24 * H), 10**6 // (8 * M * H)))
        # [Da; Db] as C-ordered (H, M) slabs; the row contract needs C order
        D = np.stack([-4.0 * jG[:, None] * sin, jG[:, None] * w * cos]).transpose(0, 2, 1).copy()
        tables = {
            "E": np.tile(np.exp(z), (2, chunk, 1)),
            "F": np.stack([cos, sin]) / ROOT_PI,
            "B1": D * (self.dt * np.expm1(z) / z),
            "B2": D * (self.dt * (np.expm1(z) - z) / z**2),
            "G": G,
            "chunk": chunk,
            "synth": np.stack(_trig(j, np.arange(4 * M), 4 * M), axis=1).reshape(2 * M, 4 * M) / ROOT_PI,
        }
        object.__setattr__(self, "_tables", tables)

    @property
    def dim(self):
        return 2 * self.modes

    @property
    def steps_per_unit(self):
        return int(round(1.0 / self.dt))

    def _etdrk2(self, X, first_row):
        """ETDRK2 over one time unit, in place, for the ``[alpha; beta]``
        stack of one chunk.  With h(X) = [c s; c^2 + s^2] for [c; s] = X @ F,
        a step is Xa = E X + h(X) @ B1, X' = Xa + (h(Xa) - h(X)) @ B2.  The
        buffers are allocated once per chunk."""
        t = self._tables
        E, F, B1, B2 = t["E"][:, : X.shape[1]], t["F"], t["B1"], t["B2"]
        Y, h0, h1 = np.empty((3, 2, X.shape[1], F.shape[2]))
        Xa, P = np.empty((2,) + X.shape)
        c, s = Y

        def h(X, out):
            np.matmul(X, F, out=Y)
            np.multiply(c, s, out=out[0])
            np.square(Y, out=Y)
            np.add(c, s, out=out[1])
            return out

        for step in range(self.steps_per_unit):
            np.multiply(E, X, out=Xa)
            Xa += np.matmul(h(X, h0), B1, out=P)
            h(Xa, h1)
            h1 -= h0
            np.add(Xa, np.matmul(h1, B2, out=P), out=X)
            if step % 100 == 0:
                ok = (X[0] ** 2 + X[1] ** 2).max(axis=1) <= BLOWUP_SQ  # NaN fails
                if not ok.all():
                    row = first_row + int(np.argmin(ok))
                    raise FloatingPointError(f"Burgers blow-up at inner step {step} in row {row}")

    # -- public surface -----------------------------------------------------

    def apply(self, u):
        return self.apply_batch(np.asarray(u, dtype=float)[None, :])[0]

    def apply_batch(self, U):
        U = np.asarray(U, dtype=float)
        if U.shape[-1] != self.dim:
            raise ValueError(f"state must have dimension {self.dim}")
        rows = U.reshape(-1, self.dim)
        n, M, chunk = rows.shape[0], self.modes, self._tables["chunk"]
        X = np.zeros((2, -(-n // 8) * 8, M))
        X[:, :n] = rows.reshape(n, M, 2).transpose(2, 0, 1)
        for lo in range(0, n, chunk):
            self._etdrk2(X[:, lo : lo + chunk], lo)
        return X[:, :n].transpose(1, 2, 0).reshape(U.shape)

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
