"""Concrete time-one maps: spectral Galerkin Burgers flow and a diagonal toy.

The Burgers map integrates the unforced viscous Burgers equation on the
circle over one time unit in a zero-mean Fourier truncation.  The state
vector interleaves cosine/sine coefficients in the orthonormal basis
``cos(jx)/sqrt(pi), sin(jx)/sqrt(pi)`` so that the Euclidean norm of the
vector equals the L2 norm of the field; kicks from :mod:`fklab.rds_core`
act directly on these coordinates.

Diffusion is integrated exactly through the ETDRK2 exponential factors; the
quadratic term is evaluated pseudo-spectrally on the smallest 2*3*5-smooth
FFT size G >= 3M+1 (200 points at M=64, 50 at M=16).  Zero padding to G > 3M
keeps every product mode 1..M free of aliases (the 3/2-rule for quadratic
nonlinearities).  ``physical()`` and the L1 norm use the 4M grid instead,
because the trapezoid rule for |u| is not exact and its grid is part of the
metric.  ``apply_batch`` integrates the rows in chunks whose working set
(``48M + 32(G/2+1) + 16G`` bytes per row) stays near 1 MiB, so the FFT
buffers of a chunk stay in the L2 cache; rows never interact, so every row
of a batch equals the one-row result bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy import fft as sfft

__all__ = ["BurgersMap", "ToyDiagonalMap", "l1_circle_metric"]


def _fast_len(n):
    """Smallest 2*3*5-smooth integer >= n (scipy's ``next_fast_len(n, real=True)``)."""
    e = range(n.bit_length() + 1)  # 2 ** e[-1] >= n bounds every exponent
    return min(m for m in (2**a * 3**b * 5**c for a in e for b in e for c in e) if m >= n)


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
        j = np.arange(1, self.modes + 1, dtype=float)
        z = -self.nu * j**2 * self.dt
        E = np.exp(z)
        phi1 = np.expm1(z) / z
        phi2 = (np.expm1(z) - z) / z**2
        M = self.modes
        G = _fast_len(3 * M + 1)
        row_bytes = 48 * M + 32 * (G // 2 + 1) + 16 * G
        tables = {
            "j": j,
            "E": E,
            "phi1dt": self.dt * phi1,
            "phi2dt": self.dt * phi2,
            "G": G,
            "G_phys": 4 * M,
            "chunk": max(1, 2**20 // row_bytes),
            "deriv": -0.5j * j,
        }
        object.__setattr__(self, "_tables", tables)

    @property
    def dim(self):
        return 2 * self.modes

    @property
    def steps_per_unit(self):
        return int(round(1.0 / self.dt))

    # -- representation helpers -------------------------------------------

    def _to_spectral(self, U):
        """Interleaved (.., 2M) real coefficients -> (.., M) complex modes
        zeta_j = (alpha_j - i beta_j) / (2 sqrt(pi))."""
        alpha = U[..., 0::2]
        beta = U[..., 1::2]
        return (alpha - 1j * beta) / (2.0 * np.sqrt(np.pi))

    def _from_spectral(self, Z):
        out = np.empty(Z.shape[:-1] + (2 * self.modes,))
        out[..., 0::2] = 2.0 * np.sqrt(np.pi) * Z.real
        out[..., 1::2] = -2.0 * np.sqrt(np.pi) * Z.imag
        return out

    def _grid_values(self, Z):
        """Field values of modes ``Z`` on the 4M grid."""
        G = self._tables["G_phys"]
        spec = np.zeros(Z.shape[:-1] + (G // 2 + 1,), dtype=complex)
        spec[..., 1 : self.modes + 1] = Z
        return sfft.irfft(spec, n=G, axis=-1, norm="forward")

    def _etdrk2(self, Z, first_row):
        """ETDRK2 over one time unit for the rows of one chunk.

        The padded spectrum is allocated once; each nonlinear evaluation
        N(zeta)_j = -(i j / 2) (u^2)_j writes only modes 1..M into it.
        """
        t = self._tables
        M, G = self.modes, t["G"]
        E, p1, p2, deriv = t["E"], t["phi1dt"], t["phi2dt"], t["deriv"]
        spec = np.zeros((Z.shape[0], G // 2 + 1), dtype=complex)

        def nonlinear(Z):
            spec[:, 1 : M + 1] = Z
            u = sfft.irfft(spec, n=G, axis=-1, norm="forward")
            return deriv * sfft.rfft(u * u, axis=-1, norm="forward")[:, 1 : M + 1]

        for step in range(self.steps_per_unit):
            N0 = nonlinear(Z)
            Za = E * Z + p1 * N0
            Z = Za + p2 * (nonlinear(Za) - N0)
            if step % 100 == 0:
                ok = np.abs(Z).max(axis=1) <= 1e6
                if not ok.all():
                    row = first_row + int(np.argmin(ok))
                    raise FloatingPointError(f"Burgers blow-up at inner step {step} in row {row}")
        return Z

    # -- public surface -----------------------------------------------------

    def apply(self, u):
        return self.apply_batch(np.asarray(u, dtype=float)[None, :])[0]

    def apply_batch(self, U):
        U = np.asarray(U, dtype=float)
        if U.shape[-1] != self.dim:
            raise ValueError(f"state must have dimension {self.dim}")
        Z = self._to_spectral(U.reshape(-1, self.dim))
        chunk = self._tables["chunk"]
        for lo in range(0, Z.shape[0], chunk):
            Z[lo : lo + chunk] = self._etdrk2(Z[lo : lo + chunk], lo)
        return self._from_spectral(Z).reshape(U.shape)

    def physical(self, u):
        """Field values on the 4M grid (x_g = 2 pi g / (4M))."""
        return self._grid_values(self._to_spectral(np.asarray(u, dtype=float)))

    def l1_norm(self, U):
        """L1(circle) norm by the periodic trapezoid rule on the 4M grid."""
        vals = self._grid_values(self._to_spectral(np.asarray(U, dtype=float)))
        G = self._tables["G_phys"]
        return (2.0 * np.pi / G) * np.abs(vals).sum(axis=-1)


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
