"""Eigen-decomposition of the discrete Dirichlet Laplacian and tau-relative
orthogonal splittings H = H+ (+) H0 (+) H- with projectors.

On intervals and rectangles the full spectrum is available in closed form
from the tensor-product sine modes; a dense symmetric eigensolver is kept
as an independent cross-validation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import Grid, _check, laplacian_matrix


@dataclass(frozen=True)
class Spectrum:
    """Full spectrum of the discrete -Laplacian, ascending eigenvalues.

    Eigenvector columns are orthonormal in the nodal L2 inner product.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def count(self):
        return self.eigenvalues.size

    def phi1(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    def lambda1(self) -> float:
        return float(self.eigenvalues[0])


def _modes_1d(n: int, h: float):
    k = np.arange(1, n + 1)
    lam = (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / h**2
    j = np.arange(1, n + 1)
    V = np.sin(np.outer(j, k) * np.pi / (n + 1))
    # sum_j sin^2(jk pi/(n+1)) = (n+1)/2
    V /= np.sqrt(h * (n + 1) / 2.0)
    return lam, V


def eigendecompose(g: Grid, method: str = "analytic") -> Spectrum:
    """Full eigenpairs of the discrete Dirichlet -Laplacian.

    method="analytic" uses the closed-form sine modes (tensor products in
    2D); method="dense" runs a dense symmetric eigensolver on the assembled
    matrix, as an independent check of the analytic path.
    """
    if method == "dense":
        A = laplacian_matrix(g)
        lam, V = np.linalg.eigh(A)
        V = V / np.sqrt(g.quad_weight)
        return Spectrum(g, lam, V)
    if method != "analytic":
        raise ValueError(f"unknown method {method!r}")
    if g.ndim == 1:
        lam, V = _modes_1d(g.shape[0], g.h[0])
        order = np.argsort(lam, kind="stable")
        return Spectrum(g, lam[order], V[:, order])
    lx, Vx = _modes_1d(g.shape[0], g.h[0])
    ly, Vy = _modes_1d(g.shape[1], g.h[1])
    lam2 = (lx[:, None] + ly[None, :]).ravel()
    order = np.argsort(lam2, kind="stable")
    kx, ky = np.divmod(order, g.shape[1])
    # column pos is the outer product of modes kx[pos] and ky[pos], raveled
    V = np.multiply(Vx[:, None, kx], Vy[None, :, ky], order="C").reshape(g.node_count, -1)
    return Spectrum(g, lam2[order], V)


@lru_cache(maxsize=32)
def _cached_spectrum(g: Grid) -> Spectrum:
    return eigendecompose(g)


def get_spectrum(g: Grid) -> Spectrum:
    """Analytic spectrum, computed once per grid."""
    return _cached_spectrum(g)


@dataclass(frozen=True)
class SpaceSplit:
    """tau-relative index sets into a Spectrum: H+, H0, H-."""

    tau: float
    plus_idx: tuple[int, ...]
    zero_idx: tuple[int, ...]
    minus_idx: tuple[int, ...]

    @property
    def tilde_idx(self) -> tuple[int, ...]:
        return tuple(sorted(self.zero_idx + self.minus_idx))

    @property
    def degenerate(self) -> bool:
        return len(self.zero_idx) > 0

    @property
    def tilde_dim(self) -> int:
        return len(self.zero_idx) + len(self.minus_idx)


def split_space(s: Spectrum, tau: float) -> SpaceSplit:
    """The H+, H0 and H- index sets of tau.  H0 holds the eigenvalues within
    1e-9 max(1, |tau|) of tau, the band of functional.band_side."""
    lam = s.eigenvalues
    zero = np.abs(lam - tau) <= 1e-9 * max(1.0, abs(tau))
    minus = (lam < tau) & ~zero
    plus = ~zero & ~minus
    idx = np.arange(s.count)
    return SpaceSplit(
        float(tau),
        tuple(idx[plus].tolist()),
        tuple(idx[zero].tolist()),
        tuple(idx[minus].tolist()),
    )


_WHICH = ("plus", "zero", "minus", "tilde")


def project(split: SpaceSplit, s: Spectrum, u: np.ndarray, which: str) -> np.ndarray:
    """L2-orthogonal projection onto the selected eigenspace span."""
    _check(s.grid, u)
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}")
    idx = {
        "plus": split.plus_idx,
        "zero": split.zero_idx,
        "minus": split.minus_idx,
        "tilde": split.tilde_idx,
    }[which]
    if not idx:
        return np.zeros_like(u)
    V = s.eigenvectors[:, list(idx)]
    return V @ (s.grid.quad_weight * (V.T @ u))


def plus_gap(split: SpaceSplit, s: Spectrum) -> float:
    """min over H+ modes of (lambda_k - tau); positive definiteness gap."""
    if not split.plus_idx:
        return 0.0
    return float(np.min(s.eigenvalues[list(split.plus_idx)] - split.tau))
