"""Eigen-decomposition of the discrete Dirichlet Laplacian, eigenvalues in
ascending order: nlss.fiber.fiber_chart relies on that order to read each
tau-relative split H = H+ (+) Htilde as two column ranges of the
eigenvector matrix.

On intervals and rectangles the full spectrum is available in closed form
from the tensor-product sine modes; a dense symmetric eigensolver is kept
as an independent cross-validation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import Grid, laplacian_matrix


@dataclass(frozen=True)
class Spectrum:
    """Full spectrum of the discrete -Laplacian, ascending eigenvalues.

    Eigenvector columns are orthonormal in the nodal L2 inner product.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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
    if g.ndim == 1:  # the sine modes already ascend
        return Spectrum(g, *_modes_1d(g.shape[0], g.h[0]))
    lx, Vx = _modes_1d(g.shape[0], g.h[0])
    ly, Vy = _modes_1d(g.shape[1], g.h[1])
    lam2 = (lx[:, None] + ly[None, :]).ravel()
    order = np.argsort(lam2, kind="stable")
    kx, ky = np.divmod(order, g.shape[1])
    # column pos is the outer product of modes kx[pos] and ky[pos], raveled
    V = np.multiply(Vx[:, None, kx], Vy[None, :, ky], order="C").reshape(g.node_count, -1)
    return Spectrum(g, lam2[order], V)


@lru_cache(maxsize=32)
def get_spectrum(g: Grid) -> Spectrum:
    """Analytic spectrum, computed once per grid."""
    return eigendecompose(g)

