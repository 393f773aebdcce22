"""Energy, bilinear form, cubic nonlinearity and derivatives of a stacked
k-component field x (components one after the other) with a k x k coupling
B: F(x) = sum_ij B_ij x_i^2 x_j^2 / 4, [[mu]] for the scalar problem and
SystemParams.coupling for the system.  Every function here is called as
fn(g, taus, B, ...), the same for k = 1 and k = 2.

Conventions: the residual is the strong nodal form, so the energy pairing
I'(x)y equals quad_weight * <residual(x), y> with the plain nodal dot
product.  The Jacobian of the residual is a band matrix in node-major
order; the Hessian apply and quadratic form are matrix-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._opt import Band
from .grids import Grid, inner_grad, inner_l2, laplacian_apply, laplacian_band


def band_side(x: float, ref: float) -> int:
    """Sign of x - ref, or 0 when x lies within 1e-9 max(1, |ref|) of ref.

    The band decides resonance (tau against lambda1), whether beta sits on
    a threshold, and which fiber seed rule applies (fiber_seed_count), so
    that rounding does not pick the side.
    """
    if abs(x - ref) <= 1e-9 * max(1.0, abs(ref)):
        return 0
    return 1 if x > ref else -1


@dataclass(frozen=True)
class SystemParams:
    tau1: float
    tau2: float
    mu1: float
    mu2: float
    beta: float

    def __post_init__(self):
        if self.mu1 <= 0 or self.mu2 <= 0:
            raise ValueError("mu1, mu2 must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")

    @property
    def taus(self) -> tuple[float, float]:
        return (self.tau1, self.tau2)

    @property
    def coupling(self) -> np.ndarray:
        """B of F = sum_ij B_ij u_i^2 u_j^2 / 4."""
        return np.array([[self.mu1, self.beta], [self.beta, self.mu2]])


def nonlinearity(w: float, B, x: np.ndarray):
    """(int F(x), f(x)) of a stacked k-component field x, where F(x) =
    sum_ij B_ij x_i^2 x_j^2 / 4 and f = grad F, f_i(x) = x_i sum_j B_ij
    x_j^2; F is 4-homogeneous, so int F = w <f(x), x> / 4 (w the quadrature
    weight)."""
    X = x.reshape(len(B), -1)
    f = (X * (B @ (X * X))).ravel()
    return 0.25 * w * float(np.dot(f, x)), f


def j_form(g: Grid, taus, x: np.ndarray, y: np.ndarray) -> float:
    """J(x, y) = sum_i [<grad x_i, grad y_i> - tau_i <x_i, y_i>]."""
    X, Y = x.reshape(len(taus), -1), y.reshape(len(taus), -1)
    return sum(
        inner_grad(g, xi, yi) - tau * inner_l2(g, xi, yi) for tau, xi, yi in zip(taus, X, Y)
    )


def h1_norm(g: Grid, x: np.ndarray) -> float:
    """H1_0 norm of a stacked field: J's form with every tau 0."""
    return float(np.sqrt(j_form(g, (0.0,) * (x.size // g.node_count), x, x)))


def energy(g: Grid, taus, B, x: np.ndarray) -> float:
    """I(x) = J(x, x)/2 - int F(x)."""
    return 0.5 * j_form(g, taus, x, x) - nonlinearity(g.quad_weight, B, x)[0]


def residual(g: Grid, taus, B, x: np.ndarray) -> np.ndarray:
    """Strong nodal residual -Lap x_i - tau_i x_i - f_i(x)."""
    X = x.reshape(len(taus), -1)
    lap = np.stack([laplacian_apply(g, xi) for xi in X])
    return (lap - np.asarray(taus)[:, None] * X).ravel() - nonlinearity(g.quad_weight, B, x)[1]


def _nodal_blocks(taus, B, X: np.ndarray) -> np.ndarray:
    """tau + f'(x) node by node: block (i, j) is delta_ij (tau_i + S_i) +
    2 B_ij x_i x_j with S = B (x * x), for the k x n components X of x."""
    B = np.asarray(B, dtype=float)
    out = 2.0 * B[:, :, None] * (X[:, None, :] * X[None, :, :])
    blk = np.arange(len(X))
    out[blk, blk] += B @ (X * X) + np.asarray(taus)[:, None]
    return out


def jacobian(g: Grid, taus, B, x: np.ndarray) -> Band:
    """Jacobian of residual, kron(I_k, -Lap) minus the nodal blocks of tau +
    f'(x), as a node-major Band: -Lap is grids.laplacian_band (kl = k in 1D,
    k ny in 2D), block (i, j) of the others lies on the band diagonal i - j."""
    k = len(taus)
    lap = laplacian_band(g, k)
    blocks = _nodal_blocks(taus, B, x.reshape(k, -1))
    ab = np.array(lap.ab, order="F")
    for i in range(k):
        for j in range(k):
            ab[2 * lap.kl + i - j, j::k] -= blocks[i, j]  # entries (node k + i, node k + j)
    return Band(ab, lap.kl, k)


def hessian_apply(g: Grid, taus, B, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Strong nodal form of I''(w) z, matrix-free: per component
    -Lap z_i - tau_i z_i - sum_j f'_ij(w) z_j."""
    k = len(taus)
    Z = z.reshape(k, -1)
    lap = np.stack([laplacian_apply(g, zi) for zi in Z])
    return (lap - np.einsum("ijn,jn->in", _nodal_blocks(taus, B, w.reshape(k, -1)), Z)).ravel()


def hessian_quadform(g: Grid, taus, B, w: np.ndarray, z: np.ndarray) -> float:
    """<I''(w) z, z>."""
    return g.quad_weight * float(np.dot(z, hessian_apply(g, taus, B, w, z)))


def same_up_to_signs(x: np.ndarray, y: np.ndarray, k: int, tol: float) -> bool:
    """Whether the stacked k-component fields x and y agree up to the sign of
    each component: every component of x, against the better sign of that
    of y, within tol max(1, sup |y|) in sup norm."""
    X, Y = x.reshape(k, -1), y.reshape(k, -1)
    d = max(min(np.max(np.abs(xi - yi)), np.max(np.abs(xi + yi))) for xi, yi in zip(X, Y))
    return bool(d <= tol * max(1.0, np.max(np.abs(y))))
