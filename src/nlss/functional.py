"""System energy, bilinear form, cubic nonlinearity and derivatives.

Conventions: the residual is the strong nodal form, so the energy pairing
I'(u)v equals quad_weight * <residual(u), v> with the plain nodal dot
product.  The Hessian is exposed as a quadratic/bilinear form and as a
nodal apply.  The full Newton works on stacked k-component fields with a
k x k coupling B (F = sum_ij B_ij x_i^2 x_j^2 / 4; [[mu]] for the scalar
problem, SystemParams.coupling for the system): stacked_residual, and
stacked_jacobian, which fills the fixed sparse pattern of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, laplacian_apply, stacked_pattern
from .spectral import SpaceSplit, Spectrum, project


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


@dataclass(frozen=True)
class Pair:
    """Two-component nodal field on a shared grid."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        if self.u1.shape != self.u2.shape:
            raise ValueError("components must share one grid")

    def stack(self) -> np.ndarray:
        return np.concatenate([self.u1, self.u2])

    @staticmethod
    def from_stack(x: np.ndarray) -> "Pair":
        n = x.size // 2
        return Pair(x[:n].copy(), x[n:].copy())

    @staticmethod
    def zero(g: Grid) -> "Pair":
        return Pair(np.zeros(g.node_count), np.zeros(g.node_count))

    def __add__(self, other):
        return Pair(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other):
        return Pair(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, t: float):
        return Pair(t * self.u1, t * self.u2)

    __rmul__ = __mul__

    def __neg__(self):
        return Pair(-self.u1, -self.u2)


@dataclass(frozen=True)
class PairSplit:
    """Per-component tau-relative splits for a two-component field."""

    s1: SpaceSplit
    s2: SpaceSplit

    @property
    def tilde_dim(self) -> int:
        return self.s1.tilde_dim + self.s2.tilde_dim


def pair_norm(g: Grid, u: Pair) -> float:
    """H1_0 product norm of the pair."""
    from .grids import inner_grad

    return float(np.sqrt(inner_grad(g, u.u1, u.u1) + inner_grad(g, u.u2, u.u2)))


def project_pair(ps: PairSplit, s: Spectrum, u: Pair, which: str) -> Pair:
    return Pair(project(ps.s1, s, u.u1, which), project(ps.s2, s, u.u2, which))


def j_form(p: SystemParams, g: Grid, u: Pair, v: Pair) -> float:
    """J(u,v) = sum_i [<grad u_i, grad v_i> - tau_i <u_i, v_i>]."""
    from .grids import inner_grad, inner_l2

    return (
        inner_grad(g, u.u1, v.u1)
        - p.tau1 * inner_l2(g, u.u1, v.u1)
        + inner_grad(g, u.u2, v.u2)
        - p.tau2 * inner_l2(g, u.u2, v.u2)
    )


def f_density(p: SystemParams, u: Pair) -> Pair:
    """Nodewise gradient of F: (mu1 u1^3 + beta u1 u2^2, mu2 u2^3 + beta u1^2 u2)."""
    return Pair(
        p.mu1 * u.u1**3 + p.beta * u.u1 * u.u2**2,
        p.mu2 * u.u2**3 + p.beta * u.u1**2 * u.u2,
    )


def big_f(p: SystemParams, g: Grid, u: Pair) -> float:
    """Integral of F(u) = (mu1 u1^4 + mu2 u2^4 + 2 beta u1^2 u2^2)/4."""
    dens = 0.25 * (
        p.mu1 * u.u1**4 + p.mu2 * u.u2**4 + 2.0 * p.beta * u.u1**2 * u.u2**2
    )
    return float(g.quad_weight * np.sum(dens))


def energy(p: SystemParams, g: Grid, u: Pair) -> float:
    return 0.5 * j_form(p, g, u, u) - big_f(p, g, u)


def stacked_residual(g: Grid, taus, B: np.ndarray, x: np.ndarray) -> np.ndarray:
    """-Lap x_i - tau_i x_i - f_i(x) of a stacked k-component field, where
    f_i(x) = x_i sum_j B_ij x_j^2."""
    X = x.reshape(len(taus), -1)
    lap = np.stack([laplacian_apply(g, xi) for xi in X])
    return (lap - np.asarray(taus)[:, None] * X - X * (B @ (X * X))).ravel()


def stacked_jacobian(g: Grid, taus, B: np.ndarray, x: np.ndarray):
    """Sparse Jacobian of stacked_residual: kron(I_k, -Lap) - diag(tau)
    minus f'(x), whose block (i, j) is diag(delta_ij S_i + 2 B_ij x_i x_j)
    with S = B (x * x).  Fills the pattern of grids.stacked_pattern."""
    k = len(taus)
    X = x.reshape(k, -1)
    pat = stacked_pattern(g, k)
    fprime = 2.0 * B[:, :, None] * (X[:, None, :] * X[None, :, :])
    blk = np.arange(k)
    fprime[blk, blk] += B @ (X * X) + np.asarray(taus)[:, None]
    data = pat.lap.copy()
    data[pat.diag] -= fprime
    return pat.matrix(data)


def same_up_to_signs(x: np.ndarray, y: np.ndarray, k: int, tol: float) -> bool:
    """Whether the stacked k-component fields x and y agree up to the sign of
    each component: every component of x, against the better sign of that
    of y, within tol max(1, sup |y|) in sup norm."""
    X, Y = x.reshape(k, -1), y.reshape(k, -1)
    d = max(min(np.max(np.abs(xi - yi)), np.max(np.abs(xi + yi))) for xi, yi in zip(X, Y))
    return bool(d <= tol * max(1.0, np.max(np.abs(y))))


def residual(p: SystemParams, g: Grid, u: Pair) -> Pair:
    """Strong nodal residual (-Lap u_i - tau_i u_i - f_i(u))."""
    return Pair.from_stack(stacked_residual(g, p.taus, p.coupling, u.stack()))


def grad_pairing(g: Grid, r: Pair, v: Pair) -> float:
    """I'(u)v given the strong residual r = residual(u)."""
    return float(g.quad_weight * (np.dot(r.u1, v.u1) + np.dot(r.u2, v.u2)))


def hessian_bilinear(p: SystemParams, g: Grid, w: Pair, z: Pair, y: Pair) -> float:
    """<I''(w) z, y>."""
    cubic = (
        3.0 * p.mu1 * w.u1**2 * z.u1 * y.u1
        + 3.0 * p.mu2 * w.u2**2 * z.u2 * y.u2
        + p.beta
        * (
            w.u2**2 * z.u1 * y.u1
            + w.u1**2 * z.u2 * y.u2
            + 2.0 * w.u1 * w.u2 * (z.u1 * y.u2 + z.u2 * y.u1)
        )
    )
    return j_form(p, g, z, y) - float(g.quad_weight * np.sum(cubic))


def hessian_quadform(p: SystemParams, g: Grid, w: Pair, z: Pair) -> float:
    """<I''(w) z, z>."""
    return hessian_bilinear(p, g, w, z, z)


def hessian_apply(p: SystemParams, g: Grid, w: Pair, z: Pair) -> Pair:
    """Strong nodal form of I''(w) z (Jacobian apply for Newton)."""
    a1 = (
        laplacian_apply(g, z.u1)
        - p.tau1 * z.u1
        - (3.0 * p.mu1 * w.u1**2 + p.beta * w.u2**2) * z.u1
        - 2.0 * p.beta * w.u1 * w.u2 * z.u2
    )
    a2 = (
        laplacian_apply(g, z.u2)
        - p.tau2 * z.u2
        - (3.0 * p.mu2 * w.u2**2 + p.beta * w.u1**2) * z.u2
        - 2.0 * p.beta * w.u1 * w.u2 * z.u1
    )
    return Pair(a1, a2)
