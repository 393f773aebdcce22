"""System energy, bilinear form, cubic nonlinearity and derivatives.

Conventions: the residual is the strong nodal form, so the energy pairing
I'(u)v equals quad_weight * <residual(u), v> with the plain nodal dot
product.  The Hessian is exposed as a quadratic/bilinear form and as a
nodal apply; no dense Hessian is assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, laplacian_apply
from .spectral import SpaceSplit, Spectrum, project


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


def residual(p: SystemParams, g: Grid, u: Pair) -> Pair:
    """Strong nodal residual (-Lap u_i - tau_i u_i - f_i(u))."""
    f = f_density(p, u)
    return Pair(
        laplacian_apply(g, u.u1) - p.tau1 * u.u1 - f.u1,
        laplacian_apply(g, u.u2) - p.tau2 * u.u2 - f.u2,
    )


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
