"""Uniform Dirichlet grids on intervals and rectangles.

Boundary nodes are excluded; a field stores interior nodal values only and
is implicitly zero on the boundary.  All integrals use the nodal (mass
lumped) quadrature with a single uniform weight, so the discrete mass
matrix is a multiple of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._opt import Band


@dataclass(frozen=True)
class DomainSpec:
    """Interval (0, L) or rectangle (0, Lx) x (0, Ly), n interior points per axis."""

    kind: str
    lengths: tuple[float, ...]
    n: int

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        ndim = 1 if self.kind == "interval" else 2
        lengths = tuple(float(x) for x in self.lengths)
        if len(lengths) != ndim:
            raise ValueError(f"lengths: kind {self.kind} needs {ndim}, got {len(lengths)}")
        if any(x <= 0 for x in lengths):
            raise ValueError("lengths must be positive")
        if self.n < 3:
            raise ValueError("n must be >= 3 interior points per axis")
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class Grid:
    domain: DomainSpec
    h: tuple[float, ...]
    shape: tuple[int, ...]
    node_count: int
    quad_weight: float

    @property
    def ndim(self):
        return len(self.shape)

    def coords(self):
        """Interior node coordinates, one flat array per axis."""
        axes = [
            (np.arange(1, m + 1) * hx) for m, hx in zip(self.shape, self.h)
        ]
        if self.ndim == 1:
            return (axes[0],)
        x, y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return x.ravel(), y.ravel()


def build_grid(spec: DomainSpec) -> Grid:
    n = spec.n
    h = tuple(L / (n + 1) for L in spec.lengths)
    shape = tuple(n for _ in spec.lengths)
    node_count = int(np.prod(shape))
    quad_weight = float(np.prod(h))
    return Grid(spec, h, shape, node_count, quad_weight)


def _check(g: Grid, u: np.ndarray):
    if u.shape != (g.node_count,):
        raise ValueError(f"field shape {u.shape} does not match grid ({g.node_count},)")


def laplacian_apply(g: Grid, u: np.ndarray) -> np.ndarray:
    """Second-order centered -Laplacian with zero Dirichlet boundary."""
    _check(g, u)
    if g.ndim == 1:
        h2 = g.h[0] ** 2
        out = 2.0 * u
        out[1:] -= u[:-1]
        out[:-1] -= u[1:]
        return out / h2
    v = u.reshape(g.shape)
    hx2, hy2 = g.h[0] ** 2, g.h[1] ** 2
    out = (2.0 / hx2 + 2.0 / hy2) * v
    out[1:, :] -= v[:-1, :] / hx2
    out[:-1, :] -= v[1:, :] / hx2
    out[:, 1:] -= v[:, :-1] / hy2
    out[:, :-1] -= v[:, 1:] / hy2
    return out.ravel()


@lru_cache(maxsize=8)
def laplacian_matrix(g: Grid) -> np.ndarray:
    """Dense matrix of the discrete -Laplacian (symmetric positive definite),
    assembled column by column from laplacian_apply.  It is the dense
    oracle only: the dense eigensolver check of nlss.spectral and the
    tests use it; the solvers use laplacian_apply and laplacian_band."""
    n = g.node_count
    A = np.zeros((n, n))
    eye = np.eye(n)
    for k in range(n):
        A[:, k] = laplacian_apply(g, eye[:, k].copy())
    return A


@lru_cache(maxsize=8)
def laplacian_band(g: Grid, k: int) -> Band:
    """kron(-Lap_h, I_k) on node-major k-component fields (index node k +
    component) as a read-only Band, kl = ku = k s with s = 1 in 1D and ny
    in 2D (flat index ix ny + iy, as in laplacian_apply); once per (g, k)."""
    strides = np.cumprod((1,) + g.shape[:0:-1])[::-1]  # of the flat index, per axis
    kl = k * int(strides[0])
    node = np.repeat(np.arange(g.node_count), k)
    ab = np.zeros((3 * kl + 1, k * g.node_count), order="F")
    for m, hx, st in zip(g.shape, g.h, strides):
        pos = (node // st) % m  # position of each column's node on this axis
        ab[2 * kl] += 2.0 / hx**2
        # the previous and the next node on the axis, none across a line end
        ab[2 * kl - k * st] = np.where(pos > 0, -1.0 / hx**2, 0.0)
        ab[2 * kl + k * st] = np.where(pos < m - 1, -1.0 / hx**2, 0.0)
    ab.flags.writeable = False
    return Band(ab, kl, k)


def inner_grad(g: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Discrete <grad u, grad v> = quad_weight * v^T (-Lap u)."""
    _check(g, u)
    _check(g, v)
    return float(g.quad_weight * np.dot(v, laplacian_apply(g, u)))


def inner_l2(g: Grid, u: np.ndarray, v: np.ndarray) -> float:
    _check(g, u)
    _check(g, v)
    return float(g.quad_weight * np.dot(u, v))


def norm_lp(g: Grid, u: np.ndarray, p: int) -> float:
    _check(g, u)
    if p not in (2, 4):
        raise ValueError(f"unsupported p={p}, expected 2 or 4")
    return float((g.quad_weight * np.sum(np.abs(u) ** p)) ** (1.0 / p))
