"""Reference values computed by the benchmark itself, without nlss.

At resonance (tau = lambda1, the principal Dirichlet eigenvalue) the
degenerate space is span(phi1), and the least scalar level is

    c = S^2 / (4 mu),  S = inf over u in H+ of Q(u) / min_k ||u + k phi1||_4^2,

with Q(u) = ||grad u||^2 - lambda1 ||u||^2: maximizing the energy over the
fiber {t u + s phi1} in closed form leaves this reduced Nehari-Pankov
quotient.  It is minimized here directly by L-BFGS over nodal fields
orthogonal to phi1, on the same finite-difference grid as the program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize


def _stencil(shape, h, u):
    """Finite-difference -Laplacian with zero Dirichlet data."""
    v = u.reshape(shape)
    out = np.zeros_like(v)
    for axis, hx in enumerate(h):
        out += 2.0 * v / hx**2
        lo = [slice(None)] * v.ndim
        hi = [slice(None)] * v.ndim
        lo[axis], hi[axis] = slice(1, None), slice(None, -1)
        out[tuple(lo)] -= v[tuple(hi)] / hx**2
        out[tuple(hi)] -= v[tuple(lo)] / hx**2
    return out.ravel()


class ResonantQuotient:
    """The reduced quotient on a box with n interior nodes per axis."""

    def __init__(self, lengths, n):
        self.shape = tuple(n for _ in lengths)
        self.h = tuple(L / (n + 1) for L in lengths)
        self.w = float(np.prod(self.h))
        axes = [np.sin(np.arange(1, n + 1) * math.pi / (n + 1)) for _ in lengths]
        phi = axes[0]
        for a in axes[1:]:
            phi = np.outer(phi, a).ravel()
        self.phi1 = phi / math.sqrt(self.w * float(phi @ phi))
        self.lambda1 = sum(
            (2.0 - 2.0 * math.cos(math.pi / (n + 1))) / hx**2 for hx in self.h
        )

    def _perp(self, u):
        return u - (self.w * float(self.phi1 @ u)) * self.phi1

    def _shift(self, u):
        """argmin over k of int (u + k phi1)^4, the single real root of an
        increasing cubic, polished by Newton steps."""
        p = self.phi1
        c = [np.sum(p**4), 3.0 * np.sum(u * p**3), 3.0 * np.sum(u**2 * p**2), np.sum(u**3 * p)]
        roots = np.roots(c)
        k = float(roots[np.argmin(np.abs(roots.imag))].real)
        for _ in range(2):
            k -= np.polyval(c, k) / np.polyval(np.polyder(c), k)
        return k

    def value_grad(self, u):
        u = self._perp(u)
        lu = _stencil(self.shape, self.h, u) - self.lambda1 * u
        q = self.w * float(u @ lu)
        x = u + self._shift(u) * self.phi1
        n4 = self.w * float(np.sum(x**4))
        val = q / math.sqrt(n4)
        grad = (2.0 * self.w * lu) / math.sqrt(n4) - 0.5 * q * n4**-1.5 * (
            4.0 * self.w * x**3
        )
        return val, self._perp(grad)

    def minimize(self, starts=6):
        """Smallest quotient over L-BFGS runs from fixed random starts."""
        rng = np.random.default_rng(0)
        best = math.inf
        for _ in range(starts):
            res = minimize(
                self.value_grad, rng.standard_normal(self.phi1.size), jac=True,
                method="L-BFGS-B", options={"maxiter": 5000, "gtol": 1e-12, "ftol": 1e-15},
            )
            best = min(best, float(res.fun))
        return best


def h_inf_grid(mu1, mu2, beta, points=200001):
    """inf of h(t1, t2) = (t1^2 + t2^2) / sqrt(mu1 t1^4 + mu2 t2^4 + 2 beta t1^2 t2^2)
    over a fine grid of amplitude angles in [0, pi/2]."""
    th = np.linspace(0.0, 0.5 * math.pi, points)
    c2, s2 = np.cos(th) ** 2, np.sin(th) ** 2
    return float(np.min(1.0 / np.sqrt(mu1 * c2**2 + mu2 * s2**2 + 2.0 * beta * c2 * s2)))
