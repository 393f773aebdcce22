"""The generalized-Nehari (Nehari-Pankov) reduction, written once for k
components: maximize the energy over each fiber R+ u (+) Htilde, and
return the reduced value psi(a) = max over the fiber of u = Vp a together
with its gradient in a.  The scalar ground state is the k = 1 case
(coupling [[mu]]), the system the k = 2 case ([[mu1, beta], [beta, mu2]]).

Fields are stacked nodal arrays, component after component.  The chart is
built once per spectrum and tau vector from the Laplacian eigenvectors:
each component's H+ basis is a view of its eigenvector columns above tau
(Vp, their block diagonal, is never formed: plus_field applies it), and
Vt holds the few Htilde columns, block-diagonal, with lambda - tau on
each.  Its quadratic part is therefore exactly diag(a.metric.a, lambda -
tau on Htilde), and the fiber Newton applies no Laplacian; its quartic
part is a moment tensor built once per fiber (_fiber_functions), so no
Newton step touches a nodal field either; one contraction of it gives the
value, gradient and Hessian at an ascent point.  A warm start (the
maximizer of a nearby fiber) is first moved to the top of its own ray
(_ray_scale): the scale of the fiber maximum changes by orders of
magnitude between directions, and Newton on a quartic far out only shrinks
it by 2/3 per step.  Since the energy is even, t may range over all of R
during the ascent and the result is reflected back to t >= 0.

The chart is also the one place where the tau-relative split H = H+ (+)
Htilde enters: fiber_chart takes one tau per component and splits the
spectrum itself.  The chart keeps those taus and the coupling, so the
scalar and system solvers, the membership tests and beta_hat read the
problem from the chart they are given.

fiber_maximize is the one fiber maximizer: the reduced descents (through
reduced_psi, psi itself) and the N' check (in_nehari_prime) call it.  Also
here: the membership tests for the Nehari-Pankov set N and the
fiber-maximal set N'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from ._opt import newton_max_subspace
from .functional import band_side, energy, h1_norm, nonlinearity, residual
from .grids import Grid
from .options import SolverOptions
from .spectral import Spectrum


@dataclass(frozen=True)
class FiberChart:
    """Stacked coefficient chart of a k-component field.

    plus: each component's H+ basis, a view of its eigenvector columns
    above tau; Vt: block-diagonal eigenvector columns spanning Htilde;
    metric, qt: lambda - tau on H+ and on Htilde, component after
    component; taus: one tau per component; B: the k x k coupling of F(x) =
    sum_ij B_ij x_i^2 x_j^2 / 4; w: the quadrature weight.  The columns are
    L2-orthonormal: |w Vt^T x| is the L2 norm of the Htilde part of x.
    """

    plus: tuple[np.ndarray, ...]
    Vt: np.ndarray
    metric: np.ndarray
    qt: np.ndarray
    taus: tuple[float, ...]
    B: np.ndarray
    w: float

    def plus_field(self, a: np.ndarray) -> np.ndarray:
        """The stacked field Vp a of H+ coefficients a (component i's are the
        next plus[i].shape[1] entries of a)."""
        ends = accumulate(P.shape[1] for P in self.plus)
        return np.concatenate([P @ a[e - P.shape[1]:e] for P, e in zip(self.plus, ends)])

    def plus_coeffs(self, x: np.ndarray) -> np.ndarray:
        """Coefficients a of the H+ projection Vp a of a stacked field."""
        comps = x.reshape(len(self.plus), -1)
        return self.w * np.concatenate([P.T @ xi for P, xi in zip(self.plus, comps)])

    def random_direction(self, rng) -> np.ndarray:
        """Random H+ coefficients, coefficient k standard normal over the
        -Lap eigenvalue lambda_k of its column (metric plus its component's
        tau): white noise puts almost all the metric weight on grid-scale
        modes, and lambda_k - tau vanishes near resonance."""
        lam = self.metric + np.repeat(self.taus, [P.shape[1] for P in self.plus])
        return rng.standard_normal(lam.size) / lam

    def span(self, a: np.ndarray) -> np.ndarray:
        """D = [Vp a, Vt]: the fiber of a in (t, c) coordinates."""
        return np.column_stack([self.plus_field(a), self.Vt])

    def quad(self, a: np.ndarray) -> np.ndarray:
        """Diagonal of the quadratic form w D^T (A - tau) D (D = span(a))."""
        return np.concatenate([[np.dot(a, self.metric * a)], self.qt])

    def point(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        return z[0] * self.plus_field(a) + self.Vt @ z[1:]

    def nonlinearity(self, x: np.ndarray):
        """(int F(x), f(x)) for a stacked field x."""
        return nonlinearity(self.w, self.B, x)

    def coords(self, x: np.ndarray):
        """(a, z) with x = point(a, z): a the H+ direction of x, unit in the
        metric, and z = (t, Htilde coefficients)."""
        a = self.plus_coeffs(x)
        t = np.sqrt(float(np.dot(a, self.metric * a)))
        return a / t, np.concatenate([[t], self.w * (self.Vt.T @ x)])


def fiber_chart(s: Spectrum, taus, B) -> FiberChart:
    """Chart of len(taus) components, component i split at taus[i]: Htilde
    holds the eigenvalues below tau and those within 1e-9 max(1, |tau|) of
    it (H0, the band of functional.band_side), H+ the rest.  The eigenvalues
    ascend, so these are the first m eigenvector columns and the others: m
    is the index of the first eigenvalue above the band."""
    lam, V = s.eigenvalues, s.eigenvectors
    n = V.shape[0]
    cuts = [next((i for i, x in enumerate(lam) if band_side(x, t) > 0), lam.size) for t in taus]
    Vt = np.zeros((n * len(cuts), sum(cuts)))
    for c, (m, end) in enumerate(zip(cuts, accumulate(cuts))):
        Vt[c * n:(c + 1) * n, end - m:end] = V[:, :m]
    metric = np.concatenate([lam[m:] - tau for m, tau in zip(cuts, taus)])
    qt = np.concatenate([lam[:m] - tau for m, tau in zip(cuts, taus)])
    B = np.atleast_2d(np.asarray(B, float))
    plus = tuple(V[:, m:] for m in cuts)
    return FiberChart(plus, Vt, metric, qt, tuple(taus), B, s.grid.quad_weight)


def _fiber_functions(ch: FiberChart, a: np.ndarray):
    """D, Q, the moment tensor M and the energy I(Dz) = z.Qz/2 - F(Dz) with
    its derivatives in z.

    F(Dz) is a quartic form in z: F(Dz) = M(z, z, z, z)/4 with the
    symmetric d x d x d x d moment tensor M = w sum_ij B_ij sum_nodes of
    D_i (x) D_i (x) D_j (x) D_j, symmetrized over the three pairings of its
    slots; it is returned as a (d*d, d*d) matrix.  With K(z) = M(., ., z, z),
    I = z.(Q/2 - K/4)z, the gradient is Qz - Kz and the Hessian diag(Q) -
    3K: fun(z) returns all three from one contraction K(z), and no step
    touches a nodal field.
    """
    D = ch.span(a)
    Q = ch.quad(a)
    k, d = ch.B.shape[0], D.shape[1]
    Dk = D.reshape(k, -1, d)
    P = (Dk[:, :, :, None] * Dk[:, :, None, :]).reshape(k, -1)
    BP = ch.B @ P
    T = ch.w * (P.reshape(-1, d * d).T @ BP.reshape(-1, d * d)).reshape(d, d, d, d)
    # the pairings (p r)(q s) and (p s)(q r): T[p, r, q, s] and T[p, s, q, r]
    M = ((T + T.transpose(0, 2, 1, 3) + T.transpose(0, 2, 3, 1)) / 3.0).reshape(d * d, -1)
    hq, half_q = np.diag(Q), 0.5 * Q

    def fun(z):
        K = (M @ (z[:, None] * z).ravel()).reshape(d, d)
        Kz = K @ z
        return float(z @ (half_q * z - 0.25 * Kz)), Q * z - Kz, hq - 3.0 * K

    return D, Q, M, fun


def _ray_scale(Q: np.ndarray, M: np.ndarray, z: np.ndarray) -> float:
    """The s > 0 at which I(sz) = s^2 z.Qz/2 - s^4 M(z,z,z,z)/4 peaks along
    the ray of z, s^2 = z.Qz / M(z,z,z,z); 1 when the ray has no maximum.

    At a fiber maximizer z.Qz = M(z,z,z,z), so s = 1 there.
    """
    zz = (z[:, None] * z).ravel()
    zqz, zmz = float(Q @ (z * z)), float(zz @ (M @ zz))
    return math.sqrt(zqz / zmz) if zqz > 0.0 and zmz > 0.0 else 1.0


class FiberMax(NamedTuple):
    z: np.ndarray  # (t, Htilde coefficients) with t >= 0
    value: float
    grad: np.ndarray  # gradient of psi in a
    converged: bool


# fiber_maximize seeds where the fiber maximum may not be unique: cold,
# warm in a descent, and warm on a single fiber (in_nehari_prime)
COLD_SEEDS = 10
DESCENT_WARM_SEEDS = 2
CHECK_WARM_SEEDS = 5


def fiber_seed_count(B: np.ndarray, n: int) -> int:
    """Seeds of a fiber search with coupling B: 1 where its maximum is
    unique, else n.

    Where F is convex the fiber maximum of the generalized-Nehari reduction
    is unique, and one seed finds it, the warm one when given.  F(u) =
    mu u^4 / 4 (k = 1) always is.  F(u) = (mu1 u1^4 + 2 beta u1^2 u2^2 +
    mu2 u2^4) / 4 is convex exactly when beta <= 3 sqrt(mu1 mu2): the
    determinant of its Hessian is 3 beta (mu1 u1^4 + mu2 u2^4) + (9 mu1 mu2
    - 3 beta^2) u1^2 u2^2.  On or above that bound the maximum may not be
    unique, and the search gets n seeds (COLD_SEEDS, DESCENT_WARM_SEEDS or
    CHECK_WARM_SEEDS).  A beta within the band of the bound (band_side)
    gets the many-seed rule, so that rounding does not pick the rule.
    """
    if len(B) == 1:
        return 1
    return 1 if band_side(B[0, 1], 3.0 * np.sqrt(B[0, 0] * B[1, 1])) < 0 else n


def fiber_maximize(
    ch: FiberChart,
    a: np.ndarray,
    n_seeds: int = 1,
    init: np.ndarray | None = None,
    seed: int = 0,
) -> FiberMax:
    """Best local maximum of I over {t Vp a + Vt c}, and the gradient of psi.

    Newton ascent from n_seeds seeds: init (a previous z, moved onto its
    own Nehari ray by _ray_scale) when given, then the Nehari scale t_est
    times 1, 1/2 and 2, then random seeds drawn from `seed`: t is t_est
    times 1/2, 1 or 2, and c is uniform in [-2, 2] t_est |a|.  The chart
    columns are L2-orthonormal, so c is on the scale of the L2 size t |a|
    of t Vp a.  Only the warm seed is rescaled: the spread of the others is
    their purpose.  With Htilde empty the maximum is the closed-form Nehari
    scale.
    """
    D, Q, M, fun = _fiber_functions(ch, a)
    q = Q[0]
    # t Vp a is on the Nehari ray: t^2 = q / M(e0, e0, e0, e0)
    t_est = np.sqrt(q / M[0, 0])
    m = ch.qt.size
    if m == 0:
        results, converged = [(0.25 * q * t_est**2, np.array([t_est]))], True
    else:
        # a warm seed is moved to the maximum of I on its own ray; its scale
        # may be orders of magnitude off where the direction a has changed
        seeds = []
        if init is not None:
            z0 = np.asarray(init, dtype=float)
            seeds.append(_ray_scale(Q, M, z0) * z0)
        for fac in (1.0, 0.5, 2.0):
            if len(seeds) >= n_seeds:
                break
            seeds.append(np.concatenate([[fac * t_est], np.zeros(m)]))
        rng = default_rng(seed) if len(seeds) < n_seeds else None
        while len(seeds) < n_seeds:
            c = rng.uniform(-2.0, 2.0, size=m) * (t_est * np.linalg.norm(a))
            tfac = rng.choice([0.5, 1.0, 2.0])
            seeds.append(np.concatenate([[tfac * t_est], c]))
        results, stalled = [], []
        for z0 in seeds:
            z, val, ok = newton_max_subspace(fun, z0, tol=1e-12)
            (results if ok else stalled).append((val, -z if z[0] < 0.0 else z))
        converged = bool(results)
        # stalled ascents still sit near a maximizer; better than aborting
        results = results or stalled
        # deterministic tie-break: value, then smallest ||c||, then smallest t
        results.sort(key=lambda r: (-r[0], float(np.linalg.norm(r[1][1:])), r[1][0]))
    val, z = results[0]
    t = z[0]
    # w Vp^T (A - tau) x = t metric a: the gradient needs only f(x)
    g = t * (t * ch.metric * a - ch.plus_coeffs(ch.nonlinearity(D @ z)[1]))
    return FiberMax(z, float(val), g, converged)


def reduced_psi(ch: FiberChart, seed: int = 0):
    """psi on the chart ch, as sphere_descent calls it: psi(a, z) -> (value,
    gradient, maximizer z), warm from the previous maximizer z, with
    fiber_seed_count(ch.B, COLD_SEEDS) seeds cold and fiber_seed_count(ch.B,
    DESCENT_WARM_SEEDS) warm; the random ones are drawn from seed."""
    cold = fiber_seed_count(ch.B, COLD_SEEDS)
    warm = fiber_seed_count(ch.B, DESCENT_WARM_SEEDS)

    def psi(a, state):
        fm = fiber_maximize(ch, a, cold if state is None else warm, init=state, seed=seed)
        return fm.value, fm.grad, fm.z

    return psi


def in_nehari(g: Grid, ch: FiberChart, w: np.ndarray, tol: float = 1e-8) -> bool:
    """First-order Nehari-Pankov membership: I'(w)w = 0 and I'(w)|Htilde = 0,
    with I, H+ and Htilde those of the chart ch."""
    norm = h1_norm(g, w)
    scale = max(1.0, norm**2)
    if h1_norm(g, ch.plus_field(ch.plus_coeffs(w))) <= tol * max(1.0, norm):
        raise ValueError("w lies in Htilde (up to tol)")
    r = residual(g, ch.taus, ch.B, w)
    if abs(g.quad_weight * float(np.dot(r, w))) > tol * scale:
        return False
    return float(np.linalg.norm(ch.w * (ch.Vt.T @ r))) <= tol * scale


def in_nehari_prime(
    g: Grid,
    ch: FiberChart,
    w: np.ndarray,
    tol: float = 1e-8,
    opts: SolverOptions = SolverOptions(),
) -> bool:
    """Whether w globally maximizes I on its own generalized fiber.

    w must pass in_nehari first.  Then one fiber_maximize on w's fiber, on
    the chart ch, with fiber_seed_count(ch.B, CHECK_WARM_SEEDS) seeds (the
    first at w's own chart coordinates, the random ones drawn from
    opts.seed), must find no value above I(w) and must return w itself.
    """
    if not in_nehari(g, ch, w, tol=tol):
        return False
    a, init = ch.coords(w)
    fm = fiber_maximize(ch, a, fiber_seed_count(ch.B, CHECK_WARM_SEEDS), init, opts.seed)
    iw = energy(g, ch.taus, ch.B, w)
    if fm.value > iw + max(tol, 1e-9) * max(1.0, abs(iw)):
        return False
    dist = np.max(np.abs(ch.point(a, fm.z) - w))
    return bool(dist <= max(np.sqrt(tol), 1e-6) * max(np.max(np.abs(w)), 1.0))
