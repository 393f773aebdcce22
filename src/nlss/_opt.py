"""Internal optimization helpers: small-subspace Newton ascent, damped full
Newton on residual equations, and preconditioned descent on a metric sphere.

These work on plain coefficient / stacked nodal arrays; the public modules
wrap them with domain types.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, the module scipy.linalg.lapack
    re-exports (scipy/linalg/_flapack*.so), loaded straight from its file.

    find_spec locates the scipy package without running it, so no scipy
    module is imported.  `import scipy.linalg` costs about 0.34 s on a
    2-core machine (python3 -X importtime), two thirds of it in
    scipy._lib.array_api_compat.numpy, which clones NumPy's namespace and
    so imports numpy.f2py, numpy.testing and numpy.ma; nlss needs none of
    that.  CPython records the extension module in sys.modules under its
    bare name, _flapack.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("nlss needs SciPy's compiled LAPACK wrappers")
    linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgbsv, dsyevd, dsyevr, dsyevr_lwork = (
    _flapack.dgbsv, _flapack.dsyevd, _flapack.dsyevr, _flapack.dsyevr_lwork
)


def _eigh(H, vectors=True):
    """(ascending eigenvalues, eigenvectors if vectors) of the symmetric H."""
    ew, V, info = dsyevd(H, compute_v=int(vectors), lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed (info {info})")
    return ew, V


class Band(NamedTuple):
    """A matrix with kl sub- and superdiagonals in LAPACK band storage: entry
    (i, j) at ab[2 kl + i - j, j], the top kl rows free for the LU's fill-in.
    Its rows and columns are node-major (node k + component) for k stacked
    components; solve and toarray take and give stacked order."""

    ab: np.ndarray
    kl: int
    k: int = 1

    def solve(self, b: np.ndarray, shift: float = 0.0) -> np.ndarray:
        """(M + shift I)^-1 b by LAPACK's partial-pivoting band LU (dgbsv);
        raises LinAlgError where U is exactly singular."""
        ab = np.array(self.ab, order="F")  # dgbsv overwrites its input
        ab[2 * self.kl] += shift
        rhs = b.reshape(self.k, -1).T.flatten()
        _, _, x, info = dgbsv(self.kl, self.kl, ab, rhs, overwrite_ab=1, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"dgbsv: U({info}, {info}) is exactly zero")
        return x.reshape(-1, self.k).T.ravel()

    def toarray(self) -> np.ndarray:
        """The dense matrix, rows and columns in stacked order."""
        ab, kl, m = self.ab, self.kl, self.ab.shape[1]
        A = sum(np.diag(ab[2 * kl + d, max(0, -d):m - max(0, d)], -d) for d in range(-kl, kl + 1))
        order = np.arange(m).reshape(-1, self.k).T.ravel()  # stacked -> node-major
        return A[np.ix_(order, order)]


def _quartic_peak(c1, c2, c3, c4):
    """The first local maximizer in (0, 1) of c1 s + c2 s^2 + c3 s^3 + c4 s^4
    (c1 > 0), or 1 where there is none: the first root at which its
    derivative p turns negative.  p is monotone between the roots of p', so
    the first such piece on which p turns negative holds exactly one root.
    Newton's iteration finds it, kept in the bracket by bisection; it
    starts at the root's scale, where p(lo) at the piece's start meets one
    negative Taylor term of p at lo alone (the cold start at the far end
    took three times the iterations)."""
    def p(s):
        return c1 + s * (2.0 * c2 + s * (3.0 * c3 + 4.0 * c4 * s))

    def dp(s):
        return 2.0 * c2 + s * (6.0 * c3 + 12.0 * c4 * s)

    disc = 9.0 * c3 * c3 - 24.0 * c4 * c2  # of p'(s) / 2 = 6 c4 s^2 + 3 c3 s + c2
    if c4 != 0.0 and disc >= 0.0:
        turns = [(-3.0 * c3 + r) / (12.0 * c4) for r in (math.sqrt(disc), -math.sqrt(disc))]
    else:
        turns = [-c2 / (3.0 * c3)] if c4 == 0.0 and c3 != 0.0 else []
    lo = 0.0
    for hi in sorted(t for t in turns if 0.0 < t < 1.0) + [1.0]:
        if p(hi) < 0.0:  # p(lo) >= 0: the root is in (lo, hi]
            taylor = (dp(lo), 3.0 * c3 + 12.0 * c4 * lo, 4.0 * c4)
            reach = [(p(lo) / -t) ** (1.0 / k) for k, t in enumerate(taylor, 1) if t < 0.0]
            s = min([hi] + [lo + h for h in reach])
            for _ in range(100):
                v, slope = p(s), dp(s)
                lo, hi = (s, hi) if v > 0.0 else (lo, s)
                nxt = s - v / slope if slope < 0.0 else -1.0
                if not lo <= nxt <= hi:
                    nxt = 0.5 * (lo + hi)
                if abs(nxt - s) <= 1e-15 * s:
                    break
                s = nxt
            return nxt
        lo = hi
    return 1.0


def newton_max_subspace(fun, z0, tol=1e-11, max_iter=200):
    """Maximize a smooth function over a low-dimensional coefficient space.

    fun(z) returns the function, its gradient and its dense symmetric
    Hessian, all from one evaluation; an accepted trial point's gradient
    and Hessian serve the next step, so each point is evaluated once.  One
    eigendecomposition of the Hessian per step gives the step d of the
    Hessian shifted to be negative definite (capped at 100 max(1, |z|)),
    whose slope g.d is then positive.  A step has at most two trials: z +
    d, accepted where it passes Armijo or, where g.d <= 1e-12 max(1,
    |value|) is too small for Armijo to judge against the value's
    rounding, where it lowers |g|; else z + s* d, accepted where it passes
    Armijo, s* the first maximizer in (0, 1) of phi(s) = fun(z + s d) as a
    quartic (_quartic_peak) fitted to phi, phi' = g.d and phi'' = d.H d at
    z and phi, phi' at z + d.  The fiber energy is a quartic, so there the
    fit is exact: c2 = d.Qd/2 - 3 M(z,z,d,d)/2, c3 = -M(z,d,d,d), c4 =
    -M(d,d,d,d)/4 for its moment tensor M.  Where neither trial is
    accepted, or phi has no peak in (0, 1), the ascent stops, converged if
    |g| <= max(1e3 tol, 1e-7) max(1, |value|).  The gradient is tested
    against tol * max(1, |value|); a point that passes is a maximum only
    if no Hessian eigenvalue exceeds 1e-8 max(1, max |eigenvalue|), so a
    saddle is returned with converged False.  Returns (z, value,
    converged).  Both eigenproblems call LAPACK dsyevd directly (_eigh):
    at d <= 6 that costs a third of np.linalg.eigh or eigvalsh, whose
    overhead dominates.
    """
    z = np.asarray(z0, dtype=float).copy()
    val, gz, H = fun(z)
    for _ in range(max_iter):
        scale = max(1.0, abs(val))
        gnorm = math.sqrt(gz @ gz)
        if gnorm <= tol * scale:
            ew = _eigh(H, vectors=False)[0]
            return z, val, bool(ew[-1] <= 1e-8 * max(1.0, -ew[0], ew[-1]))
        ew, V = _eigh(H)
        shift = max(0.0, ew[-1]) + 1e-10 * max(1.0, -ew[0], ew[-1])
        d = V @ ((V.T @ gz) / (shift - ew))
        slope = float(gz @ d)
        # near-singular shifted Hessians give huge steps; cap them
        dnorm = math.sqrt(d @ d)
        cap = 100.0 * max(1.0, math.sqrt(z @ z))
        if dnorm > cap:
            d *= cap / dnorm
            slope *= cap / dnorm
        cval, cg, cH = fun(z + d)
        if cval >= val + 1e-4 * slope or (slope <= 1e-12 * scale and cg @ cg < gnorm * gnorm):
            z, val, gz, H = z + d, cval, cg, cH
            continue
        # phi(s) = val + slope s + c2 s^2 + c3 s^3 + c4 s^4; where fun(z + d)
        # is not finite, nor is c4, and _quartic_peak finds no peak
        c2 = 0.5 * float(d @ H @ d)
        rest = cval - val - slope - c2  # c3 + c4
        c4 = float(cg @ d) - slope - 2.0 * c2 - 3.0 * rest
        s = _quartic_peak(slope, c2, rest - c4, c4)
        if 0.0 < s < 1.0:
            cval, cg, cH = fun(z + s * d)
            if cval >= val + 1e-4 * s * slope:
                z, val, gz, H = z + s * d, cval, cg, cH
                continue
        # no ascent found along d; treat as converged to tolerance
        return z, val, bool(gnorm <= max(1e3 * tol, 1e-7) * scale)
    return z, val, False


# W: Newton iterations between the two residuals compared, and the flat
# accepted steps in a row after which sphere_descent stops
STAGNATION_WINDOW = 10
STAGNATION_FACTOR = 0.5  # stop unless ||r||inf fell below this share of it


class NewtonResult(NamedTuple):
    x: np.ndarray
    rnorm: float  # residual inf-norm at x
    converged: bool
    reason: str  # converged | stagnated | damping exhausted | iteration cap
    jacobians: int  # Jacobians built


def damped_newton(res_fn, jac_fn, x0, tol=1e-10, max_iter=80) -> NewtonResult:
    """Damped Newton for res(x) = 0.

    jac_fn returns the Jacobian as a Band, which each step factors with
    LAPACK's band LU (dgbsv).  Line search on ||res||^2, with Levenberg
    damping (added to the main diagonal) when U is exactly singular, the
    step is not finite, or no decrease is found.  Convergence test is on
    the residual inf-norm relative to max(1, ||x||_inf).

    The run stops unconverged when all 12 damped solves of an iteration
    fail ("damping exhausted"), after max_iter iterations ("iteration
    cap"), or when ||res||_inf at the start of an iteration is more than
    STAGNATION_FACTOR times its value STAGNATION_WINDOW iterations earlier
    ("stagnated"), as it is at the 11th of a run of failed line searches
    (each leaves ||res|| as it was and damps the next solve ten times
    more).  No divergence exit is needed: the line search accepts only
    steps that lower ||res||_2^2, so ||res||_2 cannot grow.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = res_fn(x)
    rnorm = np.linalg.norm(r, np.inf)
    history = []  # ||res||_inf at the start of each iteration
    jacobians = 0
    lam_damp = 0.0
    for _ in range(max_iter):
        if rnorm <= tol * max(1.0, np.linalg.norm(x, np.inf)):
            return NewtonResult(x, rnorm, True, "converged", jacobians)
        history.append(rnorm)
        if (
            len(history) > STAGNATION_WINDOW
            and rnorm > STAGNATION_FACTOR * history[-1 - STAGNATION_WINDOW]
        ):
            return NewtonResult(x, rnorm, False, "stagnated", jacobians)
        J = jac_fn(x)
        jacobians += 1
        lam = lam_damp
        for _tries in range(12):
            try:
                d = J.solve(-r, lam)
                if np.all(np.isfinite(d)):
                    break
            except np.linalg.LinAlgError:  # U is exactly singular
                pass
            lam = 1e-6 if lam == 0.0 else lam * 10.0
        else:
            return NewtonResult(x, rnorm, False, "damping exhausted", jacobians)
        phi0 = float(np.dot(r, r))
        step = 1.0
        for _bt in range(40):
            cand = x + step * d
            rc = res_fn(cand)
            if float(np.dot(rc, rc)) < phi0 * (1.0 - 1e-4 * step):
                x, r = cand, rc
                rnorm = np.linalg.norm(r, np.inf)
                lam_damp = 0.0
                break
            step *= 0.5
        else:  # no decrease found: damp the next iteration's solve more
            lam_damp = 1e-6 if lam_damp == 0.0 else lam_damp * 10.0
    if rnorm <= tol * max(1.0, np.linalg.norm(x, np.inf)):
        return NewtonResult(x, rnorm, True, "converged", jacobians)
    return NewtonResult(x, rnorm, False, "iteration cap", jacobians)


def sphere_descent(fun_grad, metric, a0, tol=1e-8, max_iter=400):
    """Projected gradient descent on the metric unit sphere.

    fun_grad(a, state) -> (value, grad, state): value and raw gradient of a
    0-homogeneous objective at the normalized point; state carries warm
    starts between calls and is None in the first call.  metric is the
    diagonal of the positive definite metric; steps are preconditioned by
    it and iterates re-normalized (retraction).  Returns (a, value, state,
    converged).

    The objective must be positive (a fiber maximum is).  A backtracking
    step whose Armijo target val + 1e-4 s slope is <= 0 then cannot be
    accepted, so s is halved without evaluating the objective there; the
    halving still counts toward the backtracking limit, and the accepted
    steps are those of a search that evaluates every candidate.  A step
    whose linear-model decrease s |slope| is <= 1e-15 |val| is within the
    rounding of the objective's values (a fiber maximum carries rounding of
    that size), so the line search ends there as a failed one, unevaluated.

    The descent also stops when no step is accepted, or when
    STAGNATION_WINDOW accepted steps in a row leave the value unchanged in
    floating point (near a saddle the Armijo decrease falls below its
    rounding); the gradient is then noise-limited, and converged means it
    is within 1e3 tol.
    """
    m = np.asarray(metric, dtype=float)

    def normalize(a):
        return a / np.sqrt(float(np.dot(a, m * a)))

    a = normalize(np.asarray(a0, dtype=float))
    val, gz, state = fun_grad(a, None)
    step = 1.0
    prev = None  # (a, gz) for the Barzilai-Borwein step estimate
    converged = False
    flat = 0  # consecutive accepted steps that did not lower the value
    for _ in range(max_iter):
        d = -gz / m
        slope = float(np.dot(gz, d))
        gscale = np.sqrt(float(np.dot(gz, gz / m)))
        if gscale <= tol * max(1.0, abs(val)):
            converged = True
            break
        if prev is not None:
            da = a - prev[0]
            dg = gz - prev[1]
            denom = float(np.dot(da, dg))
            if denom > 0.0:
                step = float(np.dot(da, m * da)) / denom
        step = min(max(step, 1e-12), 1e6)
        accepted = False
        s = step
        for _bt in range(50):
            if s * -slope <= 1e-15 * abs(val):
                break  # the decrease is within the rounding of val
            target = val + 1e-4 * s * slope
            if target <= 0.0:
                s *= 0.5
                continue
            cand = normalize(a + s * d)
            cval, cg, cstate = fun_grad(cand, state)
            if cval <= target:
                flat = flat + 1 if cval >= val else 0
                prev = (a, gz)
                a, val, gz, state = cand, cval, cg, cstate
                step = s
                accepted = True
                break
            s *= 0.5
        if not accepted or flat >= STAGNATION_WINDOW:
            # step collapsed, or steps no longer lower the value in floating
            # point: the gradient is noise-limited
            converged = bool(gscale <= 1e3 * tol * max(1.0, abs(val)))
            break
    return a, val, state, converged
