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


def newton_max_subspace(fun, z0, tol=1e-11, max_iter=200):
    """Maximize a smooth function over a low-dimensional coefficient space.

    fun(z) returns the function, its gradient and its dense symmetric
    Hessian, all from one evaluation; the gradient and Hessian of the
    accepted line-search point serve the next step, so each point is
    evaluated once.  One eigendecomposition of the Hessian per step gives
    the step of the Hessian shifted to be negative definite, so it is an
    ascent direction; an Armijo line search guards it, except that a step
    whose predicted ascent g.d is <= 1e-12 max(1, |value|), too small for
    Armijo to judge against the value's rounding, is taken whole if it
    lowers |g|.  The gradient is tested against tol * max(1, |value|); a
    point that passes is a maximum only if no Hessian eigenvalue exceeds
    1e-8 max(1, max |eigenvalue|), so a saddle is returned with converged
    False.  Returns (z, value, converged).  Both eigenproblems call LAPACK
    dsyevd directly (_eigh): at d <= 6 that costs a third of
    np.linalg.eigh or eigvalsh, whose overhead dominates.
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
        if not slope > 0.0:
            d = gz / max(gnorm, 1e-300)
            slope = gnorm
        # near-singular shifted Hessians give huge steps; cap them
        dnorm = math.sqrt(d @ d)
        cap = 100.0 * max(1.0, math.sqrt(z @ z))
        if dnorm > cap:
            d *= cap / dnorm
            slope *= cap / dnorm
        if slope <= 1e-12 * scale:
            # Armijo cannot resolve this ascent: take the full step if it
            # lowers ||g||, else fall back on the search
            cval, cg, cH = fun(z + d)
            if cg @ cg < gnorm * gnorm:
                z, val, gz, H = z + d, cval, cg, cH
                continue
        step = 1.0
        ok = False
        for _bt in range(40):
            if step * slope < 1e-17 * scale:
                break  # improvement below float resolution
            cand = z + step * d
            cval, cg, cH = fun(cand)
            if cval >= val + 1e-4 * step * slope:
                z, val, gz, H = cand, cval, cg, cH
                ok = True
                break
            step *= 0.5
        if not ok:
            # no ascent possible along d; treat as converged to tolerance
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

    The run stops unconverged when the damping grows past 1e8 ("damping
    exhausted"), after max_iter iterations ("iteration cap"), or when
    ||res||_inf at the start of an iteration is more than STAGNATION_FACTOR
    times its value STAGNATION_WINDOW iterations earlier ("stagnated").  No
    divergence exit is needed: the line search accepts only steps that
    lower ||res||_2^2, so ||res||_2 cannot grow.
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
        improved = False
        for _bt in range(40):
            cand = x + step * d
            rc = res_fn(cand)
            if float(np.dot(rc, rc)) < phi0 * (1.0 - 1e-4 * step):
                x, r = cand, rc
                rnorm = np.linalg.norm(r, np.inf)
                improved = True
                break
            step *= 0.5
        if improved:
            lam_damp = 0.0
        else:
            lam_damp = 1e-6 if lam_damp == 0.0 else lam_damp * 10.0
            if lam_damp > 1e8:
                return NewtonResult(x, rnorm, False, "damping exhausted", jacobians)
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
