import numpy as np
import pytest
from scipy.linalg import lapack

from nlss import SolverOptions, SystemParams
from nlss import system as system_mod
from nlss._opt import (
    STAGNATION_WINDOW,
    Band,
    _eigh,
    damped_newton,
    newton_max_subspace,
    sphere_descent,
)
from nlss.errors import NoConvergence
from nlss.fiber import COLD_SEEDS, fiber_chart, fiber_maximize, fiber_seed_count
from nlss.system import newton_refine

W = STAGNATION_WINDOW


def _diag(v):
    """The diagonal matrix diag(v) as a Band with kl = 0."""
    return Band(v[None, :], 0)


def _counted(jac):
    calls = []

    def wrapped(*args):
        calls.append(1)
        return jac(*args)

    return wrapped, calls


def test_no_root_stops_as_stagnated():
    # x^2 + 1 has no real root: ||r|| creeps down to 1 and stays there
    jac, calls = _counted(lambda x: _diag(2.0 * x))
    out = damped_newton(lambda x: x**2 + 1.0, jac, np.array([3.0, -2.0]), max_iter=200)
    assert not out.converged
    assert out.reason == "stagnated"
    assert out.jacobians == len(calls) <= 2 * W + 1
    assert out[2] is False and out[1] == out.rnorm


def test_damped_steps_still_converge():
    # from x0 = 3 the full Newton step of arctan overshoots to |x| > 9
    res = np.arctan
    jac, calls = _counted(lambda x: _diag(1.0 / (1.0 + x**2)))
    x0 = np.array([3.0])
    full = x0 - res(x0) * (1.0 + x0**2)
    assert abs(res(full)[0]) > abs(res(x0)[0])
    out = damped_newton(res, jac, x0)
    assert out.converged and out.reason == "converged"
    assert out.rnorm <= 1e-10
    assert out.jacobians == len(calls) <= W


def test_random_fiber_seed_stagnates(g32, s32, monkeypatch):
    # the fiber maximum of a random H+ direction at resonant (1, 1, 0.5): a
    # point of N' far from any critical point, where Newton stagnates
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 0.5)
    ch = fiber_chart(s32, p.taus, p.coupling)
    opts = SolverOptions()
    rng = np.random.default_rng(opts.seed + 1)
    a = ch.coords(ch.plus_field(rng.standard_normal(ch.metric.size)))[0]
    seed = ch.point(a, fiber_maximize(ch, a, fiber_seed_count(ch.B, COLD_SEEDS)).z)

    jac, calls = _counted(system_mod.jacobian)
    monkeypatch.setattr(system_mod, "jacobian", jac)
    with pytest.raises(NoConvergence) as info:
        newton_refine(g32, ch, seed, opts=opts)
    assert info.value.reason == "stagnated"
    assert len(calls) <= 2 * W + 1
    assert f"stagnated after {len(calls)} Jacobians" in str(info.value)


def test_singular_first_jacobian_takes_damping_path():
    # r = x^3 - 1 from x0 = 0: the first Jacobian is exactly zero, which
    # dgbsv reports with info > 0 (LinAlgError from Band.solve); the damped
    # solve must take over
    def jac(x):
        return _diag(3.0 * x**2)

    x0 = np.array([0.0])
    with pytest.raises(np.linalg.LinAlgError):
        jac(x0).solve(np.ones(1))
    out = damped_newton(lambda x: x**3 - 1.0, jac, x0)
    assert out.converged and out.reason == "converged"
    assert out.x[0] == pytest.approx(1.0, abs=1e-10)


def _quartic_ascent(z):
    # 1/2 (z0^2 - 1.5 z1^2) - 1/4 (z0^4 + z1^4): maximum 1/4 at (+-1, 0)
    value = 0.5 * (z[0] ** 2 - 1.5 * z[1] ** 2) - 0.25 * (z[0] ** 4 + z[1] ** 4)
    g = np.array([z[0] - z[0] ** 3, -1.5 * z[1] - z[1] ** 3])
    return value, g, np.diag([1.0 - 3.0 * z[0] ** 2, -1.5 - 3.0 * z[1] ** 2])


def test_ascent_tests_gradient_at_current_value():
    # a far start has value -1.1e14; judged against that scale, the ascent
    # used to stop at z = (4.737, 0) with ||g|| = 101.6
    z, val, ok = newton_max_subspace(_quartic_ascent, np.array([4611.0, -3.5]), tol=1e-12)
    assert ok
    assert z == pytest.approx([1.0, 0.0], abs=1e-8)
    assert val == pytest.approx(0.25, rel=1e-14)
    assert np.linalg.norm(_quartic_ascent(z)[1]) <= 1e-7


def _saddle_ascent(z):
    # -(z0^2 - 1)^2/4 + z1^2/2 - z1^4/4: (1, 0) is a saddle, (1, +-1) maxima
    value = -0.25 * (z[0] ** 2 - 1.0) ** 2 + 0.5 * z[1] ** 2 - 0.25 * z[1] ** 4
    g = np.array([-(z[0] ** 2 - 1.0) * z[0], z[1] - z[1] ** 3])
    return value, g, np.diag([1.0 - 3.0 * z[0] ** 2, 1.0 - 3.0 * z[1] ** 2])


def test_ascent_does_not_accept_a_saddle():
    # at (1, 0) the gradient is 0 and the Hessian diag(-2, 1)
    z, val, ok = newton_max_subspace(_saddle_ascent, np.array([1.0, 0.0]), tol=1e-12)
    assert not ok
    assert np.array_equal(z, [1.0, 0.0])
    # a maximum still passes
    z, val, ok = newton_max_subspace(_saddle_ascent, np.array([1.2, 0.8]), tol=1e-12)
    assert ok
    assert z == pytest.approx([1.0, 1.0], abs=1e-8)
    assert val == pytest.approx(0.25, rel=1e-14)


def test_flat_descent_stops_noise_limited():
    # the value does not change in floating point while the gradient stays
    # just above tol: the descent stops after STAGNATION_WINDOW flat steps
    calls = []

    def fun_grad(a, state):
        calls.append(1)
        return 1.0, np.array([2e-8, 0.0, 0.0]), state

    a, val, _, converged = sphere_descent(fun_grad, np.ones(3), np.array([0.0, 1.0, 0.0]))
    assert converged  # within the 1e3 tol noise allowance
    assert len(calls) <= W + 2


def _rayleigh_descent(m, D, K, seen):
    """fun_grad of 1 + K a.Da / a.ma, positive and 0-homogeneous; calls
    seen(s, slope, val) at every candidate with the step s and the slope
    and value of the point it steps from."""

    def fun_grad(a, state):
        if state is not None:
            # every candidate is normalize(a_cur + s d) with d = -g_cur / m,
            # and d is m-orthogonal to a_cur, so s is recovered from a
            a_cur, val_cur, g_cur = state
            d = -g_cur / m
            s = float(a @ (m * d)) / (float(a @ (m * a_cur)) * float(d @ (m * d)))
            seen(s, float(g_cur @ d), val_cur)
        q = float(a @ (m * a))
        r = float(a @ (D * a)) / q
        val = 1.0 + K * r
        grad = 2.0 * K * (D * a - r * m * a) / q
        return val, grad, (a, val, grad)

    return fun_grad


def test_descent_skips_steps_that_cannot_pass_armijo():
    # with K = 1e8 the first slope is so steep that the Armijo target
    # val + 1e-4 s slope stays <= 0 for s from 1 down to about 1e-4, and no
    # such s can be accepted
    m = np.array([1.0, 2.0, 3.0])
    D = np.array([0.0, 1.0, 2.0])
    targets = []

    def seen(s, slope, val):
        targets.append(val + 1e-4 * s * slope)

    a, val, _, converged = sphere_descent(_rayleigh_descent(m, D, 1e8, seen), m, np.ones(3))
    assert converged
    assert val == pytest.approx(1.0, rel=1e-8)
    assert targets
    assert min(targets) > 0.0


def test_descent_evaluates_no_step_below_the_rounding_floor():
    # with K = 1 the descent reaches the minimum 1 to rounding; there the
    # linear-model decrease s |slope| of the backtracking steps falls to
    # 1e-15 |val| and below, and no such step is evaluated (without the
    # floor one is, at s |slope| = 7.8e-16 |val|)
    m = np.array([1.0, 2.0, 3.0])
    D = np.array([0.0, 1.0, 2.0])
    ratios = []

    def seen(s, slope, val):
        ratios.append(s * abs(slope) / abs(val))

    a, val, _, converged = sphere_descent(_rayleigh_descent(m, D, 1.0, seen), m, np.ones(3))
    assert converged
    assert val == pytest.approx(1.0, rel=1e-15)
    assert ratios
    assert min(ratios) > 1e-15


def test_ascent_raises_when_the_eigensolver_fails():
    # dsyevd reports a failure through info (2 on this all-NaN Hessian); the
    # ascent raises, as np.linalg.eigh does, instead of stepping on NaNs
    def fun(z):
        return 1.0, np.ones(3), np.full((3, 3), np.nan)

    with pytest.raises(np.linalg.LinAlgError):
        newton_max_subspace(fun, np.zeros(3))


@pytest.mark.parametrize("k, kl", [(1, 1), (2, 2), (2, 6)])
def test_band_solve_is_scipy_dgbsv(k, kl):
    # the LAPACK wrappers loaded from their file are scipy.linalg.lapack's
    rng = np.random.default_rng(10 * k + kl)
    n = 15 * k
    ab = np.zeros((3 * kl + 1, n))
    ab[kl:] = rng.standard_normal((2 * kl + 1, n))
    b, shift = rng.standard_normal(n), 0.75
    ref = np.array(ab, order="F")
    ref[2 * kl] += shift
    _, _, x, info = lapack.dgbsv(kl, kl, ref, b.reshape(k, -1).T.flatten())
    assert info == 0
    assert np.array_equal(Band(ab, kl, k).solve(b, shift), x.reshape(-1, k).T.ravel())


@pytest.mark.parametrize("d", [1, 4, 7])
def test_eigh_is_scipy_dsyevd(d):
    X = np.random.default_rng(d).standard_normal((d, d))
    H = X + X.T
    ew, V = _eigh(H)
    ref_ew, ref_V, info = lapack.dsyevd(H, compute_v=1, lower=1)
    assert info == 0
    assert np.array_equal(ew, ref_ew) and np.array_equal(V, ref_V)
    assert np.array_equal(_eigh(H, vectors=False)[0], lapack.dsyevd(H, compute_v=0, lower=1)[0])
