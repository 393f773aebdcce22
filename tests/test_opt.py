import numpy as np
import pytest
from scipy.linalg import lapack

from nlss import SolverOptions, SystemParams
from nlss import system as system_mod
from nlss import _opt as opt_mod
from nlss._opt import (
    STAGNATION_WINDOW,
    Band,
    _eigh,
    _quartic_peak,
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


def test_failed_line_searches_escalate_the_damping_until_stagnation():
    # r(x) = x with the Jacobian -1: the undamped step doubles |x|, so its
    # line search fails and the next solve is damped, 1e-6, 1e-5, ... 0.1;
    # at damping 1 the damped Jacobian is exactly singular and the solve
    # moves on to 10, whose step -x/9 is accepted; the damping then starts
    # over, and with |r| only 8/9 of its start ten iterations on, the run
    # stagnates
    shifts = []

    class Recorded(Band):
        def solve(self, b, shift=0.0):
            shifts.append(shift)
            return super().solve(b, shift)

    out = damped_newton(lambda x: x.copy(), lambda x: Recorded(-np.ones((1, 1)), 0), np.ones(1))
    assert out.reason == "stagnated" and out.jacobians == 10
    assert out.x[0] == pytest.approx(8.0 / 9.0, rel=1e-12)
    assert shifts == pytest.approx([0.0, *(10.0**j for j in range(-6, 1)), 10.0, 0.0, 1e-6],
                                   rel=1e-12)


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


# a fiber-like quartic I(z) = z.Qz/2 - M(z, z, z, z)/4 with mixed-sign Q and
# M(a, b, c, e) = sum_j (w_j.a)(w_j.b)(w_j.c)(w_j.e), M(z, z, z, z) > 0
_Q = np.array([1.0, -0.3, -1.2])
_W = np.random.default_rng(3).standard_normal((5, 3))


def _m(a, b, c, e):
    return float(np.sum((_W @ a) * (_W @ b) * (_W @ c) * (_W @ e)))


def _fiber_like(z):
    wz = _W @ z
    value = 0.5 * float(z @ (_Q * z)) - 0.25 * float(np.sum(wz**4))
    return value, _Q * z - _W.T @ wz**3, np.diag(_Q) - 3.0 * (_W.T * wz**2) @ _W


def _evaluated(fun):
    points = []

    def recorded(z):
        points.append(np.array(z))
        return fun(z)

    return recorded, points


def test_failed_full_step_retries_at_the_quartic_peak():
    # near 0 the Hessian has the eigenvalue 1 - O(|z|^2) > 0, so the shifted
    # step is capped at 100 max(1, |z|) and fails Armijo; the next trial is
    # z + s* d, s* the first maximizer of phi(s) = I(z + s d), from the
    # coefficients that the moment tensor gives
    z0 = np.array([0.01, 0.02, -0.01])
    fun, points = _evaluated(_fiber_like)
    z, val, ok = newton_max_subspace(fun, z0, tol=1e-12)
    assert ok and np.linalg.norm(_fiber_like(z)[1]) <= 1e-10
    d = points[1] - z0
    assert np.linalg.norm(d) == pytest.approx(100.0, rel=1e-12)
    val0, g0, _ = _fiber_like(z0)
    assert _fiber_like(points[1])[0] < val0
    c1 = float(g0 @ d)
    c2 = 0.5 * float(d @ (_Q * d)) - 1.5 * _m(z0, z0, d, d)
    c3, c4 = -_m(z0, d, d, d), -0.25 * _m(d, d, d, d)
    s_star = _quartic_peak(c1, c2, c3, c4)
    assert 0.0 < s_star < 1.0
    assert np.allclose(points[2], z0 + s_star * d, rtol=1e-12, atol=0.0)
    # a dense scan of phi, refined around its first local maximum, peaks at s*
    def phi(s):
        zs = z0 + s[:, None] * d
        return 0.5 * (zs * zs) @ _Q - 0.25 * np.sum((zs @ _W.T) ** 4, axis=1)

    s = np.linspace(0.0, 1.0, 100001)
    first = int(np.argmax(np.diff(phi(s)) < 0.0))
    s = np.linspace(s[first - 1], s[first + 1], 100001)
    scan = phi(s)
    assert abs(s[np.argmax(scan)] - s_star) <= 1e-9
    peak = _fiber_like(z0 + s_star * d)[0]
    assert abs(peak - scan.max()) <= 1e-12 * abs(peak)


def test_ascent_stops_where_the_quartic_has_no_interior_peak(monkeypatch):
    # the capped full step of the test above fails Armijo; with no peak of
    # phi in (0, 1) the ascent stops after that one trial, at z0, and does
    # not halve the step
    z0 = np.array([0.01, 0.02, -0.01])
    monkeypatch.setattr(opt_mod, "_quartic_peak", lambda *c: 1.0)
    fun, points = _evaluated(_fiber_like)
    z, val, ok = newton_max_subspace(fun, z0, tol=1e-12)
    assert len(points) == 2
    assert np.array_equal(points[0], z0) and np.linalg.norm(points[1] - z0) > 99.0
    assert np.array_equal(z, z0) and val == _fiber_like(z0)[0]
    assert not ok  # |g| is far above the loose tolerance 1e-7


def _cube_root_ascent(z):
    # 1e6 - 7.5e-4 |z|^(4/3): Newton on the gradient -1e-3 cbrt(z)
    # overshoots from z to -2 z, where |g| is larger; at the value 1e6 a
    # step's slope is within Armijo's rounding
    r = np.cbrt(z[0])
    value = 1e6 - 7.5e-4 * abs(z[0]) ** (4.0 / 3.0)
    return value, np.array([-1e-3 * r]), np.array([[-1e-3 / (3.0 * r * r)]])


def test_small_slope_full_step_is_evaluated_once():
    z0 = np.array([1e-3])
    fun, points = _evaluated(_cube_root_ascent)
    z, val, ok = newton_max_subspace(fun, z0)
    assert ok and abs(_cube_root_ascent(z)[1][0]) <= 1e-11 * 1e6
    # the first full step: a slope Armijo cannot judge, and |g| not lowered
    val0, g0, _ = _cube_root_ascent(z0)
    d = points[1] - z0
    assert d[0] == pytest.approx(-3e-3, rel=1e-8)
    assert 0.0 < float(g0 @ d) <= 1e-12 * val0
    assert abs(_cube_root_ascent(points[1])[1][0]) > abs(g0[0])
    # it is evaluated once, as is every point of the ascent
    assert len({p.tobytes() for p in points}) == len(points)


@pytest.mark.parametrize("c", [
    (1.0, -2.0, 0.5, 0.0), (1.0, 3.0, -40.0, -5.0), (2.0, -1.0, 30.0, -40.0),
    (1.0, 0.0, 0.0, 0.0), (0.1, 5.0, -12.0, 6.0),
])
def test_quartic_peak_is_the_first_local_maximum(c):
    # against the first sign change of phi' on a dense grid; 1 where phi
    # rises throughout (0, 1)
    s = np.linspace(0.0, 1.0, 1000001)
    dphi = c[0] + s * (2.0 * c[1] + s * (3.0 * c[2] + 4.0 * c[3] * s))
    down = np.flatnonzero(dphi < 0.0)
    expected = s[down[0]] if down.size else 1.0
    assert abs(_quartic_peak(*c) - expected) <= 1e-6


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
