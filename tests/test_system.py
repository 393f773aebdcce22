import dataclasses

import numpy as np
import pytest

from nlss import (
    DomainSpec,
    SolverOptions,
    SystemParams,
    build_grid,
    find_critical_set,
    get_spectrum,
    minimize_reduced,
    newton_refine,
    semitrivial_solutions,
    synchronized_solution,
)
from nlss import fiber as fiber_mod
from nlss import system as system_mod
from nlss._opt import sphere_descent
from nlss.cli import _sweep_values
from nlss.config import SweepSpec
from nlss.fiber import COLD_SEEDS, fiber_chart, fiber_maximize, fiber_seed_count, reduced_psi
from nlss.errors import ConvergedToTilde, DegenerateDenominator, NoSynchronizedPair
from nlss.functional import residual
from nlss.grids import laplacian_apply
from nlss.scalar import pair_grounds, solve_scalar_ground


def _pair_chart(p, s):
    return fiber_chart(s, p.taus, p.coupling)


def _sup(u):
    return float(np.max(np.abs(u)))


def _res_params(s, beta, mu1=1.0, mu2=1.0):
    lam = s.lambda1()
    return SystemParams(lam, lam, mu1, mu2, beta)


def _stub_omega(g):
    return np.ones(g.node_count)


def system_nehari_oracle(p, g, seeds=8, iters=3000):
    """Definite-case ground level by direct minimization of the
    Nehari-constrained energy J(u,u)^2 / (4 <f(u), u>) over nodal pairs."""
    w = g.quad_weight
    n = g.node_count

    def psi_grad(x):
        u1, u2 = x[:n], x[n:]
        L1 = laplacian_apply(g, u1) - p.tau1 * u1
        L2 = laplacian_apply(g, u2) - p.tau2 * u2
        J = w * float(np.dot(u1, L1) + np.dot(u2, L2))
        f1 = p.mu1 * u1**3 + p.beta * u1 * u2**2
        f2 = p.mu2 * u2**3 + p.beta * u1**2 * u2
        Q = w * float(np.dot(f1, u1) + np.dot(f2, u2))
        psi = J**2 / (4.0 * Q)
        gJ = 2.0 * w * np.concatenate([L1, L2])
        gQ = 4.0 * w * np.concatenate([f1, f2])
        return psi, (J / (2.0 * Q)) * gJ - (J**2 / (4.0 * Q**2)) * gQ

    rng = np.random.default_rng(11)
    best = np.inf
    for _ in range(seeds):
        x = rng.standard_normal(2 * n)
        x /= np.linalg.norm(x)
        val, gr = psi_grad(x)
        step, px, pg = 1e-2, None, None
        for _it in range(iters):
            if px is not None:
                dx, dg = x - px, gr - pg
                denom = float(np.dot(dx, dg))
                if denom > 0:
                    step = float(np.dot(dx, dx)) / denom
            step = min(max(step, 1e-12), 1e3)
            px, pg = x, gr
            x = x - step * gr
            x /= np.linalg.norm(x)
            val, gr = psi_grad(x)
            if np.linalg.norm(gr) <= 1e-13 * max(1.0, abs(val)):
                break
        best = min(best, val)
    return best


def test_synchronized_amplitudes(g32):
    p = SystemParams(0.5, 0.5, 1.0, 2.0, 3.0)
    u1, u2 = synchronized_solution(p, _stub_omega(g32)).reshape(2, -1)
    # (mu2-b, mu1-b)/(mu1 mu2 - b^2) = (-1, -2)/(-7)
    assert u1[0] == pytest.approx(np.sqrt(1.0 / 7.0), rel=1e-12)
    assert u2[0] == pytest.approx(np.sqrt(2.0 / 7.0), rel=1e-12)


def test_synchronized_symmetric(g32):
    p = SystemParams(0.5, 0.5, 2.0, 2.0, 1.0)
    u1, u2 = synchronized_solution(p, _stub_omega(g32)).reshape(2, -1)
    assert u1[0] == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert u2[0] == pytest.approx(u1[0], rel=1e-12)


def test_synchronized_large_beta_asymptotics(g32):
    beta = 1e4
    p = SystemParams(0.5, 0.5, 1.0, 2.0, beta)
    u1, u2 = synchronized_solution(p, _stub_omega(g32)).reshape(2, -1)
    assert np.sqrt(beta) * u1[0] == pytest.approx(1.0, abs=1e-2)
    assert np.sqrt(beta) * u2[0] == pytest.approx(1.0, abs=1e-2)


def test_synchronized_errors(g32):
    with pytest.raises(NoSynchronizedPair):
        synchronized_solution(
            SystemParams(0.5, 0.5, 1.0, 2.0, 1.5), _stub_omega(g32)
        )
    with pytest.raises(DegenerateDenominator):
        synchronized_solution(
            SystemParams(0.5, 0.5, 1.0, 2.0, np.sqrt(2.0)), _stub_omega(g32)
        )
    with pytest.raises(ValueError):
        synchronized_solution(
            SystemParams(0.5, 0.7, 1.0, 1.0, 0.5), _stub_omega(g32)
        )


def test_synchronized_is_critical(g32, s32):
    p = _res_params(s32, 2.0)
    omega = solve_scalar_ground(p.tau1, 1.0, g32, s32)
    sync = synchronized_solution(p, omega.u)
    r = residual(g32, p.taus, p.coupling, sync)
    assert _sup(r) <= 1e-8 * _sup(sync)


def test_semitrivial_levels(g32, s32):
    p = SystemParams(0.0, 0.0, 1.0, 1.0, 0.5)
    cp1, cp2, c_sem = semitrivial_solutions(p, g32, pair_grounds(p, g32, s32))
    assert cp1.kind == "semitrivial_1" and cp2.kind == "semitrivial_2"
    assert np.isnan(cp1.hplus_norm) and np.isnan(cp2.hplus_norm)
    assert cp1.energy == pytest.approx(cp2.energy, rel=1e-8)
    assert c_sem == pytest.approx(cp1.energy, rel=1e-12)
    # c_sem scales like 1/mu
    p4 = SystemParams(0.0, 0.0, 4.0, 4.0, 0.5)
    _, _, c4 = semitrivial_solutions(p4, g32, pair_grounds(p4, g32, s32))
    assert c4 == pytest.approx(c_sem / 4.0, rel=1e-10)


def test_newton_refine_kinds(g32, s32):
    p = _res_params(s32, 2.0)
    ch = _pair_chart(p, s32)
    u1 = solve_scalar_ground(p.tau1, p.mu1, g32, s32)
    st = np.concatenate([u1.u, np.zeros(g32.node_count)])
    cp = newton_refine(g32, ch, st)
    assert cp.kind == "semitrivial_1"
    assert cp.residual_norm <= 1e-9

    omega = solve_scalar_ground(p.tau1, 1.0, g32, s32)
    sync = synchronized_solution(p, omega.u)
    cp = newton_refine(g32, ch, sync)
    assert cp.kind == "synchronized"
    assert cp.residual_norm <= 1e-10 * max(1.0, np.max(np.abs(cp.point[: g32.node_count])))

    with pytest.raises(ConvergedToTilde):
        newton_refine(g32, ch, np.zeros(2 * g32.node_count))


def test_minimize_reduced_definite_oracle(g32, s32):
    p = SystemParams(0.0, 0.0, 1.0, 1.0, 0.1)
    red = minimize_reduced(p, g32, _pair_chart(p, s32), pair_grounds(p, g32, s32))
    oracle = system_nehari_oracle(p, g32)
    assert red.c_prime_est == pytest.approx(oracle, rel=1e-5)


def test_minimize_reduced_scaling(g32, s32):
    p = SystemParams(0.0, 0.0, 1.0, 2.0, 0.5)
    p4 = SystemParams(0.0, 0.0, 4.0, 8.0, 2.0)
    a = minimize_reduced(p, g32, _pair_chart(p, s32), pair_grounds(p, g32, s32))
    b = minimize_reduced(p4, g32, _pair_chart(p4, s32), pair_grounds(p4, g32, s32))
    assert b.c_prime_est == pytest.approx(a.c_prime_est / 4.0, rel=1e-7)


def test_minimize_reduced_resonant_matches_quotient(g32, s32):
    # symmetric resonant with beta <= mu: h_inf = 1 and c' = S^2/4
    p = _res_params(s32, 1.0)
    red = minimize_reduced(p, g32, _pair_chart(p, s32), pair_grounds(p, g32, s32))
    sg = solve_scalar_ground(p.tau1, 1.0, g32, s32)
    assert red.c_prime_est == pytest.approx(sg.quotient**2 / 4.0, rel=1e-4)


def _recorded_psi(ch, visited):
    """psi of minimize_reduced on the chart ch; records every direction."""
    plain = reduced_psi(ch)

    def psi(a, state):
        visited.append(a.copy())
        return plain(a, state)

    return psi


@pytest.mark.parametrize("beta", [0.5, 2.9, 4.0, 8.0])
@pytest.mark.parametrize("tau", ["lambda1", 2.5])
def test_semitrivial_subspace_is_invariant(g32, s32, tau, beta):
    # every term of I with the Htilde part of u2 is <= 0, so the fiber
    # maximum of (a1, 0) has u2 = 0, the a2 block of grad psi is 0 and the
    # descent from a single-component mode is the scalar descent from it
    tau = s32.lambda1() if tau == "lambda1" else tau
    p = SystemParams(tau, tau, 1.0, 1.0, beta)
    ch, ch1 = _pair_chart(p, s32), fiber_chart(s32, (tau,), [[p.mu1]])
    n1 = ch.plus[0].shape[1]
    c_sem = solve_scalar_ground(tau, p.mu1, g32, s32).energy
    for k in range(3):
        visited = []
        a0, a1 = np.eye(ch.metric.size)[k], np.eye(ch1.metric.size)[k]
        psi = _recorded_psi(ch, visited)
        val = sphere_descent(psi, ch.metric, a0, tol=1e-4, max_iter=60)[1]
        val1 = sphere_descent(reduced_psi(ch1), ch1.metric, a1, tol=1e-4, max_iter=60)[1]
        off = max(np.linalg.norm(a[n1:]) / np.linalg.norm(a) for a in visited)
        if beta < 3.0:
            # one fiber seed, from c = 0: the subspace holds exactly
            assert off == 0.0
        else:
            # a random fiber seed that ends within the ascent's tolerance of
            # the maximum can leave c2 ~ 1e-10 t; the descent stays that close
            assert off <= 1e-8
        assert val >= c_sem * (1.0 - 1e-12)
        assert val == pytest.approx(val1, rel=1e-10)


@pytest.mark.parametrize("n", [32, 64])
def test_reduced_energy_is_even_in_the_second_component(g32, s32, g64, s64, n):
    # I(u1, -u2) = I(u1, u2): the fiber of (a1, -a2) is that of (a1, a2) with
    # c2 negated, so minimize_reduced leaves out the mirror of e0 + e(n1)
    g, s = (g32, s32) if n == 32 else (g64, s64)
    rng = np.random.default_rng(5)
    for beta in (0.5, 8.0):
        p = SystemParams(2.5, 2.5, 1.0, 1.0, beta)
        ch = _pair_chart(p, s)
        # both components split at 2.5: each holds half of Htilde
        n1, m1 = ch.plus[0].shape[1], ch.qt.size // 2
        flip_a = np.where(np.arange(ch.metric.size) < n1, 1.0, -1.0)
        flip_z = np.where(np.arange(1 + ch.qt.size) <= m1, 1.0, -1.0)
        n_seeds = fiber_seed_count(p.coupling, COLD_SEEDS)
        for _ in range(5):
            a = rng.standard_normal(ch.metric.size)
            fm = fiber_maximize(ch, a, n_seeds, seed=3)
            mirror = fiber_maximize(ch, flip_a * a, n_seeds, seed=3)
            if beta == 0.5:
                assert mirror.value == fm.value
                assert np.array_equal(mirror.z, flip_z * fm.z)
                assert np.array_equal(mirror.grad, flip_a * fm.grad)
            else:
                assert mirror.value == pytest.approx(fm.value, rel=1e-12)


def test_screen_leaves_out_known_descents(g32, s32, monkeypatch):
    # resonant (1, 1, 0.5), extra_seeds 2: the screen holds the two
    # semi-trivial embeddings, which maximize their own fibers and get no
    # descent, and descents from the synchronized pair, e0 + e(n1) and two
    # random directions, one each and nothing more
    p = _res_params(s32, 0.5)
    grounds = pair_grounds(p, g32, s32)
    starts = []

    def counted(fun, metric, a0, **kwargs):
        starts.append((np.array(a0, dtype=float), kwargs["tol"]))
        return sphere_descent(fun, metric, a0, **kwargs)

    monkeypatch.setattr(system_mod, "sphere_descent", counted)
    opts = SolverOptions(extra_seeds=2)
    red = minimize_reduced(p, g32, _pair_chart(p, s32), grounds, opts)
    screen = [a0 for a0, tol in starts if tol == system_mod.DESCENT_TOL]
    assert len(screen) == len(starts) == 1 + 1 + 2
    assert red.diagnostics["seeds"] == 2 + len(screen)
    # no screen seed is a single-component mode direction
    assert all(np.count_nonzero(a0) > 1 for a0 in screen)


def _ascents_per_fiber(monkeypatch):
    """Wrap fiber_maximize where it is called; records (warm, n_seeds, ascents)."""
    calls, ascents = [], []
    plain_max, plain_ascent = fiber_mod.fiber_maximize, fiber_mod.newton_max_subspace

    def ascent(*args, **kwargs):
        ascents.append(1)
        return plain_ascent(*args, **kwargs)

    def counted(ch, a, n_seeds=1, init=None, seed=0):
        before = len(ascents)
        fm = plain_max(ch, a, n_seeds, init, seed)
        calls.append((init is not None, n_seeds, len(ascents) - before))
        return fm

    monkeypatch.setattr(fiber_mod, "newton_max_subspace", ascent)
    monkeypatch.setattr(fiber_mod, "fiber_maximize", counted)
    return calls


@pytest.mark.parametrize("beta", [0.5, 2.9])
def test_unique_fiber_maximum_takes_one_ascent(g32, s32, monkeypatch, beta):
    # below 3 sqrt(mu1 mu2) = 3 every fiber maximum, cold or warm, in the
    # descent or in its polish, is one Newton ascent
    p = SystemParams(2.5, 2.5, 1.0, 1.0, beta)
    grounds = pair_grounds(p, g32, s32)
    calls = _ascents_per_fiber(monkeypatch)
    minimize_reduced(p, g32, _pair_chart(p, s32), grounds, SolverOptions(max_iter=20, extra_seeds=1))
    assert calls
    assert {(n, k) for _, n, k in calls} == {(1, 1)}
    assert {warm for warm, _, _ in calls} == {False, True}


def test_nonunique_regime_keeps_its_seed_counts(g32, s32, monkeypatch):
    # at beta >= 3 sqrt(mu1 mu2): 10 cold seeds, 2 warm ones in the descent,
    # 5 warm ones in the N' check of the Newton polish
    p = SystemParams(2.5, 2.5, 1.0, 1.0, 4.0)
    grounds = pair_grounds(p, g32, s32)
    calls = _ascents_per_fiber(monkeypatch)
    minimize_reduced(p, g32, _pair_chart(p, s32), grounds, SolverOptions(max_iter=20, extra_seeds=1))
    assert all(n == k for _, n, k in calls)
    assert {(warm, n) for warm, n, _ in calls} == {(False, 10), (True, 2), (True, 5)}


def test_the_minimizer_fiber_is_solved_once(g32, s32, monkeypatch):
    # beta = 4, the many-seed regime: no fiber is solved again for the
    # minimizer, so the only cold fiber maximizations are the first calls
    # of the screen descents: one per screen entry but the two semi-trivial
    # ones, which take no descent
    p = SystemParams(2.5, 2.5, 1.0, 1.0, 4.0)
    grounds = pair_grounds(p, g32, s32)
    cold = []
    plain_max = fiber_mod.fiber_maximize

    def counted_max(ch, a, n_seeds=1, init=None, seed=0):
        cold.append(init is None)
        return plain_max(ch, a, n_seeds, init, seed)

    monkeypatch.setattr(fiber_mod, "fiber_maximize", counted_max)
    red = minimize_reduced(p, g32, _pair_chart(p, s32), grounds, SolverOptions(extra_seeds=2))
    assert red.diagnostics["refined"]
    assert sum(cold) == red.diagnostics["seeds"] - 2


def test_refined_minimization_builds_one_chart(g32, s32, monkeypatch):
    # the descent, the N' check of the Newton polish and every Newton run of
    # the search share the chart find_critical_set builds
    p = SystemParams(2.5, 2.5, 1.0, 1.0, 4.0)
    grounds = pair_grounds(p, g32, s32)
    charts, plain = [], fiber_mod.fiber_chart

    def counted(*args, **kwargs):
        charts.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(fiber_mod, "fiber_chart", counted)
    monkeypatch.setattr(system_mod, "fiber_chart", counted)
    gc = find_critical_set(p, g32, s32, grounds, SolverOptions(extra_seeds=2))
    assert gc.reduced.diagnostics["refined"]
    assert len(charts) == 1


def _screen_ends(monkeypatch):
    """Wrap sphere_descent in nlss.system; records (value, a, z) of every
    screen descent as it returns."""
    ends = []

    def descent(fun, metric, a0, **kwargs):
        a, val, state, conv = sphere_descent(fun, metric, a0, **kwargs)
        ends.append((val, a, state))
        return a, val, state, conv

    monkeypatch.setattr(system_mod, "sphere_descent", descent)
    return ends


def test_after_the_polish_only_the_check_solves_a_fiber(g32, s32, monkeypatch):
    # beta = 4, many-seed regime, refined: once the screen descents have
    # returned, the one fiber maximization left is the N' check's of the
    # Newton polish, warm with its 5 seeds; the minimizer's fiber is not
    # solved again
    p = SystemParams(2.5, 2.5, 1.0, 1.0, 4.0)
    grounds = pair_grounds(p, g32, s32)
    ends = _screen_ends(monkeypatch)
    calls, checking = [], []
    plain_max, plain_check = fiber_mod.fiber_maximize, system_mod.in_nehari_prime

    def counted_max(ch, a, n_seeds=1, init=None, seed=0):
        calls.append((len(ends), bool(checking), init is not None, n_seeds))
        return plain_max(ch, a, n_seeds, init, seed)

    def check(*args, **kwargs):
        checking.append(1)
        try:
            return plain_check(*args, **kwargs)
        finally:
            checking.pop()

    monkeypatch.setattr(fiber_mod, "fiber_maximize", counted_max)
    monkeypatch.setattr(system_mod, "in_nehari_prime", check)
    red = minimize_reduced(p, g32, _pair_chart(p, s32), grounds, SolverOptions(extra_seeds=2))
    assert red.diagnostics["refined"]
    assert len(ends) == red.diagnostics["seeds"] - 2
    late = [call[1:] for call in calls if call[0] == len(ends)]
    assert late == [(True, True, 5)]
    assert np.array_equal(red.minimizer, red.polish.point)


def test_unrefined_minimizer_is_the_best_screen_end(g32, s32, monkeypatch):
    # resonant beta = 50: the Newton polish does not pass the N' check, so
    # the minimizer is the fiber point ch.point(a, z) where the best screen
    # descent stopped, bit for bit, and c' is that descent's psi
    p = _res_params(s32, 50.0)
    ends = _screen_ends(monkeypatch)
    red = minimize_reduced(p, g32, _pair_chart(p, s32), pair_grounds(p, g32, s32), SolverOptions(extra_seeds=2))
    assert not red.diagnostics["refined"]
    val, a, z = min(ends, key=lambda e: e[0])
    assert red.c_prime_est == val
    assert np.array_equal(red.minimizer, _pair_chart(p, s32).point(a, z))


def test_c_prime_of_a_sweep_point_is_kept():
    # indefinite-sweep point 2 of config seed 1001 (beta = 1.5157, solver
    # seed 1001 ^ 2, the scalar stage at the config seed), where a descent
    # to tol 1e-8 spends most of its psi evaluations below psi's rounding:
    # Newton from the screen's end gives the c' of that descent
    g = build_grid(DomainSpec("interval", (np.pi,), 128))
    s = get_spectrum(g)
    beta = _sweep_values(SweepSpec("beta", 0.5, 8.0, 6, "log"))[2]
    p = SystemParams(2.5, 2.5, 1.0, 1.0, beta)
    opts = SolverOptions(max_iter=60, restarts=4, extra_seeds=4, seed=1001)
    grounds = pair_grounds(p, g, s, opts)
    opts = dataclasses.replace(opts, seed=1001 ^ 2)
    red = minimize_reduced(p, g, _pair_chart(p, s), grounds, opts)
    assert red.c_prime_est == pytest.approx(0.9256139012817993, rel=1e-12)


def test_descent_below_psi_rounding_stops():
    # tau = 2.5, beta = 1.5: tol 1e-12 asks for a gradient below psi's
    # rounding noise; the descent stops at the floor where, evaluating
    # every halving, it took 626 psi evaluations for a value 1e-15 lower
    g = build_grid(DomainSpec("interval", (np.pi,), 128))
    s = get_spectrum(g)
    ch = fiber_chart(s, (2.5, 2.5), [[1.0, 1.5], [1.5, 1.0]])
    calls = []

    def psi(a, state):
        calls.append(1)
        fm = fiber_maximize(ch, a, 1, init=state)
        return fm.value, fm.grad, fm.z

    a0 = np.random.default_rng(3).standard_normal(ch.metric.size)
    ref = sphere_descent(psi, ch.metric, a0, tol=1e-8)[1]
    calls.clear()
    val = sphere_descent(psi, ch.metric, a0, tol=1e-12)[1]
    assert len(calls) <= 30
    assert val == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize(
    "domain, tau, beta",
    [
        ("interval", "lambda1", None),
        ("interval", 2.5, None),
        ("interval", 2.5, 1.5),
        ("interval", 2.5, 4.0),
        ("rectangle", "lambda1", None),
        ("rectangle", "lambda1", 0.5),
    ],
)
def test_newton_from_the_screen_end_loses_nothing(g2d, s2d, domain, tau, beta):
    # every sphere descent stops at DESCENT_TOL and hands its end to Newton:
    # from there Newton reaches the critical point it reaches from where the
    # same descent, continued to tol 1e-8, stops (k = 1 where beta is None;
    # n = 128 on the interval, the 11 x 11 square)
    if domain == "interval":
        g = build_grid(DomainSpec("interval", (np.pi,), 128))
        s = get_spectrum(g)
    else:
        g, s = g2d, s2d
    tau = s.lambda1() if tau == "lambda1" else tau
    if beta is None:
        ch = fiber_chart(s, (tau,), [[1.0]])
        first = np.eye(ch.metric.size)[0]
    else:
        ch = fiber_chart(s, (tau, tau), [[1.0, beta], [beta, 1.0]])
        eye = np.eye(ch.metric.size)
        first = eye[0] + eye[ch.plus[0].shape[1]]
    psi = reduced_psi(ch)
    for a0 in (first, np.random.default_rng(1).standard_normal(ch.metric.size)):
        ends = []
        for tol in (system_mod.DESCENT_TOL, 1e-8):
            a, _, z, _ = sphere_descent(psi, ch.metric, a0, tol=tol)
            ends.append(newton_refine(g, ch, ch.point(a, z)))
        handed, finished = ends
        assert _sup(handed.point - finished.point) <= 1e-9 * _sup(finished.point)
        assert handed.energy == pytest.approx(finished.energy, rel=0, abs=1e-12)


def test_find_critical_set_invariants(g32, s32):
    p = _res_params(s32, 2.0)
    gc = find_critical_set(p, g32, s32, pair_grounds(p, g32, s32))
    best = gc.all_found[0]
    c_prime = gc.reduced.c_prime_est
    assert best.energy <= c_prime + 1e-8 * max(1.0, c_prime)
    assert [cp.energy for cp in gc.all_found] == sorted(cp.energy for cp in gc.all_found)
    reasons = gc.diagnostics["failure_reasons"]
    assert set(reasons) <= {"stagnated", "damping exhausted", "iteration cap", "htilde"}
    # energy identity at a critical point: I = (1/4) <f(u), u>
    u1, u2 = best.point.reshape(2, -1)
    f1 = p.mu1 * u1**3 + p.beta * u1 * u2**2
    f2 = p.mu2 * u2**3 + p.beta * u1**2 * u2
    pairing = g32.quad_weight * float(np.dot(f1, u1) + np.dot(f2, u2))
    assert best.energy == pytest.approx(0.25 * pairing, rel=1e-8)
    assert best.energy > 0
    assert best.hplus_norm > 1e-3
    for cp in gc.all_found:
        r = residual(g32, p.taus, p.coupling, cp.point)
        assert _sup(r) <= 1e-8 * max(1.0, _sup(cp.point))
    # sign-flipped copy is still a critical point
    n = g32.node_count
    flipped = np.concatenate([-best.point[:n], best.point[n:]])
    r = residual(g32, p.taus, p.coupling, flipped)
    assert _sup(r[:n]) <= 1e-8 * max(1.0, _sup(flipped[:n]))


def _newton_starts(monkeypatch):
    """Wrap newton_refine in nlss.system; records the stacked start points."""
    starts, plain = [], system_mod.newton_refine

    def counted(g, ch, u0, opts=SolverOptions()):
        starts.append(u0.copy())
        return plain(g, ch, u0, opts=opts)

    monkeypatch.setattr(system_mod, "newton_refine", counted)
    return starts


@pytest.mark.parametrize("tau, beta", [("lambda1", 0.5), (2.5, 0.5), (2.5, 4.0)])
def test_newton_seeds_start_at_screen_ends(g32, s32, monkeypatch, tau, beta):
    # the random Newton runs start where the screen descents from the random
    # directions stop, near critical points of psi, and none of them fails;
    # no fiber is maximized for them outside minimize_reduced
    tau = s32.lambda1() if tau == "lambda1" else tau
    p = SystemParams(tau, tau, 1.0, 1.0, beta)
    ch = _pair_chart(p, s32)
    grounds = pair_grounds(p, g32, s32)
    ends, fibers, in_reduced = [], [], []
    plain_fiber, plain_reduced = fiber_mod.fiber_maximize, system_mod.minimize_reduced

    def descent(fun, metric, a0, **kwargs):
        a, val, state, conv = sphere_descent(fun, metric, a0, **kwargs)
        ends.append(ch.point(a, state))
        return a, val, state, conv

    def fiber(*args, **kwargs):
        fibers.append(1)
        return plain_fiber(*args, **kwargs)

    def reduced(*args, **kwargs):
        before = len(fibers)
        out = plain_reduced(*args, **kwargs)
        in_reduced.append(len(fibers) - before)
        return out

    monkeypatch.setattr(system_mod, "sphere_descent", descent)
    monkeypatch.setattr(fiber_mod, "fiber_maximize", fiber)
    monkeypatch.setattr(system_mod, "minimize_reduced", reduced)
    starts = _newton_starts(monkeypatch)
    gc = find_critical_set(p, g32, s32, grounds, SolverOptions(extra_seeds=2))
    assert gc.diagnostics["failure_reasons"] == {}
    assert fibers and in_reduced == [len(fibers)]
    # screen descents: the synchronized pair, e0 + e(n1), two random
    assert len(ends) == 1 + 1 + 2
    assert len(starts) == 1 + 3 + 2
    for start, end in zip(starts[-2:], ends[-2:]):
        assert np.array_equal(start, end)


@pytest.mark.parametrize("beta", [0.5, 50.0])
def test_newton_runs_once_per_start(g32, s32, monkeypatch, beta):
    # the polish of the reduced minimizer is one of the search's runs, not
    # repeated: at beta = 0.5 it refines c', at beta = 50 it does not; the
    # other runs start, in order, from minimize_reduced's newton_starts, the
    # semi-trivial embeddings and the synchronized pair first
    p = _res_params(s32, beta)
    grounds = pair_grounds(p, g32, s32)  # its scalar polishes are no runs of the search
    starts = _newton_starts(monkeypatch)
    gc = find_critical_set(p, g32, s32, grounds, SolverOptions(extra_seeds=2))
    assert gc.reduced.diagnostics["refined"] == (beta < 1.0)
    assert len(starts) == gc.diagnostics["newton_runs"] == 1 + 3 + 2
    assert len(gc.reduced.newton_starts) == len(starts) - 1
    assert all(np.array_equal(a, b) for a, b in zip(starts[1:], gc.reduced.newton_starts))
    semi1, semi2, _ = semitrivial_solutions(p, g32, grounds)
    lead = [semi1.point, semi2.point, synchronized_solution(p, grounds.unit.u)]
    assert all(np.array_equal(a, b) for a, b in zip(starts[1:4], lead))
    for i, a in enumerate(starts):
        assert not any(np.array_equal(a, b) for b in starts[:i])


def test_semitrivial_energies_are_evaluated_once(g32, s32, monkeypatch):
    # I(U1, 0) and I(0, U2) give both c_sem and the closed-form screen
    # entries of minimize_reduced; outside the Newton runs (whose converged
    # points get their own energies) the search evaluates each once
    p = _res_params(s32, 0.5)
    grounds = pair_grounds(p, g32, s32)
    zero = np.zeros(g32.node_count)
    embeddings = [np.concatenate([grounds.first.u, zero]), np.concatenate([zero, grounds.second.u])]
    seen, in_newton = [], []
    plain_energy, plain_refine = system_mod.energy, system_mod.newton_refine

    def energy(g, taus, B, x):
        if not in_newton:
            seen.append(x.copy())
        return plain_energy(g, taus, B, x)

    def refine(*args, **kwargs):
        in_newton.append(1)
        try:
            return plain_refine(*args, **kwargs)
        finally:
            in_newton.pop()

    monkeypatch.setattr(system_mod, "energy", energy)
    monkeypatch.setattr(system_mod, "newton_refine", refine)
    gc = find_critical_set(p, g32, s32, grounds, SolverOptions(extra_seeds=2))
    assert [sum(np.array_equal(w, x) for x in seen) for w in embeddings] == [1, 1]
    assert gc.reduced.c_sem == semitrivial_solutions(p, g32, grounds)[2]
