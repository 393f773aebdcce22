import numpy as np
import pytest

from nlss import (
    DomainSpec,
    build_grid,
    get_spectrum,
    least_quotient,
    solve_scalar_ground,
)
from nlss import system as system_mod
from nlss._opt import NewtonResult, sphere_descent
from nlss.errors import NoConvergence
from nlss.fiber import fiber_chart, fiber_maximize
from nlss.grids import inner_grad, inner_l2, laplacian_apply, norm_lp
from nlss.options import SolverOptions
from nlss.functional import energy
from nlss.scalar import scale_ground
from nlss.thresholds import beta_hat

PI = np.pi


def nehari_oracle(g, tau, mu, seeds=10, iters=3000):
    """Independent ground-level estimate by direct minimization over the full
    nodal space of the Nehari-constrained energy J(u,u)^2 / (4 mu ||u||_4^4).

    Plain Barzilai-Borwein descent; valid for the definite case tau < lambda1.
    """
    w = g.quad_weight
    n = g.node_count

    def jq(u):
        return inner_grad(g, u, u) - tau * inner_l2(g, u, u)

    def psi_grad(u):
        J = jq(u)
        Q = mu * w * float(np.sum(u**4))
        psi = J**2 / (4.0 * Q)
        gJ = 2.0 * w * (laplacian_apply(g, u) - tau * u)
        gQ = 4.0 * mu * w * u**3
        grad = (J / (2.0 * Q)) * gJ - (J**2 / (4.0 * Q**2)) * gQ
        return psi, grad

    rng = np.random.default_rng(17)
    best = np.inf
    for _ in range(seeds):
        u = rng.standard_normal(n)
        u /= np.sqrt(inner_l2(g, u, u))
        val, gr = psi_grad(u)
        step = 1e-2
        pu = pg = None
        for _it in range(iters):
            if pu is not None:
                du, dg = u - pu, gr - pg
                denom = float(np.dot(du, dg))
                if denom > 0:
                    step = float(np.dot(du, du)) / denom
            step = min(max(step, 1e-12), 1e3)
            pu, pg = u, gr
            u = u - step * gr
            nrm = np.sqrt(inner_l2(g, u, u))
            if nrm <= 0 or not np.isfinite(nrm):
                break
            u /= nrm
            val, gr = psi_grad(u)
            if np.linalg.norm(gr) <= 1e-13 * max(1.0, abs(val)):
                break
        best = min(best, val)
    return best


def test_definite_matches_oracle(g64, s64):
    sg = solve_scalar_ground(0.0, 1.0, g64, s64)
    oracle = nehari_oracle(g64, 0.0, 1.0)
    assert sg.energy == pytest.approx(oracle, rel=1e-6)


def test_scaling_law(g64, s64):
    sg1 = solve_scalar_ground(0.0, 1.0, g64, s64)
    sg4 = solve_scalar_ground(0.0, 4.0, g64, s64)
    assert sg4.energy == pytest.approx(sg1.energy / 4.0, rel=1e-12)
    assert np.max(np.abs(sg4.u - sg1.u / 2.0)) <= 1e-9 * np.max(np.abs(sg1.u))


def test_scaled_ground_matches_direct_solve(g32, s32):
    lam = s32.lambda1()
    ch = fiber_chart(s32, (lam,), [[1.0]])
    scaled = scale_ground(solve_scalar_ground(lam, 1.0, g32, s32), 2.0)
    direct = solve_scalar_ground(lam, 2.0, g32, s32)
    assert scaled.mu == 2.0
    assert scaled.energy == pytest.approx(direct.energy, rel=1e-10)
    assert scaled.quotient == pytest.approx(direct.quotient, rel=1e-10)
    assert beta_hat(ch, scaled.u) == pytest.approx(beta_hat(ch, direct.u), rel=1e-10)
    assert scaled.residual_norm <= 1e-10 * max(1.0, np.max(np.abs(scaled.u)))


def test_ground_invariants(g64, s64):
    sg = solve_scalar_ground(0.0, 1.0, g64, s64)
    assert sg.energy > 0
    assert sg.residual_norm <= 1e-10 * max(1.0, np.max(np.abs(sg.u)))
    assert sg.energy == pytest.approx(0.25 * sg.mu * norm_lp(g64, sg.u, 4) ** 4, rel=1e-8)
    jval = inner_grad(g64, sg.u, sg.u) - sg.tau * inner_l2(g64, sg.u, sg.u)
    assert jval == pytest.approx(4.0 * sg.energy, rel=1e-8)


def test_resonant_cubic_orthogonality(g64, s64):
    lam = s64.lambda1()
    sg = solve_scalar_ground(lam, 1.0, g64, s64)
    val = g64.quad_weight * float(np.sum(sg.u**3 * s64.phi1()))
    assert abs(val) <= 1e-8 * max(1.0, np.max(np.abs(sg.u)) ** 3)


def test_quotient_seed_independence(g64, s64):
    lam = s64.lambda1()
    a = solve_scalar_ground(lam, 1.0, g64, s64, SolverOptions(seed=0))
    b = solve_scalar_ground(lam, 1.0, g64, s64, SolverOptions(seed=123))
    assert a.quotient == pytest.approx(b.quotient, rel=1e-6)


def test_quotient_properties(g32, s32):
    r = np.random.default_rng(5)
    u = r.standard_normal(g32.node_count)
    assert least_quotient(g32, 3.0 * u, 0.7) == pytest.approx(
        least_quotient(g32, u, 0.7), rel=1e-12
    )
    phi1 = s32.phi1().copy()
    expect = s32.lambda1() * inner_l2(g32, phi1, phi1) / norm_lp(g32, phi1, 4) ** 2
    assert least_quotient(g32, phi1, 0.0) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        least_quotient(g32, np.zeros(g32.node_count), 0.0)


def test_s_converges_in_n():
    vals = []
    for n in (32, 64, 128):
        g = build_grid(DomainSpec("interval", (PI,), n))
        s = get_spectrum(g)
        sg = solve_scalar_ground(s.lambda1(), 1.0, g, s)
        vals.append(sg.quotient)
    d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
    assert d2 < d1


def test_no_convergence_surface():
    # pathological budget: zero restarts is not allowed to crash, it must
    # either converge from the deterministic seeds or raise NoConvergence
    g = build_grid(DomainSpec("interval", (PI,), 16))
    s = get_spectrum(g)
    sg = solve_scalar_ground(0.0, 1.0, g, s, SolverOptions(restarts=1, max_iter=50))
    assert sg.energy > 0


def test_failed_polishes_raise_no_convergence(g32, s32, monkeypatch):
    # every Newton polish stops unconverged, by turns stagnated and at its
    # cap: each restart is polished once, and the error names both reasons
    stops = iter(["stagnated", "iteration cap"] * 2)
    calls, plain = [], system_mod.newton_refine

    def failing(res_fn, jac_fn, x0, tol, max_iter):
        return NewtonResult(x0, 1.0, False, next(stops), 3)

    def counted(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(system_mod, "damped_newton", failing)
    monkeypatch.setattr(system_mod, "newton_refine", counted)
    opts = SolverOptions(restarts=4, max_iter=30)
    with pytest.raises(NoConvergence) as info:
        solve_scalar_ground(s32.lambda1(), 1.0, g32, s32, opts)
    assert len(calls) == opts.restarts
    assert "stagnated x2" in str(info.value)
    assert "iteration cap x2" in str(info.value)


def test_candidates_share_minimal_energy(g32, s32):
    sg = solve_scalar_ground(s32.lambda1(), 1.0, g32, s32)
    for c in sg.candidates:
        assert energy(g32, (sg.tau,), np.array([[sg.mu]]), c) == pytest.approx(
            sg.energy, rel=2e-6
        )


def test_random_restart_skips_hopeless_line_search_steps():
    # the random fourth restart of solve_scalar_ground at tau = 2.5 starts at
    # psi ~ 6e6 with a slope ~ -2e16: the Armijo target is negative for the
    # first 19 halvings, and only steps past them are evaluated (38 fiber
    # maxima when every halving is evaluated)
    g = build_grid(DomainSpec("interval", (PI,), 128))
    s = get_spectrum(g)
    opts = SolverOptions(max_iter=60, restarts=4, extra_seeds=4, seed=1000)
    ch = fiber_chart(s, (2.5,), [[1.0]])
    a0 = np.random.default_rng(opts.seed).standard_normal(ch.metric.size)
    calls = []

    def psi(a, state):
        calls.append(1)
        fm = fiber_maximize(ch, a, init=state)
        return fm.value, fm.grad, fm.z

    _, val, _, converged = sphere_descent(psi, ch.metric, a0, tol=1e-8, max_iter=opts.max_iter)
    assert converged
    assert val == pytest.approx(1.16429111282347, rel=1e-12)
    assert len(calls) <= 20
