import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlss import (
    DomainSpec,
    SystemParams,
    Thresholds,
    assemble_report,
    build_grid,
    get_spectrum,
    h_aux,
    h_inf,
    synchronized_hessian_value,
)
from nlss import fiber as fiber_mod
from nlss import scalar as scalar_mod
from nlss.grids import inner_l2
from nlss.levels import EnergyReport, _fill_verdicts
from nlss.options import SolverOptions
from nlss.scalar import solve_scalar_ground
from nlss.functional import energy, hessian_quadform
from nlss.system import _classify, component_angle, synchronized_solution


def test_h_aux_examples():
    assert h_aux(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert h_aux(4.0, 2.0, 1.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert h_aux(4.0, 2.0, 1.0, 0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2), rel=1e-14)
    with pytest.raises(ValueError):
        h_aux(1.0, 1.0, 1.0, 0.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    t1=st.floats(0.1, 5.0),
    t2=st.floats(0.1, 5.0),
    lam=st.floats(0.1, 10.0),
)
def test_h_aux_scale_invariant(t1, t2, lam):
    a = h_aux(1.5, 0.7, 0.9, t1, t2)
    b = h_aux(1.5, 0.7, 0.9, lam * t1, lam * t2)
    assert b == pytest.approx(a, rel=1e-12)


def test_h_inf_symmetric_interior():
    # mu1 = mu2 = 1, beta = 3: g peaks at the midpoint, max g = 2
    val, x = h_inf(1.0, 1.0, 3.0)
    assert val == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
    assert x == pytest.approx(0.5, rel=1e-12)


def test_h_inf_endpoint_regime():
    # beta below max(mu): the max of g sits at an endpoint, h_inf = 1/sqrt(max mu)
    val, x = h_inf(1.0, 4.0, 2.0)
    assert val == pytest.approx(0.5, rel=1e-14)
    assert x == 0.0
    val, x = h_inf(4.0, 1.0, 2.0)
    assert val == pytest.approx(0.5, rel=1e-14)
    assert x == 1.0


def test_h_inf_continuity_at_mu():
    lo, _ = h_inf(1.0, 1.0, 1.0 - 1e-9)
    hi, _ = h_inf(1.0, 1.0, 1.0 + 1e-9)
    assert lo == pytest.approx(hi, abs=1e-7)
    assert lo == pytest.approx(1.0, abs=1e-7)


def test_h_inf_validation():
    with pytest.raises(ValueError):
        h_inf(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        h_inf(1.0, 1.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    mu1=st.floats(0.2, 5.0),
    mu2=st.floats(0.2, 5.0),
    beta=st.floats(0.1, 8.0),
)
def test_h_inf_matches_grid_scan(mu1, mu2, beta):
    val, _ = h_inf(mu1, mu2, beta)
    ths = np.linspace(0.0, np.pi / 2.0, 2001)
    t1, t2 = np.cos(ths), np.sin(ths)
    rad = mu1 * t1**4 + mu2 * t2**4 + 2.0 * beta * t1**2 * t2**2
    scan = np.min((t1**2 + t2**2) / np.sqrt(rad))
    assert val <= scan + 1e-12
    assert val == pytest.approx(scan, rel=1e-5)


def _beta_star(mu1, mu2):
    """Where the synchronized point's Hessian on span(phi1) x span(phi1)
    gains a positive direction: mu1 + mu2 + sqrt(mu1^2 - mu1 mu2 + mu2^2)."""
    return mu1 + mu2 + math.sqrt(mu1 * mu1 - mu1 * mu2 + mu2 * mu2)


def test_sync_hessian_sign_change_symmetric(g32, s32):
    lam = s32.lambda1()
    omega = solve_scalar_ground(lam, 1.0, g32, s32)
    phi1 = s32.phi1().copy()
    qlo = synchronized_hessian_value(1.0, 1.0, 1.5, lam, g32, omega.u, phi1)
    qhi = synchronized_hessian_value(1.0, 1.0, 50.0, lam, g32, omega.u, phi1)
    assert qlo < 0.0 < qhi
    beta_star = _beta_star(1.0, 1.0)
    lo, hi = beta_star - 0.05, beta_star + 0.05
    assert synchronized_hessian_value(1.0, 1.0, lo, lam, g32, omega.u, phi1) < 0.0
    assert synchronized_hessian_value(1.0, 1.0, hi, lam, g32, omega.u, phi1) > 0.0
    assert hi - lo <= 0.1
    # symmetric mu: the continuum crossing is at beta = 3 mu
    assert lo <= 3.0 + 0.1 and hi >= 3.0 - 0.1


@functools.lru_cache(maxsize=None)
def _resonant_omega(n):
    """Grid, lambda1, phi1 and the mu = 1 scalar ground state at tau = lambda1."""
    g = build_grid(DomainSpec("interval", (math.pi,), n))
    s = get_spectrum(g)
    lam = s.lambda1()
    return g, lam, s.phi1().copy(), solve_scalar_ground(lam, 1.0, g, s).u


def _sync_block_top(mu1, mu2, beta, n):
    """Largest eigenvalue of I'' at the synchronized point on the block
    (c1 phi1, c2 phi1): [[q(phi1, 0), h12], [h12, q(0, phi1)]], h12 by
    polarization of hessian_quadform."""
    g, lam, phi1, omega = _resonant_omega(n)
    p = SystemParams(lam, lam, mu1, mu2, beta)
    sync = synchronized_solution(p, omega)
    zero = np.zeros_like(phi1)

    def q(v1, v2):
        return hessian_quadform(g, p.taus, p.coupling, sync, np.concatenate([v1, v2]))

    q11, q22 = q(phi1, zero), q(zero, phi1)
    h12 = 0.5 * (q(phi1, phi1) - q11 - q22)
    return float(np.linalg.eigvalsh(np.array([[q11, h12], [h12, q22]]))[-1])


@settings(max_examples=20, deadline=None)
@given(mu1=st.floats(0.5, 4.0), mu2=st.floats(0.5, 4.0), n=st.sampled_from([32, 64]))
def test_sync_hessian_block_changes_sign_at_beta_star(mu1, mu2, n):
    # det of the block has the sign of (beta^2 - 2 (mu1 + mu2) beta + 3 mu1
    # mu2) / (mu1 mu2 - beta^2): above max(mu) the block is negative
    # definite below beta* and gains a positive direction above it
    beta_star = _beta_star(mu1, mu2)
    assert _sync_block_top(mu1, mu2, beta_star * (1.0 - 1e-3), n) < 0.0
    assert _sync_block_top(mu1, mu2, beta_star * (1.0 + 1e-3), n) > 0.0


def test_report_resonant_small_beta(g32, s32):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 1.0)
    rep = assemble_report(p, g32, s32)
    assert not rep.partial
    assert rep.verdicts["t12"]["status"] == "pass"
    assert rep.verdicts["t13"]["status"] == "not_applicable"
    assert rep.S_prime_est == pytest.approx(math.sqrt(4.0 * rep.c_prime_est), rel=1e-12)
    lo, hi = rep.c_l_bracket
    assert lo <= hi + 1e-10
    assert rep.c_upper == pytest.approx(min(rep.e_est, rep.c_prime_est))
    assert rep.h_inf == pytest.approx(1.0, rel=1e-12)
    assert rep.S_prime_est == pytest.approx(rep.h_inf_times_S, rel=1e-3)
    assert rep.minimizer_angle <= 1e-3


def test_report_definite_large_beta(g32, s32):
    p = SystemParams(0.0, 0.0, 1.0, 1.0, 4.0)
    rep = assemble_report(p, g32, s32)
    assert not rep.partial
    assert rep.verdicts["t11"]["status"] == "pass"
    assert rep.verdicts["t12"]["status"] == "not_applicable"
    # non-resonant: no scalar quotient branch
    assert math.isnan(rep.S)
    assert rep.c_prime_est < rep.c_sem


@pytest.mark.parametrize("tau", ["lambda1", 2.5])
def test_e_below_c_prime_wherever_t11_applies(g32, s32, tau):
    # property: e_est <= c' on every report whose t11 verdict applies
    # (beta above Lambda), over (mu1, mu2, beta) drawn from a fixed seed
    tau = s32.lambda1() if tau == "lambda1" else tau
    r = np.random.default_rng(2026)
    applied = 0
    for _ in range(6):
        mu1, mu2 = r.uniform(0.5, 2.0, 2)
        beta = math.exp(r.uniform(math.log(0.2), math.log(20.0)))
        rep = assemble_report(SystemParams(tau, tau, mu1, mu2, beta), g32, s32)
        assert not rep.partial, rep.errors
        if rep.verdicts["t11"]["status"] == "not_applicable":
            continue
        applied += 1
        assert rep.e_est <= rep.c_prime_est + 1e-8 * max(1.0, rep.c_prime_est), (mu1, mu2, beta)
    assert applied >= 4


def test_report_verdict_gating(g32, s32):
    lam = s32.lambda1()
    # beta below Lambda: the strict ordering statement does not apply
    p = SystemParams(lam, lam, 1.0, 1.0, 0.5)
    rep = assemble_report(p, g32, s32)
    assert rep.verdicts["t11"]["status"] == "not_applicable"
    assert rep.verdicts["t11"]["note"] == "beta <= Lambda"


def _boundary_report(beta, cap):
    lam = 0.9999505768420225
    th = Thresholds(cap, cap, cap, 3.0, 1.0)
    rep = EnergyReport(
        SystemParams(lam, lam, 1.0, 1.0, beta),
        lam,
        e_est=4.6071804258426,
        c_prime_est=4.6071804258426,
        c_sem=4.6071804258426,
        thresholds=th,
    )
    _fill_verdicts(rep, resonant=True)
    return {k: (v["status"], v["note"]) for k, v in rep.verdicts.items()}


def test_verdicts_on_threshold_boundaries():
    # the resonant (1, 1, 1) report at n = 128: Lambda = 0.9999999999992695
    v = _boundary_report(1.0, 0.9999999999992695)
    assert v["t11"] == ("not_applicable", "boundary")
    assert v["t12"][0] == "pass"
    v = _boundary_report(3.0 * (1.0 + 1e-12), 1.0)
    assert v["t12"] == ("not_applicable", "boundary")
    assert v["t13"] == ("not_applicable", "boundary")
    assert v["t11"][0] != "not_applicable"
    # off the band the ordinary gates apply
    v = _boundary_report(0.5, 1.0)
    assert v["t11"] == ("not_applicable", "beta <= Lambda")


def test_resonant_verdicts_need_no_thresholds():
    # t12 and t13 gate on 3 sqrt(mu1 mu2) of the params; only t11 reads
    # Lambda, so only t11 lacks its inputs where the thresholds failed
    lam, c = 0.9999505768420225, 4.6071804258426
    for beta, e_est, applies, other in ((1.0, c, "t12", "t13"), (8.0, 0.9 * c, "t13", "t12")):
        rep = EnergyReport(
            SystemParams(lam, lam, 1.0, 1.0, beta), lam, e_est=e_est, c_prime_est=c, c_sem=c
        )
        _fill_verdicts(rep, resonant=True)
        v = {k: (v["status"], v["note"]) for k, v in rep.verdicts.items()}
        assert list(v) == ["t11", "t12", "t13"]
        assert v["t11"] == ("not_applicable", "missing inputs")
        assert v[applies] == ("pass", "")
        assert v[other] == ("not_applicable", "")


def test_tau_offsets_inside_the_band_give_the_same_report():
    # tau1 = tau2 within band_side's band: at tau2 = lambda1 (1 + 1e-11) the
    # report solves one scalar problem and seeds Newton from the
    # synchronized pair, as at tau2 = lambda1; an exact test dropped the
    # pair there and e_est rose by 10.7 %
    g = build_grid(DomainSpec("interval", (math.pi,), 128))
    s = get_spectrum(g)
    lam = s.lambda1()
    exact, off = (
        assemble_report(SystemParams(lam, tau2, 1.0, 1.0, 8.0), g, s)
        for tau2 in (lam, lam * (1.0 + 1e-11))
    )
    for key in ("e_est", "c_prime_est", "c_sem"):
        assert getattr(off, key) == pytest.approx(getattr(exact, key), rel=1e-9), key
    statuses = [{k: (v["status"], v["note"]) for k, v in r.verdicts.items()} for r in (exact, off)]
    assert statuses[0] == statuses[1]
    assert statuses[0]["t13"] == ("pass", "")


def test_component_angle_semitrivial_noise(g32, s32):
    # a residual second component of relative L2 norm 2.1e-10 is noise by
    # the same sup-norm test that classifies the pair as semi-trivial
    phi = s32.phi1().copy()
    noise = np.random.default_rng(0).standard_normal(g32.node_count)
    noise *= 2.1e-10 * math.sqrt(inner_l2(g32, phi, phi) / inner_l2(g32, noise, noise))
    u = np.concatenate([phi, noise])
    assert _classify(g32, u) == "semitrivial_1"
    assert component_angle(g32, u) == 0.0
    assert component_angle(g32, np.concatenate([noise, phi])) == 0.0
    # a genuinely mixed pair keeps its angle
    mixed = np.concatenate([phi, phi + noise])
    assert component_angle(g32, mixed) == pytest.approx(0.0, abs=1e-6)
    phi2 = s32.eigenvectors[:, 1].copy()
    orthogonal = np.concatenate([phi, phi2])
    assert component_angle(g32, orthogonal) == pytest.approx(math.pi / 2, abs=1e-9)


@pytest.mark.parametrize(
    "tau2, mu2, beta, solves",
    [(None, 2.0, 4.5, 1), (0.5, 1.0, 0.5, 2)],
    ids=["resonant-1-2-4.5", "tau1-ne-tau2"],
)
def test_report_solves_scalar_once_per_tau(g32, s32, monkeypatch, tau2, mu2, beta, solves):
    calls = []
    solve = scalar_mod.solve_scalar_ground

    def counted(tau, mu, *args, **kwargs):
        calls.append((tau, mu))
        return solve(tau, mu, *args, **kwargs)

    monkeypatch.setattr(scalar_mod, "solve_scalar_ground", counted)
    lam = s32.lambda1()
    p = SystemParams(lam, lam if tau2 is None else tau2, 1.0, mu2, beta)
    rep = assemble_report(p, g32, s32, SolverOptions(max_iter=60, restarts=3, extra_seeds=1))
    assert not rep.partial
    assert len(calls) == solves
    assert all(mu == 1.0 for _, mu in calls)
    assert sorted({tau for tau, _ in calls}) == sorted({p.tau1, p.tau2})


def test_report_2d_gap_regime(g2d, s2d):
    # the 11 x 11 square at resonance, beta = 50: t11 and t13 apply
    lam = s2d.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 50.0)
    opts = SolverOptions(max_iter=20, restarts=4, extra_seeds=0)
    rep = assemble_report(p, g2d, s2d, opts)
    assert not rep.partial
    assert rep.verdicts["t11"]["status"] == "pass"
    assert rep.verdicts["t13"]["status"] == "pass"
    assert rep.e_est < rep.c_prime_est < rep.c_sem
    omega = solve_scalar_ground(lam, 1.0, g2d, s2d, opts)
    sync = energy(g2d, p.taus, p.coupling, synchronized_solution(p, omega.u))
    assert rep.e_est <= sync + 1e-12 * abs(sync)


def test_report_runs_every_fiber_maximization_through_fiber_maximize(g32, s32, monkeypatch):
    # the benchmark's fiber.fiber_maximize metrics time this one function:
    # a resonant report maximizes over k = 1 fibers (scalar ground states)
    # and k = 2 fibers (reduced minimization), all through it
    plain, charts = fiber_mod.fiber_maximize, []

    def counted(ch, *args, **kwargs):
        charts.append(len(ch.taus))
        return plain(ch, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("nlss") and getattr(mod, "fiber_maximize", None) is plain:
            monkeypatch.setattr(mod, "fiber_maximize", counted)
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 1.0)
    rep = assemble_report(p, g32, s32, SolverOptions(extra_seeds=1))
    assert not rep.partial
    assert charts.count(1) >= 1 and charts.count(2) >= 1
