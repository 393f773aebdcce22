"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Heavier than the unit files by design; everything here runs at the stated
production resolutions and enforces the stated wall-clock budgets.
"""

import math
import os
import time

import numpy as np
import pytest

from nlss import (
    DomainSpec,
    SystemParams,
    assemble_report,
    build_grid,
    compute_thresholds,
    get_spectrum,
    h_inf,
    in_nehari,
    in_nehari_prime,
    pencil_smallest,
    split_space,
    synchronized_hessian_value,
)
from nlss.cli import CSV_HEADER, main
from nlss.fiber import fiber_chart
from nlss.grids import inner_grad, inner_l2, norm_lp
from nlss.scalar import solve_scalar_ground

from test_functional import fd_slope, gradient_fd_errors, hessian_fd_errors
from test_scalar import nehari_oracle

PI = np.pi


@pytest.fixture
def emit(capfd):
    """One printed PASS/FAIL line per criterion, bypassing capture so the
    lines show up in a plain `pytest -v` run."""

    def _report(num, desc, ok):
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def g128():
    return build_grid(DomainSpec("interval", (PI,), 128))


@pytest.fixture(scope="module")
def s128(g128):
    return get_spectrum(g128)


def test_criterion_01_splitting_suite(emit):
    t0 = time.monotonic()
    ok = True
    grids = [build_grid(DomainSpec("interval", (PI,), n)) for n in (63, 127, 255)]
    grids.append(build_grid(DomainSpec("rectangle", (PI, PI), 31)))
    for g in grids:
        s = get_spectrum(g)
        lam1 = s.lambda1()
        for tau in (0.5 * lam1, lam1, 2.5):
            # the H+ and Htilde projections of the chart every solver uses
            ch = fiber_chart(s, (tau,), [[1.0]])
            r = np.random.default_rng(0)
            u = r.standard_normal(g.node_count)
            up = ch.Vp @ ch.plus_coeffs(u)
            ut = ch.Vt @ (ch.w * (ch.Vt.T @ u))
            scale = np.max(np.abs(u))
            ok &= np.max(np.abs(up + ut - u)) <= 1e-9 * scale
            ok &= np.max(np.abs(ch.Vp @ ch.plus_coeffs(up) - up)) <= 1e-9 * scale
            ok &= np.max(np.abs(ch.Vt @ (ch.w * (ch.Vt.T @ ut)) - ut)) <= 1e-9 * scale
            jp = inner_grad(g, up, up) - tau * inner_l2(g, up, up)
            jt = inner_grad(g, ut, ut) - tau * inner_l2(g, ut, ut)
            ok &= jp >= -1e-9
            ok &= jt <= 1e-9
            ok &= ch.metric.min() > 0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    emit(1, f"projector/splitting suite on 4 grids in {elapsed:.2f}s", ok)


def test_criterion_02_fd_consistency(emit):
    g = build_grid(DomainSpec("interval", (PI,), 16))
    rng = np.random.default_rng(42)
    eps = [1e-3, 1e-4, 1e-5, 1e-6]
    slopes = []
    for k in range(20):
        p = SystemParams(
            rng.uniform(0.0, 2.5),
            rng.uniform(0.0, 2.5),
            rng.uniform(0.5, 3.0),
            rng.uniform(0.5, 3.0),
            rng.uniform(0.2, 4.0),
        )
        u = np.concatenate([rng.standard_normal(g.node_count), rng.standard_normal(g.node_count)])
        v = np.concatenate([rng.standard_normal(g.node_count), rng.standard_normal(g.node_count)])
        errs = (
            gradient_fd_errors(p, g, u, v, eps)
            if k % 2 == 0
            else hessian_fd_errors(p, g, u, v, eps)
        )
        slopes.append(fd_slope(errs, eps))
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    emit(
        2,
        f"central-difference slopes in [{min(slopes):.3f}, {max(slopes):.3f}] "
        "over 20 random pairs",
        ok,
    )


def test_criterion_03_scalar_oracle(emit):
    t0 = time.monotonic()
    g = build_grid(DomainSpec("interval", (PI,), 256))
    s = get_spectrum(g)
    sg1 = solve_scalar_ground(0.0, 1.0, g, s)
    oracle = nehari_oracle(g, 0.0, 1.0)
    rel = abs(sg1.energy - oracle) / oracle
    sg4 = solve_scalar_ground(0.0, 4.0, g, s)
    scale_err = abs(sg4.energy - sg1.energy / 4.0) / (sg1.energy / 4.0)
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-6 and scale_err <= 1e-12 and elapsed < 30.0
    emit(
        3,
        f"scalar oracle rel err {rel:.2e}, scaling err {scale_err:.2e}, "
        f"{elapsed:.1f}s",
        ok,
    )


def test_criterion_04_equalities_regime(g128, s128, emit):
    lam = s128.lambda1()
    ok = True
    details = []
    for beta in (0.5, 1.0, 2.0):
        t0 = time.monotonic()
        p = SystemParams(lam, lam, 1.0, 1.0, beta)
        rep = assemble_report(p, g128, s128)
        elapsed = time.monotonic() - t0
        gap = abs(rep.e_est - rep.c_prime_est) / rep.c_prime_est
        sgap = abs(rep.S_prime_est - rep.h_inf_times_S) / rep.h_inf_times_S
        ok &= not rep.partial
        ok &= gap <= 1e-3 and sgap <= 1e-3
        ok &= rep.minimizer_angle <= 1e-3
        ok &= elapsed < 180.0
        details.append(f"beta={beta:g}: gap {gap:.1e}, S gap {sgap:.1e}, {elapsed:.0f}s")
    emit(4, "; ".join(details), ok)


def test_criterion_05_ordering(g128, s128, emit):
    t0 = time.monotonic()
    lam = s128.lambda1()
    base = SystemParams(lam, lam, 1.0, 2.0, 1.0)
    th = compute_thresholds(base, g128, s128)
    beta = max(th.lambda_cap, 3.0) * 1.5
    p = SystemParams(lam, lam, 1.0, 2.0, beta)
    rep = assemble_report(p, g128, s128)
    elapsed = time.monotonic() - t0
    upper = rep.e_est <= rep.c_prime_est + 1e-8
    strict = rep.c_prime_est < rep.c_sem - 1e-3 * rep.c_sem
    ok = not rep.partial and upper and strict and elapsed < 300.0
    emit(
        5,
        f"beta={beta:g}: e={rep.e_est:.6f} <= c'={rep.c_prime_est:.6f} "
        f"< c_sem={rep.c_sem:.6f}, {elapsed:.0f}s",
        ok,
    )


def test_criterion_06_gap_regime(g128, s128, emit):
    t0 = time.monotonic()
    lam = s128.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 50.0)
    rep = assemble_report(p, g128, s128)
    gap_ok = rep.c_prime_est - rep.e_est > 1e-3 * rep.c_prime_est
    ch = fiber_chart(s128, p.taus, p.coupling)
    omega = solve_scalar_ground(lam, 1.0, g128, s128)
    from nlss.system import synchronized_solution

    sync = synchronized_solution(p, omega.u)
    member = in_nehari(g128, ch, sync, tol=1e-7)
    rejected = not in_nehari_prime(g128, ch, sync, tol=1e-7)
    elapsed = time.monotonic() - t0
    ok = not rep.partial and gap_ok and member and rejected and elapsed < 300.0
    emit(
        6,
        f"beta=50: e={rep.e_est:.6f} < c'={rep.c_prime_est:.6f}; sync in N: "
        f"{member}, excluded from N': {rejected}, {elapsed:.0f}s",
        ok,
    )


def test_criterion_07_hessian_asymptotics(g64, s64, emit):
    lam = s64.lambda1()
    omega = solve_scalar_ground(lam, 1.0, g64, s64)
    phi1 = s64.phi1().copy()
    q_small = synchronized_hessian_value(1.0, 1.0, 1.5, lam, g64, omega.u, phi1)
    q_large = synchronized_hessian_value(1.0, 1.0, 50.0, lam, g64, omega.u, phi1)
    q_asym = synchronized_hessian_value(1.0, 1.0, 1e4, lam, g64, omega.u, phi1)
    limit = 2.0 * inner_l2(g64, omega.u**2, phi1**2)
    rel = abs(q_asym - limit) / limit
    # the closed form beta* = mu1 + mu2 + sqrt(mu1^2 - mu1 mu2 + mu2^2), 3 at
    # (1, 1), bracketed 0.05 to either side
    beta_star = 1.0 + 1.0 + math.sqrt(1.0 - 1.0 + 1.0)
    lo, hi = beta_star - 0.05, beta_star + 0.05
    q_lo = synchronized_hessian_value(1.0, 1.0, lo, lam, g64, omega.u, phi1)
    q_hi = synchronized_hessian_value(1.0, 1.0, hi, lam, g64, omega.u, phi1)
    changes = q_lo < 0.0 < q_hi
    ok = q_small < 0.0 < q_large and rel <= 0.01 and changes and hi - lo <= 0.1
    emit(
        7,
        f"quadform {q_small:.3f} @1.5, {q_large:.3f} @50, asymptote rel err "
        f"{rel:.2e}, sign change in [{lo:.3f}, {hi:.3f}]",
        ok,
    )


def test_criterion_08_threshold_suite(g64, s64, emit):
    # positivity chain at the pencil minimizer
    U = solve_scalar_ground(0.0, 1.0, g64, s64).u
    tau_other = 2.5
    split = split_space(s64, tau_other)
    plus = list(split.plus_idx)
    Vp = s64.eigenvectors[:, plus]
    jhat = s64.eigenvalues[plus] - tau_other
    M = g64.quad_weight * (Vp.T * (U**2)) @ Vp
    lam, c = pencil_smallest(jhat, M)
    phi = Vp @ c
    jval = inner_grad(g64, phi, phi) - tau_other * inner_l2(g64, phi, phi)
    lower = jval / (norm_lp(g64, U, 4) ** 2 * norm_lp(g64, phi, 4) ** 2)
    pos_ok = 0.0 < lower <= lam + 1e-10

    jd = np.array([0.7, 2.3, 5.1, 9.0])
    md = np.array([2.0, 1.0, 0.25, 4.0])
    lam_d, _ = pencil_smallest(jd, np.diag(md))
    diag_ok = abs(lam_d - np.min(jd / md)) <= 1e-12 * np.min(jd / md)

    vals = []
    for n in (32, 64, 128):
        g = build_grid(DomainSpec("interval", (PI,), n))
        s = get_spectrum(g)
        (x,) = g.coords()
        vals.append(beta_hat_on(g, s, np.sin(x), tau_other))
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    order_ok = 3.0 <= d1 / d2 <= 5.0
    ok = pos_ok and diag_ok and order_ok
    emit(
        8,
        f"lower bound {lower:.4f} <= beta_hat {lam:.4f}; diagonal pencil exact; "
        f"mesh-halving ratio {d1 / d2:.2f}",
        ok,
    )


def beta_hat_on(g, s, U, tau_other):
    from nlss import beta_hat

    return beta_hat(fiber_chart(s, (tau_other,), [[1.0]]), U)


def test_criterion_09_h_inf_scan(emit):
    rng = np.random.default_rng(99)
    xs = np.arange(0.0, 1.0 + 1e-6, 1e-6)
    worst = 0.0
    triples = []
    for k in range(50):
        mu1 = rng.uniform(0.1, 5.0)
        mu2 = rng.uniform(0.1, 5.0)
        # force some endpoint-regime cases (beta below both mu)
        beta = rng.uniform(0.05, 0.9) * min(mu1, mu2) if k < 15 else rng.uniform(0.1, 5.0)
        triples.append((mu1, mu2, beta))
    for mu1, mu2, beta in triples:
        val, _ = h_inf(mu1, mu2, beta)
        gvals = (mu1 + mu2 - 2 * beta) * xs**2 + 2 * (beta - mu2) * xs + mu2
        scan = 1.0 / math.sqrt(float(np.max(gvals)))
        worst = max(worst, abs(val - scan))
    ok = worst <= 1e-10
    emit(9, f"h_inf closed form vs 1e-6 grid scan, worst gap {worst:.2e}", ok)


def test_criterion_10_cli_determinism(tmp_path, emit):
    import json

    cfg = {
        "domain": {"kind": "interval", "lengths": [PI], "n": 24},
        "tau_mode": "lambda1",
        "params": {"tau1": 0.0, "tau2": 0.0, "mu1": 1.0, "mu2": 1.0, "beta": 1.0},
        "solver": {"seed": 7, "extra_seeds": 2},
        "output": {"dir": "."},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    os.environ["NLSS_THREADS"] = "2"
    try:
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            rc = main(
                ["sweep", "--config", str(path), "--out", out,
                 "--vary", "beta", "--from", "0.5", "--to", "2.0", "--steps", "4"]
            )
            assert rc == 0
            outs.append((tmp_path / sub / "sweep.csv").read_bytes())
    finally:
        del os.environ["NLSS_THREADS"]
    identical = outs[0] == outs[1]
    header_ok = outs[0].decode().splitlines()[0] == CSV_HEADER
    ok = identical and header_ok
    emit(10, "repeated sweep byte-identical, CSV header matches schema", ok)
