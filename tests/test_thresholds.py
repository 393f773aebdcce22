import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from nlss import (
    DomainSpec,
    SystemParams,
    beta_hat,
    build_grid,
    classify_regime,
    compute_thresholds,
    get_spectrum,
    pencil_smallest,
)
from nlss import SolverOptions
from nlss import thresholds as thr_mod
from nlss.errors import DegenerateWeight, EmptyPositiveSubspace
from nlss.fiber import fiber_chart
from nlss.grids import inner_grad, inner_l2, norm_lp
from nlss.scalar import pair_grounds, solve_scalar_ground
from nlss.system import semitrivial_solutions

PI = np.pi


def _chart(s, tau):
    """The k = 1 chart a beta_hat pencil reads H+ and J from."""
    return fiber_chart(s, (tau,), [[1.0]])


def _plus_modes(s, tau):
    """Indices of the H+ modes of tau, read from the eigenvalues: those above
    the 1e-9 max(1, |tau|) band around tau."""
    return np.flatnonzero(s.eigenvalues - tau > 1e-9 * max(1.0, abs(tau)))


def rayleigh_oracle(g, s, U, tau_other, seeds=6, iters=4000):
    """Independent pencil infimum by Barzilai-Borwein descent on the
    Rayleigh quotient over plus-subspace coefficients."""
    plus = _plus_modes(s, tau_other)
    Vp = s.eigenvectors[:, plus]
    jhat = s.eigenvalues[plus] - tau_other
    w = g.quad_weight
    M = w * (Vp.T * (U**2)) @ Vp

    def qgrad(c):
        num = float(np.dot(c, jhat * c))
        den = float(np.dot(c, M @ c))
        q = num / den
        gr = (2.0 / den) * (jhat * c - q * (M @ c))
        return q, gr

    rng = np.random.default_rng(3)
    best = np.inf
    for _ in range(seeds):
        c = rng.standard_normal(len(plus))
        c /= np.linalg.norm(c)
        q, gr = qgrad(c)
        step, pc, pg = 1e-2, None, None
        for _it in range(iters):
            if pc is not None:
                dc, dg = c - pc, gr - pg
                denom = float(np.dot(dc, dg))
                if denom > 0:
                    step = float(np.dot(dc, dc)) / denom
            step = min(max(step, 1e-12), 1e4)
            pc, pg = c, gr
            c = c - step * gr
            c /= np.linalg.norm(c)
            q, gr = qgrad(c)
            if np.linalg.norm(gr) <= 1e-14 * max(1.0, abs(q)):
                break
        best = min(best, q)
    return best


def test_pencil_diagonal_closed_form():
    jhat = np.array([0.7, 2.3, 5.1, 9.0])
    m = np.array([2.0, 1.0, 0.25, 4.0])
    lam, vec = pencil_smallest(jhat, np.diag(m))
    assert lam == pytest.approx(np.min(jhat / m), rel=1e-12)
    k = int(np.argmin(jhat / m))
    assert abs(vec[k]) == pytest.approx(np.max(np.abs(vec)), rel=1e-10)


def test_pencil_degenerate_weight():
    with pytest.raises(DegenerateWeight):
        pencil_smallest(np.array([1.0, 2.0]), np.zeros((2, 2)))


def test_beta_hat_well_posed_on_singular_mass(g2d, s2d):
    # the resonant ground state on the square vanishes on the anti-diagonal,
    # so its mass matrix w Vp^T diag(U^2) Vp is singular (condition ~1e17):
    # a pencil solved with it on the B side moved beta_hat by 1e-3 under
    # 1e-15 relative noise in U
    lam = s2d.lambda1()
    U = solve_scalar_ground(lam, 1.0, g2d, s2d, SolverOptions(max_iter=20, restarts=4, seed=1000)).u
    ch = _chart(s2d, lam)
    bh = beta_hat(ch, U)
    noise = np.random.default_rng(0).standard_normal(U.size)
    assert beta_hat(ch, U * (1.0 + 1e-15 * noise)) == pytest.approx(bh, abs=1e-12)
    # beta_hat is the infimum: at most the pencil's quotient at U itself
    plus = _plus_modes(s2d, lam)
    Vp = s2d.eigenvectors[:, plus]
    c = g2d.quad_weight * (Vp.T @ U)
    mass = float(np.sum(g2d.quad_weight * U**2 * (Vp @ c) ** 2))
    assert bh <= float(c @ ((s2d.eigenvalues[plus] - lam) * c)) / mass + 1e-12


@pytest.mark.parametrize("m", [1, 7, 127])
def test_pencil_smallest_is_scipy_eigh_subset(m):
    # dsyevr with the arguments scipy.linalg.eigh passes for one eigenpair
    rng = np.random.default_rng(m)
    jhat = rng.uniform(0.5, 5.0, m)
    X = rng.standard_normal((m, m + 2))
    mass = X @ X.T
    lam, vec = pencil_smallest(jhat, mass)
    r = 1.0 / np.sqrt(jhat)
    vals, vecs = eigh(r[:, None] * mass * r, subset_by_index=[m - 1, m - 1])
    assert np.array_equal(lam, 1.0 / vals[0])
    assert np.array_equal(vec, r * vecs[:, 0])


def test_pencil_rejects_nonfinite_mass():
    # a finite trace does not make the mass finite; eigh's check stays
    mass = np.eye(3)
    mass[0, 1] = mass[1, 0] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil_smallest(np.ones(3), mass)


def test_pencil_rejects_nonpositive_jhat():
    with pytest.raises(ValueError):
        pencil_smallest(np.array([1.0, 0.0]), np.eye(2))


@pytest.mark.parametrize("tau_other", ["lambda1", 2.5])
def test_beta_hat_is_the_eigenvector_pencil(tau_other, g32, s32, g2d, s2d):
    # the pencil read from the k = 1 chart is, bit for bit, the one built
    # from the H+ columns of the eigenvector matrix
    for g, s in ((g32, s32), (g2d, s2d)):
        lam = s.lambda1()
        t = lam if tau_other == "lambda1" else tau_other
        U = solve_scalar_ground(lam, 1.0, g, s, SolverOptions(max_iter=20, restarts=3)).u
        plus = _plus_modes(s, t)
        Vp = s.eigenvectors[:, plus]
        M = g.quad_weight * (Vp.T * (U**2)) @ Vp
        ref, _ = pencil_smallest(s.eigenvalues[plus] - t, M)
        assert np.array_equal(beta_hat(_chart(s, t), U), ref)


def test_beta_hat_matches_rayleigh_oracle(g64, s64):
    U = solve_scalar_ground(0.0, 1.0, g64, s64).u
    tau_other = 2.5
    bh = beta_hat(_chart(s64, tau_other), U)
    assert bh == pytest.approx(rayleigh_oracle(g64, s64, U, tau_other), rel=1e-7)


def test_beta_hat_quadratic_weight_scaling(g32, s32):
    U = solve_scalar_ground(0.0, 1.0, g32, s32).u
    ch = _chart(s32, 0.0)
    assert beta_hat(ch, 2.0 * U) == pytest.approx(beta_hat(ch, U) / 4.0, rel=1e-10)


def test_beta_hat_validation(g32, s32):
    with pytest.raises(ValueError):
        beta_hat(_chart(s32, 0.0), np.zeros(g32.node_count))
    empty = _chart(s32, s32.eigenvalues[-1] + 1.0)
    with pytest.raises(EmptyPositiveSubspace):
        beta_hat(empty, np.ones(g32.node_count))


def test_positivity_bound_chain(g32, s32):
    # beta_hat = J(phi*)/int U^2 phi*^2 >= J(phi*)/(||U||_4^2 ||phi*||_4^2) > 0
    U = solve_scalar_ground(0.0, 1.0, g32, s32).u
    tau_other = 2.5
    plus = _plus_modes(s32, tau_other)
    Vp = s32.eigenvectors[:, plus]
    jhat = s32.eigenvalues[plus] - tau_other
    M = g32.quad_weight * (Vp.T * (U**2)) @ Vp
    lam, c = pencil_smallest(jhat, M)
    phi = Vp @ c
    jval = inner_grad(g32, phi, phi) - tau_other * inner_l2(g32, phi, phi)
    lower = jval / (norm_lp(g32, U, 4) ** 2 * norm_lp(g32, phi, 4) ** 2)
    assert lam >= lower - 1e-10
    assert lower > 0


def test_subspace_monotonicity(g32, s32):
    # the infimum over a larger coefficient set can only be smaller
    U = solve_scalar_ground(0.0, 1.0, g32, s32).u
    tau_other = 2.5
    plus = _plus_modes(s32, tau_other)
    Vp = s32.eigenvectors[:, plus]
    jhat = s32.eigenvalues[plus] - tau_other
    M = g32.quad_weight * (Vp.T * (U**2)) @ Vp
    full, _ = pencil_smallest(jhat, M)
    k = len(plus) // 2
    sub, _ = pencil_smallest(jhat[:k], M[:k, :k])
    assert full <= sub + 1e-12


def test_resonant_symmetric_thresholds(g64, s64):
    lam = s64.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 0.5)
    t = compute_thresholds(p, g64, s64)
    assert t.beta_hat_1 == pytest.approx(t.beta_hat_2, rel=1e-6)
    assert t.lambda_cap == max(t.beta_hat_1, t.beta_hat_2)
    assert t.three_sqrt == pytest.approx(3.0)
    assert t.mu_max == 1.0


def test_equal_components_solve_one_pencil(g32, s32, monkeypatch):
    # (tau1, mu1) = (tau2, mu2): beta_hat_2 comes from the pencil of
    # beta_hat_1, which is solved once per candidate; otherwise both are
    calls = []
    plain = thr_mod.beta_hat

    def counted(*args):
        calls.append(1)
        return plain(*args)

    monkeypatch.setattr(thr_mod, "beta_hat", counted)
    lam = s32.lambda1()
    for mu2 in (1.5, 1.0):
        p = SystemParams(lam, lam, 1.5, mu2, 0.5)
        grounds = pair_grounds(p, g32, s32)
        calls.clear()
        t = compute_thresholds(p, g32, s32, grounds=grounds)
        n1 = len(grounds.first.candidates)
        if mu2 == 1.5:
            assert len(calls) == n1
            assert t.beta_hat_2 == t.beta_hat_1
        else:
            assert len(calls) == n1 + len(grounds.second.candidates)


@settings(max_examples=10, deadline=None)
@given(
    mu1=st.floats(0.5, 3.0),
    mu2=st.floats(0.5, 3.0),
    tau1=st.sampled_from([None, 2.5]),
    tau2=st.sampled_from([None, 2.5]),
)
def test_swapping_components_swaps_thresholds(g32, s32, mu1, mu2, tau1, tau2):
    # (tau1, mu1) <-> (tau2, mu2) swaps beta_hat_1 and beta_hat_2 and leaves
    # Lambda and the least semi-trivial level alone; None stands for lambda1
    lam = s32.lambda1()
    t1, t2 = (lam if t is None else t for t in (tau1, tau2))
    opts = SolverOptions(max_iter=60, restarts=3, extra_seeds=0)

    def levels(p):
        grounds = pair_grounds(p, g32, s32, opts)
        th = compute_thresholds(p, g32, s32, opts, grounds)
        return th, semitrivial_solutions(p, g32, grounds)[2]

    th, c_sem = levels(SystemParams(t1, t2, mu1, mu2, 1.0))
    sw, c_sem_sw = levels(SystemParams(t2, t1, mu2, mu1, 1.0))
    assert sw.beta_hat_1 == pytest.approx(th.beta_hat_2, rel=1e-12)
    assert sw.beta_hat_2 == pytest.approx(th.beta_hat_1, rel=1e-12)
    assert sw.lambda_cap == pytest.approx(th.lambda_cap, rel=1e-12)
    assert c_sem_sw == pytest.approx(c_sem, rel=1e-12)


def test_threshold_resonant_identity_every_mesh():
    # resonant case: U is a zero mode of the pencil, so beta_hat = mu exactly
    # on every grid, not just in the limit
    for n in (32, 64, 128):
        g = build_grid(DomainSpec("interval", (PI,), n))
        s = get_spectrum(g)
        lam = s.lambda1()
        t = compute_thresholds(SystemParams(lam, lam, 1.0, 2.0, 0.5), g, s)
        assert t.beta_hat_1 == pytest.approx(1.0, abs=1e-9)
        assert t.beta_hat_2 == pytest.approx(2.0, abs=1e-9)


def test_beta_hat_mesh_convergence_order2():
    # fixed analytic weight, no zero-mode degeneracy: plain O(h^2) decay
    vals = []
    for n in (32, 64, 128):
        g = build_grid(DomainSpec("interval", (PI,), n))
        s = get_spectrum(g)
        (x,) = g.coords()
        vals.append(beta_hat(_chart(s, 2.5), np.sin(x)))
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    assert d1 / d2 == pytest.approx(4.0, rel=0.25)


def test_classify_regime(g32, s32):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 2.0)
    t = compute_thresholds(p, g32, s32)
    r = classify_regime(p, t, resonant=True)
    assert r.ground_state_exists
    assert r.equalities_regime
    assert r.synchronized_regime
    assert not r.semitrivial_ground_hint

    p_small = SystemParams(lam, lam, 1.0, 1.0, 0.5)
    r = classify_regime(p_small, t, resonant=True)
    assert not r.ground_state_exists
    assert r.semitrivial_ground_hint

    # resonance flags stay off off resonance
    r = classify_regime(p, t, resonant=False)
    assert not r.equalities_regime

    with pytest.raises(ValueError):
        classify_regime(SimpleNamespace(beta=-1.0, tau1=lam, tau2=lam), t, resonant=False)


def test_classify_regime_boundary(g32, s32):
    # at resonance beta_hat = mu exactly; computed, Lambda misses 1 by
    # rounding (0.9999999999992695 at n = 128), which must not decide t11
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 1.0)
    t = compute_thresholds(p, g32, s32)
    for cap in (t.lambda_cap, 0.9999999999992695, 1.0 + 5e-10):
        r = classify_regime(p, replace(t, lambda_cap=cap), resonant=True)
        assert not r.ground_state_exists
    # beta = max mu: the hint's "beta <= max mu" holds, "beta > max mu" not
    assert r.semitrivial_ground_hint
    assert not r.synchronized_regime
    # beta on 3 sqrt(mu1 mu2) is in neither the equality nor the gap regime
    r = classify_regime(replace(p, beta=3.0 * (1.0 + 1e-12)), t, resonant=True)
    assert not r.equalities_regime
    assert not r.semitrivial_ground_hint
    # just outside the band the strict comparisons decide again
    r = classify_regime(replace(p, beta=1.0 + 1e-6), t, resonant=True)
    assert r.ground_state_exists and r.synchronized_regime


def test_params_reject_bad_beta():
    with pytest.raises(ValueError, match="beta must be > 0"):
        SystemParams(0.0, 0.0, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        SystemParams(0.0, 0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("field", ["tau1", "tau2", "mu1", "mu2", "beta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_values(field, value):
    fields = {"tau1": 0.0, "tau2": 0.0, "mu1": 1.0, "mu2": 1.0, "beta": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        SystemParams(**fields)
