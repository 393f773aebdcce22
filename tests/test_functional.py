import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from nlss import Pair, SystemParams, big_f, energy, f_density, j_form, residual
from nlss.functional import (
    grad_pairing,
    hessian_apply,
    hessian_bilinear,
    hessian_quadform,
    same_up_to_signs,
    stacked_jacobian,
    stacked_residual,
)
from nlss.grids import laplacian_apply, laplacian_matrix

P_DEF = SystemParams(0.3, 0.7, 1.0, 2.0, 0.8)
P_RES = None  # filled per-grid from lambda1 in tests


def _rand_pair(g, seed):
    r = np.random.default_rng(seed)
    return Pair(r.standard_normal(g.node_count), r.standard_normal(g.node_count))


def mp_energy_1d(p, g, u1, u2):
    """Energy evaluated in extended precision; 1D grids only."""
    n = g.node_count
    h2 = mpf(g.h[0]) ** 2
    w = mpf(g.quad_weight)

    def lap(u):
        out = []
        for i in range(n):
            val = 2 * u[i]
            if i > 0:
                val -= u[i - 1]
            if i < n - 1:
                val -= u[i + 1]
            out.append(val / h2)
        return out

    total = mpf(0)
    for comp, tau in ((u1, p.tau1), (u2, p.tau2)):
        L = lap(comp)
        tau = mpf(tau)
        for i in range(n):
            total += (comp[i] * L[i] - tau * comp[i] * comp[i]) / 2
    m1, m2, b = mpf(p.mu1), mpf(p.mu2), mpf(p.beta)
    for i in range(n):
        a, c = u1[i], u2[i]
        total -= (m1 * a**4 + m2 * c**4 + 2 * b * a**2 * c**2) / 4
    return w * total


def fd_slope(errors, epsilons):
    x = np.log10(np.asarray(epsilons))
    y = np.log10(np.asarray(errors))
    return float(np.polyfit(x, y, 1)[0])


def gradient_fd_errors(p, g, u, v, epsilons):
    mp.dps = 50
    u1 = [mpf(x) for x in u.u1]
    u2 = [mpf(x) for x in u.u2]
    v1 = [mpf(x) for x in v.u1]
    v2 = [mpf(x) for x in v.u2]
    exact = grad_pairing(g, residual(p, g, u), v)
    errs = []
    for eps in epsilons:
        e = mpf(eps)
        ip = mp_energy_1d(p, g, [a + e * b for a, b in zip(u1, v1)], [a + e * b for a, b in zip(u2, v2)])
        im = mp_energy_1d(p, g, [a - e * b for a, b in zip(u1, v1)], [a - e * b for a, b in zip(u2, v2)])
        errs.append(abs(float((ip - im) / (2 * e)) - exact))
    return errs


def hessian_fd_errors(p, g, w, z, epsilons):
    mp.dps = 50
    w1 = [mpf(x) for x in w.u1]
    w2 = [mpf(x) for x in w.u2]
    z1 = [mpf(x) for x in z.u1]
    z2 = [mpf(x) for x in z.u2]
    exact = hessian_quadform(p, g, w, z)
    i0 = mp_energy_1d(p, g, w1, w2)
    errs = []
    for eps in epsilons:
        e = mpf(eps)
        ip = mp_energy_1d(p, g, [a + e * b for a, b in zip(w1, z1)], [a + e * b for a, b in zip(w2, z2)])
        im = mp_energy_1d(p, g, [a - e * b for a, b in zip(w1, z1)], [a - e * b for a, b in zip(w2, z2)])
        errs.append(abs(float((ip - 2 * i0 + im) / e**2) - exact))
    return errs


def test_j_form_symmetry(g32):
    u, v = _rand_pair(g32, 0), _rand_pair(g32, 1)
    a, b = j_form(P_DEF, g32, u, v), j_form(P_DEF, g32, v, u)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_j_form_kernel_resonant(g32, s32):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 1.0)
    phi = s32.phi1().copy()
    u = Pair(phi, phi.copy())
    assert abs(j_form(p, g32, u, u)) <= 1e-10


def test_j_form_definite_nonnegative(g32):
    p = SystemParams(0.0, 0.0, 1.0, 1.0, 1.0)
    u = _rand_pair(g32, 2)
    assert j_form(p, g32, u, u) >= 0.0


def test_f_density_euler_identity(g32):
    u = _rand_pair(g32, 3)
    f = f_density(P_DEF, u)
    pairing = g32.quad_weight * (np.dot(f.u1, u.u1) + np.dot(f.u2, u.u2))
    assert pairing == pytest.approx(4.0 * big_f(P_DEF, g32, u), rel=1e-12)


def test_f_density_cubic_homogeneity(g32):
    u = _rand_pair(g32, 4)
    f2 = f_density(P_DEF, 2.0 * u)
    f1 = f_density(P_DEF, u)
    assert np.allclose(f2.u1, 8.0 * f1.u1, rtol=1e-13)
    assert np.allclose(f2.u2, 8.0 * f1.u2, rtol=1e-13)


def test_energy_zero_and_even(g32):
    z = Pair.zero(g32)
    assert energy(P_DEF, g32, z) == 0.0
    u = _rand_pair(g32, 5)
    assert energy(P_DEF, g32, -u) == pytest.approx(energy(P_DEF, g32, u), rel=1e-13)
    flipped = Pair(u.u1, -u.u2)
    assert energy(P_DEF, g32, flipped) == pytest.approx(energy(P_DEF, g32, u), rel=1e-13)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), t=st.sampled_from([0.5, 2.0, 3.0]))
def test_energy_degree4_decomposition(g32, seed, t):
    u = _rand_pair(g32, seed)
    j = j_form(P_DEF, g32, u, u)
    f = big_f(P_DEF, g32, u)
    expected = t**2 * 0.5 * j - t**4 * f
    assert energy(P_DEF, g32, t * u) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_residual_zero(g32):
    r = residual(P_DEF, g32, Pair.zero(g32))
    assert np.all(r.u1 == 0.0) and np.all(r.u2 == 0.0)


@pytest.mark.parametrize("tau1,tau2", [(0.3, 0.7), (1.0, 1.0), (2.5, 4.2)])
def test_gradient_fd_consistency(tau1, tau2):
    from nlss import DomainSpec, build_grid

    g = build_grid(DomainSpec("interval", (np.pi,), 16))
    p = SystemParams(tau1, tau2, 1.0, 2.0, 0.8)
    u, v = _rand_pair(g, 10), _rand_pair(g, 11)
    eps = [1e-3, 1e-4, 1e-5, 1e-6]
    errs = gradient_fd_errors(p, g, u, v, eps)
    assert 1.8 <= fd_slope(errs, eps) <= 2.2


def test_hessian_quadform_at_zero(g32):
    z = _rand_pair(g32, 6)
    q = hessian_quadform(P_DEF, g32, Pair.zero(g32), z)
    assert q == pytest.approx(j_form(P_DEF, g32, z, z), rel=1e-12)


def test_hessian_fd_consistency():
    from nlss import DomainSpec, build_grid

    g = build_grid(DomainSpec("interval", (np.pi,), 16))
    w, z = _rand_pair(g, 12), _rand_pair(g, 13)
    eps = [1e-3, 1e-4, 1e-5, 1e-6]
    errs = hessian_fd_errors(P_DEF, g, w, z, eps)
    assert 1.8 <= fd_slope(errs, eps) <= 2.2


def test_hessian_apply_matches_bilinear(g32):
    w, z, y = _rand_pair(g32, 7), _rand_pair(g32, 8), _rand_pair(g32, 9)
    applied = hessian_apply(P_DEF, g32, w, z)
    pairing = g32.quad_weight * (np.dot(applied.u1, y.u1) + np.dot(applied.u2, y.u2))
    assert pairing == pytest.approx(hessian_bilinear(P_DEF, g32, w, z, y), rel=1e-11)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_energy_nonpositive_on_tilde(g32, s32, a, b):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 2.0, 0.8)
    phi = s32.phi1()
    v = Pair(a * phi, b * phi)
    assert energy(p, g32, v) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_jacobian_applies_the_hessian(dim, g64, g2d):
    # k = 2: J v is the nodal Hessian apply of the system
    g = g64 if dim == 1 else g2d
    w, z = _rand_pair(g, 20), _rand_pair(g, 21)
    J = stacked_jacobian(g, P_DEF.taus, P_DEF.coupling, w.stack())
    ref = hessian_apply(P_DEF, g, w, z).stack()
    assert np.max(np.abs(J @ z.stack() - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_jacobian_scalar_matches_dense(dim, g64, g2d):
    # k = 1: the dense Laplacian form -Lap - tau I - diag(3 mu u^2)
    g = g64 if dim == 1 else g2d
    u = np.random.default_rng(22).standard_normal(g.node_count)
    tau, mu = 1.3, 0.7
    J = stacked_jacobian(g, (tau,), np.array([[mu]]), u).toarray()
    ref = laplacian_matrix(g) - tau * np.eye(g.node_count) - np.diag(3.0 * mu * u**2)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_residual_matches_nodal_forms(dim, g64, g2d):
    g = g64 if dim == 1 else g2d
    w = _rand_pair(g, 23)
    f = f_density(P_DEF, w)
    ref = np.concatenate(
        [
            laplacian_apply(g, w.u1) - P_DEF.tau1 * w.u1 - f.u1,
            laplacian_apply(g, w.u2) - P_DEF.tau2 * w.u2 - f.u2,
        ]
    )
    out = stacked_residual(g, P_DEF.taus, P_DEF.coupling, w.stack())
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    u, tau, mu = w.u1, 1.3, 0.7
    ref1 = laplacian_apply(g, u) - tau * u - mu * u**3
    out1 = stacked_residual(g, (tau,), np.array([[mu]]), u)
    assert np.max(np.abs(out1 - ref1)) <= 1e-12 * np.max(np.abs(ref1))


@pytest.mark.parametrize("k", [1, 2])
def test_same_up_to_signs(k):
    # each component may match with its own sign; the match is to tol of
    # max(1, sup |y|)
    r = np.random.default_rng(k)
    y = 3.0 * r.standard_normal(k * 20)
    tol = 1e-6 * max(1.0, np.max(np.abs(y)))
    near = y + 0.5 * tol * r.uniform(-1.0, 1.0, y.size)
    assert same_up_to_signs(near, y, k, 1e-6)
    signs = np.repeat([-1.0, 1.0][:k], 20)  # k = 2 flips the first component only
    assert same_up_to_signs(signs * near, y, k, 1e-6)
    assert same_up_to_signs(-near, y, k, 1e-6)
    off = near.copy()
    off[-1] += 3.0 * tol
    assert not same_up_to_signs(off, y, k, 1e-6)
    assert not same_up_to_signs(signs * off, y, k, 1e-6)
