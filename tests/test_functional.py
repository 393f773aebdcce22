import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import nlss
from nlss import SystemParams, j_form
from nlss.functional import (
    hessian_apply,
    hessian_quadform,
    jacobian,
    nonlinearity,
    same_up_to_signs,
)
from nlss.grids import laplacian_apply, laplacian_band, laplacian_matrix

P_DEF = SystemParams(0.3, 0.7, 1.0, 2.0, 0.8)
P_RES = None  # filled per-grid from lambda1 in tests


def _rand_pair(g, seed):
    """A random stacked pair (u1, u2)."""
    r = np.random.default_rng(seed)
    return np.concatenate([r.standard_normal(g.node_count), r.standard_normal(g.node_count)])


def energy(p, g, u):
    return nlss.energy(g, p.taus, p.coupling, u)


def residual(p, g, u):
    return nlss.residual(g, p.taus, p.coupling, u)


# explicit two-component formulas, the oracles of the k-generic ones
def explicit_f(p, u):
    """(mu1 u1^3 + beta u1 u2^2, mu2 u2^3 + beta u1^2 u2), stacked."""
    u1, u2 = u.reshape(2, -1)
    f1 = p.mu1 * u1**3 + p.beta * u1 * u2**2
    return np.concatenate([f1, p.mu2 * u2**3 + p.beta * u1**2 * u2])


def explicit_big_f(p, g, u):
    """Integral of F(u) = (mu1 u1^4 + mu2 u2^4 + 2 beta u1^2 u2^2)/4."""
    u1, u2 = u.reshape(2, -1)
    dens = 0.25 * (p.mu1 * u1**4 + p.mu2 * u2**4 + 2.0 * p.beta * u1**2 * u2**2)
    return float(g.quad_weight * np.sum(dens))


def explicit_hessian_bilinear(p, g, w, z, y):
    """<I''(w) z, y>."""
    (w1, w2), (z1, z2), (y1, y2) = w.reshape(2, -1), z.reshape(2, -1), y.reshape(2, -1)
    cubic = (
        3.0 * p.mu1 * w1**2 * z1 * y1
        + 3.0 * p.mu2 * w2**2 * z2 * y2
        + p.beta * (w2**2 * z1 * y1 + w1**2 * z2 * y2 + 2.0 * w1 * w2 * (z1 * y2 + z2 * y1))
    )
    return j_form(g, p.taus, z, y) - float(g.quad_weight * np.sum(cubic))


def explicit_hessian_apply(p, g, w, z):
    """Strong nodal form of I''(w) z."""
    (w1, w2), (z1, z2) = w.reshape(2, -1), z.reshape(2, -1)
    return np.concatenate([
        laplacian_apply(g, z1) - p.tau1 * z1
        - (3.0 * p.mu1 * w1**2 + p.beta * w2**2) * z1 - 2.0 * p.beta * w1 * w2 * z2,
        laplacian_apply(g, z2) - p.tau2 * z2
        - (3.0 * p.mu2 * w2**2 + p.beta * w1**2) * z2 - 2.0 * p.beta * w1 * w2 * z1,
    ])


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


def _mp_components(u):
    return [[mpf(x) for x in comp] for comp in u.reshape(2, -1)]


def gradient_fd_errors(p, g, u, v, epsilons):
    mp.dps = 50
    u1, u2 = _mp_components(u)
    v1, v2 = _mp_components(v)
    exact = g.quad_weight * float(np.dot(residual(p, g, u), v))
    errs = []
    for eps in epsilons:
        e = mpf(eps)
        ip = mp_energy_1d(p, g, [a + e * b for a, b in zip(u1, v1)], [a + e * b for a, b in zip(u2, v2)])
        im = mp_energy_1d(p, g, [a - e * b for a, b in zip(u1, v1)], [a - e * b for a, b in zip(u2, v2)])
        errs.append(abs(float((ip - im) / (2 * e)) - exact))
    return errs


def hessian_fd_errors(p, g, w, z, epsilons):
    mp.dps = 50
    w1, w2 = _mp_components(w)
    z1, z2 = _mp_components(z)
    exact = hessian_quadform(g, p.taus, p.coupling, w, z)
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
    a, b = j_form(g32, P_DEF.taus, u, v), j_form(g32, P_DEF.taus, v, u)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_j_form_kernel_resonant(g32, s32):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 1.0, 1.0)
    phi = s32.phi1().copy()
    u = np.concatenate([phi, phi])
    assert abs(j_form(g32, p.taus, u, u)) <= 1e-10


def test_j_form_definite_nonnegative(g32):
    p = SystemParams(0.0, 0.0, 1.0, 1.0, 1.0)
    u = _rand_pair(g32, 2)
    assert j_form(g32, p.taus, u, u) >= 0.0


def test_f_density_euler_identity(g32):
    # nonlinearity's f and int F against the explicit two-component
    # formulas, and <f(u), u> = 4 int F(u)
    u = _rand_pair(g32, 3)
    big_f, f = nonlinearity(g32.quad_weight, P_DEF.coupling, u)
    ref = explicit_f(P_DEF, u)
    assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert big_f == pytest.approx(explicit_big_f(P_DEF, g32, u), rel=1e-13)
    pairing = g32.quad_weight * np.dot(f, u)
    assert pairing == pytest.approx(4.0 * explicit_big_f(P_DEF, g32, u), rel=1e-12)


def test_f_density_cubic_homogeneity(g32):
    u = _rand_pair(g32, 4)
    f2 = nonlinearity(g32.quad_weight, P_DEF.coupling, 2.0 * u)[1]
    f1 = nonlinearity(g32.quad_weight, P_DEF.coupling, u)[1]
    assert np.allclose(f2, 8.0 * f1, rtol=1e-13)


def test_energy_zero_and_even(g32):
    z = np.zeros(2 * g32.node_count)
    assert energy(P_DEF, g32, z) == 0.0
    u = _rand_pair(g32, 5)
    assert energy(P_DEF, g32, -u) == pytest.approx(energy(P_DEF, g32, u), rel=1e-13)
    flipped = np.concatenate([u[: g32.node_count], -u[g32.node_count:]])
    assert energy(P_DEF, g32, flipped) == pytest.approx(energy(P_DEF, g32, u), rel=1e-13)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), t=st.sampled_from([0.5, 2.0, 3.0]))
def test_energy_degree4_decomposition(g32, seed, t):
    u = _rand_pair(g32, seed)
    j = j_form(g32, P_DEF.taus, u, u)
    f = explicit_big_f(P_DEF, g32, u)
    expected = t**2 * 0.5 * j - t**4 * f
    assert energy(P_DEF, g32, t * u) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_residual_zero(g32):
    r = residual(P_DEF, g32, np.zeros(2 * g32.node_count))
    assert r.shape == (2 * g32.node_count,) and np.all(r == 0.0)


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
    q = hessian_quadform(g32, P_DEF.taus, P_DEF.coupling, np.zeros(2 * g32.node_count), z)
    assert q == pytest.approx(j_form(g32, P_DEF.taus, z, z), rel=1e-12)


def test_hessian_fd_consistency():
    from nlss import DomainSpec, build_grid

    g = build_grid(DomainSpec("interval", (np.pi,), 16))
    w, z = _rand_pair(g, 12), _rand_pair(g, 13)
    eps = [1e-3, 1e-4, 1e-5, 1e-6]
    errs = hessian_fd_errors(P_DEF, g, w, z, eps)
    assert 1.8 <= fd_slope(errs, eps) <= 2.2


def test_hessian_apply_matches_bilinear(g32):
    w, z, y = _rand_pair(g32, 7), _rand_pair(g32, 8), _rand_pair(g32, 9)
    applied = hessian_apply(g32, P_DEF.taus, P_DEF.coupling, w, z)
    pairing = g32.quad_weight * np.dot(applied, y)
    assert pairing == pytest.approx(explicit_hessian_bilinear(P_DEF, g32, w, z, y), rel=1e-11)


@pytest.mark.parametrize("dim", [1, 2])
def test_hessian_quadform_matches_explicit_formula(dim, g32, g2d):
    # the matrix-free quadratic form against the explicit
    # two-component formula, at random w and z
    g = g32 if dim == 1 else g2d
    for seed in range(3):
        w, z = _rand_pair(g, 30 + seed), _rand_pair(g, 40 + seed)
        q = hessian_quadform(g, P_DEF.taus, P_DEF.coupling, w, z)
        ref = explicit_hessian_bilinear(P_DEF, g, w, z, z)
        assert abs(q - ref) <= 1e-12 * abs(ref)


def test_energy_k1_matches_the_scalar_formula(g32, g2d):
    # I(u) = (||grad u||^2 - tau ||u||^2)/2 - mu int u^4 / 4
    from nlss.grids import inner_grad, inner_l2

    for g in (g32, g2d):
        u = np.random.default_rng(50).standard_normal(g.node_count)
        tau, mu = 1.3, 0.7
        ref = 0.5 * (inner_grad(g, u, u) - tau * inner_l2(g, u, u))
        ref -= 0.25 * mu * float(g.quad_weight * np.sum(u**4))
        assert nlss.energy(g, (tau,), np.array([[mu]]), u) == pytest.approx(ref, rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_energy_nonpositive_on_tilde(g32, s32, a, b):
    lam = s32.lambda1()
    p = SystemParams(lam, lam, 1.0, 2.0, 0.8)
    phi = s32.phi1()
    v = np.concatenate([a * phi, b * phi])
    assert energy(p, g32, v) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_jacobian_applies_the_hessian(dim, g64, g2d):
    # k = 2: J v is the nodal Hessian apply of the system
    g = g64 if dim == 1 else g2d
    w, z = _rand_pair(g, 20), _rand_pair(g, 21)
    J = jacobian(g, P_DEF.taus, P_DEF.coupling, w)
    ref = explicit_hessian_apply(P_DEF, g, w, z)
    assert np.max(np.abs(J.toarray() @ z - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_jacobian_scalar_matches_dense(dim, g64, g2d):
    # k = 1: the dense Laplacian form -Lap - tau I - diag(3 mu u^2)
    g = g64 if dim == 1 else g2d
    u = np.random.default_rng(22).standard_normal(g.node_count)
    tau, mu = 1.3, 0.7
    J = jacobian(g, (tau,), np.array([[mu]]), u).toarray()
    ref = laplacian_matrix(g) - tau * np.eye(g.node_count) - np.diag(3.0 * mu * u**2)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))


def explicit_jacobian(g, taus, B, w):
    """Dense kron(I_k, -Lap) minus the nodal blocks of tau + f'(w), stacked
    order: -Lap from the dense oracle, f' from the explicit formulas."""
    k = len(taus)
    if k == 1:
        (tau,), mu = taus, B[0][0]
        blocks = [[tau + 3.0 * mu * w**2]]
    else:
        p = SystemParams(*taus, B[0][0], B[1][1], B[0][1])
        w1, w2 = w.reshape(2, -1)
        cross = 2.0 * p.beta * w1 * w2
        blocks = [
            [p.tau1 + 3.0 * p.mu1 * w1**2 + p.beta * w2**2, cross],
            [cross, p.tau2 + 3.0 * p.mu2 * w2**2 + p.beta * w1**2],
        ]
    lap = np.kron(np.eye(k), laplacian_matrix(g))
    return lap - np.block([[np.diag(b) for b in row] for row in blocks])


def _taus_coupling(k):
    return P_DEF.taus[:k], P_DEF.coupling[:k, :k]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_band_jacobian_matches_dense_oracle(dim, k, g64, g2d):
    g = g64 if dim == 1 else g2d
    taus, B = _taus_coupling(k)
    w = np.random.default_rng(24).standard_normal(k * g.node_count)
    J = jacobian(g, taus, B, w)
    assert J.kl == k * (1 if dim == 1 else g.shape[1])
    ref = explicit_jacobian(g, taus, B, w)
    assert np.max(np.abs(J.toarray() - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shift", [0.0, 2.5])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_band_solve_matches_dense_solve(dim, k, shift, g64, g2d):
    g = g64 if dim == 1 else g2d
    taus, B = _taus_coupling(k)
    r = np.random.default_rng(25)
    w, b = r.standard_normal(k * g.node_count), r.standard_normal(k * g.node_count)
    J = jacobian(g, taus, B, w)
    ref = np.linalg.solve(explicit_jacobian(g, taus, B, w) + shift * np.eye(b.size), b)
    assert np.max(np.abs(J.solve(b, shift) - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(J.toarray(), jacobian(g, taus, B, w).toarray())  # J is not overwritten


def test_laplacian_band_is_built_once_per_grid_and_k(g2d):
    band = laplacian_band(g2d, 2)
    assert laplacian_band(g2d, 2) is band
    assert not band.ab.flags.writeable
    assert laplacian_band(g2d, 1).kl == g2d.shape[1]


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_residual_matches_nodal_forms(dim, g64, g2d):
    g = g64 if dim == 1 else g2d
    w = _rand_pair(g, 23)
    w1, w2 = w.reshape(2, -1)
    f1, f2 = explicit_f(P_DEF, w).reshape(2, -1)
    ref = np.concatenate(
        [
            laplacian_apply(g, w1) - P_DEF.tau1 * w1 - f1,
            laplacian_apply(g, w2) - P_DEF.tau2 * w2 - f2,
        ]
    )
    out = residual(P_DEF, g, w)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    u, tau, mu = w1, 1.3, 0.7
    ref1 = laplacian_apply(g, u) - tau * u - mu * u**3
    out1 = nlss.residual(g, (tau,), np.array([[mu]]), u)
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


REMOVED_NAMES = [
    "Pair", "PairSplit", "pair_chart", "pair_norm", "project_pair", "f_density",
    "big_f", "grad_pairing", "hessian_bilinear", "stacked_residual", "stacked_jacobian",
    "sync_hessian_sign_change", "project_stacked",
]


def test_public_names_resolve_and_the_removed_ones_are_gone():
    import importlib

    for name in nlss.__all__:
        assert getattr(nlss, name, None) is not None, name
    for mod in ("nlss", "nlss.functional", "nlss.fiber", "nlss.system", "nlss.levels", "nlss.spectral"):
        module = importlib.import_module(mod)
        assert not [n for n in REMOVED_NAMES if hasattr(module, n)], mod
    assert not hasattr(importlib.import_module("nlss.scalar"), "scalar_energy")
