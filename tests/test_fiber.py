import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from nlss import (
    DomainSpec,
    SystemParams,
    build_grid,
    get_spectrum,
    in_nehari,
    in_nehari_prime,
)
from nlss import fiber as fiber_mod
from nlss.fiber import (
    CHECK_WARM_SEEDS,
    COLD_SEEDS,
    DESCENT_WARM_SEEDS,
    _fiber_functions,
    _ray_scale,
    fiber_chart,
    fiber_maximize,
    fiber_seed_count,
)
from nlss.functional import energy, h1_norm, j_form, nonlinearity
from nlss.grids import laplacian_apply
from nlss.scalar import solve_scalar_ground
from nlss.system import synchronized_solution

P_DEF = SystemParams(0.0, 0.0, 1.0, 1.0, 0.5)


def _pair_chart(p, s):
    return fiber_chart(s, p.taus, p.coupling)


def _rand_pair(g, seed):
    r = np.random.default_rng(seed)
    return np.concatenate([r.standard_normal(g.node_count), r.standard_normal(g.node_count)])


def _embed(g, u1=None, u2=None):
    """The stacked pair (u1, u2), a missing component zero."""
    zero = np.zeros(g.node_count)
    return np.concatenate([zero if u1 is None else u1, zero if u2 is None else u2])


def _res_params(s, beta, mu1=1.0, mu2=1.0):
    lam = s.lambda1()
    return SystemParams(lam, lam, mu1, mu2, beta)


def test_fiber_maximize_definite_closed_form(g32, s32):
    ch = _pair_chart(P_DEF, s32)
    assert ch.qt.size == 0
    a = ch.coords(_rand_pair(g32, 1))[0]
    fm = fiber_maximize(ch, a, fiber_seed_count(ch.B, COLD_SEEDS))
    assert fm.converged
    # with Htilde empty t is the Nehari scale sqrt(J(u,u) / <f(u),u>) of u
    u = ch.plus_field(a)
    f = nonlinearity(g32.quad_weight, P_DEF.coupling, u)[1]
    nehari_t = np.sqrt(j_form(g32, P_DEF.taus, u, u) / (g32.quad_weight * np.dot(f, u)))
    assert fm.z[0] == pytest.approx(nehari_t, rel=1e-12)
    assert h1_norm(g32, ch.Vt @ fm.z[1:]) == 0.0
    assert fm.value > 0


def test_fiber_point_reconstruction(g32, s32):
    # the chart coordinates of a fiber maximizer are its direction and z
    p = _res_params(s32, 1.0)
    ch = _pair_chart(p, s32)
    a = ch.coords(_rand_pair(g32, 2))[0]
    fm = fiber_maximize(ch, a, fiber_seed_count(ch.B, COLD_SEEDS))
    point = ch.point(a, fm.z)
    a_back, z_back = ch.coords(point)
    assert np.max(np.abs(ch.point(a_back, z_back) - point)) <= 1e-10
    assert np.max(np.abs(z_back - fm.z)) <= 1e-10 * max(1.0, np.max(np.abs(fm.z)))
    assert fm.value > 0
    assert in_nehari(g32, ch, point, tol=1e-6)


def test_fiber_maximize_same_fiber_same_point(g32, s32):
    p = _res_params(s32, 1.0)
    ch = _pair_chart(p, s32)
    w = _rand_pair(g32, 3)
    n_seeds = fiber_seed_count(ch.B, COLD_SEEDS)
    a, b = ch.coords(w)[0], ch.coords(2.0 * w)[0]
    pa = ch.point(a, fiber_maximize(ch, a, n_seeds).z)
    pb = ch.point(b, fiber_maximize(ch, b, n_seeds).z)
    scale = max(1.0, np.max(np.abs(pa[: g32.node_count])))
    assert np.max(np.abs(pa - pb)) <= 1e-6 * scale


def test_fiber_maximize_uniqueness_regime(g32, s32):
    p = _res_params(s32, 1.0)
    ch = _pair_chart(p, s32)
    fm = fiber_maximize(ch, ch.coords(_rand_pair(g32, 4))[0], fiber_seed_count(ch.B, COLD_SEEDS))
    assert fm.converged


def test_synchronized_direction_stays_proportional(g32, s32):
    p = _res_params(s32, 2.0)
    omega = solve_scalar_ground(p.tau1, 1.0, g32, s32)
    sync = synchronized_solution(p, omega.u)
    ch = _pair_chart(p, s32)
    a_sync = ch.coords(sync)[0]
    fm = fiber_maximize(ch, a_sync, fiber_seed_count(ch.B, COLD_SEEDS))
    a, b = ch.point(a_sync, fm.z), sync
    cos = abs(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos == pytest.approx(1.0, abs=1e-8)


def test_membership_on_synchronized_pair(g32, s32):
    omega = solve_scalar_ground(s32.lambda1(), 1.0, g32, s32)
    # small beta: the synchronized pair maximizes its own fiber
    p_small = _res_params(s32, 1.5)
    ch = _pair_chart(p_small, s32)
    sync = synchronized_solution(p_small, omega.u)
    assert in_nehari(g32, ch, sync, tol=1e-7)
    assert in_nehari_prime(g32, ch, sync, tol=1e-7)
    # scaled off the Nehari set
    assert not in_nehari(g32, ch, 2.0 * sync, tol=1e-7)
    # large beta: still in N but no longer fiber-maximal
    p_big = _res_params(s32, 50.0)
    ch = _pair_chart(p_big, s32)
    sync = synchronized_solution(p_big, omega.u)
    assert in_nehari(g32, ch, sync, tol=1e-7)
    assert not in_nehari_prime(g32, ch, sync, tol=1e-7)


def test_nehari_prime_check_builds_one_chart(g32, s32, monkeypatch):
    # the N' check solves w's fiber with fiber_maximize on the chart it is
    # given, not on a chart of its own: the caller's is the only one
    p = _res_params(s32, 1.5)
    sync = synchronized_solution(p, solve_scalar_ground(p.tau1, 1.0, g32, s32).u)
    charts, plain = [], fiber_mod.fiber_chart

    def counted(*args, **kwargs):
        charts.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(fiber_mod, "fiber_chart", counted)
    ch = fiber_mod.fiber_chart(s32, p.taus, p.coupling)
    assert in_nehari_prime(g32, ch, sync, tol=1e-7) is True
    assert len(charts) == 1


def test_membership_semitrivial(g32, s32):
    p = _res_params(s32, 1.0)
    u = solve_scalar_ground(p.tau1, p.mu1, g32, s32)
    st = _embed(g32, u.u)
    assert in_nehari(g32, _pair_chart(p, s32), st, tol=1e-7)


def test_in_nehari_rejects_tilde(g32, s32):
    p = _res_params(s32, 1.0)
    w = _embed(g32, s32.phi1())
    with pytest.raises(ValueError):
        in_nehari(g32, _pair_chart(p, s32), w)


def _normalized(ch, a):
    return a / np.sqrt(a @ (ch.metric * a))


@pytest.mark.parametrize("taus", [(None,), (None, None), (None, 2.5), (0.0, 0.0)])
def test_chart_blocks_are_scipy_block_diag(taus, g32, s32):
    # tau = None: resonant at lambda1; (0, 0) leaves Htilde empty.  Each
    # component's Htilde is its leading eigenvector columns, those within
    # the 1e-9 band of tau or below it, and its H+ the rest, kept as a view
    lam = s32.lambda1()
    taus = [lam if t is None else t for t in taus]
    V, ev = s32.eigenvectors, s32.eigenvalues
    cuts = [int(np.sum(ev - t <= 1e-9 * max(1.0, abs(t)))) for t in taus]
    ch = fiber_chart(s32, taus, np.eye(len(taus)))
    ref = block_diag(*[V[:, :m] for m in cuts])
    assert ch.Vt.shape == ref.shape and np.array_equal(ch.Vt, ref)
    assert [P.shape[1] for P in ch.plus] == [ev.size - m for m in cuts]
    for P, m in zip(ch.plus, cuts):
        assert np.shares_memory(P, V) and np.array_equal(P, V[:, m:])
    # plus_field is the block diagonal of the H+ bases applied to a
    a = np.random.default_rng(5).standard_normal(ch.metric.size)
    ref = block_diag(*[V[:, m:] for m in cuts]) @ a
    assert np.max(np.abs(ch.plus_field(a) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("tau", ["lambda1", 2.5])
def test_chart_projections_match_spectral_project(dim, tau, g32, s32, g2d, s2d):
    # H+ and Htilde of a stacked field, read from the chart, against the
    # spectral projections by construction: each component is V c for known
    # eigen-coefficients c, so its H+ part is V c on the modes above tau
    # (Vp a in the chart) and its Htilde coefficients (w Vt^T x) are c on
    # the others
    g, s = (g32, s32) if dim == 1 else (g2d, s2d)
    tau = s.lambda1() if tau == "lambda1" else tau
    p = SystemParams(tau, tau, 1.0, 1.0, 0.5)
    ch = _pair_chart(p, s)
    V, up = s.eigenvectors, s.eigenvalues > tau
    assert ch.taus == tuple(p.taus) == (tau, tau)
    assert [P.shape[1] for P in ch.plus] == [int(up.sum())] * 2
    r = np.random.default_rng(12)
    for _ in range(3):
        C = r.standard_normal((2, g.node_count))
        x = (C @ V.T).ravel()  # component i is V C[i]
        plus = ((C * up) @ V.T).ravel()
        assert np.max(np.abs(ch.plus_field(ch.plus_coeffs(x)) - plus)) <= 1e-10 * np.max(np.abs(x))
        assert np.max(np.abs(ch.w * (ch.Vt.T @ x) - C[:, ~up].ravel())) <= 1e-10
    # a field with no H+ part is no member of N, nor a candidate for it
    with pytest.raises(ValueError):
        in_nehari(g, ch, ch.Vt @ r.standard_normal(ch.qt.size))


@pytest.mark.parametrize("dim", [1, 2])
def test_chart_quadratic_part_matches_laplacian(dim, g64, s64, g2d, s2d):
    # the chart's diagonal Q against w D^T (A - tau) D assembled with the
    # Laplacian apply, component by component
    g, s = (g64, s64) if dim == 1 else (g2d, s2d)
    taus = (s.lambda1(), s.eigenvalues[3] + 0.5)
    p = SystemParams(taus[0], taus[1], 1.0, 2.0, 0.5)
    ch = _pair_chart(p, s)
    assert ch.qt.size == 1 + 4
    a = _normalized(ch, np.random.default_rng(8).standard_normal(ch.metric.size))
    D = ch.span(a)
    n = g.node_count
    AD = np.empty_like(D)
    for i, tau in enumerate(taus):
        block = D[i * n:(i + 1) * n]
        AD[i * n:(i + 1) * n] = np.column_stack(
            [laplacian_apply(g, col.copy()) - tau * col for col in block.T]
        )
    ref = g.quad_weight * (D.T @ AD)
    Q = np.diag(ch.quad(a))
    assert Q[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(ref - Q)) <= 1e-12 * max(1.0, np.max(np.abs(Q)))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tau", ["lambda1", 2.5])
def test_fiber_maximizers_meet_the_gradient_tolerance(k, tau):
    # fiber_maximize asks its ascents for |grad I| <= 1e-12 max(1, |I|); on
    # these fibers |I| is about 1e6, so near the maximum an ascent step gains
    # less than the rounding of I and the Armijo test cannot accept it
    g = build_grid(DomainSpec("interval", (np.pi,), 128))
    s = get_spectrum(g)
    tau = s.lambda1() if tau == "lambda1" else tau
    ch = fiber_chart(s, (tau,) * k, [[1.0]] if k == 1 else [[1.0, 4.0], [4.0, 1.0]])
    r = np.random.default_rng(0)
    for _ in range(20):
        a = _normalized(ch, r.standard_normal(ch.metric.size))
        fm = fiber_maximize(ch, a, fiber_seed_count(ch.B, COLD_SEEDS))
        val, grad, _ = _fiber_functions(ch, a)[3](fm.z)
        assert fm.converged
        assert np.linalg.norm(grad) <= 1e-12 * max(1.0, abs(val))


@pytest.mark.parametrize("beta", [1.0, 8.0])
@pytest.mark.parametrize("tau", ["lambda1", 2.5])
def test_semitrivial_fiber_matches_scalar(g64, s64, tau, beta):
    # every term of I that involves the second component is <= 0 on the
    # fiber of (u, 0), so the pair fiber is maximized with v2 = 0, at the
    # scalar maximum of u
    tau = s64.lambda1() if tau == "lambda1" else tau
    p = SystemParams(tau, tau, 1.0, 1.0, beta)
    one = fiber_chart(s64, (tau,), [[p.mu1]])
    two = _pair_chart(p, s64)
    a1 = _normalized(one, np.random.default_rng(9).standard_normal(one.metric.size))
    a2 = np.concatenate([a1, np.zeros(a1.size)])
    m1 = fiber_maximize(one, a1)
    # four seeds: the random ones start with v2 != 0 (below 3 sqrt(mu1 mu2)
    # the rule would give one, so the count is given here)
    m2 = fiber_maximize(two, a2, n_seeds=4, seed=0)
    assert m2.value == pytest.approx(m1.value, rel=1e-10)
    x1 = one.point(a1, m1.z)
    x2 = two.point(a2, m2.z)
    n = g64.node_count
    scale = np.max(np.abs(x1))
    assert np.max(np.abs(x2[:n] - x1)) <= 1e-10 * scale
    assert np.max(np.abs(x2[n:])) <= 1e-10 * scale


@pytest.mark.parametrize("beta", [1.0, 8.0])
@pytest.mark.parametrize("tau", ["lambda1", 2.5])
def test_semitrivial_embedding_is_its_fiber_maximum(g64, s64, tau, beta):
    # the closed-form screen entry of minimize_reduced: (U1, 0) maximizes its
    # own fiber, so I(w) and w's chart coordinates are what a cold fiber
    # search from w's direction returns
    tau = s64.lambda1() if tau == "lambda1" else tau
    p = SystemParams(tau, tau, 1.0, 1.0, beta)
    ch = _pair_chart(p, s64)
    w = _embed(g64, solve_scalar_ground(tau, p.mu1, g64, s64).u)
    a, z = ch.coords(w)
    assert np.max(np.abs(ch.point(a, z) - w)) <= 1e-12 * np.max(np.abs(w))
    fm = fiber_maximize(ch, a, fiber_seed_count(p.coupling, COLD_SEEDS))
    iw = energy(g64, p.taus, p.coupling, w)
    assert abs(iw - fm.value) <= 1e-12 * abs(fm.value)
    assert np.max(np.abs(z - fm.z)) <= 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_reduced_gradient_matches_finite_difference(k, g64, s64):
    lam = s64.lambda1()
    B = [[1.0]] if k == 1 else [[1.0, 0.5], [0.5, 2.0]]
    ch = fiber_chart(s64, (lam,) * k, B)
    r = np.random.default_rng(10 + k)
    decay = np.tile(1.0 / (1.0 + np.arange(ch.metric.size // k)), k)
    a = _normalized(ch, decay * r.standard_normal(ch.metric.size))
    d = decay * r.standard_normal(ch.metric.size)
    d -= (a @ (ch.metric * d)) * a  # tangent to the metric sphere at a
    fm = fiber_maximize(ch, a)

    def psi(b):
        return fiber_maximize(ch, _normalized(ch, b), init=fm.z).value

    eps = 1e-5
    fd = (psi(a + eps * d) - psi(a - eps * d)) / (2.0 * eps)
    assert fm.grad @ d == pytest.approx(fd, rel=1e-6)


def _nodal_fiber(ch, a):
    """Reference fiber energy, gradient and Hessian in z, evaluated on the
    nodal field D z (the form the moment-tensor kernel replaces)."""
    D = ch.span(a)
    Q = ch.quad(a)
    k = ch.B.shape[0]
    Dk = D.reshape(k, -1, D.shape[1])

    def value(z):
        return 0.5 * float(np.dot(z, Q * z)) - ch.nonlinearity(D @ z)[0]

    def grad(z):
        return Q * z - ch.w * (D.T @ ch.nonlinearity(D @ z)[1])

    def hess(z):
        X = (D @ z).reshape(k, -1)
        S = ch.B @ (X * X)
        H = np.diag(Q)
        for i in range(k):
            for j in range(k):
                fij = 2.0 * ch.B[i, j] * X[i] * X[j] + (S[i] if i == j else 0.0)
                H -= ch.w * (Dk[i].T @ (fij[:, None] * Dk[j]))
        return H

    return value, grad, hess


@pytest.fixture(scope="module")
def g128():
    return build_grid(DomainSpec("interval", (np.pi,), 128))


@pytest.fixture(scope="module")
def s128(g128):
    return get_spectrum(g128)


def _tau_below(s, m):
    """A tau with exactly m eigenvalues at or below it (m >= 0)."""
    lam = s.eigenvalues
    assert m == 0 or lam[m - 1] < lam[m], "no spectral gap after m modes"
    return 0.5 * lam[0] if m == 0 else 0.5 * (lam[m - 1] + lam[m])


# (grid, Htilde dimension of each component); d = 1 + their sum.  On the
# square, eigenvalue pairs are degenerate, so 2 and 5 modes cannot be cut.
KERNEL_CASES = [("1d", (m,)) for m in range(1, 6)]
KERNEL_CASES += [("1d", c) for c in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]]
KERNEL_CASES += [("2d", (m,)) for m in (1, 3, 4)]
KERNEL_CASES += [("2d", c) for c in [(1, 0), (1, 1), (3, 0), (3, 1), (4, 1)]]


def _kernel_chart(which, tildes, g128, s128, s2d):
    s = s128 if which == "1d" else s2d
    B = [[1.5]] if len(tildes) == 1 else [[1.0, 0.5], [0.5, 2.0]]
    ch = fiber_chart(s, [_tau_below(s, m) for m in tildes], B)
    assert ch.qt.size == sum(tildes)
    r = np.random.default_rng(sum(tildes) + 7 * len(tildes))
    return ch, _normalized(ch, r.standard_normal(ch.metric.size)), r


@pytest.mark.parametrize("which,tildes", KERNEL_CASES)
def test_moment_tensor_kernel_matches_nodal(which, tildes, g128, s128, s2d):
    ch, a, r = _kernel_chart(which, tildes, g128, s128, s2d)
    fun = _fiber_functions(ch, a)[3]
    ref_value, ref_grad, ref_hess = _nodal_fiber(ch, a)
    for _ in range(4):
        z = 3.0 * r.standard_normal(1 + ch.qt.size)
        v, g, H = fun(z)
        rv, rg, rH = ref_value(z), ref_grad(z), ref_hess(z)
        assert abs(v - rv) <= 1e-12 * abs(rv)
        assert np.max(np.abs(g - rg)) <= 1e-12 * np.max(np.abs(rg))
        assert np.max(np.abs(H - rH)) <= 1e-12 * np.max(np.abs(rH))


@pytest.mark.parametrize("tildes", [(1,), (2,), (3,), (4,), (1, 0), (1, 1), (2, 1), (2, 2)])
def test_moment_tensor_matches_einsum(tildes, g128, s128, s2d):
    # M = w sum_ij B_ij sum_nodes D_i (x) D_i (x) D_j (x) D_j, symmetrized
    # over the three pairings of its slots, written with einsum; d = 2..5
    ch, a, _ = _kernel_chart("1d", tildes, g128, s128, s2d)
    M = _fiber_functions(ch, a)[2]
    D = ch.span(a)
    k, d = ch.B.shape[0], D.shape[1]
    Dk = D.reshape(k, -1, d)
    T = ch.w * np.einsum("ij,inp,inq,jnr,jns->pqrs", ch.B, Dk, Dk, Dk, Dk)
    ref = (T + np.einsum("prqs->pqrs", T) + np.einsum("psqr->pqrs", T)) / 3.0
    assert np.max(np.abs(M - ref.reshape(d * d, -1))) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("which,tildes", [("1d", (2, 1)), ("2d", (3, 1))])
def test_moment_tensor_hessian_matches_gradient_difference(which, tildes, g128, s128, s2d):
    ch, a, r = _kernel_chart(which, tildes, g128, s128, s2d)
    fun = _fiber_functions(ch, a)[3]
    z = 3.0 * r.standard_normal(1 + ch.qt.size)
    H = fun(z)[2]
    eps = 1e-5
    fd = np.column_stack(
        [(fun(z + eps * e)[1] - fun(z - eps * e)[1]) / (2.0 * eps) for e in np.eye(z.size)]
    )
    assert np.max(np.abs(fd - H)) <= 1e-7 * np.max(np.abs(H))


def _far_warm_chart(s128):
    # indefinite (tau = 2.5), beta = 2.6: the fiber maxima of a1 and a2 sit
    # at t = 3.9e3 and t = 1.95
    ch = fiber_chart(s128, (2.5, 2.5), [[1.0, 2.6], [2.6, 1.0]])
    dim = ch.metric.size
    a1 = _normalized(ch, np.random.default_rng(0).standard_normal(dim))
    e = np.zeros(dim)
    e[0], e[dim // 2] = 1.0, 0.3
    return ch, a1, _normalized(ch, e)


def test_far_warm_start_moves_onto_its_ray(s128, monkeypatch):
    ch, a1, a2 = _far_warm_chart(s128)
    far = fiber_maximize(ch, a1, 1).z
    cold = fiber_maximize(ch, a2, 1)
    assert far[0] > 1e3 and cold.z[0] < 3.0
    calls = []
    plain = fiber_mod._fiber_functions

    def counted(ch, a):
        D, Q, M, fun = plain(ch, a)

        def fun_counted(z):
            calls.append(1)
            return fun(z)

        return D, Q, M, fun_counted

    monkeypatch.setattr(fiber_mod, "_fiber_functions", counted)
    warm = fiber_maximize(ch, a2, 1, init=far)
    assert warm.converged
    assert warm.value == pytest.approx(cold.value, rel=1e-12)
    assert np.max(np.abs(warm.z - cold.z)) <= 1e-8
    # from the unscaled warm seed (t = 3.9e3) the ascent takes 48
    assert len(calls) <= 8


def test_ray_scale_fixes_a_fiber_maximizer(s128):
    ch, _, a = _far_warm_chart(s128)
    z = fiber_maximize(ch, a, 1).z
    _, Q, M, _ = _fiber_functions(ch, a)
    assert abs(_ray_scale(Q, M, z) - 1.0) <= 1e-12
    # a scaled copy goes back onto the maximizer; a ray without a maximum
    # (z.Qz <= 0, all of it in Htilde) is left alone
    assert _ray_scale(Q, M, 40.0 * z) == pytest.approx(1.0 / 40.0, rel=1e-12)
    assert _ray_scale(Q, M, np.concatenate([[0.0], z[1:]])) == 1.0


def test_seed_rule_band_is_many_seeds(s32):
    # beta within 1e-9 of 3 sqrt(mu1 mu2) is treated as non-unique, so that
    # rounding does not pick the one-seed rule; k = 1 (F = mu u^4 / 4,
    # convex) always takes one seed
    mu1, mu2 = 1.3, 2.1
    bound = 3.0 * np.sqrt(mu1 * mu2)

    def counts(B):
        return tuple(fiber_seed_count(B, n) for n in (COLD_SEEDS, DESCENT_WARM_SEEDS, CHECK_WARM_SEEDS))

    def pair(beta):
        return SystemParams(2.5, 2.5, mu1, mu2, beta).coupling

    assert counts(pair(bound * (1.0 - 1e-6))) == (1, 1, 1)
    assert counts(pair(bound * (1.0 - 1e-12))) == (10, 2, 5)
    assert counts(pair(bound)) == (10, 2, 5)
    assert counts(pair(2.0 * bound)) == (10, 2, 5)
    assert counts(fiber_chart(s32, (2.5,), [[mu1]]).B) == (1, 1, 1)


@settings(max_examples=15, deadline=None)
@given(
    mu1=st.floats(0.5, 3.0),
    mu2=st.floats(0.5, 3.0),
    frac=st.floats(0.01, 0.9999),
    tau=st.sampled_from([None, 2.5]),
    n=st.sampled_from([32, 64]),
    low=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_one_seed_reaches_the_best_of_thirty(s32, s64, mu1, mu2, frac, tau, n, low, seed):
    # below 3 sqrt(mu1 mu2) F is convex and the fiber maximum unique: the
    # one seed of fiber_seed_count reaches the best of 30; None is lambda1
    s = s32 if n == 32 else s64
    t = s.lambda1() if tau is None else tau
    p = SystemParams(t, t, mu1, mu2, frac * 3.0 * np.sqrt(mu1 * mu2))
    assert fiber_seed_count(p.coupling, COLD_SEEDS) == 1
    ch = _pair_chart(p, s)
    r = np.random.default_rng(seed)
    dim = ch.metric.size
    if low:
        # the two lowest H+ modes of each component
        a = np.zeros(dim)
        a[[0, 1, dim // 2, dim // 2 + 1]] = r.standard_normal(4)
    else:
        a = r.standard_normal(dim)
    a = _normalized(ch, a)
    one = fiber_maximize(ch, a, fiber_seed_count(p.coupling, COLD_SEEDS))
    best = fiber_maximize(ch, a, 30, seed=seed)
    assert one.converged
    assert abs(one.value - best.value) <= 1e-12 * abs(best.value)


def test_random_seeds_start_at_the_fiber_scale(s128, monkeypatch):
    # a high-frequency direction at tau = 2.5, beta = 5: t_est = 6.1e3 and the
    # maximizer has |c| = 5.8.  Random seeds draw c in [-2, 2] t_est |a|; with
    # c in [-2, 2] t_est they started up to 158 t_est |a| out, and the cold
    # 10-seed call took 338 evaluations instead of 203
    ch = fiber_chart(s128, (2.5, 2.5), [[1.0, 5.0], [5.0, 1.0]])
    dim = ch.metric.size
    e = np.zeros(dim)
    e[dim // 2 - 20], e[dim - 20] = 1.0, 0.5
    a = _normalized(ch, e)
    seeds, evals = [], []
    plain = fiber_mod.newton_max_subspace

    def counted(fun, z0, *args, **kwargs):
        seeds.append(np.array(z0, dtype=float))

        def fun_counted(z):
            evals.append(1)
            return fun(z)

        return plain(fun_counted, z0, *args, **kwargs)

    monkeypatch.setattr(fiber_mod, "newton_max_subspace", counted)
    fm = fiber_maximize(ch, a, 10, seed=0)
    assert fm.converged
    assert len(seeds) == 10
    t_est = seeds[0][0]
    assert t_est > 1e3 and np.max(np.abs(fm.z[1:])) < 10.0
    for z0 in seeds[3:]:
        assert np.max(np.abs(z0[1:])) <= 2.0 * t_est * np.linalg.norm(a)
    assert len(evals) <= 250
