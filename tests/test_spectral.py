import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlss import DomainSpec, build_grid, eigendecompose, split_space
from nlss.fiber import fiber_chart
from nlss.grids import inner_grad, inner_l2, laplacian_apply

PI = np.pi


def test_lambda1_analytic_value():
    g = build_grid(DomainSpec("interval", (PI,), 99))
    s = eigendecompose(g)
    h = PI / 100
    assert s.lambda1() == pytest.approx((2 - 2 * np.cos(np.pi / 100)) / h**2, rel=1e-14)


def test_eigen_residuals_and_orthonormality(g64, s64):
    w = g64.quad_weight
    G = w * (s64.eigenvectors.T @ s64.eigenvectors)
    assert np.max(np.abs(G - np.eye(g64.node_count))) <= 1e-10
    for k in (0, 5, g64.node_count - 1):
        v = s64.eigenvectors[:, k].copy()
        r = laplacian_apply(g64, v) - s64.eigenvalues[k] * v
        assert np.linalg.norm(r) <= 1e-9 * s64.eigenvalues[k]
    assert np.all(np.diff(s64.eigenvalues) >= -1e-12)
    assert s64.lambda1() > 0


def test_analytic_vs_dense(g32):
    a = eigendecompose(g32, method="analytic")
    d = eigendecompose(g32, method="dense")
    assert np.max(np.abs(a.eigenvalues - d.eigenvalues)) <= 1e-8
    # eigenvectors may differ by sign; compare projector onto first mode
    w = g32.quad_weight
    for k in (0, 3):
        pa = np.outer(a.eigenvectors[:, k], a.eigenvectors[:, k]) * w
        pd = np.outer(d.eigenvectors[:, k], d.eigenvectors[:, k]) * w
        assert np.max(np.abs(pa - pd)) <= 1e-8


def test_analytic_vs_dense_2d():
    g = build_grid(DomainSpec("rectangle", (PI, PI), 7))
    a = eigendecompose(g, method="analytic")
    d = eigendecompose(g, method="dense")
    assert np.max(np.abs(a.eigenvalues - d.eigenvalues)) <= 1e-8


def test_2d_tensor_sum():
    g = build_grid(DomainSpec("rectangle", (PI, PI), 15))
    s = eigendecompose(g)
    lam1d = (2 - 2 * np.cos(np.pi / 16)) / (PI / 16) ** 2
    assert s.lambda1() == pytest.approx(2 * lam1d, rel=1e-13)


def test_split_resonant(s64):
    lam1 = s64.lambda1()
    rest = tuple(range(1, s64.eigenvalues.size))
    # lambda1 (1 - 1e-12) < lambda1: the 1e-9 band, not rounding, keeps phi1 in Htilde
    for tau in (lam1, lam1 * (1.0 - 1e-12)):
        sp = split_space(s64, tau)
        assert sp.tilde_idx == (0,)
        assert sp.plus_idx == rest


def test_split_between_eigenvalues(s64):
    sp = split_space(s64, 2.5)
    assert sp.tilde_idx == (0,)
    assert sp.plus_idx[0] == 1


def test_split_definite(s64):
    sp = split_space(s64, 0.5)
    assert sp.tilde_idx == ()
    assert len(sp.plus_idx) == s64.eigenvalues.size


# the H+ and Htilde projections every solver uses: those of the fiber chart
def _plus(ch, u):
    return ch.Vp @ ch.plus_coeffs(u)


def _tilde(ch, u):
    return ch.Vt @ (ch.w * (ch.Vt.T @ u))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), tau=st.sampled_from([0.5, 1.0, 2.5, 4.2]))
def test_projector_algebra(g64, s64, seed, tau):
    ch = fiber_chart(s64, (tau if tau != 1.0 else s64.lambda1(),), [[1.0]])
    r = np.random.default_rng(seed)
    u = r.standard_normal(g64.node_count)
    up = _plus(ch, u)
    ut = _tilde(ch, u)
    assert np.max(np.abs(up + ut - u)) <= 1e-10 * max(1.0, np.max(np.abs(u)))
    assert np.max(np.abs(_plus(ch, up) - up)) <= 1e-10
    assert np.max(np.abs(_tilde(ch, ut) - ut)) <= 1e-10
    # mutual annihilation
    assert np.max(np.abs(_tilde(ch, up))) <= 1e-10
    assert np.max(np.abs(_plus(ch, ut))) <= 1e-10


def test_phi1_projects_to_tilde(s64, g64):
    ch = fiber_chart(s64, (2.5,), [[1.0]])
    phi1 = s64.phi1().copy()
    assert np.max(np.abs(_plus(ch, phi1))) <= 1e-10
    assert np.max(np.abs(_tilde(ch, phi1) - phi1)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_j_definiteness_on_plus_minus(g64, s64, seed):
    # at tau = 4.2 no eigenvalue is within the band: Htilde = H-
    tau = 4.2
    ch = fiber_chart(s64, (tau,), [[1.0]])
    gap = ch.metric.min()
    assert gap > 0
    r = np.random.default_rng(seed)
    u = r.standard_normal(g64.node_count)
    up = _plus(ch, u)
    um = _tilde(ch, u)
    jp = inner_grad(g64, up, up) - tau * inner_l2(g64, up, up)
    jm = inner_grad(g64, um, um) - tau * inner_l2(g64, um, um)
    assert jp >= gap * inner_l2(g64, up, up) - 1e-9
    assert jm <= 1e-9


def test_only_spectral_and_fiber_read_the_eigenbasis():
    # H+ and Htilde reach the solvers through the fiber chart alone, so a
    # matrix-free chart has one place to change: no other module reads the
    # eigenvector matrix or splits the spectrum itself
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "nlss"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in ("spectral.py", "fiber.py"):
            continue
        for num, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\.eigenvectors\b|\bsplit_space\(", line):
                found.append(f"{path.name}:{num}: {line.strip()}")
    assert not found, found
