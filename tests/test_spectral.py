import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlss import DomainSpec, build_grid, eigendecompose, project, split_space
from nlss.grids import inner_grad, inner_l2, laplacian_apply
from nlss.spectral import plus_gap

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
    sp = split_space(s64, s64.lambda1())
    assert sp.zero_idx == (0,)
    assert sp.minus_idx == ()
    assert sp.degenerate
    assert sp.tilde_dim == 1


def test_split_between_eigenvalues(s64):
    sp = split_space(s64, 2.5)
    assert sp.minus_idx == (0,)
    assert sp.zero_idx == ()


def test_split_definite(s64):
    sp = split_space(s64, 0.5)
    assert sp.minus_idx == ()
    assert sp.zero_idx == ()
    assert sp.tilde_dim == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), tau=st.sampled_from([0.5, 1.0, 2.5, 4.2]))
def test_projector_algebra(g64, s64, seed, tau):
    sp = split_space(s64, tau if tau != 1.0 else s64.lambda1())
    r = np.random.default_rng(seed)
    u = r.standard_normal(g64.node_count)
    up = project(sp, s64, u, "plus")
    uz = project(sp, s64, u, "zero")
    um = project(sp, s64, u, "minus")
    ut = project(sp, s64, u, "tilde")
    assert np.max(np.abs(up + uz + um - u)) <= 1e-10 * max(1.0, np.max(np.abs(u)))
    assert np.max(np.abs(uz + um - ut)) <= 1e-10
    assert np.max(np.abs(project(sp, s64, up, "plus") - up)) <= 1e-10
    # mutual annihilation
    assert np.max(np.abs(project(sp, s64, up, "tilde"))) <= 1e-10
    assert np.max(np.abs(project(sp, s64, ut, "plus"))) <= 1e-10


def test_phi1_projects_to_tilde(s64, g64):
    sp = split_space(s64, 2.5)
    phi1 = s64.phi1().copy()
    assert np.max(np.abs(project(sp, s64, phi1, "plus"))) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_j_definiteness_on_plus_minus(g64, s64, seed):
    tau = 4.2
    sp = split_space(s64, tau)
    gap = plus_gap(sp, s64)
    assert gap > 0
    r = np.random.default_rng(seed)
    u = r.standard_normal(g64.node_count)
    up = project(sp, s64, u, "plus")
    um = project(sp, s64, u, "minus")
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
