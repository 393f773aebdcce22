"""Coupling thresholds beta_hat_1, beta_hat_2, their maximum Lambda, the
structural constants 3 sqrt(mu1 mu2) and max(mu1, mu2), and the regime
classification against the energy-ordering statements.

beta_hat is the infimum over the positive subspace of J(phi,phi) divided
by the weighted mass int U^2 phi^2; in eigenbasis coordinates this is the
smallest eigenvalue of a matrix pencil (pencil_smallest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._opt import dsyevr, dsyevr_lwork
from .errors import DegenerateWeight, EmptyPositiveSubspace
from .fiber import FiberChart, fiber_chart
from .functional import SystemParams, band_side
from .grids import Grid
from .options import SolverOptions
from .scalar import PairGrounds, pair_grounds
from .spectral import Spectrum


@dataclass
class Thresholds:
    beta_hat_1: float
    beta_hat_2: float
    lambda_cap: float
    three_sqrt: float
    mu_max: float
    minimizing_modes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RegimeReport:
    ground_state_exists: bool
    equalities_regime: bool
    semitrivial_ground_hint: bool
    synchronized_regime: bool


def pencil_smallest(jhat_diag: np.ndarray, mass: np.ndarray):
    """Smallest eigenvalue of diag(jhat) c = lam * mass c for jhat > 0 and a
    positive semidefinite mass; returns (lam_min, eigvec).

    It is 1 / the largest eigenvalue of J^{-1/2} mass J^{-1/2} (J =
    diag(jhat)), with eigenvector J^{-1/2} v.  This form stays well posed
    where the mass is singular: the weight U^2 vanishes at the nodal set of
    a sign-changing U, and the smallest eigenvalue of the pencil with the
    mass as its B side would then depend on rounding.  Only that largest
    eigenpair is computed: LAPACK dsyevr with the arguments of
    scipy.linalg.eigh(..., subset_by_index=[m - 1, m - 1]), whose
    ValueError on non-finite input it keeps.
    """
    tr = float(np.trace(mass))
    if tr <= 0.0 or not np.isfinite(tr):
        raise DegenerateWeight("weight form has nonpositive trace")
    jhat = np.asarray(jhat_diag, dtype=float)
    if not np.all(jhat > 0.0):
        raise ValueError("jhat must be positive on H+")
    r = 1.0 / np.sqrt(jhat)
    m = jhat.size
    lwork, liwork, _ = dsyevr_lwork(m, lower=1)
    vals, vecs, _, _, info = dsyevr(
        np.asarray_chkfinite(r[:, None] * mass * r),
        range="I", il=m, iu=m, lower=1, lwork=int(lwork), liwork=liwork,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed (info {info})")
    return float(1.0 / vals[0]), r * vecs[:, 0]


def beta_hat(ch_other: FiberChart, U: np.ndarray) -> float:
    """inf over phi in H+ \\ {0} of J_other(phi,phi) / int U^2 phi^2, with H+
    and J_other those of the other component's k = 1 chart ch_other."""
    if np.max(np.abs(U)) == 0.0:
        raise ValueError("weight field U must be nonzero")
    if not ch_other.metric.size:
        raise EmptyPositiveSubspace("split has no positive modes")
    Vp = ch_other.plus[0]
    M = ch_other.w * (Vp.T * (U**2)) @ Vp
    lam, _ = pencil_smallest(ch_other.metric, M)
    return lam


def compute_thresholds(
    p: SystemParams,
    g: Grid,
    s: Spectrum,
    opts: SolverOptions = SolverOptions(),
    grounds: PairGrounds | None = None,
) -> Thresholds:
    """Both beta_hat values via the scalar ground states (the double infimum
    runs over the discovered minimal-energy candidate set), plus derived
    constants.  grounds defaults to pair_grounds(p, g, s, opts).  With
    (tau1, mu1) = (tau2, mu2) both come from the same pencil, which is
    solved once."""
    if grounds is None:
        grounds = pair_grounds(p, g, s, opts)
    ch1, ch2 = (fiber_chart(s, (tau,), [[1.0]]) for tau in p.taus)
    g1, g2 = grounds.first, grounds.second
    bh1 = min(beta_hat(ch2, U) for U in g1.candidates)
    if (p.tau1, p.mu1) == (p.tau2, p.mu2):
        bh2 = bh1
    else:
        bh2 = min(beta_hat(ch1, U) for U in g2.candidates)
    return Thresholds(
        beta_hat_1=float(bh1),
        beta_hat_2=float(bh2),
        lambda_cap=float(max(bh1, bh2)),
        three_sqrt=float(3.0 * np.sqrt(p.mu1 * p.mu2)),
        mu_max=float(max(p.mu1, p.mu2)),
        minimizing_modes={
            "scalar_candidates_1": len(g1.candidates),
            "scalar_candidates_2": len(g2.candidates),
        },
    )


def classify_regime(
    p: SystemParams, t: Thresholds, lambda1: float | None = None
) -> RegimeReport:
    """Flags for the parameter regimes of the ordering statements.

    lambda1 is the (discrete) principal eigenvalue; resonance-dependent
    flags are False when it is not supplied.  A beta on a threshold (see
    band_side) satisfies neither strict inequality with it.
    """
    if p.beta <= 0.0:
        raise ValueError("beta must be > 0")
    resonant = lambda1 is not None and (
        band_side(p.tau1, lambda1) == 0 and band_side(p.tau2, lambda1) == 0
    )
    cap = band_side(p.beta, t.lambda_cap)
    three = band_side(p.beta, t.three_sqrt)
    mu = band_side(p.beta, t.mu_max)
    return RegimeReport(
        ground_state_exists=cap > 0,
        equalities_regime=resonant and three < 0,
        semitrivial_ground_hint=mu <= 0 and three < 0,
        synchronized_regime=mu > 0,
    )
