"""Ground states of the scalar indefinite problem -Lap u - tau u = mu u^3
and the least-energy Rayleigh quotient.

The solver is the k = 1 case of the generalized-Nehari reduction in
nlss.fiber (coupling [[mu]]): sphere descent over unit H+ directions of
psi (reduced_psi, one warm-started fiber seed per evaluation) to the
system's DESCENT_TOL only, then the system's full nodal Newton
(nlss.system.newton_refine), which finishes every restart, and the
system's duplicate filter (nlss.system.distinct).
Multiple seeded restarts are a heuristic for the (possibly non-unique)
ground state set; all converged candidates of least energy are exposed.

The solution scales exactly with mu (u_mu = u_1 / sqrt(mu), E_mu = E_1 /
mu, S independent of mu), so a system needs one solve per distinct tau:
pair_grounds does that solve at mu = 1 and scales it to mu1 and mu2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from ._opt import sphere_descent
from .errors import NoConvergence
from .fiber import fiber_chart, reduced_psi
from .functional import SystemParams
from .grids import Grid, inner_grad, inner_l2, norm_lp
from .options import SolverOptions
from .spectral import Spectrum
from .system import DESCENT_TOL, _newton_outcome, distinct


def least_quotient(g: Grid, u: np.ndarray, tau: float) -> float:
    """(||grad u||^2 - tau ||u||^2) / ||u||_{L4}^2."""
    n4 = norm_lp(g, u, 4)
    if n4 == 0.0:
        raise ValueError("least_quotient of the zero field")
    return (inner_grad(g, u, u) - tau * inner_l2(g, u, u)) / n4**2


@dataclass
class ScalarGround:
    """Best scalar critical point found, plus the candidates sharing the
    minimal energy level (the discovered ground state set modulo sign)."""

    u: np.ndarray
    energy: float
    quotient: float
    residual_norm: float
    tau: float
    mu: float
    candidates: list[np.ndarray] = field(default_factory=list)


def solve_scalar_ground(
    tau: float,
    mu: float,
    g: Grid,
    spectrum: Spectrum,
    opts: SolverOptions = SolverOptions(),
) -> ScalarGround:
    """Minimal-energy critical point of the scalar energy over seeded restarts.

    Raises NoConvergence, naming the stop reasons, when no restart's Newton
    polish converges outside Htilde."""
    ch = fiber_chart(spectrum, (tau,), [[mu]])
    if not ch.metric.size:
        raise ValueError("empty positive subspace; tau exceeds the whole spectrum")
    rng = default_rng(opts.seed)
    psi = reduced_psi(ch, opts.seed)
    # seed directions: low H+ modes plus random coefficient vectors
    dim = ch.metric.size
    seeds = list(np.eye(min(3, dim), dim))
    while len(seeds) < opts.restarts:
        seeds.append(rng.standard_normal(dim))

    outcomes = []
    for a0 in seeds:
        a, _, z, _ = sphere_descent(psi, ch.metric, a0, tol=DESCENT_TOL, max_iter=opts.max_iter)
        # sphere_descent returns the fiber maximizer z of a as its state
        outcomes.append(_newton_outcome(g, ch, ch.point(a, z), opts))
    found, reasons = distinct(outcomes, 1)
    if not found:
        stops = ", ".join(f"{reason} x{n}" for reason, n in reasons.items())
        raise NoConvergence(f"no scalar restart converged (Newton stop reasons: {stops})")
    best = found[0]
    en = best.energy
    # the residual is odd in u: best.residual_norm holds for -u too
    u_best = -best.point if best.point[np.argmax(np.abs(best.point))] < 0 else best.point
    ground_set = [c.point for c in found if c.energy <= en + 1e-6 * max(1.0, abs(en))]
    return ScalarGround(
        u=u_best,
        energy=float(en),
        quotient=least_quotient(g, u_best, tau),
        residual_norm=best.residual_norm,
        tau=tau,
        mu=mu,
        candidates=ground_set,
    )


def scale_ground(sg: ScalarGround, mu: float) -> ScalarGround:
    """The ground state of the same tau at coupling mu, by the exact scaling
    u_mu = u sqrt(sg.mu / mu), E_mu = E sg.mu / mu (the residual scales like
    u, the quotient S does not depend on mu)."""
    k = np.sqrt(sg.mu / mu)
    return ScalarGround(
        u=k * sg.u,
        energy=sg.energy * sg.mu / mu,
        quotient=sg.quotient,
        residual_norm=k * sg.residual_norm,
        tau=sg.tau,
        mu=mu,
        candidates=[k * c for c in sg.candidates],
    )


@dataclass(frozen=True)
class PairGrounds:
    """Scalar ground states of both components of a system: `unit` solves
    -Lap u - tau1 u = u^3 (the synchronized omega and S), `first` and
    `second` are the (tau1, mu1) and (tau2, mu2) ground states."""

    unit: ScalarGround
    first: ScalarGround
    second: ScalarGround


def pair_grounds(
    p: SystemParams,
    g: Grid,
    spectrum: Spectrum,
    opts: SolverOptions = SolverOptions(),
) -> PairGrounds:
    """One mu = 1 scalar solve per distinct tau, scaled to mu1 and mu2."""
    unit1 = solve_scalar_ground(p.tau1, 1.0, g, spectrum, opts)
    unit2 = unit1
    if p.tau2 != p.tau1:
        unit2 = solve_scalar_ground(p.tau2, 1.0, g, spectrum, opts)
    return scale_grounds(PairGrounds(unit1, unit1, unit2), p.mu1, p.mu2)


def scale_grounds(pg: PairGrounds, mu1: float, mu2: float) -> PairGrounds:
    """pg with its components scaled to the couplings mu1 and mu2.

    From grounds at mu1 = mu2 = 1 this is bit for bit what pair_grounds
    returns at (mu1, mu2): scaling to mu = 1 multiplies by exactly 1."""
    return PairGrounds(pg.unit, scale_ground(pg.first, mu1), scale_ground(pg.second, mu2))
