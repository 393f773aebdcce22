"""System-level solvers: reduced minimization on the H+ sphere (estimating
the fiber-minimax level c'), multi-seeded Newton for the critical set
(estimating the ground level e from above), and explicit synchronized and
semi-trivial solution constructors.

The reduced minimization is the k = 2 case of the generalized-Nehari
reduction in nlss.fiber (coupling [[mu1, beta], [beta, mu2]]): a cheap
descent from every screen seed (no descent the scalar stage has already
run, and none from the semi-trivial embeddings, which maximize their own
fibers; see minimize_reduced), then a full-tolerance polish of the best
three, both with the psi of nlss.fiber.reduced_psi.  The minimizer is the
fiber point where the best polish ends (or its Newton polish, where that
passes the N' check), not solved again.

The ground level is approximated from above by the minimum over a finite
discovered critical set.  The Newton runs start from the reduced
minimizer, the semi-trivial and synchronized points and the ends of the
random screen descents, which lie near critical points of psi, and are not
deflated: a converged point is dropped as a duplicate when it lies within
a relative 1e-6 of one already found, modulo the componentwise sign
symmetries (distinct).  The scalar ground states come in as PairGrounds
(one solve per distinct tau, see nlss.scalar.pair_grounds).

Fields are stacked arrays (u1, u2).  find_critical_set builds the k = 2
chart of nlss.fiber once, and the taus, the coupling, H+ and Htilde reach
every solver below it through that chart.  newton_refine and distinct work
on a chart of any k: the scalar solver polishes and filters its restarts
with them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import default_rng

from ._opt import damped_newton, sphere_descent
from .errors import (
    ConvergedToTilde,
    DegenerateDenominator,
    NoConvergence,
    NoCriticalPointFound,
    NoSynchronizedPair,
)
from .fiber import FiberChart, fiber_chart, in_nehari_prime, reduced_psi
from .functional import SystemParams, energy, h1_norm, jacobian, residual, same_up_to_signs
from .grids import Grid, inner_l2
from .options import SolverOptions
from .spectral import Spectrum

if TYPE_CHECKING:  # nlss.scalar imports this module
    from .scalar import PairGrounds


@dataclass
class CriticalPoint:
    point: np.ndarray  # stacked components: (u1, u2), or u for k = 1
    energy: float
    residual_norm: float
    kind: str  # fully_nontrivial | semitrivial_1/_2 | synchronized (k = 2); unclassified (k = 1)
    hplus_norm: float


@dataclass
class ReducedResult:
    c_prime_est: float
    minimizer: np.ndarray
    polish: CriticalPoint | str  # Newton from the minimizer, or its stop reason
    newton_starts: list[np.ndarray]  # of the critical-set search, see minimize_reduced
    c_sem: float  # least semi-trivial level, from the closed-form screen entries
    diagnostics: dict = field(default_factory=dict)


@dataclass
class GroundCandidate:
    all_found: list[CriticalPoint]  # by (energy, kind): e_est is all_found[0].energy
    reduced: ReducedResult  # c', its minimizer and c_sem
    diagnostics: dict = field(default_factory=dict)


def semitrivial_kind(u: np.ndarray) -> str | None:
    """'semitrivial_1' ('semitrivial_2') when the second (first) component of
    the stacked pair u is below 1e-8 of the other in sup norm, else None."""
    s1, s2 = np.max(np.abs(u.reshape(2, -1)), axis=1).tolist()
    sup = max(s1, s2)
    if s2 <= 1e-8 * sup:
        return "semitrivial_1"
    if s1 <= 1e-8 * sup:
        return "semitrivial_2"
    return None


def _classify(g, u: np.ndarray) -> str:
    kind = semitrivial_kind(u)
    if kind is not None:
        return kind
    u1, u2 = u.reshape(2, -1)
    n1 = inner_l2(g, u1, u1)
    n2 = inner_l2(g, u2, u2)
    cross = inner_l2(g, u1, u2)
    misalign = 1.0 - cross**2 / (n1 * n2)
    if misalign <= 1e-10:
        return "synchronized"
    return "fully_nontrivial"


def newton_refine(
    g: Grid,
    ch: FiberChart,
    u0: np.ndarray,
    opts: SolverOptions = SolverOptions(),
) -> CriticalPoint:
    """Damped Newton on the full residual of the problem of the chart ch (its
    taus and coupling); rejects Htilde limits (H+ is that of ch).

    A run that does not converge raises NoConvergence carrying the stop
    reason of damped_newton."""
    newton = damped_newton(
        lambda x: residual(g, ch.taus, ch.B, x),
        lambda x: jacobian(g, ch.taus, ch.B, x),
        u0,
        tol=opts.tol_newton,
        max_iter=2 * opts.max_iter,
    )
    pt = newton.x
    if not newton.converged:
        raise NoConvergence(
            f"Newton did not converge ({newton.reason} after "
            f"{newton.jacobians} Jacobians)",
            reason=newton.reason,
        )
    norm = h1_norm(g, pt)
    hplus = h1_norm(g, ch.Vp @ ch.plus_coeffs(pt))
    if norm <= 1e-8 or hplus <= 1e-8 * max(1.0, norm):
        raise ConvergedToTilde("Newton converged into Htilde (excluded from K)")
    return CriticalPoint(
        point=pt,
        energy=energy(g, ch.taus, ch.B, pt),
        residual_norm=float(newton.rnorm),
        kind=_classify(g, pt) if len(ch.taus) == 2 else "unclassified",
        hplus_norm=float(hplus),
    )


def _newton_outcome(g, ch, u0: np.ndarray, opts) -> CriticalPoint | str:
    """newton_refine from u0, or the stop reason of a failed run ("htilde"
    for a run that converged into Htilde)."""
    try:
        return newton_refine(g, ch, u0, opts=opts)
    except (NoConvergence, ConvergedToTilde) as exc:
        return getattr(exc, "reason", "htilde")


def distinct(outcomes, k: int):
    """(found, reasons) of a list of _newton_outcome results on k components.

    found holds the critical points, sorted by (energy, kind), without
    duplicates: a point is dropped when its energy lies within 1e-6
    max(1, |e|) of the energy e of one kept before it and the two agree up
    to the sign of each component (same_up_to_signs at 1e-6).  reasons
    counts the failed runs by stop reason."""
    found: list[CriticalPoint] = []
    reasons: dict[str, int] = {}
    for cp in outcomes:
        if isinstance(cp, str):
            reasons[cp] = reasons.get(cp, 0) + 1
        elif not any(
            abs(cp.energy - q.energy) <= 1e-6 * max(1.0, abs(q.energy))
            and same_up_to_signs(cp.point, q.point, k, 1e-6)
            for q in found
        ):
            found.append(cp)
    found.sort(key=lambda c: (c.energy, c.kind))
    return found, reasons


def minimize_reduced(
    p: SystemParams,
    g: Grid,
    ch: FiberChart,
    grounds: PairGrounds,
    opts: SolverOptions = SolverOptions(),
) -> ReducedResult:
    """Sphere descent in the J-metric on H+ of the fiber-maximized energy,
    on the chart ch of p.

    A cheap descent from each screen seed and a full-tolerance polish of the
    best three, each continuing from the fiber maximizer z its screen
    descent ended with, so no fiber is solved cold twice.  The best polish
    stops at a direction a whose fiber its last psi call solved, with
    maximizer z: psi(a) is c' and ch.point(a, z) the minimizer, and no fiber
    is solved again.  Full Newton polishes that point (polish: the critical
    point, or the stop reason of the run); where the result passes the N'
    check (in_nehari_prime, diagnostics["refined"]) it is the minimizer and
    its energy c'; the check runs on ch too.

    The screen seeds are the H+ parts of the synchronized pair where it
    exists, e0 + e(n1) (the lowest H+ mode of each component) and
    opts.extra_seeds random directions.  The semi-trivial embeddings w =
    (U1, 0) and (0, U2) enter the screen as they are, with I(w) (of
    semitrivial_solutions, which also gives c_sem) and w's chart
    coordinates, and no descent: on the fiber of (U1, 0) every term of
    I with the second component is <= 0, so w is its fiber's maximum for
    every beta > 0 and tau, and a critical point of psi.  No
    single-component mode: from (a1, 0) the descent stays on {a2 = 0},
    where psi is the scalar psi that solve_scalar_ground minimized from the
    same modes.  No e0 - e(n1): I is even in u2, so its descent mirrors that
    of e0 + e(n1).  psi is reduced_psi(ch, opts.seed).  newton_starts
    holds the starts of find_critical_set's Newton runs: the semi-trivial
    embeddings and the synchronized pair, as they are, then the fiber
    points ch.point(a, z) where the random directions' screen descents
    stop, within tol 1e-4 of a critical point of psi.
    """
    rng = default_rng(opts.seed)
    psi = reduced_psi(ch, opts.seed)
    dim = ch.metric.size
    n1 = ch.plus_dims[0]
    *semitrivial, c_sem = semitrivial_solutions(p, g, grounds)
    sync = _synchronized_points(p, grounds)
    # (value, a, z) per screen entry; the semi-trivial ones need no descent
    screen = [(cp.energy, *ch.coords(cp.point)) for cp in semitrivial]
    seeds = [ch.plus_coeffs(w) for w in sync]
    eye = np.eye(dim)
    seeds.append(eye[0] + eye[n1])
    for _ in range(opts.extra_seeds):
        seeds.append(rng.standard_normal(dim))

    # cheap screening pass over all seeds, full-tolerance polish of the best
    for a0 in seeds:
        a, val, state, _ = sphere_descent(
            psi, ch.metric, a0, tol=1e-4, max_iter=min(60, opts.max_iter)
        )
        screen.append((val, a, state))
    starts = [cp.point for cp in semitrivial] + sync
    starts += [ch.point(a, state) for _, a, state in screen[len(screen) - opts.extra_seeds:]]
    screen.sort(key=lambda t: t[0])
    runs = [
        sphere_descent(psi, ch.metric, a0, tol=opts.tol_sphere, max_iter=opts.max_iter, state=z0)
        for _, a0, z0 in screen[:3]
    ]
    a, c_prime, state, _ = min(runs, key=lambda r: r[1])
    minimizer = ch.point(a, state)
    diagnostics = {"seeds": len(screen), "refined": False}
    # Newton polish; keep it only if it stays a fiber maximizer nearby
    polish = _newton_outcome(g, ch, minimizer, opts)
    if isinstance(polish, CriticalPoint):
        rel = abs(polish.energy - c_prime) / max(1.0, abs(c_prime))
        if rel < 1e-4 and in_nehari_prime(g, ch, polish.point, tol=1e-7, opts=opts):
            c_prime, minimizer = polish.energy, polish.point
            diagnostics["refined"] = True
    return ReducedResult(c_prime, minimizer, polish, starts, c_sem, diagnostics)


def synchronized_solution(p: SystemParams, omega: np.ndarray) -> np.ndarray:
    """(alpha1 w, alpha2 w) from the resonant synchronized amplitude formula.

    omega must be the field of a ground state of -Lap u - tau u = u^3 with
    tau = tau1 = tau2; both radicands (mu_j - beta)/(mu1 mu2 - beta^2) must
    be positive.
    """
    if abs(p.tau1 - p.tau2) > 1e-12 * max(1.0, abs(p.tau1)):
        raise ValueError("synchronized construction needs tau1 = tau2")
    den = p.mu1 * p.mu2 - p.beta**2
    if abs(den) <= 1e-12:
        raise DegenerateDenominator("mu1*mu2 - beta^2 is numerically zero")
    r1 = (p.mu2 - p.beta) / den
    r2 = (p.mu1 - p.beta) / den
    if r1 <= 0.0 or r2 <= 0.0:
        raise NoSynchronizedPair(
            f"radicands {r1:.3g}, {r2:.3g} not both positive"
        )
    a1, a2 = np.sqrt(r1), np.sqrt(r2)
    return np.concatenate([a1 * omega, a2 * omega])


def semitrivial_solutions(p: SystemParams, g: Grid, grounds: PairGrounds):
    """Both semi-trivial embeddings and the least semi-trivial level c_sem.

    Their hplus_norm is NaN: nothing reads it for these two points."""
    zero = np.zeros(g.node_count)
    pt1, pt2 = np.concatenate([grounds.first.u, zero]), np.concatenate([zero, grounds.second.u])
    e1, e2 = (energy(g, p.taus, p.coupling, pt) for pt in (pt1, pt2))
    nan = float("nan")
    cp1 = CriticalPoint(pt1, e1, grounds.first.residual_norm, "semitrivial_1", nan)
    cp2 = CriticalPoint(pt2, e2, grounds.second.residual_norm, "semitrivial_2", nan)
    return cp1, cp2, float(min(e1, e2))


def _synchronized_points(p: SystemParams, grounds: PairGrounds) -> list[np.ndarray]:
    """[the synchronized pair] where it exists, else []."""
    if abs(p.tau1 - p.tau2) <= 1e-12 * max(1.0, abs(p.tau1)):
        try:
            return [synchronized_solution(p, grounds.unit.u)]
        except (NoSynchronizedPair, DegenerateDenominator):
            pass
    return []


def find_critical_set(
    p: SystemParams,
    g: Grid,
    s: Spectrum,
    grounds: PairGrounds,
    opts: SolverOptions = SolverOptions(),
) -> GroundCandidate:
    """Seeded Newton search for the nontrivial critical set; converged
    points are kept unless they duplicate one already found (by proximity,
    modulo sign symmetries).

    e is estimated from ABOVE by the minimum energy over the distinct
    converged points, all_found[0].energy; this cannot certify the true
    infimum over K.  diagnostics holds "newton_runs" and
    "failure_reasons", which counts the failed runs by stop reason
    ("htilde" for a run that converged into Htilde).  The Newton runs are
    the polish of the reduced minimizer (minimize_reduced, from the same
    grounds, not run again) and one from each of its newton_starts: the
    semi-trivial embeddings and the synchronized pair, used as they are,
    and the fiber points where the screen descents from random H+
    directions stopped, near critical points of psi and so, by the
    Szulkin-Weth reduction, near critical points of I.  All of them run on
    one chart of p, built here.
    """
    ch = fiber_chart(s, p.taus, p.coupling)
    reduced = minimize_reduced(p, g, ch, grounds, opts=opts)
    outcomes = [reduced.polish]
    outcomes += [_newton_outcome(g, ch, pt, opts) for pt in reduced.newton_starts]
    found, reasons = distinct(outcomes, 2)
    if not found:
        raise NoCriticalPointFound("no seed converged to an admissible critical point")
    diagnostics = {"newton_runs": len(outcomes), "failure_reasons": reasons}
    return GroundCandidate(found, reduced, diagnostics)
