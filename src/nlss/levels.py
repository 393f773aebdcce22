"""The auxiliary amplitude function h, its infimum, the scalar quotient S,
the fiber-minimax constant S', and the assembled energy report with
the level-ordering verdicts.

The minimax level between e and c' is never computed directly; the report
only states the bracket [e_est, c_prime_est].  Likewise the Nehari level c
is reported through its relations (c <= min(e, c'), with equality in the
resonant small-coupling regime), not by an independent minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NlssError
from .functional import SystemParams, hessian_quadform
from .grids import Grid, inner_l2
from .options import SolverOptions
from .scalar import PairGrounds, pair_grounds
from .spectral import Spectrum
from .system import find_critical_set, semitrivial_kind, synchronized_solution
from .thresholds import (
    RegimeReport,
    Thresholds,
    band_side,
    classify_regime,
    compute_thresholds,
)

EQUALITY_RTOL = 1e-3  # two nested iterative solvers behind each side
STRICT_MARGIN = 1e-3  # strict inequalities need this relative margin to pass


def h_aux(mu1: float, mu2: float, beta: float, t1: float, t2: float) -> float:
    """(t1^2 + t2^2) / sqrt(mu1 t1^4 + mu2 t2^4 + 2 beta t1^2 t2^2)."""
    if t1 == 0.0 and t2 == 0.0:
        raise ValueError("h is undefined at (0, 0)")
    rad = mu1 * t1**4 + mu2 * t2**4 + 2.0 * beta * t1**2 * t2**2
    if rad <= 0.0:
        raise ValueError("nonpositive radicand")
    return (t1**2 + t2**2) / math.sqrt(rad)


def h_inf(mu1: float, mu2: float, beta: float):
    """Closed-form infimum of h over nonzero amplitudes.

    With x = s1^2 on [0, 1], h^-2 restricted to the unit circle is
    g(x) = (mu1 + mu2 - 2 beta) x^2 + 2 (beta - mu2) x + mu2; the infimum
    of h is 1/sqrt(max g), comparing the interior stationary point of g
    (when admissible and g opens downward) with the endpoints.
    Returns (value, x_argmax_of_g).
    """
    if mu1 <= 0 or mu2 <= 0 or beta <= 0:
        raise ValueError("mu1, mu2, beta must be positive")
    a = mu1 + mu2 - 2.0 * beta
    b = beta - mu2

    def gq(x):
        return (a * x + 2.0 * b) * x + mu2

    cands = [0.0, 1.0]
    if a < 0.0:
        xs = -b / a
        if 0.0 < xs < 1.0:
            cands.append(xs)
    xbest = max(cands, key=gq)
    return 1.0 / math.sqrt(gq(xbest)), float(xbest)


def synchronized_hessian_value(
    mu1: float,
    mu2: float,
    beta: float,
    tau: float,
    g: Grid,
    omega: np.ndarray,
    phi1: np.ndarray,
) -> float:
    """<I''(alpha1 w, alpha2 w)(phi1, -phi1), (phi1, -phi1)> at coupling beta."""
    p = SystemParams(tau, tau, mu1, mu2, beta)
    sync = synchronized_solution(p, omega)
    return hessian_quadform(g, p.taus, p.coupling, sync, np.concatenate([phi1, -phi1]))


@dataclass
class EnergyReport:
    params: SystemParams
    lambda1: float
    e_est: float = math.nan
    c_prime_est: float = math.nan
    c_sem: float = math.nan
    S: float = math.nan
    S_prime_est: float = math.nan
    h_inf: float = math.nan
    h_inf_times_S: float = math.nan
    c_l_bracket: tuple[float, float] = (math.nan, math.nan)
    c_upper: float = math.nan  # c <= min(e_est, c_prime_est)
    minimizer_angle: float = math.nan
    thresholds: Thresholds | None = None
    regime: RegimeReport | None = None
    verdicts: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        return bool(self.errors)


def _component_angle(g: Grid, u: np.ndarray) -> float:
    if semitrivial_kind(u) is not None:
        return 0.0
    u1, u2 = u.reshape(2, -1)
    n1 = math.sqrt(inner_l2(g, u1, u1))
    n2 = math.sqrt(inner_l2(g, u2, u2))
    c = abs(inner_l2(g, u1, u2)) / (n1 * n2)
    return math.acos(min(1.0, c))


def _verdict(status: str, margin: float = math.nan, note: str = "") -> dict:
    return {"status": status, "margin": margin, "note": note}


def assemble_report(
    p: SystemParams,
    g: Grid,
    s: Spectrum,
    opts: SolverOptions = SolverOptions(),
    grounds: PairGrounds | None = None,
    thresholds: Thresholds | None = None,
) -> EnergyReport:
    """Run all sub-solvers and fill the ordering verdicts.

    grounds are the scalar ground states of p's (tau, mu), and thresholds
    the compute_thresholds of p and grounds; neither depends on beta, so a
    beta sweep computes both once.  Left out, they are computed here.
    Sub-solver failures leave their fields NaN and are recorded in
    report.errors; verdicts depending on failed fields are marked.
    """
    lam1 = s.lambda1()
    rep = EnergyReport(params=p, lambda1=lam1)
    resonant = band_side(p.tau1, lam1) == 0 and band_side(p.tau2, lam1) == 0

    try:
        if grounds is None:
            grounds = pair_grounds(p, g, s, opts)
    except NlssError as exc:
        # every stage below starts from the scalar ground states
        for key in ["thresholds", "critical_set"] + (["scalar_S"] if resonant else []):
            rep.errors[key] = str(exc)
        _fill_verdicts(rep, resonant)
        return rep

    try:
        rep.thresholds = thresholds or compute_thresholds(p, g, s, opts, grounds)
        rep.regime = classify_regime(p, rep.thresholds, lambda1=lam1)
    except NlssError as exc:
        rep.errors["thresholds"] = str(exc)

    try:
        ground = find_critical_set(p, g, s, grounds, opts)
        rep.e_est = ground.all_found[0].energy
        rep.c_prime_est = ground.reduced.c_prime_est
        rep.c_sem = ground.reduced.c_sem
        rep.S_prime_est = math.sqrt(4.0 * rep.c_prime_est)
        rep.c_l_bracket = (rep.e_est, rep.c_prime_est)
        rep.c_upper = min(rep.e_est, rep.c_prime_est)
        rep.minimizer_angle = _component_angle(g, ground.reduced.minimizer)
    except NlssError as exc:
        rep.errors["critical_set"] = str(exc)

    if resonant:
        rep.S = grounds.unit.quotient
        rep.h_inf, _ = h_inf(p.mu1, p.mu2, p.beta)
        rep.h_inf_times_S = rep.h_inf * rep.S

    _fill_verdicts(rep, resonant)
    return rep


def _fill_verdicts(rep: EnergyReport, resonant: bool):
    p = rep.params
    th = rep.thresholds
    have_levels = not math.isnan(rep.e_est) and not math.isnan(rep.c_prime_est)

    # -1, 0, 1: beta below, on (see band_side) or above the threshold
    cap = band_side(p.beta, th.lambda_cap) if th else None
    three = band_side(p.beta, th.three_sqrt) if th else None

    # ordering beta > Lambda: e <= c' < c_sem
    if th is None or math.isnan(rep.c_sem) or not have_levels:
        rep.verdicts["t11"] = _verdict("not_applicable", note="missing inputs")
    elif cap == 0:
        rep.verdicts["t11"] = _verdict("not_applicable", note="boundary")
    elif cap < 0:
        rep.verdicts["t11"] = _verdict("not_applicable", note="beta <= Lambda")
    else:
        margin = (rep.c_sem - rep.c_prime_est) / max(abs(rep.c_sem), 1e-300)
        upper_ok = rep.e_est <= rep.c_prime_est + 1e-8 * max(1.0, rep.c_prime_est)
        if not upper_ok or margin < -STRICT_MARGIN:
            rep.verdicts["t11"] = _verdict("fail", margin)
        elif margin > STRICT_MARGIN:
            rep.verdicts["t11"] = _verdict("pass", margin)
        else:
            rep.verdicts["t11"] = _verdict("inconclusive", margin)

    # resonant small coupling: e = c' and S' = inf h * S
    if th is None or not have_levels:
        rep.verdicts["t12"] = _verdict("not_applicable", note="missing inputs")
    elif resonant and three == 0:
        rep.verdicts["t12"] = _verdict("not_applicable", note="boundary")
    elif not (resonant and three < 0):
        rep.verdicts["t12"] = _verdict("not_applicable")
    else:
        gap = abs(rep.e_est - rep.c_prime_est) / max(abs(rep.c_prime_est), 1e-300)
        checks = [gap <= EQUALITY_RTOL]
        if not math.isnan(rep.h_inf_times_S):
            sgap = abs(rep.S_prime_est - rep.h_inf_times_S) / rep.h_inf_times_S
            checks.append(sgap <= EQUALITY_RTOL)
        if not math.isnan(rep.minimizer_angle):
            checks.append(rep.minimizer_angle <= 1e-3)
        rep.verdicts["t12"] = _verdict("pass" if all(checks) else "fail", gap)

    # resonant large coupling: e < c' strictly
    if not have_levels:
        rep.verdicts["t13"] = _verdict("not_applicable", note="missing inputs")
    elif resonant and three == 0:
        rep.verdicts["t13"] = _verdict("not_applicable", note="boundary")
    elif not (resonant and three == 1):
        rep.verdicts["t13"] = _verdict("not_applicable")
    else:
        margin = (rep.c_prime_est - rep.e_est) / max(abs(rep.c_prime_est), 1e-300)
        if margin > STRICT_MARGIN:
            rep.verdicts["t13"] = _verdict("pass", margin)
        elif margin < -STRICT_MARGIN:
            rep.verdicts["t13"] = _verdict("fail", margin)
        else:
            rep.verdicts["t13"] = _verdict("inconclusive", margin)
