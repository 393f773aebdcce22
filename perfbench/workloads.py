"""The benchmark's workloads: the nlss config each one generates from the
workload seed, the CLI arguments, and the correctness checks on the
artifacts.

Every check rests on a computation made apart from nlss (reference.py) or
on a property the method must have; none compares against stored output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

from reference import ResonantQuotient, h_inf_grid

PI = math.pi
REL = 1e-3  # equality tolerance of two nested iterative solvers (EQUALITY_RTOL)
REF_REL = 1e-6  # agreement of c_sem with the benchmark's own minimization


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # interval | rectangle
    n: int
    tau_mode: str
    params: tuple  # tau1, tau2, mu1, mu2, beta
    solver: dict  # fixed solver options; the seed is added per operation
    sweep: tuple = ()  # --vary ... arguments for `nlss sweep`
    points: int = 1  # operations per invocation

    @property
    def lengths(self):
        return [PI] if self.kind == "interval" else [PI, PI]

    def config(self, seed: int, out_dir: str) -> dict:
        tau1, tau2, mu1, mu2, beta = self.params
        return {
            "domain": {"kind": self.kind, "lengths": self.lengths, "n": self.n},
            "tau_mode": self.tau_mode,
            "params": {"tau1": tau1, "tau2": tau2, "mu1": mu1, "mu2": mu2, "beta": beta},
            "solver": dict(self.solver, seed=seed),
            "output": {"dir": out_dir},
        }

    def argv(self, config_path: str) -> list[str]:
        if self.sweep:
            return ["sweep", "--config", config_path, *self.sweep]
        return ["solve", "--config", config_path]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="resonant-1d",
            kind="interval",
            n=128,
            tau_mode="lambda1",
            params=(0.0, 0.0, 1.0, 1.0, 0.5),
            solver={"max_iter": 60, "restarts": 3, "extra_seeds": 4},
        ),
        Workload(
            name="resonant-2d",
            kind="rectangle",
            n=11,
            tau_mode="lambda1",
            params=(0.0, 0.0, 1.0, 1.0, 50.0),
            solver={"max_iter": 20, "restarts": 4, "extra_seeds": 0},
        ),
        Workload(
            name="indefinite-sweep",
            kind="interval",
            n=128,
            tau_mode="explicit",
            params=(2.5, 2.5, 1.0, 1.0, 1.0),
            solver={"max_iter": 60, "restarts": 4, "extra_seeds": 4},
            sweep=("--vary", "beta", "--from", "0.5", "--to", "8", "--steps", "6", "--log"),
            points=6,
        ),
    ]
}


@dataclass
class Outcome:
    """Per-operation verdicts of one invocation: one entry per report or point."""

    failures: list[list[str]] = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.failures)

    @property
    def failed(self):
        return sum(1 for f in self.failures if f)


class Checker:
    """Checks for one workload; reference values are computed once per run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        _, _, mu1, mu2, beta = wl.params
        self.c_sem_ref = None
        if wl.tau_mode == "lambda1":
            # the least of the two semi-trivial levels S^2 / (4 mu_j)
            s = ResonantQuotient(wl.lengths, wl.n).minimize()
            self.c_sem_ref = s * s / (4.0 * max(mu1, mu2))
        self.h_inf = h_inf_grid(mu1, mu2, beta)

    def check(self, rc: int, out_dir: str) -> Outcome:
        if self.wl.sweep:
            return self._sweep(rc, out_dir)
        return Outcome([self._report(rc, out_dir)])

    # -- single reports ----------------------------------------------------
    def _report(self, rc, out_dir):
        bad = []
        if rc != 0:
            bad.append(f"exit code {rc}")
        try:
            with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
                rep = json.load(fh)
        except (OSError, ValueError) as exc:
            return bad + [f"report.json unreadable: {exc}"]
        if rep.get("errors"):
            bad.append(f"partial report: {rep['errors']}")
        e, cp, cs = rep["e_est"], rep["c_prime_est"], rep["c_sem"]
        if None in (e, cp, cs):
            return bad + ["missing level"]
        status = {k: v["status"] for k, v in rep["verdicts"].items()}
        _, _, mu1, mu2, beta = self.wl.params

        def need(ok, what):
            if not ok:
                bad.append(what)

        need(abs(cs - self.c_sem_ref) <= REF_REL * self.c_sem_ref,
             f"c_sem {cs!r} != reference {self.c_sem_ref!r}")
        if self.wl.name == "resonant-1d":
            # nlss's t12 also requires the angle between the reduced
            # minimizer's components to vanish.  A minimizer that is
            # semi-trivial up to a residual component just above nlss's
            # 1e-10 cut gets the angle to that noise, pi/2, and t12 reads
            # fail on some seeds although the equalities below hold.  Only
            # that case is let through; the equalities are checked here.
            t12, angle = status["t12"], rep.get("minimizer_angle")
            noise_angle = (t12 == "fail" and isinstance(angle, float)
                           and abs(angle - PI / 2) <= 1e-6)
            need(t12 == "pass" or noise_angle, f"t12 {t12} (minimizer_angle {angle!r})")
            need(abs(e - cp) <= REL * cp, f"|e - c'| > {REL} c' ({e!r}, {cp!r})")
            s, sp = rep["S"], rep["S_prime_est"]
            need(s is not None and abs(sp - self.h_inf * s) <= REL * self.h_inf * s,
                 f"S' {sp!r} != h_inf S ({self.h_inf!r} * {s!r})")
            # S' = h_inf S and S^2 = 4 c_sem give c' = h_inf^2 c_sem
            need(abs(cp - self.h_inf**2 * cs) <= REL * cs,
                 f"c' {cp!r} != h_inf^2 c_sem {self.h_inf**2 * cs!r}")
        else:
            need(status["t11"] == "pass", f"t11 {status['t11']}")
            need(status["t13"] == "pass", f"t13 {status['t13']}")
            need(e < cp < cs, f"not e < c' < c_sem ({e!r}, {cp!r}, {cs!r})")
            # energy of the closed-form synchronized pair (alpha1 w, alpha2 w)
            sync = (mu1 + mu2 - 2.0 * beta) / (mu1 * mu2 - beta**2) * cs
            need(e <= sync * (1.0 + 1e-6), f"e {e!r} above synchronized level {sync!r}")
        return bad

    # -- sweeps --------------------------------------------------------------
    def _sweep(self, rc, out_dir):
        points = self.wl.points
        try:
            with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(out_dir, "sweep.svg"), encoding="utf-8") as fh:
                svg_ok = fh.read().rstrip().endswith("</svg>")
        except OSError as exc:
            return Outcome([[f"sweep artifacts unreadable: {exc}"]] * points)
        if len(rows) != points:
            return Outcome([[f"{len(rows)} rows, expected {points}"]] * points)
        fails = [[] for _ in rows]
        if rc != 0:
            for f in fails:
                f.append(f"exit code {rc}")
        if not svg_ok:
            fails[-1].append("sweep.svg truncated")
        filled = ["e_est", "c_prime", "c_sem", "beta_hat1", "beta_hat2", "S_prime",
                  "regime", "verdict_t11", "verdict_t12", "verdict_t13"]
        for f, row in zip(fails, rows):
            empty = [k for k in filled if row[k] == ""]
            if empty:
                f.append(f"empty cells {empty}")
        if any(fails):
            return Outcome(fails)
        num = [{k: float(row[k]) for k in ("beta", "e_est", "c_prime", "c_sem",
                                           "beta_hat1", "beta_hat2")} for row in rows]
        first = rows[0]
        lam = max(num[0]["beta_hat1"], num[0]["beta_hat2"])
        for i, (f, row, x) in enumerate(zip(fails, rows, num)):
            for k in ("c_sem", "beta_hat1", "beta_hat2"):
                if row[k] != first[k]:
                    f.append(f"{k} {row[k]} differs from point 0 ({first[k]})")
            want = "pass" if x["beta"] > lam else "not_applicable"
            if row["verdict_t11"] != want:
                f.append(f"t11 {row['verdict_t11']} at beta={row['beta']} (Lambda={lam!r})")
            if x["e_est"] > x["c_prime"] * (1.0 + 1e-8):
                f.append(f"e {x['e_est']!r} > c' {x['c_prime']!r}")
            # I decreases pointwise in beta, so c' cannot grow with beta
            if i and x["c_prime"] > num[i - 1]["c_prime"] * (1.0 + 1e-9):
                f.append(f"c' rises from {num[i - 1]['c_prime']!r} to {x['c_prime']!r}")
        return Outcome(fails)
