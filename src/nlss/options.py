"""Solver option bundles shared by the scalar and system solvers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverOptions:
    tol_newton: float = 1e-10
    max_iter: int = 400
    restarts: int = 8
    extra_seeds: int = 4
    seed: int = 0
