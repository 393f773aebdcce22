"""Solver option bundles shared by the scalar and system solvers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 400
    restarts: int = 8
    extra_seeds: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iter", 1), ("restarts", 1), ("extra_seeds", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
