"""Experiment configuration with desk-scale guards."""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Configuration outside the supported desk-scale envelope."""


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    j: int
    seed: int = 0
    n_subspaces: int = 2000
    n_points: int = 2000
    steps: int = 6
    l0: float = 2.0
    workers: int = 1
    mode: str = "auto"

    def __post_init__(self):
        if not 2 <= self.j <= self.d <= 8:
            raise ConfigError(f"need 2 <= j <= d <= 8, got (d={self.d}, j={self.j})")
        if not 1 <= self.steps <= 12:
            raise ConfigError(f"steps must be in 1..12, got {self.steps}")
        if self.n_subspaces < 1 or self.n_points < 1:
            raise ConfigError("n_subspaces and n_points must be >= 1")
        if self.n_subspaces * self.n_points > 10**8:
            raise ConfigError("n_subspaces * n_points exceeds the 1e8 desk-scale guard")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 < self.l0 < math.inf:
            raise ConfigError(f"l0 must be positive and finite, got {self.l0}")
        if self.mode not in ("auto", "monte_carlo"):
            raise ConfigError(f"unknown sampling mode {self.mode!r}")
