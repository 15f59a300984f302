"""Scaled-down experiment defaults, overridable via environment variables.

The paper's defaults are |P| = 2, C = 200, |Q(u_o)| = 3, |X| = 3,
ε = 0.01 over graphs with 1M-4.9M nodes. The emulated graphs default to
roughly 300-2500 nodes, so the coverage budget scales down proportionally
(C defaults to 16) while every other parameter keeps its paper value.

Environment knobs (all optional):

* ``REPRO_BENCH_SCALE`` — graph scale multiplier (default 0.15);
* ``REPRO_BENCH_C`` — total coverage constraint C (default 16);
* ``REPRO_BENCH_DOMAIN`` — per-variable active-domain cap (default 5);
* ``REPRO_BENCH_EPSILON`` — default ε (default 0.01, as in the paper);
* ``REPRO_BENCH_ENGINE`` — matcher engine: ``columnar`` (default; the
  bitset pipeline over the columnar graph core), ``bitset`` or ``set``
  (the reference engine);
* ``REPRO_BENCH_DEADLINE`` — per-run wall-clock budget in seconds
  (unset = unbounded; exhausted runs return truncated partial fronts);
* ``REPRO_BENCH_MAX_INSTANCES`` — per-run verified-instance budget;
* ``REPRO_BENCH_MAX_BACKTRACKS`` — per-run matcher-backtrack budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw else default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def _env_opt_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    return float(raw) if raw else None


def _env_opt_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    return int(raw) if raw else None


@dataclass(frozen=True)
class BenchSettings:
    """Resolved experiment defaults."""

    scale: float
    coverage_total: int
    max_domain_values: int
    epsilon: float
    matcher_engine: str = "columnar"
    deadline_seconds: Optional[float] = None
    max_instances: Optional[int] = None
    max_backtracks: Optional[int] = None

    @property
    def paper_mapping(self) -> str:
        """One-line provenance note printed atop every experiment table."""
        note = (
            f"[scaled: graph scale={self.scale}, C={self.coverage_total} "
            f"(paper C=200 on 1M-4.9M-node graphs), domain cap="
            f"{self.max_domain_values}, eps={self.epsilon}, "
            f"engine={self.matcher_engine}"
        )
        budget = self.budget()
        if budget is not None:
            note += f", budget={budget.describe()}"
        return note + "]"

    def budget(self):
        """The settings' execution budget, or None when unbounded."""
        if (
            self.deadline_seconds is None
            and self.max_instances is None
            and self.max_backtracks is None
        ):
            return None
        from repro.runtime.budget import Budget

        return Budget(
            deadline_seconds=self.deadline_seconds,
            max_instances=self.max_instances,
            max_backtracks=self.max_backtracks,
        )


def bench_settings() -> BenchSettings:
    """Read the environment and return the active settings."""
    return BenchSettings(
        scale=_env_float("REPRO_BENCH_SCALE", 0.15),
        coverage_total=_env_int("REPRO_BENCH_C", 16),
        max_domain_values=_env_int("REPRO_BENCH_DOMAIN", 5),
        epsilon=_env_float("REPRO_BENCH_EPSILON", 0.01),
        matcher_engine=os.environ.get("REPRO_BENCH_ENGINE", "columnar"),
        deadline_seconds=_env_opt_float("REPRO_BENCH_DEADLINE"),
        max_instances=_env_opt_int("REPRO_BENCH_MAX_INSTANCES"),
        max_backtracks=_env_opt_int("REPRO_BENCH_MAX_BACKTRACKS"),
    )
