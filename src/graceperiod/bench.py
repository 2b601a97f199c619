"""Synthetic single-conflict benchmark.

Protocol per trial: draw a transaction length ``r`` from the configured
distribution, interrupt it uniformly at random (so the hidden remaining
time is ``y = r - i`` with ``i`` uniform on ``[0, r)``), let the strategy
draw its grace period ``x``, then score the pointwise conflict cost and
the offline optimum ``min(y, B)``.  Chains are of size two.

Strategy cells: DET (deterministic threshold), RRW / RRA (randomized
unconstrained, requestor wins / aborts), RRW(mu) / RRA(mu) (mean-aware;
they fall back to the unconstrained form when the mean threshold fails),
and OPT (offline optimum).  Length distributions share draws within a
distribution so strategy columns are paired; every cell has its own
sampling stream, so output is byte-reproducible per (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import AdversaryModel, remaining_time, worst_case_for_det
from .costmodel import conflict_cost
from .rng import stream
from .strategy import ConflictMode, StrategySpec, Variant, make_strategy

DISTRIBUTIONS = ("geometric", "normal", "uniform", "exponential", "poisson")
STRATEGIES = ("DET", "RRW", "RRW(mu)", "RRA", "RRA(mu)", "OPT")
WORST_CASE_DIST = "worst_case_det"

CSV_HEADER = "distribution,strategy,trials,avg_cost,avg_opt,ratio,stderr"

_K = 2  # two conflicting transactions


@dataclass(frozen=True)
class BenchConfig:
    B: float
    mu: float
    trials: int = 100_000
    seed: int = 1
    distributions: tuple[str, ...] = DISTRIBUTIONS
    strategies: tuple[str, ...] = STRATEGIES

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for d in self.distributions:
            if d not in DISTRIBUTIONS and d != WORST_CASE_DIST:
                raise ValueError(
                    f"unknown distribution {d!r}; expected one of "
                    f"{DISTRIBUTIONS + (WORST_CASE_DIST,)}"
                )
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}; expected one of {STRATEGIES}")


@dataclass(frozen=True)
class TrialRecord:
    """One benchmark cell: a (distribution, strategy) pair."""

    distribution: str
    strategy: str
    trials: int
    avg_cost: float
    avg_opt: float
    ratio: float
    stderr: float

    def csv_row(self) -> str:
        return (
            f"{self.distribution},{self.strategy},{self.trials},"
            f"{self.avg_cost!r},{self.avg_opt!r},{self.ratio!r},{self.stderr!r}"
        )


def _length_model(name: str, config: BenchConfig) -> AdversaryModel:
    if name == WORST_CASE_DIST:
        return worst_case_for_det(_K, config.B)
    kind = "normal_truncated" if name == "normal" else name
    return AdversaryModel(kind=kind, mean=config.mu)


_CELLS = {
    "DET": (ConflictMode.REQUESTOR_WINS, Variant.DETERMINISTIC),
    "RRW": (ConflictMode.REQUESTOR_WINS, Variant.RANDOMIZED_UNCONSTRAINED),
    "RRW(mu)": (ConflictMode.REQUESTOR_WINS, Variant.RANDOMIZED_CONSTRAINED),
    "RRA": (ConflictMode.REQUESTOR_ABORTS, Variant.RANDOMIZED_UNCONSTRAINED),
    "RRA(mu)": (ConflictMode.REQUESTOR_ABORTS, Variant.RANDOMIZED_CONSTRAINED),
}


def _strategy_for(name: str, config: BenchConfig):
    if name == "OPT":
        return None
    mode, variant = _CELLS[name]
    mu = config.mu if variant is Variant.RANDOMIZED_CONSTRAINED else None
    return make_strategy(StrategySpec(mode, _K, config.B, variant, mu=mu))


def _score(name: str, strategy, ys: np.ndarray, B: float, seed: int, dist: str, n: int):
    opt = np.minimum(ys, B)  # (k-1)*y = y at k = 2
    if name == "OPT":
        return opt.copy(), opt
    xs = strategy.sample_batch(stream(seed, "bench", dist, name), n)
    return conflict_cost(strategy.spec.mode, _K, B, xs, ys), opt


def run_bench(config: BenchConfig) -> list[TrialRecord]:
    rows: list[TrialRecord] = []
    n = config.trials
    for dist in config.distributions:
        model = _length_model(dist, config)
        ys = remaining_time(model, stream(config.seed, "bench", dist), n)
        for name in config.strategies:
            strategy = _strategy_for(name, config)
            costs, opts = _score(name, strategy, ys, config.B, config.seed, dist, n)
            avg_cost = float(np.mean(costs))
            avg_opt = float(np.mean(opts))
            ratio = avg_cost / avg_opt
            if n > 1:
                resid = costs - ratio * opts
                stderr = float(np.std(resid, ddof=1) / (avg_opt * math.sqrt(n)))
            else:
                stderr = 0.0
            rows.append(TrialRecord(dist, name, n, avg_cost, avg_opt, ratio, stderr))
    return rows


def rows_to_csv(rows: list[TrialRecord]) -> str:
    """RFC 4180 text (CRLF line ends, no quoting needed for these fields)."""
    lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    return "\r\n".join(lines) + "\r\n"
