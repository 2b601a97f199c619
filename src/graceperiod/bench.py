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

Memory: a run allocates three trials-length arrays, once: the remaining
times ``ys``, their optimum ``min(ys, B)`` and one cost buffer.  Each
distribution draws its lengths, then its interrupt points, into ``ys``
(``rng._ROUND`` at a time) and writes the optimum into the second.  A
cell draws and scores ``_ROUND`` trials at a time too (the streams are
counter-based, so the draws equal one whole batch), then forms its
residuals ``cost - ratio*opt`` in the cost buffer and takes their standard
deviation there.  The output is the same, bit for bit, as scoring every
cell on whole arrays.

Before it starts, :func:`run_bench` frees one empty trials-length block.
glibc's mmap threshold then rises to that size and its trim threshold to
twice it, so the heap keeps the block temporaries' pages instead of
trimming them and faulting them in again on the next block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adversary import AdversaryModel, remaining_time, worst_case_for_det
from .config import MAX_COUNT, integral, known, quote, read, real
from .costmodel import conflict_cost, opt_cost
from .rng import _ROUND, stream
from .strategy import ConflictMode, StrategySpec, Variant, check_abort_cost, make_strategy

DISTRIBUTIONS = ("geometric", "normal", "uniform", "exponential", "poisson")
STRATEGIES = ("DET", "RRW", "RRW(mu)", "RRA", "RRA(mu)", "OPT")
WORST_CASE_DIST = "worst_case_det"

CSV_HEADER = "distribution,strategy,trials,avg_cost,avg_opt,ratio,stderr"

_K = 2  # two conflicting transactions


@dataclass(frozen=True)
class BenchConfig:
    B: float = 2000.0
    mu: float = 500.0
    trials: int = 100_000
    seed: int = 1
    distributions: tuple[str, ...] = DISTRIBUTIONS
    strategies: tuple[str, ...] = STRATEGIES

    def __post_init__(self):
        casts = {"trials": integral, "seed": integral, "mu": real,
                 "B": lambda v: check_abort_cost(real(v))}
        for name, cast in casts.items():
            object.__setattr__(self, name, read(vars(self), name, cast))
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"config field 'mu' must be positive and finite, got {self.mu}")
        if not 1 <= self.trials <= MAX_COUNT:
            raise ValueError(f"config field 'trials' must be 1 to {MAX_COUNT:g}, got {self.trials}")
        for name, what, allowed in (
            ("distributions", "distribution", DISTRIBUTIONS + (WORST_CASE_DIST,)),
            ("strategies", "strategy", STRATEGIES),
        ):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"config field '{name}' must be a list, got {quote(value)}")
            object.__setattr__(self, name, tuple(value))
            for v in value:
                if v not in allowed:
                    raise ValueError(f"config field '{name}': unknown {what} {quote(v)}; "
                                     f"expected one of {allowed}")
        # a model only checks its mean when built (it calibrates when first
        # sampled), so a mean a distribution cannot take fails before any scoring
        for dist in self.distributions:
            try:
                _length_model(dist, self)
            except ValueError as exc:
                raise ValueError(f"config field 'mu': {exc} (distribution {dist})") from exc


def config_from_dict(data: dict) -> BenchConfig:
    """Build a BenchConfig from parsed JSON; a key it has no field for is an error."""
    known(data, [f.name for f in fields(BenchConfig)])
    return BenchConfig(**data)


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
    mode, variant = _CELLS[name]
    mu = config.mu if variant is Variant.RANDOMIZED_CONSTRAINED else None
    return make_strategy(StrategySpec(mode, _K, config.B, variant, mu=mu))


def _cell_costs(name: str, ys: np.ndarray, config: BenchConfig, dist: str,
                out: np.ndarray) -> np.ndarray:
    """A strategy cell's per-trial costs, written into ``out``.

    The strategy draws and scores one block of trials at a time, so no
    temporary is longer than ``_ROUND``; its stream is counter-based, so the
    draws equal one batch of ``len(ys)``.
    """
    strategy = _strategy_for(name, config)
    mode, b = strategy.spec.mode, strategy.abort_cost
    draws = stream(config.seed, "bench", dist, name)
    for lo in range(0, len(ys), _ROUND):
        hi = min(lo + _ROUND, len(ys))
        xs = strategy.sample_batch(draws, hi - lo)
        out[lo:hi] = conflict_cost(mode, _K, b, xs, ys[lo:hi])
    return out


def _std_in_place(resid: np.ndarray) -> float:
    """``np.std(resid, ddof=1)`` to the bit, overwriting ``resid`` instead of
    allocating a copy: the same sum, subtraction, square, sum and division."""
    resid -= resid.sum() / resid.size
    np.square(resid, out=resid)
    return float(np.sqrt(resid.sum() / (resid.size - 1)))


def _score_distribution(dist: str, config: BenchConfig, ys: np.ndarray, opt: np.ndarray,
                        out: np.ndarray) -> list[TrialRecord]:
    """The rows of one distribution; ``ys``, ``opt`` and ``out`` are the run's
    trials-length buffers, overwritten here."""
    n = config.trials
    remaining_time(_length_model(dist, config), stream(config.seed, "bench", dist), n, out=ys)
    opt_cost(_K, config.B, ys, out=opt)
    avg_opt = float(np.mean(opt))
    rows = []
    for name in config.strategies:
        costs = opt if name == "OPT" else _cell_costs(name, ys, config, dist, out)
        avg_cost = float(np.mean(costs))
        ratio = avg_cost / avg_opt
        if n > 1:
            # the residual costs - ratio*opt goes into out, a block at a time
            for lo in range(0, n, _ROUND):
                hi = min(lo + _ROUND, n)
                np.subtract(costs[lo:hi], ratio * opt[lo:hi], out=out[lo:hi])
            stderr = _std_in_place(out) / (avg_opt * math.sqrt(n))
        else:
            stderr = 0.0
        rows.append(TrialRecord(dist, name, n, avg_cost, avg_opt, ratio, stderr))
    return rows


def run_bench(config: BenchConfig) -> list[TrialRecord]:
    np.empty(config.trials)  # freed at once: see the module docstring
    ys, opt, out = np.empty((3, config.trials))
    rows: list[TrialRecord] = []
    for dist in config.distributions:
        rows += _score_distribution(dist, config, ys, opt, out)
    return rows


def rows_to_csv(rows: list[TrialRecord]) -> str:
    """RFC 4180 text (CRLF line ends, no quoting needed for these fields)."""
    lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    return "\r\n".join(lines) + "\r\n"
