"""Multi-thread conflict simulation with adversarial scheduling.

Model.  ``n`` threads each execute an endless sequence of transactions whose
isolated run lengths come from a calibrated length model.  Laying those
transactions end to end gives each thread an *ideal timeline* (the execution
it would see with zero conflicts).  The adversary owns the conflict
schedule: it picks wall-clock times, a receiver thread, and a chain size
``k``, and it pegs the receiver's remaining time ``y`` to the ideal timeline
at the moment of interruption.  Because the schedule and the pegged ``y``
are fixed before any policy decision, the adversary is oblivious to the
sampled grace periods, and the online run and the offline baseline face the
identical multiset of ``(time, receiver, k, y)`` conflicts.

Each conflict resolves with single-conflict cost semantics: the policy
draws a grace period ``x`` (abort cost ``B`` either static from the policy
or dynamic ``elapsed + cleanup``); ``y < x`` commits and adds ``(k-1)*y``
of waiting, otherwise the abort fires and adds ``k*x + B`` (requestor wins)
or ``(k-1)*(x + B)`` (requestor aborts).  Aborted receivers restart
immediately, retaining their commit cost; multiplicative backoff doubles
their abort cost per retry.  Start-to-commit times are accounted through
the amortization identity ``sum(Gamma) = sum(rho) + sum(conflict extras)``,
which the totals satisfy exactly.

Scheduling assumptions: requestors are synthetic waiters charged only for
delay (so a requestor is never re-conflicted as a receiver and chains stay
linear), and a per-thread exclusion window after each conflict keeps
in-grace receivers from being conflicted again in either run.  When
``(k-1)*y <= B`` the offline baseline may wait the receiver out, so the
window must cover ``max(y, B/(k-1))``; otherwise both runs are certain to
abort within ``B/(k-1)`` (no grace draw can reach ``y``), the window is
just ``B/(k-1)``, and - because that abort is forced in both runs - the
multiplicative backoff doubles the transaction's abort cost identically
on both sides.  Each event therefore carries its abort cost, fixed at
generation time.  Trace files (``time receiver_thread k`` per line) are
validated against the same windows and rejected with line diagnostics.

One online replay serves both a single run and a throughput campaign: it
walks the events once and carries one value per policy stream, so a
campaign of ``n`` seeds costs one pass over the schedule and each seed's
totals match a run of that seed alone, bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import AdversaryModel, sample_length
from .costmodel import conflict_cost
from .rng import Stream, stream, streams
from .strategy import (
    ConflictMode,
    GracePeriodStrategy,
    StrategyKind,
    StrategySpec,
    Variant,
    make_strategy,
)

__all__ = [
    "PolicyConfig", "SimConfig", "ConflictEvent", "Schedule", "SimMetrics",
    "BoundCheck", "ProgressResult", "TraceError", "build_schedule", "run",
    "run_offline_baseline", "simulate_pair", "throughput_bound_check",
    "throughput_campaign", "progress_check", "config_from_dict",
]


class TraceError(ValueError):
    """Raised for malformed or assumption-violating trace files."""


@dataclass(frozen=True)
class PolicyConfig:
    """Online grace-period policy: variant plus static abort cost and mean."""

    variant: Variant
    B: float
    mu: float | None = None

    def __post_init__(self):
        if not (self.B > 0.0 and math.isfinite(self.B)):
            raise ValueError(f"policy abort cost B must be positive, got {self.B}")


@dataclass(frozen=True)
class SimConfig:
    n_threads: int
    mode: ConflictMode
    policy: PolicyConfig
    length_model: AdversaryModel
    horizon: float
    seed: int
    conflict_rate: float | None = None  # conflicts per unit time (poisson)
    trace_path: str | None = None  # mutually exclusive with conflict_rate
    chain_size: int | dict[int, float] = 2
    cleanup_cost: float = 0.0
    dynamic_b: bool = False  # B = elapsed + cleanup_cost instead of policy.B
    doubling_backoff: bool = False

    def __post_init__(self):
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if (self.conflict_rate is None) == (self.trace_path is None):
            raise ValueError("exactly one of conflict_rate and trace_path must be set")
        if self.conflict_rate is not None and not (
            self.conflict_rate >= 0.0 and math.isfinite(self.conflict_rate)
        ):
            raise ValueError(
                f"conflict_rate (conflict_schedule.rate) must be finite and >= 0, "
                f"got {self.conflict_rate}"
            )
        if not (self.cleanup_cost >= 0.0 and math.isfinite(self.cleanup_cost)):
            raise ValueError(
                f"cleanup_cost must be finite and >= 0, got {self.cleanup_cost}"
            )
        if isinstance(self.chain_size, dict):
            if not self.chain_size:
                raise ValueError("chain size distribution is empty")
            for k, w in self.chain_size.items():
                if int(k) != k or k < 2 or not (w >= 0.0 and math.isfinite(w)):
                    raise ValueError(f"bad chain_size entry {k}: {w}")
            if not 0.0 < sum(self.chain_size.values()) < math.inf:
                raise ValueError("chain_size weights must have a positive finite sum")
        elif int(self.chain_size) != self.chain_size or self.chain_size < 2:
            raise ValueError(f"chain size must be an integer >= 2, got {self.chain_size}")


@dataclass(frozen=True)
class ConflictEvent:
    time: float
    thread: int
    k: int
    y: float  # pegged remaining time of the receiver's current transaction
    tx_index: int  # thread-local transaction index on the ideal timeline
    elapsed: float  # ideal running time of that transaction at self.time
    b_cost: float  # abort cost for this conflict (static/dynamic rule + backoff)


@dataclass(frozen=True)
class Schedule:
    events: tuple[ConflictEvent, ...]
    rho: tuple[tuple[float, ...], ...]  # per-thread transaction lengths
    n_transactions: int
    transactions_committed: int  # ideal commit happens within the horizon
    sum_rho: float
    digest: str
    backoff_mults: tuple[tuple[tuple[int, int], float], ...] = ()


@dataclass(frozen=True)
class TransactionState:
    """Per-transaction bookkeeping during a run."""

    thread: int
    index: int
    commit_cost: float
    attempts: int = 1
    abort_cost_multiplier: float = 1.0
    extra: float = 0.0

    @property
    def gamma(self) -> float:
        """Start-to-commit time: isolated work plus amortized conflict extras."""
        return self.commit_cost + self.extra


@dataclass(frozen=True)
class SimMetrics:
    n_transactions: int
    transactions_committed: int
    n_conflicts: int
    commit_branches: int
    abort_branches: int
    sum_rho: float
    sum_extra: float
    sum_gamma: float
    waste: float
    attempts_hist: dict[int, int]
    schedule_digest: str
    global_ratio: float | None = None
    per_transaction: tuple | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "n_transactions": self.n_transactions,
            "transactions_committed": self.transactions_committed,
            "n_conflicts": self.n_conflicts,
            "commit_branches": self.commit_branches,
            "abort_branches": self.abort_branches,
            "sum_rho": self.sum_rho,
            "sum_extra": self.sum_extra,
            "sum_gamma": self.sum_gamma,
            "waste": self.waste,
            "attempts_hist": {str(a): c for a, c in sorted(self.attempts_hist.items())},
            "schedule_digest": self.schedule_digest,
            "global_ratio": self.global_ratio,
        }


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    stderr: float
    margin: float
    passed: bool
    n_seeds: int

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs, "rhs": self.rhs, "stderr": self.stderr,
            "margin": self.margin, "passed": self.passed, "n_seeds": self.n_seeds,
        }


# -- schedule construction ------------------------------------------------


def _draw_lengths(config: SimConfig, thread: int) -> list[float]:
    s = stream(config.seed, "rho", thread)
    lengths: list[float] = []
    total = 0.0
    while total < config.horizon:
        r = sample_length(config.length_model, s)
        lengths.append(r)
        total += r
    return lengths


def _chain_sampler(config: SimConfig):
    if isinstance(config.chain_size, int):
        k_fixed = config.chain_size
        return lambda u: k_fixed
    items = sorted(config.chain_size.items())
    ks = [int(k) for k, _ in items]
    weights = np.array([w for _, w in items], dtype=float)
    cum = np.cumsum(weights) / np.sum(weights)
    return lambda u: ks[int(np.searchsorted(cum, u, side="right"))]


def _locate(starts: list[float], lengths: list[float], t: float) -> tuple[int, float, float]:
    idx = bisect_right(starts, t) - 1
    elapsed = t - starts[idx]
    y = lengths[idx] - elapsed
    return idx, elapsed, y


class _EventBuilder:
    """Applies the grace-window exclusion and the forced-abort backoff rule."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.next_allowed = [0.0] * config.n_threads
        self.mults: dict[tuple[int, int], float] = {}

    def admissible(self, thread: int, t: float) -> bool:
        return t >= self.next_allowed[thread]

    def admit(self, t, thread, k, tx_index, elapsed, y) -> ConflictEvent:
        cfg = self.config
        base_b = (elapsed + cfg.cleanup_cost) if cfg.dynamic_b else cfg.policy.B
        key = (thread, tx_index)
        b_cost = base_b * self.mults.get(key, 1.0)
        if (k - 1) * y <= b_cost:
            # the offline baseline may wait the receiver out
            window = max(y, b_cost / (k - 1))
        else:
            # abort is forced in both runs within the largest possible grace
            window = b_cost / (k - 1)
            if cfg.doubling_backoff and cfg.mode is ConflictMode.REQUESTOR_WINS:
                # only the receiver accumulates retries; requestor-aborts
                # throws away fresh synthetic requestors each time
                self.mults[key] = self.mults.get(key, 1.0) * 2.0
        self.next_allowed[thread] = t + window
        return ConflictEvent(t, thread, k, y, tx_index, elapsed, b_cost)


def parse_trace(path: str) -> list[tuple[float, int, int]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise TraceError(
                    f"{path}:{lineno}: expected 'time receiver_thread k', got {text!r}"
                )
            try:
                t, thr, k = float(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: {exc}") from exc
            rows.append((t, thr, k, lineno))
    out = []
    last_t = -math.inf
    for t, thr, k, lineno in rows:
        if t < last_t:
            raise TraceError(f"{path}:{lineno}: conflict times must be nondecreasing")
        last_t = t
        out.append((t, thr, k))
    # simultaneous conflicts resolve in deterministic (time, thread) order
    out.sort(key=lambda row: (row[0], row[1]))
    return out


def build_schedule(config: SimConfig) -> Schedule:
    """Generate (or load and validate) the policy-independent schedule."""
    per_thread = [_draw_lengths(config, i) for i in range(config.n_threads)]
    starts = []
    for lengths in per_thread:
        acc, ss = 0.0, []
        for r in lengths:
            ss.append(acc)
            acc += r
        starts.append(ss)

    events: list[ConflictEvent] = []
    builder = _EventBuilder(config)

    if config.trace_path is not None:
        for n_line, (t, thr, k) in enumerate(parse_trace(config.trace_path), start=1):
            if not 0 <= thr < config.n_threads:
                raise TraceError(
                    f"{config.trace_path}: entry {n_line}: thread {thr} out of range"
                )
            if k < 2:
                raise TraceError(
                    f"{config.trace_path}: entry {n_line}: chain size {k} below 2"
                )
            if not 0.0 <= t < config.horizon:
                raise TraceError(
                    f"{config.trace_path}: entry {n_line}: time {t} outside [0, horizon)"
                )
            if not builder.admissible(thr, t):
                raise TraceError(
                    f"{config.trace_path}: entry {n_line}: thread {thr} is still inside "
                    f"a grace window until {builder.next_allowed[thr]:.6g}; receivers "
                    f"must not be re-conflicted during a grace period"
                )
            idx, elapsed, y = _locate(starts[thr], per_thread[thr], t)
            events.append(builder.admit(t, thr, k, idx, elapsed, y))
    elif config.conflict_rate > 0.0:
        s = stream(config.seed, "conflicts")
        draw_k = _chain_sampler(config)
        t = 0.0
        while True:
            t += -math.log(s.uniform_open()) / config.conflict_rate
            if t >= config.horizon:
                break
            thr = int(s.uniform() * config.n_threads)
            k = draw_k(s.uniform())
            if not builder.admissible(thr, t):
                continue  # thinned: receiver may still be inside a grace window
            idx, elapsed, y = _locate(starts[thr], per_thread[thr], t)
            events.append(builder.admit(t, thr, k, idx, elapsed, y))

    digest_src = "\n".join(
        f"{e.time!r} {e.thread} {e.k} {e.y!r}" for e in events
    )
    digest = hashlib.sha256(digest_src.encode("ascii")).hexdigest()
    n_tx = sum(len(v) for v in per_thread)
    committed = sum(
        1
        for thr, lengths in enumerate(per_thread)
        for i, r in enumerate(lengths)
        if starts[thr][i] + r <= config.horizon
    )
    sum_rho = float(sum(sum(v) for v in per_thread))
    return Schedule(
        events=tuple(events),
        rho=tuple(tuple(v) for v in per_thread),
        n_transactions=n_tx,
        transactions_committed=committed,
        sum_rho=sum_rho,
        digest=digest,
        backoff_mults=tuple(sorted(builder.mults.items())),
    )


# -- execution -------------------------------------------------------------


def _online_replay(config: SimConfig, schedule: Schedule, draw, n: int):
    """The online policy's replay of ``schedule`` under ``n`` streams at once.

    ``draw()`` returns the next uniform of every policy stream as one
    length-``n`` column; each event takes one column, except that atoms take
    none.  Yields ``(event, commit, extra)`` per event, with ``commit`` and
    ``extra`` length-``n`` arrays.  Columns are mapped and costed
    elementwise, so each stream's results equal a replay of that stream
    alone, bit for bit.
    """
    strategies: dict[tuple[int, float], GracePeriodStrategy] = {}
    for ev in schedule.events:
        strat = strategies.get((ev.k, ev.b_cost))
        if strat is None:
            strat = strategies[ev.k, ev.b_cost] = make_strategy(
                StrategySpec(config.mode, ev.k, ev.b_cost, config.policy.variant,
                             mu=config.policy.mu)
            )
        if strat.kind is StrategyKind.ATOM:
            x = np.full(n, strat.params["x0"])
        else:
            x = strat.quantile(draw())
        yield ev, ev.y < x, conflict_cost(config.mode, ev.k, ev.b_cost, x, ev.y)


def _offline_replay(schedule: Schedule):
    """Perfect information: wait iff ``(k-1)*y <= B``, else abort at once."""
    for ev in schedule.events:
        wait = (ev.k - 1) * ev.y
        if wait <= ev.b_cost:
            yield ev, True, wait
        else:
            yield ev, False, ev.b_cost


def _tally(
    config: SimConfig, schedule: Schedule, outcomes, collect_per_transaction: bool
) -> SimMetrics:
    """Metrics of one replay from its ``(event, commit, extra)`` outcomes."""
    rw = config.mode is ConflictMode.REQUESTOR_WINS
    attempts: dict[tuple[int, int], int] = {}
    extras: dict[tuple[int, int], float] = {}
    sum_extra = 0.0
    commit_branches = 0

    for ev, commit, extra in outcomes:
        key = (ev.thread, ev.tx_index)
        if commit:
            commit_branches += 1
        elif rw:
            attempts[key] = attempts.get(key, 1) + 1
        extras[key] = extras.get(key, 0.0) + extra
        sum_extra += extra

    hist: dict[int, int] = {}
    n_single = schedule.n_transactions - len(attempts)
    if n_single:
        hist[1] = n_single
    for a in attempts.values():
        hist[a] = hist.get(a, 0) + 1

    per_tx = None
    if collect_per_transaction:
        sched_mults = dict(schedule.backoff_mults)
        per_tx = tuple(
            TransactionState(
                thread=thr,
                index=i,
                commit_cost=r,
                attempts=attempts.get((thr, i), 1),
                abort_cost_multiplier=sched_mults.get((thr, i), 1.0),
                extra=extras.get((thr, i), 0.0),
            )
            for thr, lengths in enumerate(schedule.rho)
            for i, r in enumerate(lengths)
        )

    sum_gamma = schedule.sum_rho + sum_extra
    return SimMetrics(
        n_transactions=schedule.n_transactions,
        transactions_committed=schedule.transactions_committed,
        n_conflicts=len(schedule.events),
        commit_branches=commit_branches,
        abort_branches=len(schedule.events) - commit_branches,
        sum_rho=schedule.sum_rho,
        sum_extra=sum_extra,
        sum_gamma=sum_gamma,
        waste=sum_extra / schedule.sum_rho,
        attempts_hist=hist,
        schedule_digest=schedule.digest,
        per_transaction=per_tx,
    )


def run(
    config: SimConfig,
    schedule: Schedule | None = None,
    policy_stream: Stream | None = None,
    collect_per_transaction: bool = False,
) -> SimMetrics:
    """Online run: the configured policy draws every grace period.

    This is the one-stream case of the campaign's replay.
    """
    if schedule is None:
        schedule = build_schedule(config)
    if policy_stream is None:
        policy_stream = stream(config.seed, "policy")
    replay = _online_replay(
        config, schedule, lambda: np.array([policy_stream.uniform()]), 1
    )
    outcomes = ((ev, bool(commit[0]), float(extra[0])) for ev, commit, extra in replay)
    return _tally(config, schedule, outcomes, collect_per_transaction)


def run_offline_baseline(
    config: SimConfig,
    schedule: Schedule | None = None,
    collect_per_transaction: bool = False,
) -> SimMetrics:
    """Perfect-information replay of the same schedule.

    Each conflict costs ``min((k-1)*y, B)``: wait out the receiver when the
    aggregate delay is cheaper than the abort penalty, abort immediately
    otherwise.
    """
    if schedule is None:
        schedule = build_schedule(config)
    return _tally(config, schedule, _offline_replay(schedule), collect_per_transaction)


def _bound_check(ratios: np.ndarray, waste: float, n_sigma: float) -> BoundCheck:
    lhs = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    rhs = (2.0 * waste + 1.0) / (waste + 1.0)
    margin = n_sigma * stderr
    return BoundCheck(lhs, rhs, stderr, margin, lhs <= rhs + margin, len(ratios))


def throughput_bound_check(
    online_runs: list[SimMetrics] | SimMetrics,
    offline: SimMetrics,
    n_sigma: float = 3.0,
) -> BoundCheck:
    """Check ``mean(sum Gamma_online / sum Gamma_offline) <= (2w+1)/(w+1)``.

    ``w`` is the offline run's waste.  The Monte-Carlo margin is
    ``n_sigma`` standard errors of the seed-averaged left-hand side.
    """
    if isinstance(online_runs, SimMetrics):
        online_runs = [online_runs]
    for m in online_runs:
        if m.schedule_digest != offline.schedule_digest:
            raise ValueError("bound check requires online and offline runs of one schedule")
    ratios = np.array([m.sum_gamma / offline.sum_gamma for m in online_runs])
    return _bound_check(ratios, offline.waste, n_sigma)


def _schedule_and_offline(
    config: SimConfig, schedule: Schedule | None, offline: SimMetrics | None
) -> tuple[Schedule, SimMetrics]:
    if schedule is None:
        schedule = build_schedule(config)
    if offline is None:
        offline = run_offline_baseline(config, schedule)
    elif offline.schedule_digest != schedule.digest:
        raise ValueError("the offline baseline must replay the given schedule")
    return schedule, offline


def simulate_pair(
    config: SimConfig,
    schedule: Schedule | None = None,
    offline: SimMetrics | None = None,
) -> tuple[SimMetrics, SimMetrics, BoundCheck]:
    """Online and offline runs of one schedule plus the throughput bound.

    ``schedule`` and its ``offline`` baseline are built when not given.
    """
    schedule, offline = _schedule_and_offline(config, schedule, offline)
    online = run(config, schedule)
    check = throughput_bound_check(online, offline)
    online = replace(online, global_ratio=online.sum_gamma / offline.sum_gamma)
    offline = replace(offline, global_ratio=1.0)
    return online, offline, check


def throughput_campaign(
    config: SimConfig,
    n_seeds: int,
    n_sigma: float = 3.0,
    schedule: Schedule | None = None,
    offline: SimMetrics | None = None,
) -> tuple[np.ndarray, SimMetrics, BoundCheck]:
    """Many online runs of one schedule under independent policy streams.

    Seed ``i`` draws from ``stream(config.seed, "campaign", i)``.  All seeds
    replay together in one pass over the events, and each seed's ratio
    equals that of ``run`` with its stream, bit for bit.  ``schedule`` and
    its ``offline`` baseline are built when not given.
    """
    if n_seeds < 1:
        raise ValueError(f"a campaign needs n_seeds >= 1, got {n_seeds}")
    schedule, offline = _schedule_and_offline(config, schedule, offline)
    lanes = streams(config.seed, "campaign", n=n_seeds)
    sum_extra = np.zeros(n_seeds)
    for _, _, extra in _online_replay(config, schedule, lanes.uniform, n_seeds):
        sum_extra += extra
    ratios = (schedule.sum_rho + sum_extra) / offline.sum_gamma
    return ratios, offline, _bound_check(ratios, offline.waste, n_sigma)


# -- progress under multiplicative backoff ---------------------------------


@dataclass(frozen=True)
class ProgressResult:
    bound_attempts: int
    doubling_threshold: int
    empirical_probability: float
    stderr: float
    doubling_assert_ok: bool
    passed: bool
    n_trials: int


def progress_check(
    y: float,
    gamma: int,
    k: int,
    B: float,
    n_trials: int = 1000,
    seed: int = 0,
    n_sigma: float = 3.0,
) -> ProgressResult:
    """Empirical commit probability within the doubling-backoff bound.

    A tracked transaction with running time ``y`` suffers exactly ``gamma``
    conflicts per attempt; each conflict draws a uniform grace period on
    ``[0, B_t/(k-1)]`` and aborts the attempt unless the grace exceeds the
    full remaining time (the adversary interrupts at the start, ties abort).
    Every abort doubles ``B_t``.  The claimed bound is commit within
    ``ceil(log2(y) + log2(gamma) + log2(k) - log2(B) + 2)`` attempts with
    probability at least one half; after one fewer doubling the abort cost
    must already satisfy ``B_t >= 2*k*y*gamma``, which is asserted in every
    trial that aborts that often.
    """
    if gamma < 0 or int(gamma) != gamma:
        raise ValueError(f"gamma must be a nonnegative integer, got {gamma}")
    raw = (
        math.log2(y) + math.log2(max(gamma, 1)) + math.log2(k) - math.log2(B)
    )
    bound = max(1, math.ceil(raw + 2.0))
    doubling_threshold = max(0, math.ceil(raw + 1.0))
    if gamma == 0:
        return ProgressResult(bound, doubling_threshold, 1.0, 0.0, True, True, n_trials)

    attempt_cap = bound + 64
    successes = 0
    doubling_ok = True
    for trial in range(n_trials):
        s = stream(seed, "progress", trial)
        b_t = B
        aborts = 0
        committed_at = None
        for attempt in range(1, attempt_cap + 1):
            survived = True
            for _ in range(gamma):
                x = s.uniform() * (b_t / (k - 1))
                if x <= y:
                    survived = False
                    break
            if survived:
                committed_at = attempt
                break
            aborts += 1
            b_t *= 2.0
            if aborts == doubling_threshold and b_t < 2.0 * k * y * gamma:
                doubling_ok = False
        if committed_at is not None and committed_at <= bound:
            successes += 1

    p_hat = successes / n_trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_trials)
    passed = p_hat >= 0.5 - n_sigma * stderr and doubling_ok
    return ProgressResult(
        bound, doubling_threshold, p_hat, stderr, doubling_ok, passed, n_trials
    )


# -- config ingestion -------------------------------------------------------


def _integral(value) -> int:
    # JSON numbers only: 3 and 3.0 pass, 1.7, true and "3" do not
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        math.isfinite(value) and value == int(value)
    ):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from parsed JSON, naming the offending field on error."""

    def need(field_name, cast=None):
        if field_name not in data:
            raise ValueError(f"config field '{field_name}' is required")
        value = data[field_name]
        if cast is not None:
            try:
                return cast(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config field '{field_name}': {exc}") from exc
        return value

    try:
        mode = ConflictMode(need("mode"))
    except ValueError as exc:
        raise ValueError(f"config field 'mode': {exc}") from exc

    pol = need("policy")
    if not isinstance(pol, dict):
        raise ValueError("config field 'policy' must be an object")
    try:
        policy = PolicyConfig(
            variant=Variant(pol.get("variant", "randomized_unconstrained")),
            B=float(pol["B"]),
            mu=None if pol.get("mu") is None else float(pol["mu"]),
        )
    except KeyError as exc:
        raise ValueError(f"config field 'policy.{exc.args[0]}' is required") from exc
    except ValueError as exc:
        raise ValueError(f"config field 'policy': {exc}") from exc

    lm = need("length_model")
    if not isinstance(lm, dict):
        raise ValueError("config field 'length_model' must be an object")
    try:
        length_model = AdversaryModel(
            kind=lm.get("kind", "exponential"),
            mean=float(lm.get("mean", 0.0)),
            sigma=None if lm.get("sigma") is None else float(lm["sigma"]),
            value=None if lm.get("value") is None else float(lm["value"]),
        )
    except ValueError as exc:
        raise ValueError(f"config field 'length_model': {exc}") from exc

    sched = need("conflict_schedule")
    rate, trace_path = None, None
    if isinstance(sched, dict) and sched.get("kind") == "random_rate":
        rate = float(sched.get("rate", 0.0))
    elif isinstance(sched, dict) and sched.get("kind") == "trace":
        trace_path = str(sched.get("path", ""))
    else:
        raise ValueError(
            "config field 'conflict_schedule' must be "
            '{"kind": "random_rate", "rate": ...} or {"kind": "trace", "path": ...}'
        )

    chain = data.get("chain_size", 2)
    try:
        if isinstance(chain, dict):  # JSON object keys are strings
            keys = [_integral(float(k) if isinstance(k, str) else k) for k in chain]
            if len(set(keys)) < len(keys):
                raise ValueError(f"a chain size appears twice in {list(chain)}")
            chain = dict(zip(keys, map(float, chain.values())))
        else:
            chain = _integral(chain)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field 'chain_size': {exc}") from exc

    try:
        return SimConfig(
            n_threads=need("n_threads", _integral),
            mode=mode,
            policy=policy,
            length_model=length_model,
            horizon=need("horizon", float),
            seed=need("seed", _integral),
            conflict_rate=rate,
            trace_path=trace_path,
            chain_size=chain,
            cleanup_cost=float(data.get("cleanup_cost", 0.0)),
            dynamic_b=bool(data.get("dynamic_b", False)),
            doubling_backoff=bool(data.get("doubling_backoff", False)),
        )
    except ValueError as exc:
        raise ValueError(f"invalid simulation config: {exc}") from exc
