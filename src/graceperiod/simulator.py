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
which the totals satisfy exactly.  A ``discrete_classic`` day ``i`` commits
iff ``y < i`` and otherwise aborts at ``i - 1 + B``, the accounting its
expected costs use: the conflict cost at the strategy's ``abort_cost``.

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

The schedule holds its admitted conflicts as one record array of dtype
:data:`EVENT`, in time order, and the timelines' totals; the replays read
the records' fields by name.  Admission bisects a thread's start array, the
one copy of its timeline.  Its streams are drawn in blocks.  One replay, in
event x lane tiles by ``(family, k)`` group, serves a run and a campaign (a
lane per policy stream).  Every sum keeps the one-by-one order, so results
equal one-draw-at-a-time ones bit for bit, and a campaign seed equals its run.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import chain

import numpy as np

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto (+3.6 MB)
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .adversary import AdversaryModel, _solve_truncated_normal_loc, sample_length
from .config import flag, integral, known, quote, read, real, section, text
from .costmodel import conflict_cost, opt_cost
from .rng import Stream, Streams, open_uniform, stream, streams
from .strategy import (
    MAX_ABORT_COST,
    MIN_ABORT_COST,
    ConflictMode,
    StrategySpec,
    Variant,
    check_abort_cost,
    check_chain_size,
    make_strategy,
    mean_threshold,
)

__all__ = [
    "PolicyConfig", "SimConfig", "EVENT", "Schedule", "SimMetrics",
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
        object.__setattr__(self, "B", check_abort_cost(self.B))


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
        if self.cleanup_cost and not self.dynamic_b:
            raise ValueError(f"cleanup_cost is read by dynamic_b only, got {self.cleanup_cost}")
        if self.policy.mu is not None and self.policy.variant is not Variant.RANDOMIZED_CONSTRAINED:
            raise ValueError(f"config field 'policy.mu' is read by variant randomized_constrained"
                             f" only, got {self.policy.mu}")
        if self.dynamic_b and self.cleanup_cost + self.horizon > MAX_ABORT_COST:
            # every elapsed time is below the horizon
            raise ValueError(
                f"cleanup_cost {self.cleanup_cost} plus horizon {self.horizon} exceeds the largest"
                f" abort cost {MAX_ABORT_COST:g}: dynamic_b charges elapsed + cleanup_cost"
            )
        size = self.chain_size
        weights = size if isinstance(size, dict) else {size: 1.0}
        # a NaN or infinite weight makes the sum fail too
        if not 0.0 < sum(weights.values()) < math.inf or min(weights.values()) < 0.0:
            raise ValueError(f"chain_size weights must be >= 0 with a positive finite sum: {size}")
        p = self.policy
        if p.variant is Variant.DISCRETE_CLASSIC and self.dynamic_b:
            raise ValueError("policy.variant discrete_classic needs integer abort costs, and"
                             " dynamic_b charges each conflict elapsed + cleanup_cost")
        # the policy's spec at policy.B for every listed chain size; a policy
        # that serves any chain size serves k = 2, so a failure there is the
        # policy's own
        for k in (2, *sorted(weights)):
            try:
                self.policy_spec(k, p.B)
            except ValueError as exc:
                where = f"policy.mu {p.mu}, mode {self.mode.value}" if k == 2 else f"chain_size {k}"
                raise ValueError(f"policy.variant {p.variant.value} with {where}: {exc}") from exc

    def policy_spec(self, k: int, B: float) -> StrategySpec:
        """The policy's strategy spec for a conflict of chain size ``k`` and abort cost ``B``."""
        return StrategySpec(self.mode, k, B, self.policy.variant, mu=self.policy.mu)


# One record per admitted conflict: its time, receiver thread and chain size,
# the receiver's pegged remaining time ``y``, the index of the transaction it
# hits on the thread's ideal timeline and that transaction's ideal running
# time so far, and the abort cost (static or dynamic rule, times backoff).
EVENT = np.dtype([
    ("time", "f8"), ("thread", "i8"), ("k", "i8"), ("y", "f8"),
    ("tx_index", "i8"), ("elapsed", "f8"), ("b_cost", "f8"),
])


# eq=False: comparing array fields has no single truth value
@dataclass(frozen=True, eq=False)
class Schedule:
    events: np.ndarray  # EVENT records in time order
    n_transactions: int
    transactions_committed: int  # ideal commit happens within the horizon
    sum_rho: float
    digest: str


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

    def to_json_dict(self) -> dict:
        hist = {str(a): c for a, c in sorted(self.attempts_hist.items())}
        return {**asdict(self), "attempts_hist": hist}


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    stderr: float
    margin: float
    passed: bool
    n_seeds: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# -- schedule construction ------------------------------------------------

# Schedule streams are drawn in blocks of at most this many: a short block
# is refilled, and the draws a block leaves unused are read by nothing else.
_BLOCK_MAX = 1 << 16


def _block_size(expected: float) -> int:
    return int(min(expected + 4.0 * math.sqrt(expected) + 16.0, _BLOCK_MAX))


def _draw_lengths(config: SimConfig, thread: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``thread``'s ``"rho"`` stream of lengths up to the first transaction that
    ends at or past the horizon, their starts (a sequential cumsum, so each
    equals the one-by-one sum before it) and their sum."""
    model, horizon = config.length_model, config.horizon
    s = stream(config.seed, "rho", thread)
    starts, lengths = [], []
    total = 0.0
    while total < horizon:
        block = sample_length(model, s, _block_size((horizon - total) / model.mean))
        acc = np.cumsum(np.concatenate(([total], block)))
        keep = min(int(np.searchsorted(acc[1:], horizon)) + 1, len(block))
        starts.append(acc[:keep])
        lengths.append(block[:keep])
        total = float(acc[keep])
    return np.concatenate(starts), np.concatenate(lengths), total


def _candidate_blocks(config: SimConfig):
    """The candidate conflicts ``(t, thread, k)`` in time order, in blocks.

    A trace is one block.  Random candidates are ``(gap, thread, k)`` triples
    of the ``"conflicts"`` stream (the k draw is taken even for a fixed size),
    times a sequential gap cumsum, drawn one block at a time.
    """
    if config.trace_path is not None:
        yield parse_trace(config.trace_path)
        return
    rate, horizon = config.conflict_rate, config.horizon
    if rate <= 0.0:
        return
    size = config.chain_size
    items = sorted(size.items()) if isinstance(size, dict) else [(size, 1.0)]
    sizes = np.array([int(k) for k, _ in items])
    weights = np.array([w for _, w in items], dtype=float)
    cum = np.cumsum(weights) / np.sum(weights)
    cum[-1] = 1.0  # np.sum adds pairwise, cumsum in order: the top may fall short of 1
    s = stream(config.seed, "conflicts")
    t = 0.0
    while True:
        m = _block_size((horizon - t) * rate)
        u = s.uniform_batch(3 * m).reshape(m, 3)
        # math.log, not np.log: the two differ in the last bit for some inputs
        logs = np.fromiter(map(math.log, open_uniform(u[:, 0]).tolist()), float, m)
        # at a tiny rate a gap or a time may overflow: inf is past the horizon
        with np.errstate(over="ignore"):
            when = np.cumsum(np.concatenate(([t], logs / -rate)))[1:]
        stop = int(np.searchsorted(when, horizon))
        threads = (u[:stop, 1] * config.n_threads).astype(np.int64)
        ks = sizes[np.searchsorted(cum, u[:stop, 2], side="right")]
        yield zip(when[:stop].tolist(), threads.tolist(), ks.tolist())
        if stop < m:
            return
        t = float(when[-1])


def parse_trace(path: str) -> list[tuple[float, int, int]]:
    rows = []
    last_t = -math.inf
    # a byte that is not UTF-8 decodes to a lone surrogate, which no number parses
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            where = f"{quote(path)}:{lineno}"
            if len(parts) != 3:
                raise TraceError(f"{where}: expected 'time receiver_thread k', got {quote(text)}")
            try:
                t, thr, k = float(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:  # its message would echo the whole field
                raise TraceError(f"{where}: expected numbers, got {quote(text)}") from None
            if t < last_t:
                raise TraceError(f"{where}: conflict times must be nondecreasing")
            last_t = t
            rows.append((t, thr, k))
    # simultaneous conflicts resolve in deterministic (time, thread) order
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _check_trace_entry(config, entry, t, thr, k, next_allowed) -> None:
    where = f"{quote(config.trace_path)}: entry {entry}"
    if not 0 <= thr < config.n_threads:
        raise TraceError(f"{where}: thread {thr} out of range")
    try:
        config.policy_spec(k, config.policy.B)
    except ValueError as exc:
        raise TraceError(f"{where}: the policy cannot serve chain size {k}: {exc}") from exc
    if not 0.0 <= t < config.horizon:
        raise TraceError(f"{where}: time {t} outside [0, horizon)")
    if t < next_allowed[thr]:
        raise TraceError(
            f"{where}: thread {thr} is still inside a grace window until {next_allowed[thr]:.6g}"
            "; receivers must not be re-conflicted during a grace period"
        )


def _abort_cost_error(config, entry, t, thr, b_cost, mult) -> ValueError:
    """The error for a conflict whose abort cost is outside ``check_abort_cost``'s
    range, naming the fields it comes from (a TraceError for a trace entry)."""
    at = f"the conflict at time {t} on thread {thr}"
    msg = f"under dynamic_b, {at} costs elapsed + cleanup_cost" if config.dynamic_b else (
        f"{at} costs policy.B")
    if mult > 1.0:
        msg += f" times its doubling_backoff factor {mult:g}"
    msg += f", outside [{MIN_ABORT_COST:g}, {MAX_ABORT_COST:g}], got {b_cost}"
    if b_cost < MIN_ABORT_COST:  # only elapsed + cleanup_cost can fall below the range
        msg += " (at a transaction's start, set cleanup_cost > 0)"
    if config.trace_path is None:
        return ValueError(msg)
    return TraceError(f"{quote(config.trace_path)}: entry {entry}: {msg}")


def build_schedule(config: SimConfig) -> Schedule:
    """Generate (or load and validate) the policy-independent schedule."""
    per_thread = [_draw_lengths(config, i) for i in range(config.n_threads)]
    # each thread's starts and lengths, read as Python floats with no copy
    views = [(memoryview(starts), memoryview(lengths)) for starts, lengths, _ in per_thread]

    # admission: the grace-window exclusion and the forced-abort backoff rule
    next_allowed = [0.0] * config.n_threads
    mults: dict[tuple[int, int], float] = {}
    rows: list[tuple] = []
    candidates = chain.from_iterable(_candidate_blocks(config))
    for entry, (t, thr, k) in enumerate(candidates, start=1):
        if config.trace_path is not None:
            _check_trace_entry(config, entry, t, thr, k, next_allowed)
        elif t < next_allowed[thr]:
            continue  # thinned: the receiver may still be inside a grace window
        # the transaction it hits on the receiver's ideal timeline; only the
        # admitted candidates are located, a right bisection of its starts each
        starts, lengths = views[thr]
        idx = bisect_right(starts, t) - 1
        el = t - starts[idx]
        rem = lengths[idx] - el
        base_b = (el + config.cleanup_cost) if config.dynamic_b else config.policy.B
        mult = mults.get((thr, idx), 1.0)
        b_cost = base_b * mult
        if not MIN_ABORT_COST <= b_cost <= MAX_ABORT_COST:
            raise _abort_cost_error(config, entry, t, thr, b_cost, mult)
        if (k - 1) * rem <= b_cost:
            # the offline baseline may wait the receiver out
            window = max(rem, b_cost / (k - 1))
        else:
            # abort is forced in both runs within the largest possible grace
            window = b_cost / (k - 1)
            if config.doubling_backoff and config.mode is ConflictMode.REQUESTOR_WINS:
                # only the receiver accumulates retries; requestor-aborts
                # throws away fresh synthetic requestors each time
                mults[thr, idx] = mult * 2.0
        next_allowed[thr] = t + window
        rows.append((t, thr, k, rem, idx, el, b_cost))

    # from the Python values: numpy 2 prints an array element as np.float64(...)
    digest_src = "\n".join(f"{t!r} {thr} {k} {y!r}" for t, thr, k, y, *_ in rows)
    digest = sha256(digest_src.encode("ascii")).hexdigest()
    return Schedule(
        events=np.array(rows, dtype=EVENT),
        n_transactions=sum(len(lengths) for _, lengths, _ in per_thread),
        # every transaction but a thread's last ends before the horizon
        transactions_committed=sum(
            len(lengths) - (total > config.horizon) for _, lengths, total in per_thread
        ),
        sum_rho=float(np.cumsum([total for _, _, total in per_thread])[-1]),
        digest=digest,
    )


# -- execution -------------------------------------------------------------

_CHUNK_CELLS = 28672  # at most this many (event, lane) cells per replay tile


def _groups(config: SimConfig, k: np.ndarray, b: np.ndarray) -> tuple[list, np.ndarray]:
    """One strategy per ``(family, k)`` group, from its last event, and each event's group."""
    key = 2 * k
    if config.policy.variant is Variant.RANDOMIZED_CONSTRAINED:
        for size in set(k.tolist()):
            at = k == size
            key[at] += config.policy.mu < mean_threshold(config.mode, size, b[at])
    last = dict(zip(key.tolist(), range(len(key))))  # not np.unique: 0.4 MB at its first call
    code = np.searchsorted(sorted(last), key)
    return [make_strategy(config.policy_spec(k[i], b[i])) for _, i in sorted(last.items())], code


def _online_replay(config: SimConfig, schedule: Schedule, lanes: Stream | Streams, n: int):
    """The online policy's replay of ``schedule`` under ``n`` streams at once.

    Yields ``(rows, seeds, x, cost)`` per tile of at most ``_CHUNK_CELLS`` cells,
    in event order: slices of events and lanes (split only when one event's row
    does not fit), grace periods and costs (one column at an atom, which takes
    no draws), overwritten by the next tile.  A tile draws into a workspace made
    once per replay, maps each ``(family, k)`` group of its rows through that
    inverse with the events' ``B`` column (in place for one group) and puts the
    abort costs there too, as glibc may map and unmap each fresh array of 128
    KiB or more.  The streams are counter-based (Salmon et al. 2011), so each
    stream's results equal its own run's, bit for bit.
    """
    strategies, code = _groups(config, schedule.events["k"], schedule.events["b_cost"])
    # float k: the cost's k*x and (k-1)*y convert it exactly, once per replay
    k, y, b = (schedule.events[name].astype(float)[:, None] for name in ("k", "y", "b_cost"))
    charge = b - (config.policy.variant is Variant.DISCRETE_CLASSIC)  # day i aborts at i - 1 + B
    width, step = min(n, _CHUNK_CELLS), max(1, min(_CHUNK_CELLS // n, len(code)))
    work, scratch = np.empty(step * width), np.empty(step * width, dtype=np.uint64)
    blocks = [(slice(lo, min(lo + width, n)), lanes if width == n else lanes[lo:lo + width])
              for lo in range(0, n, width)]
    starts = np.arange(0, len(code), step)
    low, high = (f.reduceat(code, starts).tolist() for f in (np.minimum, np.maximum))
    for lo, g0, g1 in zip(starts.tolist(), low, high):
        rows, m = slice(lo, lo + step), min(step, len(code) - lo)
        for seeds, block in blocks:
            if config.policy.variant is Variant.DETERMINISTIC:
                x = b[rows] / (k[rows] - 1)  # the point support_max
            else:
                cells = m * (seeds.stop - seeds.start)
                x = block.uniform_batch(m, out=work[:cells], scratch=scratch[:cells]).reshape(m, -1)
                for g in range(g0, g1 + 1):
                    at = np.flatnonzero(code[rows] == g) if g0 < g1 else slice(None)
                    part = x[at]
                    x[at] = strategies[g].quantile(part, out=part, B=b[rows][at])
            out = scratch[:x.size].view(np.float64).reshape(x.shape)  # the abort costs
            yield rows, seeds, x, conflict_cost(config.mode, k[rows], charge[rows], x, y[rows], out)


def _tally(config: SimConfig, schedule: Schedule, commit, extra) -> SimMetrics:
    """Metrics of one replay from its per-event arrays of commit flags and costs."""
    thread, tx_index = schedule.events["thread"], schedule.events["tx_index"]
    # aborted requestor-wins receivers retry; Counter, as the first np.unique
    # call imports numpy.ma (about 15 ms)
    retried = ~commit & (config.mode is ConflictMode.REQUESTOR_WINS)
    aborts = Counter((tx_index * config.n_threads + thread)[retried].tolist())  # per tx
    hist = dict(Counter(a + 1 for a in aborts.values()))
    if schedule.n_transactions > len(aborts):
        hist[1] = schedule.n_transactions - len(aborts)
    # sequential, in event order (np.sum's pairwise order moves the last bits)
    sum_extra = float(np.cumsum(np.concatenate(([0.0], extra)))[-1])
    commit_branches = int(np.count_nonzero(commit))
    return SimMetrics(
        n_transactions=schedule.n_transactions,
        transactions_committed=schedule.transactions_committed,
        n_conflicts=len(schedule.events),
        commit_branches=commit_branches,
        abort_branches=len(schedule.events) - commit_branches,
        sum_rho=schedule.sum_rho,
        sum_extra=sum_extra,
        sum_gamma=schedule.sum_rho + sum_extra,
        waste=sum_extra / schedule.sum_rho,
        attempts_hist=hist,
        schedule_digest=schedule.digest,
    )


def run(config: SimConfig, schedule: Schedule, policy_stream: Stream | None = None) -> SimMetrics:
    """Online run of ``schedule``: the configured policy draws every grace period.

    The one-stream case of the campaign's replay: one draw of ``policy_stream``
    (``stream(config.seed, "policy")`` by default) per event not at an atom.
    """
    if policy_stream is None:
        policy_stream = stream(config.seed, "policy")
    y = schedule.events["y"]
    commit, extra = np.empty(len(y), dtype=bool), np.empty(len(y))
    for rows, _, x, cost in _online_replay(config, schedule, policy_stream, 1):
        commit[rows] = y[rows] < x[:, 0]
        extra[rows] = cost[:, 0]
    return _tally(config, schedule, commit, extra)


def run_offline_baseline(config: SimConfig, schedule: Schedule) -> SimMetrics:
    """Perfect-information replay of ``schedule``.

    Each conflict costs :func:`costmodel.opt_cost`, ``min((k-1)*y, B)``: wait
    out the receiver when the aggregate delay is at most the abort penalty,
    abort immediately otherwise.
    """
    k, y, b = (schedule.events[name] for name in ("k", "y", "b_cost"))
    return _tally(config, schedule, (k - 1) * y <= b, opt_cost(k, b, y))


N_SIGMA = 3.0  # the bound check's margin, in standard errors of the seed average


def _bound_check(ratios: np.ndarray, waste: float) -> BoundCheck:
    lhs = float(np.mean(ratios))
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    rhs = (2.0 * waste + 1.0) / (waste + 1.0)
    margin = N_SIGMA * stderr
    return BoundCheck(lhs, rhs, stderr, margin, lhs <= rhs + margin, len(ratios))


def throughput_bound_check(online: SimMetrics, offline: SimMetrics) -> BoundCheck:
    """Check ``sum Gamma_online / sum Gamma_offline <= (2w+1)/(w+1)`` for one run.

    ``w`` is the offline run's waste.  One run has no standard error, so the
    margin is 0; :func:`throughput_campaign` checks the seed average.
    """
    if online.schedule_digest != offline.schedule_digest:
        raise ValueError("bound check requires online and offline runs of one schedule")
    return _bound_check(np.array([online.sum_gamma / offline.sum_gamma]), offline.waste)


def simulate_pair(
    config: SimConfig, schedule: Schedule
) -> tuple[SimMetrics, SimMetrics, BoundCheck]:
    """Online and offline runs of ``schedule`` plus the throughput bound."""
    offline = run_offline_baseline(config, schedule)
    online = run(config, schedule)
    check = throughput_bound_check(online, offline)
    online = replace(online, global_ratio=online.sum_gamma / offline.sum_gamma)
    offline = replace(offline, global_ratio=1.0)
    return online, offline, check


def throughput_campaign(
    config: SimConfig, n_seeds: int, schedule: Schedule, offline: SimMetrics
) -> tuple[np.ndarray, BoundCheck]:
    """Many online runs of ``schedule`` under independent policy streams,
    each against ``offline``, the schedule's offline baseline: each seed's
    throughput ratio and their bound check.

    Seed ``i`` draws from ``stream(config.seed, "campaign", i)``.  All seeds
    replay together in one pass over the events, and each seed's ratio
    equals that of ``run`` with its stream, bit for bit.
    """
    if n_seeds < 1:
        raise ValueError(f"a campaign needs n_seeds >= 1, got {n_seeds}")
    if offline.schedule_digest != schedule.digest:
        raise ValueError("the offline baseline must replay the given schedule")
    lanes = streams(config.seed, "campaign", n=n_seeds)
    sum_extra = np.zeros(n_seeds)
    for _, seeds, _, cost in _online_replay(config, schedule, lanes, n_seeds):
        totals = sum_extra[seeds]
        for row in cost:  # in event order, as a run of one seed sums them
            totals += row
        del cost, row  # the next tile's costs take their place
    ratios = (schedule.sum_rho + sum_extra) / offline.sum_gamma
    return ratios, _bound_check(ratios, offline.waste)


# -- progress under multiplicative backoff ---------------------------------


@dataclass(frozen=True)
class ProgressResult:
    bound_attempts: int
    doubling_threshold: int
    probability: float  # exact commit probability within bound_attempts
    doubling_assert_ok: bool
    passed: bool


def progress_check(y: float, gamma: int, k: int, B: float) -> ProgressResult:
    """Commit probability within the doubling-backoff bound, in closed form.

    A tracked transaction with running time ``y`` suffers exactly ``gamma``
    conflicts per attempt; each draws a uniform grace period on ``[0,
    B_a/(k-1)]`` and aborts the attempt unless the grace exceeds ``y`` (the
    adversary interrupts at the start, ties abort).  Each abort doubles the
    abort cost, ``B_a = B*2**(a-1)``, so attempt ``a`` survives with ``s_a =
    max(0, 1 - (k-1)y/B_a)**gamma``.  The claim: commit within ``N =
    ceil(log2(y) + log2(gamma) + log2(k) - log2(B) + 2)`` attempts with
    probability ``1 - prod_{a<=N}(1 - s_a) >= 1/2``, and after one fewer
    doubling ``B_a >= 2*k*y*gamma``.
    """
    if not (y > 0.0 and math.isfinite(y)):
        raise ValueError(f"remaining time y must be positive and finite, got {y}")
    if not (gamma >= 0 and float(gamma).is_integer()):
        raise ValueError(f"gamma must be a nonnegative integer, got {gamma}")
    k, B, gamma = check_chain_size(k), check_abort_cost(B), int(gamma)
    raw = math.log2(y) + math.log2(max(gamma, 1)) + math.log2(k) - math.log2(B)
    bound = max(1, math.ceil(raw + 2.0))
    doubling_threshold = max(0, math.ceil(raw + 1.0))
    miss = 1.0  # every attempt so far aborted
    for a in range(bound):
        miss *= 1.0 - max(0.0, 1.0 - (k - 1) * y / (B * 2.0**a)) ** gamma
    probability = 1.0 - miss
    doubling_ok = doubling_threshold == 0 or B * 2.0**doubling_threshold >= 2.0 * k * y * gamma
    return ProgressResult(
        bound, doubling_threshold, probability, doubling_ok, probability >= 0.5 and doubling_ok
    )


# -- config ingestion -------------------------------------------------------


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from parsed JSON, naming the offending field on error."""
    known(data, (
        "n_threads", "mode", "policy", "length_model", "conflict_schedule", "chain_size",
        "cleanup_cost", "dynamic_b", "doubling_backoff", "horizon", "seed",
    ))
    mode = read(data, "mode", ConflictMode)

    pol = section(data, "policy", ("variant", "B", "mu"))
    policy = PolicyConfig(
        variant=read(pol, "variant", Variant, Variant.RANDOMIZED_UNCONSTRAINED, "policy."),
        B=read(pol, "B", lambda v: check_abort_cost(real(v)), where="policy."),
        mu=read(pol, "mu", real, None, "policy."),
    )

    lm = section(data, "length_model", ("kind", "mean", "sigma", "value"))
    kind = lm.get("kind", "exponential")
    mean = read(lm, "mean", real, 0.0, "length_model.")
    sigma = read(lm, "sigma", real, None, "length_model.")
    value = read(lm, "value", real, None, "length_model.")
    for key, reader in (("sigma", "normal_truncated"), ("value", "point_mass")):
        if lm.get(key) is not None and kind != reader:
            raise ValueError(f"config field 'length_model.{key}' is read by kind {reader} only")
    try:
        length_model = AdversaryModel(kind, mean, sigma, value)
    except ValueError as exc:
        raise ValueError(f"config field 'length_model': {exc}") from exc
    if kind == "normal_truncated":  # its calibration is cached for the draws
        try:
            _solve_truncated_normal_loc(length_model.mean, length_model.sigma)
        except ValueError as exc:
            raise ValueError(f"config field 'length_model.sigma': {exc}") from exc

    sched = section(data, "conflict_schedule")
    rate, trace_path = None, None
    if sched.get("kind") == "random_rate":
        known(sched, ("kind", "rate"), "conflict_schedule.")
        rate = read(sched, "rate", real, 0.0, "conflict_schedule.")
    elif sched.get("kind") == "trace":
        known(sched, ("kind", "path"), "conflict_schedule.")
        trace_path = read(sched, "path", text, where="conflict_schedule.")
    else:
        raise ValueError(
            "config field 'conflict_schedule' must be "
            '{"kind": "random_rate", "rate": ...} or {"kind": "trace", "path": ...}'
        )

    chain = data.get("chain_size", 2)
    try:
        if isinstance(chain, dict):  # JSON object keys are strings
            try:
                keys = [integral(float(k) if isinstance(k, str) else k) for k in chain]
            except ValueError:  # float()'s message would echo the whole key
                raise ValueError(f"keys must be integers, got {quote(list(chain))}") from None
            if len(set(keys)) < len(keys):
                raise ValueError(f"a chain size appears twice in {quote(list(chain))}")
            chain = dict(zip(keys, map(real, chain.values())))
        else:
            chain = integral(chain)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field 'chain_size': {exc}") from exc

    try:
        return SimConfig(
            n_threads=read(data, "n_threads", integral),
            mode=mode,
            policy=policy,
            length_model=length_model,
            horizon=read(data, "horizon", real),
            seed=read(data, "seed", integral),
            conflict_rate=rate,
            trace_path=trace_path,
            chain_size=chain,
            cleanup_cost=read(data, "cleanup_cost", real, 0.0),
            dynamic_b=read(data, "dynamic_b", flag, False),
            doubling_backoff=read(data, "doubling_backoff", flag, False),
        )
    except ValueError as exc:
        raise ValueError(f"invalid simulation config: {exc}") from exc
