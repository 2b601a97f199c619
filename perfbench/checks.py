"""Correctness checks on one CLI output, one list per workload.

Each checker returns ``(checks, info)``: ``checks`` is a list of
``(name, passed)`` pairs that count towards ``attempted``/``failed``;
``info`` holds facts that are recorded but not counted, among them
``work``, the output's size in the workload's unit of work.  An output that
does not parse fails one ``parse`` check instead of raising.
"""

from __future__ import annotations

import json
import math

BENCH_HEADER = "distribution,strategy,trials,avg_cost,avg_opt,ratio,stderr"
BENCH_CELLS = 30  # 5 length distributions x 6 strategy cells at the CLI defaults
# worst-case competitive ratios at chain size k = 2
BENCH_UPPER = {"DET": 3.0, "RRW": 2.0, "RRA": math.e / (math.e - 1.0)}
# the mean-aware cells assume the adversary's mean is mu, but the interrupted
# (length-biased) remaining time breaks that premise, so only 1 <= ratio holds
BENCH_LOWER_ONLY = ("RRW(mu)", "RRA(mu)")
N_SIGMA = 4.0


def _bench_rows(text: str):
    lines = text.split("\r\n")
    if lines[0] != BENCH_HEADER or lines[-1] != "":
        raise ValueError("not the bench-synthetic CSV layout")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"expected 7 fields, got {line!r}")
        rows.append((fields[0], fields[1], int(fields[2]), *map(float, fields[3:])))
    return rows


def check_bench(text: str):
    try:
        rows = _bench_rows(text)
    except ValueError:
        return [("parse", False)], {}
    checks = [("rows", len(rows) == BENCH_CELLS)]
    for dist, strat, _, cost, opt, ratio, se in rows:
        cell = f"{dist}/{strat}"
        checks.append((f"{cell}/finite", all(map(math.isfinite, (cost, opt, ratio, se)))))
        if strat == "OPT":
            checks.append((f"{cell}/ratio_is_1", ratio == 1.0))
        elif strat in BENCH_LOWER_ONLY:
            checks.append((f"{cell}/ratio_lower", ratio >= 1.0 - N_SIGMA * se))
        elif strat in BENCH_UPPER:
            lo, hi = 1.0 - N_SIGMA * se, BENCH_UPPER[strat] + N_SIGMA * se
            checks.append((f"{cell}/ratio_in_bounds", lo <= ratio <= hi))
        else:
            checks.append((f"{cell}/known_strategy", False))
    # scored trials
    return checks, {"work": sum(row[2] for row in rows)}


def check_simulate(text: str):
    try:
        doc = json.loads(text)
        online, offline, camp = doc["online"], doc["offline"], doc["campaign"]
    except (ValueError, KeyError):
        return [("parse", False)], {}
    checks = [("one_schedule", online["schedule_digest"] == offline["schedule_digest"])]
    for side, m in (("online", online), ("offline", offline)):
        checks.append((
            f"{side}/amortization", m["sum_gamma"] == m["sum_rho"] + m["sum_extra"]
        ))
        checks.append((
            f"{side}/branches",
            m["commit_branches"] + m["abort_branches"] == m["n_conflicts"],
        ))
    checks.append(("campaign/bound_check", camp["bound_check"]["passed"] is True))
    return checks, {
        # seed-events: campaign seeds times admitted conflicts
        "work": camp["n_seeds"] * online["n_conflicts"],
        # a single-seed bound check has stderr 0, so it is a coin flip: record only
        "single_run_bound_check": doc["bound_check"]["passed"],
    }


def check_verify(text: str):
    try:
        report = json.loads(text)
        entries = report["checks"]
    except (ValueError, KeyError):
        return [("parse", False)], {}
    checks = [(f"verify/{c['name']}", c["passed"] is True) for c in entries]
    checks.append(("n_checks", report["n_checks"] == len(entries)))
    return checks, {"work": len(entries)}
