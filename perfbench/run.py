"""graceperiod benchmark: three CLI workloads, end to end and per layer.

Usage, from the root of a checkout (which must hold ``src/graceperiod``)::

    python3 perfbench/run.py --workload NAME --seed N [--seed2 M]
                             --seconds S --trace 0|1

Each CLI call runs in a fresh interpreter (``child.py``); calls repeat
until ``S`` seconds are used, and every output is checked for
correctness.  With ``--trace 0`` every call is untraced and the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced calls
alternate and the per-layer metrics are reported, including the tracing
overhead.  ``--seed2`` alternates a second seed with the first, so a
result can be confirmed on a seed it was not tuned on.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import probes

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CLI_SOURCE = os.path.join("src", "graceperiod", "cli.py")

# Every run must end well inside the 180 s a benchmark run may take.
HARD_LIMIT_S = 170.0
# untraced calls at least, for a median; a traced run needs one of each kind
MIN_UNTRACED = 3


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # CLI arguments ahead of ``--seed``
    check: Callable  # checks.check_*: output text -> (checks, info)
    work_unit: str


WORKLOADS = {
    "bench-synthetic": Workload(("bench-synthetic",), checks.check_bench, "scored trials"),
    "simulate-campaign": Workload(
        ("simulate", "--config", "stress_high.json", "--campaign-seeds", "10000"),
        checks.check_simulate, "seed-events",
    ),
    "verify": Workload(("verify",), checks.check_verify, "checks"),
}

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)


class BenchError(RuntimeError):
    """The program or the checkout cannot be measured at all."""


def invoke(argv: list[str], traced: bool, timeout: float) -> dict:
    """Run one CLI call in a fresh interpreter and return its record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GRACEPERIOD_CONFIG_DIR", None)  # always use the bundled configs
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(spawned), "1" if traced else "0", *argv],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout)
    record["duration_s"] = time.monotonic() - spawned
    record["traced"] = traced
    return record


def measure(wl: Workload, seeds: list[int], seconds: float, trace: bool) -> list[dict]:
    """Repeat calls until ``seconds`` are used (at least a few of each kind).

    With tracing, untraced and traced calls of one seed alternate.
    """
    records: list[dict] = []
    last_duration = {False: 0.0, True: 0.0}
    start = time.monotonic()
    while True:
        n = len(records)
        traced = trace and n % 2 == 1
        seed = seeds[(n // 2 if trace else n) % len(seeds)]
        n_traced = sum(r["traced"] for r in records)
        enough = n_traced >= 1 and n >= 2 if trace else n >= MIN_UNTRACED
        elapsed = time.monotonic() - start
        predicted = elapsed + last_duration[traced]
        if (enough and predicted > seconds) or (records and predicted > HARD_LIMIT_S):
            return records
        rec = invoke([*wl.argv, "--seed", str(seed)], traced, HARD_LIMIT_S + 5.0 - elapsed)
        rec["seed"] = seed
        last_duration[traced] = rec["duration_s"]
        records.append(rec)


def check_records(wl: Workload, records: list[dict]) -> tuple[list, dict]:
    """All output checks of a run, plus determinism and trace hygiene.

    Returns the ``(name, passed)`` checks and, per seed, the facts the
    checkers record without counting.
    """
    results: list[tuple[str, bool]] = []
    recorded: dict[int, dict] = {}
    first_sha: dict[int, str] = {}
    for rec in records:
        found, info = wl.check(rec["output"])
        rec["work"] = info.pop("work", 0)
        if info:
            recorded[rec["seed"]] = info
        results += found
        results.append(("exit_code_0", rec["rc"] == 0))
        sha = hashlib.sha256(rec["output"].encode("utf-8")).hexdigest()
        rec["sha256"] = sha
        if rec["seed"] in first_sha:
            results.append(("deterministic_output", sha == first_sha[rec["seed"]]))
        else:
            first_sha[rec["seed"]] = sha
        if rec["traced"]:
            results.append(("trace/restored_all_patches", not rec["leftover_patches"]))
    return results, recorded


def end_to_end(records: list[dict]) -> dict[str, float]:
    plain = [r for r in records if not r["traced"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(records: list[dict]) -> tuple[dict[str, float], list]:
    """Medians over the traced calls, and one check per traced call that
    its layers' self times add up to its ``wall_s`` within the overhead."""
    traced = [r for r in records if r["traced"]]
    plain_wall = statistics.median(r["wall_s"] for r in records if not r["traced"])
    overhead = statistics.median(r["wall_s"] for r in traced) - plain_wall
    coverage = [
        ("trace/self_times_cover_wall",
         abs(r["wall_s"] - sum(r["layers"][f"{layer}.self_s"] for layer in probes.LAYERS))
         <= abs(overhead))
        for r in traced
    ]
    m = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name, _, _ in probes.PER_LAYER if name != "trace.overhead_s"
    }
    m["trace.overhead_s"] = overhead
    return m, coverage


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def manifest(args, wl: Workload, seeds: list[int], records: list[dict]) -> dict:
    root = os.getcwd()
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": records[0]["numpy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "cli_argv": [*wl.argv, "--seed", "<seed>"],
        "seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": len(records),
        "calls_traced": sum(r["traced"] for r in records),
        "work_per_call": sorted({r["work"] for r in records}),
        "work_unit": wl.work_unit,
        "output_sha256": sorted({r["sha256"] for r in records}),
        "src_lines": _src_lines(root),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="seed passed to the CLI's --seed")
    p.add_argument("--seed2", type=int, help="second seed, alternated with --seed")
    p.add_argument("--seconds", type=float, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(CLI_SOURCE):
        print(f"error: {CLI_SOURCE} not found; run from the root of a graceperiod "
              f"checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seeds = [args.seed] + ([args.seed2] if args.seed2 is not None else [])
    try:
        records = measure(wl, seeds, args.seconds, bool(args.trace))
        if args.trace and not any(r["traced"] for r in records):
            raise BenchError(f"no traced call finished within {HARD_LIMIT_S:.0f} s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results, recorded = check_records(wl, records)
    if args.trace:
        metrics, coverage = per_layer(records)
        results += coverage
        table = [(name, unit) for name, unit, _ in probes.PER_LAYER]
    else:
        metrics = end_to_end(records)
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    failed = [name for name, ok in results if not ok]

    print("manifest " + json.dumps(manifest(args, wl, seeds, records), sort_keys=True))
    if recorded:
        print("recorded, not counted " + json.dumps(recorded, sort_keys=True))
    for key in ("wall_s", "setup_s"):
        values = [round(r[key], 4) for r in records if not r["traced"]]
        print(f"{key} of the {len(values)} untraced calls, in order: {values}")
    for name, unit in table:
        print(f"{name:48s} {metrics[name]:16.6g} {unit}")
    print(f"{'ops_failed_frac':48s} {len(failed) / len(results):16.6g} "
          f"({len(failed)} of {len(results)} checks failed)")
    for name in sorted(set(failed)):
        print(f"FAILED {name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
