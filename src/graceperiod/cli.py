"""Command-line front end.

Subcommands:

* ``bench-synthetic``  - single-conflict benchmark campaign, CSV output.
* ``simulate``         - multi-thread conflict simulation (online + offline
  baseline + throughput bound check), JSON output.
* ``verify``           - run the numerical verification suite; exit code 0
  only if every check passes.
* ``strategy-table``   - tabulate (x, pdf, cdf) of one strategy, CSV output.

Configuration comes from a JSON file plus flag overrides (flags win).  A
relative ``--config`` path is resolved against the working directory, then
``$GRACEPERIOD_CONFIG_DIR``, then the configs bundled with the package.
Identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, oracle, simulator
from .config import MAX_COUNT, quote
from .strategy import (
    ConflictMode,
    StrategyKind,
    StrategySpec,
    Variant,
    check_abort_cost,
    make_strategy,
)

CONFIG_DIR_ENV = "GRACEPERIOD_CONFIG_DIR"


def _resolve_config_path(path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidate = os.path.join(env_dir, path)
        if os.path.exists(candidate):
            return candidate
    bundled = os.path.join(os.path.dirname(__file__), "configs", path)
    if os.path.isfile(bundled):
        return bundled
    return path  # let open() raise a clean FileNotFoundError


def _unique_keys(pairs: list) -> dict:
    # json keeps a repeated key's last value; a config may not repeat one
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {quote(key)} appears twice in one object")
        obj[key] = value
    return obj


def _load_json(path: str) -> dict:
    resolved = _resolve_config_path(path)
    where = quote(resolved)
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{where}: nested too deeply") from exc
    except ValueError as exc:  # a repeated key, or bytes that are not UTF-8
        raise ValueError(f"{where}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{where}: a config must be a JSON object")
    return data


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_bench(args) -> int:
    data = _load_json(args.config) if args.config else {}
    flags = {"B": args.B, "mu": args.mu, "trials": args.trials, "seed": args.seed,
             "distributions": args.dist, "strategies": args.strategy}
    merged = {**data, **{key: value for key, value in flags.items() if value is not None}}
    config = bench.config_from_dict(merged)
    rows = bench.run_bench(config)
    _emit(bench.rows_to_csv(rows), args.out)
    return 0


def _cmd_simulate(args) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    config = simulator.config_from_dict(data)
    schedule = simulator.build_schedule(config)
    online, offline, check = simulator.simulate_pair(config, schedule)
    doc = {
        "config": data,
        "online": online.to_json_dict(),
        "offline": offline.to_json_dict(),
        "bound_check": check.to_json_dict(),
    }
    if args.campaign_seeds > 1:
        ratios, camp = simulator.throughput_campaign(
            config, args.campaign_seeds, schedule, offline
        )
        doc["campaign"] = {
            "n_seeds": args.campaign_seeds,
            "mean_ratio": float(ratios.mean()),
            "bound_check": camp.to_json_dict(),
        }
    _emit(_dump_json(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = oracle.run_verification_suite(seed=args.seed if args.seed is not None else 20240405)
    _emit(_dump_json(report), args.out)
    return 0 if report["passed"] else 1


def _cmd_strategy_table(args) -> int:
    spec = StrategySpec(
        mode=ConflictMode(args.mode),
        k=args.k,
        B=args.B,
        variant=Variant(args.strategy_variant),
        mu=args.mu,
    )
    strat = make_strategy(spec)
    lines = ["x,pdf,cdf"]
    if strat.kind is StrategyKind.ATOM:
        lines.append(f"{strat.support_max:.12g},1,atom")
    else:  # one array pdf and cdf, at the days of the pmf or n points on the support
        n = args.points
        if strat.kind is StrategyKind.DISCRETE_PMF:
            xs = np.arange(1.0, spec.B + 1.0)
        else:
            xs = strat.support_max * np.arange(n) / max(n - 1, 1)
        rows = zip(xs.tolist(), strat.pdf(xs).tolist(), strat.cdf(xs).tolist())
        lines += [f"{x:.12g},{p:.12g},{c:.12g}" for x, p, c in rows]
    _emit("\r\n".join(lines) + "\r\n", args.out)
    return 0


def count(text: str) -> int:
    """An integer flag value in [1, ``MAX_COUNT``]; argparse names the flag on error."""
    value = int(text)
    if not 1 <= value <= MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be 1 to {MAX_COUNT:g}, got {value}")
    return value


def abort_cost(text: str) -> float:
    """An abort cost in ``check_abort_cost``'s range; argparse names the flag on error."""
    try:
        return check_abort_cost(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graceperiod",
        description="Grace-period strategies for transactional conflicts: "
        "benchmarks, simulation, verification, tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench-synthetic", help="single-conflict benchmark campaign (CSV)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--B", type=float, help="abort cost")
    p.add_argument("--mu", type=float, help="mean transaction length")
    p.add_argument("--trials", type=int, help="trials per cell")
    p.add_argument("--seed", type=int)
    p.add_argument("--dist", action="append", help="distribution cell (repeatable)")
    p.add_argument("--strategy", action="append", help="strategy cell (repeatable)")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("simulate", help="multi-thread conflict simulation (JSON)")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--campaign-seeds", type=count, default=1,
                   help="extra online runs for the throughput bound")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument("--seed", type=int,
                   help="echoed in the report; no check depends on it")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("strategy-table", help="tabulate x, pdf, cdf of a strategy (CSV)")
    p.add_argument("--mode", required=True,
                   choices=[m.value for m in ConflictMode])
    p.add_argument("--strategy-variant", required=True,
                   choices=[v.value for v in Variant])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--B", type=abort_cost, required=True)
    p.add_argument("--mu", type=float)
    p.add_argument("--points", type=count, default=101)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_strategy_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # its str has the whole path
            exc = f"{exc.strerror}: {quote(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
