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
from importlib import resources

from . import bench, oracle, simulator
from .strategy import (
    ConflictMode,
    StrategyKind,
    StrategySpec,
    Variant,
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
    bundled = resources.files("graceperiod").joinpath("configs", path)
    if bundled.is_file():
        return str(bundled)
    return path  # let open() raise a clean FileNotFoundError


def _load_json(path: str) -> dict:
    resolved = _resolve_config_path(path)
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{resolved}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


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
    merged = {
        "B": args.B if args.B is not None else data.get("B", 2000.0),
        "mu": args.mu if args.mu is not None else data.get("mu", 500.0),
        "trials": args.trials if args.trials is not None else data.get("trials", 100_000),
        "seed": args.seed if args.seed is not None else data.get("seed", 1),
        "distributions": args.dist or data.get("distributions", bench.DISTRIBUTIONS),
        "strategies": args.strategy or data.get("strategies", bench.STRATEGIES),
    }
    config = bench.BenchConfig(**merged)
    rows = bench.run_bench(config)
    _emit(bench.rows_to_csv(rows), args.out)
    return 0


def _cmd_simulate(args) -> int:
    data = _load_json(args.config)
    if args.seed is not None:
        data["seed"] = args.seed
    config = simulator.config_from_dict(data)
    schedule = simulator.build_schedule(config)
    baseline = simulator.run_offline_baseline(config, schedule)
    online, offline, check = simulator.simulate_pair(config, schedule, baseline)
    doc = {
        "config": data,
        "online": online.to_json_dict(),
        "offline": offline.to_json_dict(),
        "bound_check": check.to_json_dict(),
    }
    if args.campaign_seeds and args.campaign_seeds > 1:
        ratios, _, camp = simulator.throughput_campaign(
            config, args.campaign_seeds, schedule=schedule, offline=baseline
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
    mu = args.mu
    spec = StrategySpec(
        mode=ConflictMode(args.mode),
        k=args.k,
        B=args.B,
        variant=Variant(args.strategy_variant),
        mu=mu,
    )
    strat = make_strategy(spec)
    lines = ["x,pdf,cdf"]
    if strat.kind is StrategyKind.ATOM:
        lines.append(f"{strat.params['x0']:.12g},1,atom")
    elif strat.kind is StrategyKind.DISCRETE_PMF:
        for i in range(1, int(spec.B) + 1):
            lines.append(f"{i},{strat.pdf(i):.12g},{strat.cdf(i):.12g}")
    else:
        n = args.points
        for j in range(n):
            x = strat.support_max * j / (n - 1) if n > 1 else 0.0
            lines.append(f"{x:.12g},{strat.pdf(x):.12g},{strat.cdf(x):.12g}")
    _emit("\r\n".join(lines) + "\r\n", args.out)
    return 0


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
    p.add_argument("--campaign-seeds", type=int, default=1,
                   help="extra online runs for the throughput bound")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument("--seed", type=int, help="probe stream seed")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("strategy-table", help="tabulate x, pdf, cdf of a strategy (CSV)")
    p.add_argument("--mode", required=True,
                   choices=[m.value for m in ConflictMode])
    p.add_argument("--strategy-variant", required=True,
                   choices=[v.value for v in Variant])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--mu", type=float)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_strategy_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, simulator.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
