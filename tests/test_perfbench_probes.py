"""Every attribute the perf probes patch exists where they look for it.

``perfbench/probes.py`` wraps package functions by name; a renamed or
deleted one would only show up in a traced benchmark run.  This reads the
probes, with ``perfbench/`` on ``sys.path``, and patches nothing.
"""

import importlib
import json
from importlib import resources
from pathlib import Path

from graceperiod import bench, costmodel, oracle, simulator
from graceperiod.strategy import GracePeriodStrategy, make_strategy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class CheckingTracer:
    """Records each patch target after checking it; wraps nothing."""

    def __init__(self):
        self.targets = []

    def span_wrapper(self, name, fn, **kwargs):
        return fn

    def count_wrapper(self, key, fn, by_attr=None):
        return fn

    def patch(self, owner, attr, make_wrapper):
        assert attr in vars(owner), f"{owner!r} has no attribute {attr!r} of its own"
        self.targets.append((owner, attr))


def test_every_probe_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = CheckingTracer()
    importlib.import_module("probes").install(tracer)
    for target in [(oracle, "verify_pdf"), (oracle, "worst_case_ratio"),
                   (costmodel, "ratio_profile"), (GracePeriodStrategy, "pdf")]:
        assert target in tracer.targets


def test_probe_lists_name_every_family_and_kind_drawn(monkeypatch):
    # layer_metrics sums each sample_batch and remaining_time span into a key
    # made from probes.FAMILIES and probes.KINDS, so a family or a length kind
    # that a workload draws and the lists miss fails every traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probes = importlib.import_module("probes")
    config = bench.BenchConfig()  # bench-synthetic's defaults
    families = {bench._strategy_for(s, config).family for s in config.strategies if s != "OPT"}
    kinds = {bench._length_model(d, config).kind for d in config.distributions}
    stress = resources.files("graceperiod").joinpath("configs", "stress_high.json")
    sim = simulator.config_from_dict(json.loads(stress.read_text()))
    sizes = sim.chain_size if isinstance(sim.chain_size, dict) else [sim.chain_size]
    families |= {make_strategy(sim.policy_spec(k, sim.policy.B)).family for k in sizes}
    kinds.add(sim.length_model.kind)
    assert families - set(probes.FAMILIES) == set()
    assert kinds - set(probes.KINDS) == set()
