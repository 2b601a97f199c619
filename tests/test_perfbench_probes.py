"""Every attribute the perf probes patch exists where they look for it.

``perfbench/probes.py`` wraps package functions by name; a renamed or
deleted one would only show up in a traced benchmark run.  This reads the
probes, with ``perfbench/`` on ``sys.path``, and patches nothing.
"""

import importlib
from pathlib import Path

from graceperiod import costmodel, oracle
from graceperiod.strategy import GracePeriodStrategy

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
