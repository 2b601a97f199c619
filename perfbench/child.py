"""One graceperiod CLI call in a fresh interpreter, reported as JSON.

Usage (from the checkout root, which must hold ``src/graceperiod``)::

    python3 perfbench/child.py SPAWNED TRACE CLI_ARG...

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process; ``TRACE`` is 0 or 1.  The process imports the package from
``./src``, parses the arguments (and, for ``simulate``, the config) the way
the CLI does, then times ``graceperiod.cli.main(argv)`` with its standard
output captured in memory.  With ``TRACE=1`` the call runs under the
tracer of ``probes.py``.  One JSON object goes to standard output.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spawned, trace, argv = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy
    from graceperiod import cli, simulator

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"graceperiod imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    args = cli.build_parser().parse_args(argv)
    if args.command == "simulate":
        simulator.config_from_dict(cli._load_json(args.config))
    ready = time.monotonic()

    tracer = None
    if trace:
        import probes
        from tracer import Tracer, leftover_patches

        tracer = Tracer()
        probes.install(tracer)

    captured, real_stdout = io.StringIO(), sys.stdout
    sys.stdout = captured
    t0 = time.perf_counter()
    try:
        rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        sys.stdout = real_stdout
        restored = tracer.restore() if tracer else []

    record = {
        "setup_s": ready - spawned,
        "wall_s": wall,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "output": captured.getvalue(),
    }
    if tracer:
        record["leftover_patches"] = leftover_patches(restored)
        record["layers"] = probes.layer_metrics(tracer)
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
