"""Traced stand-in for `python -m octopus.cli`.

Usage: python3 bench/cli_shim.py TRACE_OUT SPAWN_TIME <octopus args...>

Times the interpreter start (from SPAWN_TIME, the parent's time.time()
just before it started this process) and `import octopus.cli`, wraps the
layers with bench/tracing.py, runs the batch command, writes the tracer's
aggregate to TRACE_OUT as JSON and exits with the command's exit code.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, install_layers, perf  # noqa: E402


def main() -> int:
    out_path, spawned = sys.argv[1], float(sys.argv[2])
    tracer = Tracer()
    start = max(STARTED - spawned, 0.0)
    tracer.total["cli.process_start"] = start
    tracer.calls["cli.process_start"] = 1
    t0 = perf()
    import octopus.cli as cli

    imported = perf() - t0
    tracer.total["cli.import"] = imported
    tracer.calls["cli.import"] = 1
    install_layers(tracer)
    code = tracer.span("cli.main", cli.main)(sys.argv[3:])
    tracer.covered += start + imported
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
