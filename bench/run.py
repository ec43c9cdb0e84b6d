"""Run one workload of the octopus benchmark and print its metrics.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the repository root; it imports octopus from src/ and starts
the CLI as `python -m octopus.cli` with PYTHONPATH=src. Workloads:
decode_long and cli_short (see bench/README.md). Every run measures all
three activities (joint training, in-process decoding, the CLI) with
equal shares of its time, so it reports every end-to-end metric; the
workload sets the output length of the in-process decodes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, measured untraced; with --trace 1
they are its per-layer metrics, from units run with the layer wrappers of
bench/tracing.py installed. The line before it records the machine.
"""

import os
import sys

# one BLAS thread, set before numpy is imported and inherited by every CLI
# process the benchmark starts
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# workload -> the in-process decodes: output length cap, sources per
# generate() item, sources in the greedy_decode_batch item. Training and
# the CLI are the same in both (see README.md).
WORKLOADS = {
    "decode_long": dict(cap=127, sources=1, batch=4),
    "cli_short": dict(cap=7, sources=16, batch=16),
}
SETUP_REPEATS = 3  # complete set-ups before the first item
SETUP_EVERY_S = 3.0  # and one more every this many seconds of the run
COVERAGE_MIN = 0.9  # layer spans must account for 90% of traced wall time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def machine_info(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "octopus").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _commit(), "src_sha256": digest.hexdigest(),
    }


def layer_metrics(t, items: int, coverage: float, overhead: float) -> dict:
    """Per-layer values from a Tracer. Training-path times are per training
    step; other times are per call of the wrapped function."""
    from tracing import OPS, STEP_BINS

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    steps = t.calls["model.batch_loss"]

    def per_step(name):
        return ratio(t.total[name], steps, 1e3)

    def per_call(name):
        return ratio(t.total[name], t.calls[name], 1e3)

    searches = t.calls["decoding.generate"]
    m = {}
    for op in OPS:
        m[f"tensor.{op}.fwd_ms"] = per_step(f"tensor.{op}.fwd")
        m[f"tensor.{op}.bwd_ms"] = per_step(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = ratio(t.calls[f"tensor.{op}.fwd"], steps)
    m["tensor.backward_ms"] = per_step("tensor.backward")
    m["tensor.graph_nodes_per_step"] = ratio(t.counts["tensor.graph_nodes"], steps)
    m["model.batch_loss_ms"] = per_step("model.batch_loss")
    m["model.encode_ms"] = per_call("model.encode")
    m["model.decode_logits_ms"] = per_call("model.decode_logits")
    m["model.decode_logits_calls"] = ratio(t.calls["model.decode_logits"], items)
    m["model.save_ms"] = per_call("model.save")
    m["model.load_ms"] = per_call("model.load")
    for lo, hi in STEP_BINS:
        m[f"decoding.step_ms.p{lo:03d}_{hi:03d}"] = per_call(f"decoding.step.p{lo:03d}_{hi:03d}")
    m["decoding.model_calls_per_token"] = ratio(t.counts["decoding.model_calls"],
                                                t.counts["decoding.top_tokens"])
    m["decoding.search_self_ms"] = ratio(t.self_time["decoding.generate"], searches, 1e3)
    m["decoding.hyps_finished"] = ratio(t.counts["decoding.hyps_finished"], searches)
    m["decoding.hyps_capped"] = ratio(t.counts["decoding.hyps_capped"], searches)
    m["decoding.greedy_decode_batch_ms"] = per_call("decoding.greedy_decode_batch")
    m["optim.adam_step_ms"] = per_step("optim.adam_step")
    m["objectives.corrupt_spans_ms"] = per_step("objectives.corrupt_spans")
    m["objectives.batch_ms"] = per_step("objectives.batch")
    m["objectives.token_fill"] = ratio(t.counts["objectives.real_tokens"],
                                       t.counts["objectives.slots"])
    m["trainer.evaluate_dev_ms"] = per_call("trainer.evaluate_dev")
    for prefix in ("translitrate_ar2en", "diacritize"):
        m[f"trainer.task_draws.{prefix}"] = ratio(t.counts[f"trainer.task_draws.{prefix}"],
                                                  t.counts["trainer.runs"])
    m["metrics.score_task_ms"] = per_call("metrics.score_task")
    m["cli.import_ms"] = per_call("cli.import")
    m["cli.load_toolkit_ms"] = per_call("cli.load_toolkit")
    m["cli.generate_ms"] = per_call("cli.generate")
    m["vocab.encode_ms"] = per_call("vocab.encode")
    m["vocab.decode_ms"] = per_call("vocab.decode")
    m["trace.coverage"] = coverage
    m["trace.overhead"] = overhead
    return m


def run(args, work: Path) -> dict:
    from activities import Cli, Decode, Train
    from tracing import Tracer, perf

    def set_up(where: Path) -> list:
        return [Train(args.seed, where), Decode(args.seed, **WORKLOADS[args.workload]),
                Cli(args.seed, where)]

    # setup_s is the fastest of all set-ups, spread over the run like every
    # other timed item; the repeats after the first are built in their own
    # directory and discarded
    setup_s = []
    spare = work / "setup"
    spare.mkdir()
    for i in range(SETUP_REPEATS):
        t0 = perf()
        built = set_up(spare if i else work)
        setup_s.append(perf() - t0)
        if not i:
            acts = built
    print(json.dumps({"info": machine_info(args)}), flush=True)

    tracer = Tracer() if args.trace else None
    # the three activities get equal shares of the run's time and their
    # items interleave, so all three meet the same stretch of machine time
    spent = {a: 0.0 for a in acts}
    done = {a: 0 for a in acts}  # items run
    # trace mode traces every other round of each activity; the rounds in
    # between run untraced to measure the tracing overhead
    need = {a: len(a.items) * (2 if args.trace else 1) for a in acts}
    walls: dict[tuple[object, str, bool], list[float]] = {}
    traced_wall = 0.0
    attempted = failed = 0

    start = perf()
    deadline = start + args.seconds
    next_setup = start + SETUP_EVERY_S
    while perf() < deadline or any(done[a] < need[a] for a in acts):
        if not args.trace and perf() >= next_setup:
            next_setup += SETUP_EVERY_S
            t0 = perf()
            set_up(spare)
            setup_s.append(perf() - t0)
        activity = min(acts, key=spent.get)
        item = activity.items[done[activity] % len(activity.items)]
        traced = bool(args.trace) and done[activity] // len(activity.items) % 2 == 1
        done[activity] += 1
        attempted += 1
        if traced:
            tracer.counts["trainer.runs"] += isinstance(activity, Train)
            tracer.counts["items"] += 1
        t0 = perf()
        try:
            wall = activity.run(item, tracer if traced else None)
        except Exception:  # a failed item is counted and the run goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            wall = None
        spent[activity] += perf() - t0
        if wall is not None:
            traced_wall += wall if traced else 0.0
            walls.setdefault((activity, item, traced), []).append(wall)

    correct = failed == 0
    if args.trace:
        coverage = tracer.covered / traced_wall if traced_wall else 0.0
        if coverage < COVERAGE_MIN:
            correct = False
            print(f"error: layer spans cover {coverage:.1%} of traced wall time",
                  file=sys.stderr)
        paired = [(a, i, t) for (a, i, t) in walls if t and (a, i, False) in walls]
        overhead = (sum(min(walls[key]) for key in paired)
                    / sum(min(walls[(a, i, False)]) for a, i, _ in paired) - 1
                    if paired else 0.0)
        values = layer_metrics(tracer, int(tracer.counts["items"]), coverage, overhead)
        section = "per_layer"
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {"setup_s": min(setup_s), "peak_rss_mb": rss_kb / 1024}
        for activity in acts:
            values.update(activity.metrics())
        section = "end_to_end"

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json {section}: "
                           f"{sorted(set(values) ^ {m['name'] for m in spec})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "octopus" / "__init__.py").is_file():
        print(f"error: no octopus package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
