"""wirecat benchmark: one seeded workload per run, in one process.

    python3 bench/run.py --workload free-prop --seed 1 --seconds 20 --trace 0

Each round imports wirecat afresh from ``src/``, generates the workload's
inputs from the seed (timed as set-up), then runs the workload's fixed task
list, timing every call into wirecat from outside and checking every output.
Rounds repeat until ``--seconds`` have passed; every round is whole, so the
share of failed tasks does not depend on the run length.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, taken
from spans around each call into a wirecat module.  See README.md.
"""
from __future__ import annotations

import os

# Object arrays never reach BLAS; one thread keeps the process at two at most.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  -- imported before set-up, which times wirecat only

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
MODULES = ("errors", "graphs", "wiring", "translate", "endo", "wprop",
           "sampling", "lie", "cli")
#: Set-ups timed before the first round, on top of the one in every round.
EXTRA_SETUPS = 3

#: Span names whose self time is reported, as ``<name>_ms``.
SELF_MS = ("graphs.validate", "graphs.loose_canonical_form", "graphs.substitute",
           "wprop.flatten", "wprop.horizontal", "wprop.contract",
           "wprop.relabel", "wprop.wd_action", "endo.Tensor",
           "endo.tensor_product", "endo.trace_contract", "endo.evaluate_graph",
           "lie.lie_dim", "lie.TraceSpace", "lie.reduce", "wiring.compose",
           "wiring.WiringDiagram", "translate.wd_to_graph",
           "translate.graph_to_wd", "cli.main", "cli.build_parser")
#: Span names whose count is reported, as ``<name>_calls``.
CALLS = ("graphs.validate", "graphs.loose_canonical_form", "lie.lie_dim",
         "lie.reduce")


def load_wirecat():
    """Import every wirecat module from scratch; caches start empty."""
    for name in [m for m in sys.modules if m == "wirecat" or m.startswith("wirecat.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module("wirecat." + m)
                              for m in MODULES})
    if not Path(mods.errors.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("bench: imported wirecat from %s, not from %s"
                         % (mods.errors.__file__, SRC))
    return mods


def setup(workload, seed, tracer, traced):
    """One timed set-up: import wirecat and generate the seeded inputs."""
    gc.collect()
    if traced:
        tracer.begin_task("setup")
    t0 = time.perf_counter()
    wc = load_wirecat()
    if traced:
        tracer.install(wc)
    stem = "%s-seed%d" % (workload.name, seed)
    state = workload.setup(wc, random.Random("%s/%d" % (workload.name, seed)),
                           str(RESULTS / ("inputs-" + stem)))
    elapsed = time.perf_counter() - t0
    if traced:
        tracer.end_task()
    return elapsed, wc, state


def run(workload, seed, seconds, tracer):
    setup_s, task_ms, traced_tasks = [], [], []
    rounds = {False: [], True: []}  # traced? -> per round, each task's time
    attempted = failed = 0
    problems = []
    for _ in range(EXTRA_SETUPS):
        setup_s.append(setup(workload, seed, tracer, tracer is not None)[0])
    start = time.perf_counter()
    round_no = 0
    while True:
        # With tracing on, round 0 runs unwrapped: it is the overhead baseline.
        traced = tracer is not None and round_no > 0
        elapsed, wc, state = setup(workload, seed, tracer, traced)
        setup_s.append(elapsed)
        if round_no == 0:
            refs = workload.reference(wc, state)
        count = tracer.count if traced else (lambda key, n: None)
        tasks = workload.tasks(wc, state, refs, count)
        gc.collect()
        times = []
        for task in tasks:
            if traced:
                tracer.begin_task("r%d.%s" % (round_no, task.label))
                traced_tasks.append(len(tracer.tasks) - 1)
            t0 = time.perf_counter()
            try:
                result, problem = task.call(), None
            except Exception as exc:  # a failing task is counted, not fatal
                result, problem = None, type(exc).__name__
                detail = "%s: %s" % (problem, exc)
            dt = time.perf_counter() - t0
            if traced:
                tracer.end_task()
            times.append(dt)
            attempted += 1
            if problem is None:
                problem = detail = task.check(result)
            if problem is None:
                task_ms.append(dt * 1e3)
                continue
            failed += 1
            if problem != task.fails_today:
                problems.append("%s: %s" % (task.label, detail))
        rounds[traced].append(times)
        round_no += 1
        if time.perf_counter() - start >= seconds and (tracer is None or round_no >= 2):
            break
    return SimpleNamespace(setup_s=setup_s, task_ms=task_ms, rounds=rounds,
                           attempted=attempted, failed=failed, problems=problems,
                           traced_tasks=traced_tasks)


def end_to_end(res):
    """End-to-end metrics of an untraced run.

    ``solve_s`` adds up each task's median time over the rounds: the time to
    finish the task list, with a slow spell of the machine filtered out task
    by task rather than taken whole with its round.
    """
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solve_s": (sum(map(statistics.median, zip(*res.rounds[False]))), "s"),
        "task_p50_ms": (statistics.median(res.task_ms) if res.task_ms else 0.0, "ms"),
        "setup_s": (statistics.median(res.setup_s), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(res, tracer):
    rounds = len(res.rounds[True])
    spans = tracer.self_times(res.traced_tasks)
    out = {}
    for name in SELF_MS:
        out[name + "_ms"] = (spans.get(name, (0, 0.0))[1] * 1e3 / rounds, "ms")
    for name in CALLS:
        out[name + "_calls"] = (spans.get(name, (0, 0.0))[0] / rounds, "count")
    keys = spans.get("graphs.loose_canonical_form", (0, 0.0))[0]
    perms = tracer.child_count("graphs.canonical_form",
                               "graphs.loose_canonical_form", res.traced_tasks)
    out["graphs.perms_per_key"] = (perms / keys if keys else 0.0, "perm/key")
    c = tracer.counters
    out["endo.entries_built"] = (c["endo.entries_built"] / rounds, "count")
    out["endo.peak_axes"] = (float(c["endo.peak_axes"]), "count")
    offered = c["lie.rows_offered"]
    out["lie.independent_row_ratio"] = (
        c["lie.rows_independent"] / offered if offered else 0.0, "ratio")
    out["cli.bytes_in"] = (c["cli.bytes_in"] / rounds, "bytes")
    out["cli.bytes_out"] = (c["cli.bytes_out"] / rounds, "bytes")
    setups = [i for i, label in enumerate(tracer.tasks) if label == "setup"]
    generate = tracer.self_times(setups).get("sampling.generate", (0, 0.0))[1]
    out["sampling.generate_ms"] = (generate * 1e3 / len(setups), "ms")
    out["trace.overhead_s"] = (statistics.median(map(sum, res.rounds[True]))
                               - sum(res.rounds[False][0]), "s")
    return out


def threads():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wirecat" / "__init__.py").is_file():
        sys.stderr.write("bench: no wirecat source under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(parents=True, exist_ok=True)
    # One CPU for the whole run: moving between CPUs spread the timings of
    # identical rounds by several percent on a 2-CPU virtual machine.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    res = run(workload, args.seed, args.seconds, tracer)
    metrics = per_layer(res, tracer) if tracer else end_to_end(res)

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer:
        tracer.write(RESULTS / (stem + ".spans.jsonl.gz"))
    for problem in res.problems[:10]:
        sys.stderr.write("bench: unexpected failure: %s\n" % problem)
    sys.stderr.write("bench: %s seed %d: %d rounds, %d tasks, %d failed, "
                     "%s threads\n" % (args.workload, args.seed,
                                       len(res.rounds[False]) + len(res.rounds[True]),
                                       res.attempted, res.failed, threads()))
    for name, (value, unit) in metrics.items():
        sys.stderr.write("  %-34s %14.6f %s\n" % (name, value, unit))
    result = {
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (RESULTS / (stem + ".json")).write_text(json.dumps(result, indent=1) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
