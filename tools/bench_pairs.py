"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py --workload tensor-eval --base HEAD~1 --head HEAD \\
        --pairs 10 --seed 41 --seconds 20

Each revision is written out with ``git archive`` into its own directory
under a temporary one (``--workdir`` chooses where), so both sides run the
committed files only, each with its own ``bench/``.  Pair k runs
``bench/run.py --seed <seed + k>`` once on each side, one process at a time,
with ``PYTHONDONTWRITEBYTECODE=1``; the base runs first in even pairs and the
head first in odd ones.  Every run prints one line as it ends.  At the end,
each end-to-end metric gets its median and quartiles per side, the change of
the medians, and in how many pairs the head was better (ties count for
neither side, and ``BENCHMARK.json`` of the head says which way is better),
and each side its rounds per run and its failed tasks.

The script only reads the repository; the temporary copies are removed at
the end, also on Ctrl-C or SIGTERM.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; return its short hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result object, plus ``rounds``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench_pairs: %s seed %d in %s exited %d:\n%s"
                         % (workload, seed, tree, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = re.search(r": (\d+) rounds,", proc.stderr)
    result["rounds"] = int(rounds.group(1)) if rounds else None
    return result


def quartiles(xs):
    """(first quartile, median, third quartile) of ``xs``."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs, better):
    """Report lines for ``runs`` (a list of {side: result} pairs), metrics in
    the order of ``better`` (metric name -> "lower" or "higher")."""
    lines = []
    for name, way in better.items():
        vals = {s: [pair[s]["metrics"][name]["value"] for pair in runs] for s in SIDES}
        sign = -1 if way == "lower" else 1
        wins = sum(sign * (h - b) > 0 for b, h in zip(vals["base"], vals["head"]))
        (b1, bm, b3), (h1, hm, h3) = quartiles(vals["base"]), quartiles(vals["head"])
        change = "%+.1f%%" % (100 * (hm - bm) / bm) if bm else "n/a"
        lines.append("%-12s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  %s, "
                     "head better in %d of %d (%s is better)"
                     % (name, bm, b1, b3, hm, h1, h3, change, wins, len(runs), way))
    for s in SIDES:
        lines.append("%-12s rounds per run %s; %d of %d tasks failed"
                     % (s, [pair[s]["rounds"] for pair in runs],
                        sum(pair[s]["failed"] for pair in runs),
                        sum(pair[s]["attempted"] for pair in runs)))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", default="HEAD~1", help="revision of the parent side")
    p.add_argument("--head", default="HEAD", help="revision of the changed side")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workdir", default=None, help="where the temporary copies go")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    # On SIGTERM, exit as on Ctrl-C: the running child is killed and the copies removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        trees = {s: tmp / s for s in SIDES}
        shas = {s: export(getattr(args, s), trees[s]) for s in SIDES}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        print("%s: base %s, head %s, %d pairs of %g s from seed %d"
              % (args.workload, shas["base"], shas["head"], args.pairs,
                 args.seconds, args.seed), flush=True)
        runs = []
        for k in range(args.pairs):
            seed = args.seed + k
            pair = {}
            for s in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[s] = run_once(trees[s], args.workload, seed, args.seconds)
                print("pair %d seed %d %s: %s, %s rounds, %d failed"
                      % (k, seed, s, ", ".join("%s %.4g" % (n, pair[s]["metrics"][n]["value"])
                                               for n in better),
                         pair[s]["rounds"], pair[s]["failed"]), flush=True)
            runs.append(pair)
        print("\n".join(summary(runs, better)))
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
