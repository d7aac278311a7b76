"""Benchmark a change against a base revision in alternating pairs.

    python3 tools/bench_pairs.py --base REV --seed N --seconds S
        --pairs sweep=10 realize=3 survey=3 --out BENCH_<pr>.json

The base is the committed tree of REV, exported with `git archive` into
a temporary directory; the change is this checkout's working tree. Each
pair runs `benchmarks/run.py --workload W --seed N --seconds S` once on
either side, and the side that runs first alternates from pair to pair.
The output file holds every run's result line (the last line run.py
prints) and its provenance, and for each end-to-end metric of
BENCHMARK.json each side's median and quartiles, the number of pairs
in which the change reads better (ties count for neither side), and two
verdicts: `gain`, when the change reads better in at least nine tenths
of the pairs and its median is better than the base's by more than the
base's interquartile range, and `within_bound`, when the change's median
is worse than the base's by no more than the metric's bound times the
base median. After
the pairs of a workload, each side runs TRACED_RUNS more times with
`--trace 1`, the sides alternating as in the pairs. Under the
workload's "layers", each side keeps every traced run's result line
and provenance ("runs") and each per-layer metric's median over them
("median").
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# traced runs per side after a workload's pairs: one traced run's layer
# times vary by 20 to 30% from run to run
TRACED_RUNS = 3


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The committed files of `rev`, extracted into `dest`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit("git archive %s failed" % rev)


def run_once(root, workload, seed, seconds, trace=0):
    """One benchmark run in `root`: its result line and provenance."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit("run.py failed in %s:\n%s" % (root, proc.stderr))
    lines = proc.stdout.splitlines()
    provenance = next(line for line in lines
                      if line.startswith("provenance "))
    return {"result": json.loads(lines[-1]),
            "provenance": json.loads(provenance[len("provenance "):])}


def spread(values):
    """Median and quartiles (inclusive method) of a list of values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, metrics):
    summary = {}
    for side in ("base", "change"):
        runs = [p[side]["result"] for p in pairs]
        summary[side] = {"correct": all(r["correct"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs)}
    for metric in metrics:
        name = metric["name"]
        base, change = ([p[side]["result"]["metrics"][name]["value"]
                         for p in pairs] for side in ("base", "change"))
        sign = -1.0 if metric["better"] == "lower" else 1.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
        base_spread, change_spread = spread(base), spread(change)
        # the change's median minus the base's, positive when better
        better_by = sign * (change_spread["median"] - base_spread["median"])
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "base": base_spread,
            "change": change_spread, "change_wins": wins,
            "pairs": len(pairs),
            "gain": (wins >= 0.9 * len(pairs) and better_by
                     > base_spread["q3"] - base_spread["q1"]),
            "within_bound": (-better_by
                             <= metric["bound"] * base_spread["median"])}
    return summary


def layer_medians(runs):
    """Each per-layer metric's median over the traced runs of one side."""
    names = runs[0]["result"]["metrics"]
    return {name: statistics.median(r["result"]["metrics"][name]["value"]
                                    for r in runs)
            for name in names}


def parse_pairs(items, workloads):
    """The pair count of each workload named in `items`, each a
    WORKLOAD=COUNT naming one of `workloads` at most once."""
    pairs = {}
    for item in items:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise SystemExit("--pairs takes WORKLOAD=COUNT, got %r" % item)
        if workload not in workloads:
            raise SystemExit("--pairs names %r, not a workload of "
                             "BENCHMARK.json (%s)"
                             % (workload, ", ".join(workloads)))
        if workload in pairs:
            raise SystemExit("--pairs names %r twice" % workload)
        pairs[workload] = int(count)
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", nargs="+", required=True,
                        metavar="WORKLOAD=COUNT")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    metrics = benchmark["end_to_end"]
    # before anything runs, so a bad name costs no pairs
    counts = parse_pairs(args.pairs,
                         [w["name"] for w in benchmark["workloads"]])
    report = {
        "command": "python3 benchmarks/run.py --workload W --seed %d "
                   "--seconds %g --trace {0,1}" % (args.seed, args.seconds),
        "base": {"rev": _git("rev-parse", args.base)},
        "change": {"rev": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "nproc": os.cpu_count()},
        "workloads": {}}
    base_root = tempfile.mkdtemp(prefix="bench-base-")
    try:
        export(report["base"]["rev"], base_root)
        roots = {"base": base_root, "change": ROOT}
        for workload, count in counts.items():
            pairs = []
            for k in range(count):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, args.seed,
                                          args.seconds)
                pairs.append(pair)
                print("%s pair %d/%d done" % (workload, k + 1, count),
                      file=sys.stderr, flush=True)
            traced = {"base": [], "change": []}
            for k in range(TRACED_RUNS):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    traced[side].append(run_once(roots[side], workload,
                                                 args.seed, args.seconds,
                                                 trace=1))
            layers = {side: {"runs": runs, "median": layer_medians(runs)}
                      for side, runs in traced.items()}
            report["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, metrics),
                "layers": layers}
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
