"""geolorenz benchmark runner.

    python3 benchmarks/run.py --workload {realize,survey,sweep} --seed N
        --seconds S --trace {0,1}

Runs passes of one workload one at a time, each in a fresh interpreter
(so the library's caches start cold, as for a CLI user), with BLAS
threads limited to 1. Every pass of a run repeats the seed's inputs. The
number of passes is S divided by the workload's nominal pass time, so
every run of a workload has the same shape, unless a loaded machine
would make the run overrun S. Before each pass a reference pass runs a
slice of the workload on the frozen library copy in benchmarks/reference;
times are at the reference speed of speed.py, divided by how much slower
than nominal the reference passes ran, and are medians over the run. Prints every metric by
name and unit, a provenance line, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metric names and
units come from BENCHMARK.json.

--trace 0 reports the end-to-end metrics. --trace 1 runs pairs of
passes, untraced and then traced, and reports the per-layer metrics of
the traced passes and the tracer's overhead. Either way every pass must
give the same results bit for bit. See benchmarks/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 6
MIN_PASSES = 2
PASS_TIMEOUT_S = 150.0
# an untraced and a traced pass together cost about 2.5 untraced passes
PAIR_COST = 2.5
# set-up and reference-slice times of the frozen reference library at the
# reference speed of speed.py, on the reference machine of
# workloads.PASS_SECONDS; they fix the unit of every reported time
REFERENCE_SETUP_S = 0.175
REFERENCE_SECONDS = {"realize": 3.0, "survey": 1.17, "sweep": 2.45}


class PassError(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # set iteration order must not differ between the passes compared
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra):
    """Run one worker; returns (set-up seconds as measured, its output)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=_child_env(), text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or first.strip() != "ready":
        raise PassError("worker %s exited with code %s" % (extra, code))
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def scaled_setup(setup_s, out):
    """Set-up time at the reference speed, less the probe's own time."""
    return (setup_s - out["setup_kernel_s"]) / out["setup_factor"]


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, the i-th of n weighted by the mass of
    the Beta(q (n + 1), (1 - q)(n + 1)) density on ((i - 1)/n, i/n]. For
    the 6 to 51 operations of a pass it varies less from run to run than a
    single or interpolated order statistic, most of all in the tail. The
    masses come from the midpoint rule on 8192 equal cells.
    """
    cells = 8192
    data = sorted(values)
    n = len(data)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = [0.0] * n
    for k in range(cells):
        t = (k + 0.5) / cells
        weights[int(t * n)] += math.exp((a - 1.0) * math.log(t)
                                        + (b - 1.0) * math.log1p(-t))
    return sum(w * v for w, v in zip(weights, data)) / sum(weights)


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def pass_count(workload, seconds, traced):
    nominal = workloads.PASS_SECONDS[workload]
    if traced:
        return max(1, int(seconds // (PAIR_COST * nominal)))
    return max(MIN_PASSES,
               int(seconds // (nominal + REFERENCE_SECONDS[workload])))


def _summarize_ops(results):
    ops = [op for result in results for op in result["ops"]]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed
                  if op["defect"] != workloads.KNOWN_DEFECT]
    kinds = {}
    for op in ops:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    return ops, failed, unexpected, kinds


def _comparable(result):
    return [(op["kind"], op["ok"], op["error"], op["result"])
            for op in result["ops"]]


def _end_to_end(workload, setups, ref_setups, passes):
    """Medians over the run: of set-ups, of passes, of each operation.

    Every time is already at the reference speed of speed.py. The probe
    kernel does not slow down under every kind of load exactly as the
    library does; the reference passes, which run the library's own code
    frozen, measure what is left, and every time is divided by their
    slowdown from nominal: set-up by that of the reference set-ups, the
    rest by that of the reference slices.
    """
    plain = [p["plain"] for p in passes]
    refs = [p["reference"] for p in passes]
    setup_factor = statistics.median(ref_setups) / REFERENCE_SETUP_S
    work_factor = (statistics.median(r["wall_s"] for r in refs)
                   / REFERENCE_SECONDS[workload])
    op_medians = [statistics.median(op["latency_s"] for op in ops)
                  / work_factor
                  for ops in zip(*(r["ops"] for r in plain))]
    return {
        "setup_s": statistics.median(setups) / setup_factor,
        "wall_s": statistics.median(r["wall_s"] for r in plain) / work_factor,
        "cpu_s": statistics.median(r["cpu_s"] for r in plain) / work_factor,
        "op_p50_s": quantile(op_medians, 0.5),
        "op_p90_s": quantile(op_medians, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }, {"pass_wall_s": [r["wall_s"] for r in plain],
        "pass_raw_wall_s": [r["raw_wall_s"] for r in plain],
        "pass_factor": [r["pass_factor"] for r in plain],
        "reference_wall_s": [r["wall_s"] for r in refs],
        "reference_setup_s": ref_setups,
        "setup_factor": setup_factor, "work_factor": work_factor}


def _per_layer(passes):
    layers = [p["traced"]["layers"] for p in passes]
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in layers[0]}
    # traced passes run no speed probe; compare them with the untraced
    # passes' measured time less the probe's
    values["trace.overhead_frac"] = (
        min(p["traced"]["wall_s"] for p in passes)
        / min(p["plain"]["raw_work_s"] for p in passes) - 1.0)
    self_times = sorted(((name[:-len(".self_s")], value)
                         for name, value in values.items()
                         if name.endswith(".self_s")), key=lambda kv: -kv[1])
    return values, {"self_s_top": self_times[:6]}


def _check_reference(refs):
    """The reference passes calibrate the clock; a failing one is a bug."""
    _, _, unexpected, _ = _summarize_ops(refs)
    if unexpected or any(_comparable(r) != _comparable(refs[0])
                         for r in refs):
        raise PassError("the reference passes failed or disagree")


def measure(args, spec):
    """Returns (metrics with units, attempted, failed, correct, notes)."""
    traced = bool(args.trace)
    # set-up probes count against the run's budget too
    start = time.perf_counter()
    setups, ref_setups = [], []
    if not traced:
        # warm-up: bytecode and file caches
        spawn(args, ["--setup-only"])
        spawn(args, ["--setup-only", "--reference"])
        for _ in range(SETUP_PROBES):
            setups.append(scaled_setup(*spawn(args, ["--setup-only"])))
            ref_setups.append(scaled_setup(
                *spawn(args, ["--setup-only", "--reference"])))
    passes = []
    durations = []
    for _ in range(pass_count(args.workload, args.seconds, traced)):
        # on a loaded machine, stop before a pass would overrun the budget
        elapsed = time.perf_counter() - start
        if len(passes) >= (1 if traced else MIN_PASSES) and \
                elapsed + max(durations) > args.seconds:
            break
        if traced:
            passes.append({"plain": spawn(args, [])[1],
                           "traced": spawn(args, ["--trace"])[1]})
        else:
            setup_s, reference = spawn(args, ["--reference"])
            ref_setups.append(scaled_setup(setup_s, reference))
            setup_s, plain = spawn(args, [])
            setups.append(scaled_setup(setup_s, plain))
            passes.append({"plain": plain, "reference": reference})
        durations.append(time.perf_counter() - start - elapsed)

    results = [p[key] for p in passes for key in ("plain", "traced")
               if key in p]
    ops, failed, unexpected, kinds = _summarize_ops(results)
    if traced:
        values, notes = _per_layer(passes)
        listed = spec["per_layer"]
    else:
        _check_reference([p["reference"] for p in passes])
        values, notes = _end_to_end(args.workload, setups, ref_setups,
                                    passes)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    identical = all(_comparable(r) == _comparable(results[0])
                    for r in results)
    correct = not unexpected and identical
    notes.update({
        "results_identical": identical,
        "passes": len(passes), "op_counts": kinds,
        "versions": passes[0]["plain"]["versions"],
        "error_rate": len(failed) / len(ops),
        "errors": sorted({op["error"] or op["defect"] or "check failed"
                          for op in failed})})
    return metrics, len(ops), len(failed), correct, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    sources = os.path.join(ROOT, "src", "geolorenz", "__init__.py")
    for needed in (spec_path, sources):
        if not os.path.isfile(needed):
            print("run.py: missing %s" % needed, file=sys.stderr)
            return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    try:
        metrics, attempted, failed, correct, notes = measure(args, spec)
    except PassError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1

    for name, entry in metrics.items():
        print("%-8s %-48s %14.6g %s" % (args.workload, name, entry["value"],
                                        entry["unit"]))
    print("%-8s %-48s %14.6g frac  (%d of %d operations failed)" % (
        args.workload, "error_rate", notes["error_rate"], failed, attempted))
    provenance = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "git_commit": _git_commit(), "nproc": os.cpu_count(),
                  "affinity": len(os.sched_getaffinity(0)), **notes}
    print("provenance " + json.dumps(provenance))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
