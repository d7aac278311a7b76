"""One benchmark pass in a fresh interpreter.

    python3 benchmarks/worker.py --workload realize --seed 1
        [--trace] [--setup-only] [--reference]

Set-up imports geolorenz from the checkout's ``src`` directory (with
``--reference``, the frozen copy in ``benchmarks/reference`` instead),
builds the default model and validates it; the worker then prints ``ready`` so the
parent can time set-up from the spawn. The pass follows, and the last
line of output is one JSON object with the pass's timings, the
per-operation records and, with ``--trace``, the per-layer metrics.
A reference pass runs the workload's reference slice, not the full pass.

Untraced workers run the speed probe of ``speed.py`` from set-up to the
end of the pass and report every time both as measured (``raw``) and at
the reference speed. Traced workers run no probe, so that the tracer's
spans hold only library time.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference")


def _import_library(root):
    sys.path.insert(0, root)
    import geolorenz

    where = os.path.dirname(os.path.abspath(geolorenz.__file__))
    if where != os.path.join(root, "geolorenz"):
        raise SystemExit("geolorenz imported from %s, not from %s"
                         % (where, root))
    return geolorenz


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    import speed

    probe = None if args.trace else speed.SpeedProbe().start()
    setup_start = time.perf_counter()
    gl = _import_library(REFERENCE if args.reference else SRC)
    import mpmath
    import numpy

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer().install() if args.trace else None
    report = gl.validate_model(gl.default_config().make_model())
    if not report.all_pass:
        raise SystemExit("default model fails validation: %s"
                         % ", ".join(report.failed_names()))
    out = {}
    if probe is not None:
        # a block of samples at the end of set-up gives its speed factor
        for _ in range(speed.BLOCK):
            probe.sample()
        ready = time.perf_counter()
        out["setup_kernel_s"] = probe.kernel_time(0.0, ready)
        out["setup_factor"] = probe.factor(setup_start, ready)
    print("ready", flush=True)
    if args.setup_only:
        probe.stop()
        print(json.dumps(out), flush=True)
        return 0

    inputs = workloads.make_inputs(
        args.workload, args.seed, "reference" if args.reference else "full")
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    ops = workloads.RUNNERS[args.workload](gl, inputs)
    end = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime
           + usage1.ru_stime - usage0.ru_stime)
    if probe is not None:
        probe.stop()
        kernel_s = probe.kernel_time(start, end)
        raw_work = end - start - kernel_s
        wall = probe.scaled(start, end)
        # CPU time, less the kernel's, at the pass's mean speed factor
        cpu = (cpu - kernel_s) * wall / raw_work
        for op in ops:
            op["raw_latency_s"] = op["latency_s"]
            op["latency_s"] = probe.scaled(op["start"], op["end"])
        out.update({"raw_wall_s": end - start, "raw_work_s": raw_work,
                    "pass_factor": raw_work / wall,
                    "samples": len(probe.samples)})
    else:
        wall = end - start
    for op in ops:
        del op["start"], op["end"]
    layers = None
    if tracer is not None:
        tracer.restore()
        layers = tracer.metrics()
    out.update({
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "ops": ops,
        "layers": layers,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "mpmath": mpmath.__version__},
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
