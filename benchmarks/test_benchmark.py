"""Fast self-test of the benchmark: python3 -m pytest -q benchmarks"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import geolorenz as gl  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload, traced):
    inputs = workloads.make_inputs(workload, seed=7, size="tiny")
    tracer = tracing.Tracer().install() if traced else None
    try:
        ops = workloads.RUNNERS[workload](gl, inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    return ops, (tracer.metrics() if tracer is not None else None)


def test_tracer_wraps_every_binding_and_restores_it():
    before = tracing.snapshot()
    equilibrium = gl.pressure.equilibrium_measure
    suspend = gl.measures.suspend
    tracer = tracing.Tracer().install()
    try:
        # names imported with `from .x import y` are wrapped where they live
        for mod in (gl.pressure, gl.spectrum, gl):
            assert mod.equilibrium_measure is not equilibrium
        for mod in (gl.measures, gl.pressure, gl.spectrum, gl.cli, gl):
            assert mod.suspend is not suspend
        assert gl.model.LorenzMap1D.inverse_branch is not \
            before[("LorenzMap1D", "inverse_branch")]
    finally:
        tracer.restore()
    after = tracing.snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_traced_equals_untraced(workload):
    plain, _ = _run(workload, traced=False)
    traced, layers = _run(workload, traced=True)
    assert plain and len(plain) == len(traced)
    for a, b in zip(plain, traced):
        assert a["error"] is None, a["error"]
        assert a["ok"] or a["defect"] == workloads.KNOWN_DEFECT
        assert (a["ok"], a["result"]) == (b["ok"], b["result"])
    if workload == "sweep":
        assert layers["measures.integrate_map.calls"] == 0
        assert layers["symbolic.cylinder_levels.calls"] > 0
    else:
        assert layers["measures.integrate_map.calls"] > 0
        assert layers["model.inverse_branch.calls"] > 0
    if workload == "realize":
        assert layers["spectrum.realize_intermediate.solves_per_call"] > 0
        assert 0 < layers["measures.integrate_map.distinct_frac"] <= 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_slice_is_part_of_the_full_pass(workload):
    full = workloads.make_inputs(workload, seed=7)
    part = workloads.make_inputs(workload, seed=7, size="reference")
    (key, ops), = full.items()
    assert 0 < len(part[key]) < len(ops)
    assert all(op in ops for op in part[key])


def test_reference_worker_imports_the_frozen_copy():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         "survey", "--seed", "1", "--setup-only", "--reference"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "ready"


def test_speed_probe_changes_no_result():
    plain, _ = _run("survey", traced=False)
    probe = speed.SpeedProbe(period=0.005).start()
    try:
        probed, _ = _run("survey", traced=False)
    finally:
        probe.stop()
    assert probe.samples
    assert [(a["ok"], a["result"]) for a in plain] == \
        [(b["ok"], b["result"]) for b in probed]


def test_scaled_time_leaves_out_the_kernel_and_divides_by_its_slowdown():
    probe = speed.SpeedProbe()
    # a sample each second for 40 s, timed at twice the reference kernel
    # time, each taking 0.01 s with its warm-up run
    probe.samples = [(float(t), 2 * speed.REF_KERNEL_S, 0.01)
                     for t in range(40)]
    assert probe.kernel_time(0.0, 40.0) == pytest.approx(0.4)
    assert probe.scaled(0.0, 40.0) == pytest.approx((40.0 - 0.4) / 2)
    # an interval with too few samples takes the nearest ones
    assert probe.scaled(10.5, 10.75) == pytest.approx(0.125)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    # a directory with BENCHMARK.json and the benchmark files only
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), bench / name)
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
