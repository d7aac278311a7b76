"""The three benchmark workloads: inputs from a seed, operations, checks.

Each workload is one *pass*: the work a CLI user would run in one fresh
interpreter. A pass is a list of operations; every operation is timed on
its own, checked, and returns a JSON-able result. Every pass of a run
gets the same inputs, so every pass, traced or not, must reproduce the
same results bit for bit.

* ``realize``: the paper's headline construction. One catalog at
  beta = 1.7 with the coord potential, bounded at map and flow level,
  then realization requests at map level (tolerance 1e-3) and flow level
  (1e-2). Most of the time is cylinder-scheme building in
  ``integrate_map``, for a few horseshoe structures rebuilt many times.
* ``survey``: many distinct potentials, each integrated a few times at
  shallow depth, with little scheme reuse and no bisection, plus one gap
  certification. It carries the catalog, SCC and transfer costs.
* ``sweep``: eight models across the validator-admissible range.
  Symbolic enumeration dominates and no Markov measure is integrated.

Inputs come from ``random.Random`` seeded with a string, which does not
depend on the interpreter's hash seed; the library sees only the inputs.
"""

import hashlib
import math
import random
import time

WORKLOADS = ("realize", "survey", "sweep")

# untraced pass time on an idle reference machine (2 cores, x86-64,
# Python 3.11, numpy 2.4); a run makes at most --seconds // PASS_SECONDS
# passes, fewer when a loaded machine would make it overrun --seconds
PASS_SECONDS = {"realize": 9.4, "survey": 4.4, "sweep": 10.4}

# realization targets per level, as fractions of (p_inf, p_top). The time
# of one request depends chaotically on its target: the bisection stops at
# the first midpoint within 0.3 * tolerance, and targets 0.02 apart differ
# by up to 1.4x in time. The seed therefore moves each target by at most
# REALIZE_JITTER, far inside that window, so that every seed runs nearly
# the same bisections and runs stay comparable.
REALIZE_TARGETS = (0.25, 0.5, 0.75)
REALIZE_JITTER = 1e-6
REALIZE_LEVELS = (("map", 1e-3, 20), ("flow", 1e-2, 18))

SURVEY_POTENTIALS = 50
# potentials in the reference slice, which keeps the gap operation too
SURVEY_REFERENCE = 12
SURVEY_TRANSFER_DEPTH = 12
SURVEY_BALL_RADIUS = 0.2
SURVEY_SUP_SLACK = 0.02
GAP_MARGIN = 0.05
GAP_ETA = 0.1
GAP_REPORT_SLACK = 0.01

# (alpha, beta centre): one model per band, the seed choosing beta within
# SWEEP_HALF_WIDTH of the centre. The bands span the range the validator
# admits (alpha * beta > sqrt 2, beta < 2) and reach the two hard models
# of the roadmap. They stay clear of the two betas (1.5602 and 1.8200)
# where the pressure_separated check flips, so the count of failing
# operations does not depend on the seed. Enumeration cost grows like
# beta^19, so the narrow bands keep the seed's effect on cost near 4%.
SWEEP_BANDS = ((1.0, 1.45), (1.0, 1.52), (1.0, 1.60), (1.0, 1.68),
               (1.0, 1.76), (1.0, 1.86), (1.0, 1.945), (0.8, 1.985))
SWEEP_HALF_WIDTH = 0.004
# band of the reference slice: the heaviest model of alpha = 1, where
# enumeration dominates as it does in the whole pass
SWEEP_REFERENCE = ((1.0, 1.945),)
SWEEP_LAP_DEPTHS = (18, 19)
SWEEP_TRANSFER_DEPTH = 14
SWEEP_SEPARATED = {"n": 18, "eps": 1e-3}
SWEEP_HORSESHOE = {"depth": 14, "x_gap": 0.002}
SWEEP_MAX_PERIOD = 10

# the separated-set estimator saturates its grid and returns
# log(12000)/18 for every map; this check fails on every sweep band far
# from that value until the estimator is rebuilt
KNOWN_DEFECT = "pressure_separated outside its slack"


def make_inputs(workload, seed, size="full"):
    """The seeded inputs of a pass, as plain JSON-able data.

    ``size`` is ``"full"`` for a measured pass, ``"reference"`` for the
    slice that the reference passes of ``run.py`` run, or ``"tiny"`` for
    the self-test.
    """
    if size not in ("full", "reference", "tiny"):
        raise ValueError("unknown size %r" % size)
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "realize":
        requests = [{"level": level,
                     "fraction": rng.uniform(c - REALIZE_JITTER,
                                             c + REALIZE_JITTER)}
                    for level, _, _ in REALIZE_LEVELS
                    for c in REALIZE_TARGETS]
        return {"requests": requests if size == "full"
                else requests[:: len(REALIZE_TARGETS)]}
    if workload == "survey":
        seeds = rng.sample(range(1_000_000), SURVEY_POTENTIALS)
        count = {"full": SURVEY_POTENTIALS, "reference": SURVEY_REFERENCE,
                 "tiny": 2}[size]
        return {"potentials": ["coord:x"] + ["grid:seed:%d" % s
                                             for s in seeds[:count]]}
    if workload == "sweep":
        models = [{"alpha": a, "beta": rng.uniform(c - SWEEP_HALF_WIDTH,
                                                   c + SWEEP_HALF_WIDTH)}
                  for a, c in SWEEP_BANDS]
        bands = {"full": SWEEP_BANDS, "reference": SWEEP_REFERENCE,
                 "tiny": SWEEP_BANDS[:2]}[size]
        return {"models": [m for m, band in zip(models, SWEEP_BANDS)
                           if band in bands]}
    raise ValueError("unknown workload %r" % workload)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _timed(ops, kind, fn):
    """Run one operation; exceptions count as a failed operation."""
    start = time.perf_counter()
    try:
        ok, defect, result = fn()
        error = None
    except Exception as exc:  # every failure is counted, none stops a pass
        ok, defect, result = False, None, None
        error = "%s: %s" % (type(exc).__name__, exc)
    end = time.perf_counter()
    ops.append({"kind": kind, "start": start, "end": end,
                "latency_s": end - start, "ok": bool(ok), "defect": defect,
                "error": error, "result": result})


def run_realize(gl, inputs):
    lmap = gl.LorenzMap1D(1.0, 1.7)
    roof = gl.RoofFunction(1.0, 1.0, 0.5)
    phi = gl.parse_potential_spec("coord:x")
    catalog = gl.build_catalog(lmap, phi, gl.DEFAULT_RECIPE)
    bounds = {}
    for level, _, _ in REALIZE_LEVELS:
        bounds[level] = tuple(gl.estimate_P_bounds(
            catalog, phi, level=level, roof=roof if level == "flow" else None))
    settings = {level: (tol, depth) for level, tol, depth in REALIZE_LEVELS}
    ops = []
    for request in inputs["requests"]:
        level = request["level"]
        tol, replay_depth = settings[level]
        p_inf, p_top = bounds[level]
        target = p_inf + request["fraction"] * (p_top - p_inf)
        level_roof = roof if level == "flow" else None

        def op():
            nu = gl.realize_intermediate(gl.TargetRequest(
                lmap, phi, target, tol, level=level, roof=level_roof,
                catalog=catalog))
            replay = gl.pressure_measure(nu, phi, level=level,
                                         roof=level_roof, depth=replay_depth)
            ok = abs(replay - target) <= tol
            return ok, None, {"level": level, "target": target,
                              "achieved": replay, "measure_id": nu.id}

        _timed(ops, "realize:" + level, op)
    return ops


def _survey_potential(gl, lmap, roof, spec):
    phi = gl.parse_potential_spec(spec)
    transfer = gl.pressure_transfer(lmap, phi, depth=SURVEY_TRANSFER_DEPTH)
    catalog = gl.build_catalog(lmap, phi, gl.DEFAULT_RECIPE)
    stats = []
    for m in catalog:
        flow = gl.suspend(m, roof, phi)
        h_map = (0.0 if isinstance(m, gl.SingularDeltaMeasure)
                 else gl.entropy_map(m))
        stats.append((m.id, h_map, flow.pressure(),
                      flow.ball_fraction(SURVEY_BALL_RADIUS)))
    scan_map = gl.spectrum_scan(phi, catalog, level="map")
    scan_flow = gl.spectrum_scan(phi, catalog, level="flow", roof=roof)
    ok = scan_map.p_top_est <= transfer.value + SURVEY_SUP_SLACK
    return ok, None, {"potential": spec, "transfer": transfer.value,
                      "map_sup": scan_map.p_top_est,
                      "flow_gap": list(scan_flow.gap_interval),
                      "stats": _digest(stats),
                      "entries": _digest(scan_map.entries
                                         + scan_flow.entries)}


def _survey_gap(gl, lmap, roof):
    h_est = gl.h_top_estimate(lmap)
    bump = gl.build_gap_potential(h_est, GAP_MARGIN, GAP_ETA, lmap=lmap,
                                  roof=roof)
    catalog = (gl.build_catalog(lmap, bump, gl.GAP_CORE_RECIPE)
               + gl.build_catalog(lmap, bump, gl.GAP_DEMONSTRATOR_RECIPE)
               + [gl.SingularDeltaMeasure()])
    report = gl.verify_gap(lmap, roof, bump, catalog, slack=GAP_REPORT_SLACK)
    scan = gl.spectrum_scan(bump, catalog, level="flow", roof=roof)
    above = scan.measures_above_gap()
    ok = report.certified and above == ["delta_sigma"]
    return ok, None, {"L": report.L, "sup_satisfying": report.sup_satisfying,
                      "gap_size": scan.gap_size, "above": above,
                      "certified": report.certified,
                      "rows": _digest(report.rows)}


def run_survey(gl, inputs):
    lmap = gl.LorenzMap1D(1.0, 1.7)
    roof = gl.RoofFunction(1.0, 1.0, 0.5)
    ops = []
    for spec in inputs["potentials"]:
        _timed(ops, "survey:potential",
               lambda: _survey_potential(gl, lmap, roof, spec))
    _timed(ops, "survey:gap", lambda: _survey_gap(gl, lmap, roof))
    return ops


def _sweep_model(gl, alpha, beta):
    lmap = gl.LorenzMap1D(alpha, beta)
    report = gl.validate_model(gl.SkewProductReturnMap(lmap))
    kp = gl.kneading(lmap)
    lo, hi = SWEEP_LAP_DEPTHS
    counts = [len(gl.admissible_words(lmap, d)) for d in (lo, hi)]
    lap = math.log(counts[1] / counts[0])
    zero = gl.ConstantPotential(0.0)
    transfer = gl.pressure_transfer(lmap, zero, depth=SWEEP_TRANSFER_DEPTH)
    transfer_coord = gl.pressure_transfer(lmap, gl.CoordinatePotential(),
                                          depth=SWEEP_TRANSFER_DEPTH)
    separated = gl.pressure_separated(lmap, zero, **SWEEP_SEPARATED)
    horseshoe = gl.build_horseshoe(lmap, **SWEEP_HORSESHOE)
    components = gl.strongly_connected_components(horseshoe)
    orbits = gl.enumerate_periodic(lmap, SWEEP_MAX_PERIOD)
    reference = math.log(beta) if alpha == 1.0 else lap
    transfer_ok = abs(transfer.value - reference) <= transfer.slack
    separated_ok = abs(separated.value - reference) <= separated.slack
    ok = report.all_pass and transfer_ok and separated_ok
    defect = (KNOWN_DEFECT if report.all_pass and transfer_ok
              and not separated_ok else None)
    return ok, defect, {
        "alpha": alpha, "beta": beta, "axioms": report.all_pass,
        "kneading": kp.k_minus + "/" + kp.k_plus, "lap_counts": counts,
        "reference": reference, "transfer": transfer.value,
        "transfer_coord": transfer_coord.value,
        "separated": separated.value, "vertices": horseshoe.n_vertices,
        "components": len(components), "orbits": len(orbits)}


def run_sweep(gl, inputs):
    ops = []
    for model in inputs["models"]:
        _timed(ops, "sweep:model",
               lambda: _sweep_model(gl, model["alpha"], model["beta"]))
    return ops


RUNNERS = {"realize": run_realize, "survey": run_survey, "sweep": run_sweep}
