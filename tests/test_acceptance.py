"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a `criterion N: ...` line with the measured numbers so a
verbose run doubles as a calibration report.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from geolorenz import (
    AtomicMeasure,
    ConstantPotential,
    MarkovMeasure,
    RoofFunction,
    SectionGridPotential,
    SingularDeltaMeasure,
    TargetRequest,
    build_catalog,
    build_gap_potential,
    build_horseshoe,
    entropy_map,
    equilibrium_measure,
    estimate_P_bounds,
    find_periodic_point,
    h_top_estimate,
    pressure_measure,
    pressure_separated,
    pressure_transfer,
    realize_intermediate,
    spectrum_scan,
    suspend,
    verify_gap,
)
from geolorenz import symbolic
from geolorenz.catalog import GAP_CORE_RECIPE, GAP_DEMONSTRATOR_RECIPE
from geolorenz.cli import run
from geolorenz.config import default_config
from geolorenz.repro import run_suite
from geolorenz.symbolic import admissible_words, cylinder_levels
from word_oracles import horseshoe_from_adjacency

LOG_BETA = math.log(1.7)


def test_criterion_1_entropy_fidelity(lmap):
    t0 = time.monotonic()
    zero = ConstantPotential(0.0)
    transfer = pressure_transfer(lmap, zero, depth=12).value
    separated = pressure_separated(lmap, zero, n=18, eps=1e-3).value

    # independent oracle: lap numbers of f^n from the exact preimage
    # tree of the turning point, in rational arithmetic
    beta = Fraction(17, 10)

    def laps(n):
        level = {Fraction(0)}
        breaks = set(level)
        for _ in range(n - 1):
            nxt = set()
            for t in level:
                r = (t + 1) / beta
                if 0 < r <= 1:
                    nxt.add(r)
                l = (t - 1) / beta
                if -1 <= l < 0:
                    nxt.add(l)
            breaks |= nxt
            level = nxt
        return len(breaks) + 1

    oracle = math.log(laps(14) / laps(13))
    elapsed = time.monotonic() - t0
    print("criterion 1: transfer=%.6f separated=%.6f lap_oracle=%.6f "
          "log_beta=%.6f elapsed=%.1fs"
          % (transfer, separated, oracle, LOG_BETA, elapsed))
    assert abs(transfer - LOG_BETA) <= 0.01 * LOG_BETA
    assert abs(separated - LOG_BETA) <= 0.05 * LOG_BETA
    assert abs(oracle - LOG_BETA) <= 0.02 * LOG_BETA
    assert abs(transfer - oracle) <= 0.03 * LOG_BETA
    assert elapsed < 60.0


def test_criterion_2_variational_suite(lmap):
    t0 = time.monotonic()
    worst_over = -math.inf
    worst_deficit = -math.inf
    for seed in range(20):
        pot = SectionGridPotential.seeded(seed)
        transfer = pressure_transfer(lmap, pot, depth=12).value
        catalog = build_catalog(lmap, pot)
        values = [pressure_measure(m, pot) for m in catalog
                  if not isinstance(m, SingularDeltaMeasure)]
        eq = next(m for m in catalog if m.id == "markov:d12:g0.002:t1")
        p_eq = pressure_measure(eq, pot)
        worst_over = max(worst_over, max(values) - transfer)
        worst_deficit = max(worst_deficit, transfer - p_eq)
        assert max(values) <= transfer + 0.02, "seed %d" % seed
        assert p_eq >= transfer - 0.02, "seed %d" % seed
    elapsed = time.monotonic() - t0
    print("criterion 2: worst sup-transfer=%.5f worst transfer-eq=%.5f "
          "elapsed=%.1fs" % (worst_over, worst_deficit, elapsed))
    assert elapsed < 300.0


def test_criterion_3_intermediate_realization(lmap, coord, roof):
    t0 = time.monotonic()
    catalog = build_catalog(lmap, coord)
    summary = []
    for level, tol, replay_depth in (("map", 1e-3, 20), ("flow", 1e-2, 18)):
        use_roof = roof if level == "flow" else None
        p_inf, p_top = estimate_P_bounds(catalog, coord, level=level,
                                         roof=use_roof)
        targets = [p_inf + k * (p_top - p_inf) / 10.0 for k in range(1, 10)]
        worst = 0.0
        for target in targets:
            req = TargetRequest(lmap, coord, target, tol, level=level,
                                roof=use_roof, catalog=catalog)
            nu = realize_intermediate(req)
            assert isinstance(nu, MarkovMeasure)
            replay = pressure_measure(nu, coord, level=level, roof=use_roof,
                                      depth=replay_depth)
            err = abs(replay - target)
            worst = max(worst, err)
            assert err <= tol, "%s target %.4f err %.2e" % (level, target, err)
        summary.append("%s worst=%.2e (tol %g)" % (level, worst, tol))
    elapsed = time.monotonic() - t0
    print("criterion 3: %s elapsed=%.1fs" % ("; ".join(summary), elapsed))
    assert elapsed < 300.0


def test_criterion_4_gap_reproduction(lmap, roof):
    t0 = time.monotonic()
    h_top = h_top_estimate(lmap)
    bump = build_gap_potential(h_top, 0.05, 0.1, lmap=lmap, roof=roof)
    L = bump.value_at_sigma()
    assert L == pytest.approx(4.2 * h_top, rel=1e-12)

    population = (build_catalog(lmap, bump, GAP_CORE_RECIPE)
                  + build_catalog(lmap, bump, GAP_DEMONSTRATOR_RECIPE)
                  + [SingularDeltaMeasure()])
    report = verify_gap(lmap, roof, bump, population, slack=1e-2)
    assert report.delta_pressure == L
    assert report.sup_satisfying <= 0.5 * L + 1e-2
    assert report.certified

    scan = spectrum_scan(bump, population, level="flow", roof=roof)
    assert scan.gap_size >= 0.5 * L - 2e-2
    assert scan.measures_above_gap() == ["delta_sigma"]

    flagged = [mid for mid in report.flagged_ids() if mid != "delta_sigma"]
    assert flagged, "no deliberately near-singular measure was flagged"
    by_id = {r["measure_id"]: r for r in report.rows}
    for mid in flagged:
        assert by_id[mid]["ball_fraction"] >= 0.25
    elapsed = time.monotonic() - t0
    print("criterion 4: L=%.6f sup_satisfying=%.6f gap=%.6f flagged=%s "
          "elapsed=%.1fs"
          % (L, report.sup_satisfying, scan.gap_size, flagged, elapsed))
    assert elapsed < 120.0


def test_criterion_5_closed_forms(lmap, coord):
    # atomic entropy is exactly zero
    atom = AtomicMeasure(lmap, find_periodic_point(lmap, "LRR"))
    assert entropy_map(atom) == 0.0

    # Bernoulli(1/2) on the full 2-shift has entropy log 2
    shift2 = build_horseshoe(lmap, 1, 0.0)
    bern = MarkovMeasure(lmap, shift2, np.full((2, 2), 0.5),
                         np.array([0.5, 0.5]))
    assert abs(entropy_map(bern) - math.log(2.0)) <= 1e-12

    # golden-mean Parry measure has entropy log((1+sqrt 5)/2)
    golden = horseshoe_from_adjacency(1, ["L", "R"], [[1, 1], [1, 0]], lmap)
    parry = equilibrium_measure(lmap, golden, ConstantPotential(0.0), t=0.0)
    golden_h = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    assert abs(entropy_map(parry) - golden_h) <= 1e-10

    # constant roof: h_flow * c0 equals h_map
    flat = RoofFunction(c0=2.3, c1=0.0, eta0=0.5)
    stats = suspend(bern, flat, coord)
    assert abs(stats.h_flow * 2.3 - entropy_map(bern)) <= 1e-12

    # constant-shift equivariance for all three estimators
    class Shifted:
        def __init__(self, base, c):
            self.base, self.c = base, c

        def value(self, x):
            return self.base.value(x) + self.c

        def midpoint_error(self, lo, hi):
            return self.base.midpoint_error(lo, hi)

        def lipschitz_bound(self):
            return self.base.lipschitz_bound()

        def value_at_sigma(self):
            return self.base.value_at_sigma() + self.c

    c = 0.29
    shifted = Shifted(coord, c)
    d_transfer = (pressure_transfer(lmap, shifted, depth=10).value
                  - pressure_transfer(lmap, coord, depth=10).value)
    d_separated = (pressure_separated(lmap, shifted, 12, 1e-2).value
                   - pressure_separated(lmap, coord, 12, 1e-2).value)
    d_measure = (pressure_measure(bern, shifted)
                 - pressure_measure(bern, coord))
    for d in (d_transfer, d_separated, d_measure):
        assert abs(d - c) <= 1e-9
    print("criterion 5: bernoulli=%.15f golden=%.15f shifts=(%.2e, %.2e, "
          "%.2e)" % (entropy_map(bern), entropy_map(parry),
                     d_transfer - c, d_separated - c, d_measure - c))


def test_criterion_6_small_scale_oracle(lmap):
    worst_ratio = 0.0
    for seed in range(10):
        pot = SectionGridPotential.seeded(seed)
        for depth in (3, 4, 5, 6):
            est = pressure_transfer(lmap, pot, depth=depth)
            level = cylinder_levels(lmap, depth)[depth]
            spans = dict(zip(admissible_words(lmap, depth),
                             zip(level.lo.tolist(), level.hi.tolist())))
            total = 0.0
            for w in admissible_words(lmap, depth):
                lo, hi = spans[w]
                x = 0.5 * (lo + hi)
                s = 0.0
                for _ in range(depth):
                    s += float(pot.value(x))
                    x = lmap(x)
                total += math.exp(s)
            brute = math.log(total) / depth
            diff = abs(brute - est.value)
            worst_ratio = max(worst_ratio, diff / est.slack)
            assert diff <= est.slack, \
                "seed %d depth %d: |%.5f - %.5f| > slack %.5f" \
                % (seed, depth, brute, est.value, est.slack)
    print("criterion 6: worst |brute-transfer|/slack = %.3f" % worst_ratio)


def test_criterion_8_repro_determinism(tmp_path):
    t0 = time.monotonic()
    outs = []
    for tag in ("one", "two"):
        out = str(tmp_path / tag)
        code = run(["--out", out, "repro", "--suite", "all"])
        assert code == 0
        outs.append(out)
    names = sorted(n for n in os.listdir(outs[0]) if n.startswith("repro_"))
    assert "repro_summary.json" in names
    for name in names:
        ref = open(os.path.join(outs[0], name), "rb").read()
        for out in outs[1:]:
            assert open(os.path.join(out, name), "rb").read() == ref, \
                "%s differs between %s and %s" % (name, outs[0], out)
    with open(os.path.join(outs[0], "repro_summary.json")) as fh:
        summary = json.load(fh)
    assert summary["passed"] is True
    elapsed = time.monotonic() - t0
    print("criterion 8: %d payload files byte-identical across runs; "
          "%d checks pass; elapsed=%.1fs"
          % (len(names), len(summary["checks"]), elapsed))


def test_criterion_8_payloads_do_not_depend_on_eviction(monkeypatch,
                                                        fresh_model_cache,
                                                        lmap):
    # each run starts from an empty model store; a memo of one key evicts
    # on nearly every insert, so every state, scheme and integral a suite
    # asks for again is recomputed, and must come out bit for bit
    def payloads():
        fresh_model_cache(lmap)
        return json.dumps(run_suite("all", default_config())[0],
                          sort_keys=True)

    default = payloads()
    monkeypatch.setattr(symbolic, "CACHE_LIMIT", 1)
    assert payloads() == default
