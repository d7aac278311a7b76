"""Spectrum reports, gap certification, realization."""

import collections
import math

import numpy as np
import pytest

from geolorenz import measures, spectrum
from geolorenz import (
    AtomicMeasure,
    BracketFailureError,
    ConstantPotential,
    ConvexMeasure,
    CoordinatePotential,
    EtaTooLargeError,
    LorenzMap1D,
    MarkovMeasure,
    PreconditionError,
    RoofFunction,
    SectionGridPotential,
    SingularBumpPotential,
    SingularDeltaMeasure,
    TargetRequest,
    build_catalog,
    build_horseshoe,
    build_gap_potential,
    convex_combine,
    entropy_map,
    equilibrium_measure,
    estimate_P_bounds,
    find_periodic_point,
    h_top_estimate,
    parse_potential_spec,
    pressure_measure,
    realize_intermediate,
    spectrum_scan,
    verify_gap,
)
from geolorenz.catalog import (DEFAULT_RECIPE, GAP_CORE_RECIPE,
                               GAP_DEMONSTRATOR_RECIPE, CatalogRecipe)
from geolorenz.model import dwell_array, roof_array
from geolorenz.pressure import catalog_pressures
from word_oracles import horseshoe_from_adjacency

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class Shifted:
    """A duck-typed potential plus a constant; map level only (it has no
    passage integral)."""

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


@pytest.fixture(scope="module")
def golden_sft(lmap):
    # hand-built golden-mean shift: forbid the RR transition
    return horseshoe_from_adjacency(1, ["L", "R"], [[1, 1], [1, 0]], lmap)


def golden_chain(lmap, golden_sft, p):
    probs = np.array([[1.0 - p, p], [1.0, 0.0]])
    stationary = np.array([1.0, p]) / (1.0 + p)
    return MarkovMeasure(lmap, golden_sft, probs, stationary)


def test_golden_mean_parry_closed_form(lmap, golden_sft):
    eq = equilibrium_measure(lmap, golden_sft, ConstantPotential(0.0), t=0.0)
    assert entropy_map(eq) == pytest.approx(math.log(GOLDEN), abs=1e-10)


def test_golden_mean_family_closed_form(lmap, golden_sft):
    # entropy of the one-parameter chain is H(p) / (1 + p)
    for p in (0.05, 0.2, 1.0 / GOLDEN ** 2, 0.5, 0.9):
        mu = golden_chain(lmap, golden_sft, p)
        closed = (-(p * math.log(p) + (1 - p) * math.log(1 - p))) / (1 + p)
        assert entropy_map(mu) == pytest.approx(closed, abs=1e-12)


def test_golden_mean_entropy_bisection(lmap, golden_sft):
    # prescribe an entropy strictly inside (0, log golden) and bisect the
    # increasing branch of the family; the closed form is the oracle
    p_star = 1.0 / GOLDEN ** 2
    for target in (0.1, 0.3, 0.45):
        lo, hi = 1e-9, p_star
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if entropy_map(golden_chain(lmap, golden_sft, mid)) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        found = golden_chain(lmap, golden_sft, 0.5 * (lo + hi))
        assert entropy_map(found) == pytest.approx(target, abs=1e-6)


def test_target_request_validation(lmap, coord, roof):
    with pytest.raises(PreconditionError):
        TargetRequest(lmap, coord, 0.1, 0.0)
    with pytest.raises(PreconditionError):
        TargetRequest(lmap, coord, 0.1, 1e-3, level="orbit")
    with pytest.raises(PreconditionError):
        TargetRequest(lmap, coord, 0.1, 1e-3, level="flow")  # roof missing
    with pytest.raises(PreconditionError):
        TargetRequest(lmap, coord, math.inf, 1e-3)
    with pytest.raises(PreconditionError):
        TargetRequest(lmap, coord, 0.1, 1e-3, gap_schedule=())
    req = TargetRequest(lmap, coord, 0.1, 1e-3, level="flow", roof=roof)
    assert req.target == 0.1 and req.roof is roof


def test_realize_rejects_boundary_targets(lmap, coord):
    catalog = build_catalog(lmap, coord)
    _, p_top = estimate_P_bounds(catalog, coord)
    req = TargetRequest(lmap, coord, p_top, 1e-3, catalog=catalog)
    with pytest.raises(PreconditionError):
        realize_intermediate(req)


def test_realize_hits_interior_target_with_replay(lmap, coord):
    catalog = build_catalog(lmap, coord)
    req = TargetRequest(lmap, coord, 0.1, 1e-3, catalog=catalog)
    nu = realize_intermediate(req)
    assert isinstance(nu, MarkovMeasure)
    # independent replay at a deeper integration
    replay = pressure_measure(nu, coord, depth=20)
    assert abs(replay - 0.1) <= 1e-3


def test_realize_bracket_failure_reports_range(lmap, coord):
    # on the far horseshoe only the two-cycle survives, so the family
    # cannot reach an interior target and must say what it achieved
    catalog = build_catalog(lmap, coord)
    req = TargetRequest(lmap, coord, 0.3, 1e-3, catalog=catalog,
                        gap_schedule=(0.2,), depth=10)
    with pytest.raises(BracketFailureError,
                       match="target lies above that range") as err:
        realize_intermediate(req)
    lo, hi = err.value.achieved_range
    assert lo <= hi < 0.3


def test_realize_bracket_failure_target_below_range(lmap):
    # at 90% of its catalog interval (0.50338 at beta = 1.7) the families
    # of grid:seed:0 over t in [T_LO, T_HI] stay above the target, so the
    # failure is on the low side, not near the catalog top
    phi = SectionGridPotential.seeded(0)
    catalog = build_catalog(lmap, phi)
    _, values = catalog_pressures(catalog, phi, level="map")
    target = min(values) + 0.9 * (max(values) - min(values))
    req = TargetRequest(lmap, phi, target, 1e-3, catalog=catalog)
    with pytest.raises(BracketFailureError,
                       match="target lies below that range") as err:
        realize_intermediate(req)
    lo, hi = err.value.achieved_range
    assert target < lo <= hi


def test_realize_bracket_failure_when_no_family_evaluates(lmap):
    # at amplitude 300 the weights at t = T_LO span e^3600 and underflow,
    # so every family's Perron solve fails and no pressure is achieved
    phi = SectionGridPotential([-1.0, 1.0], [-300.0, 300.0], 300.0)
    catalog = build_catalog(lmap, phi, CatalogRecipe(periods=(1, 2, 3)))
    _, values = catalog_pressures(catalog, phi, level="map")
    req = TargetRequest(lmap, phi, 0.5 * (min(values) + max(values)), 1e-3,
                        catalog=catalog)
    with pytest.raises(BracketFailureError,
                       match="no family could be evaluated") as err:
        realize_intermediate(req)
    assert err.value.achieved_range == (math.inf, -math.inf)


def test_target_request_rejects_fractional_depth(lmap, coord):
    # a horseshoe depth, as build_horseshoe takes it: never truncated
    with pytest.raises(PreconditionError, match="horseshoe depth 12.5"):
        TargetRequest(lmap, coord, 0.1, 1e-3, depth=12.5)


def test_target_request_rejects_infinite_tolerance(lmap, coord):
    with pytest.raises(PreconditionError, match="finite and positive"):
        TargetRequest(lmap, coord, 0.1, math.inf)


@pytest.mark.parametrize("x_gap", [1.0, -0.01, math.nan])
def test_target_request_rejects_gap_outside_unit_interval(lmap, coord, x_gap):
    # checked when the request is built, before any catalog pressure
    with pytest.raises(PreconditionError, match="not in \\[0, 1\\)"):
        TargetRequest(lmap, coord, 0.1, 1e-3, gap_schedule=(0.05, x_gap))


def _bisection_evaluations(req, horseshoe):
    """Interior family evaluations that plain bisection of [T_LO, T_HI]
    makes on `horseshoe` before it lands within 0.3 * tolerance: the
    oracle the secant refinement of `realize_intermediate` must beat."""
    def value(t):
        eq = equilibrium_measure(req.lmap, horseshoe, req.potential, t=t)
        return pressure_measure(eq, req.potential, level=req.level,
                                roof=req.roof, depth=spectrum.EVAL_DEPTH)

    lo_t, hi_t = spectrum.T_LO, spectrum.T_HI
    f_lo = value(lo_t) - req.target
    for count in range(1, 61):
        mid_t = 0.5 * (lo_t + hi_t)
        f_m = value(mid_t) - req.target
        if abs(f_m) <= 0.3 * req.tolerance:
            return count
        if f_m * f_lo <= 0.0:
            hi_t = mid_t
        else:
            lo_t, f_lo = mid_t, f_m
    return 60


def _recording_family(monkeypatch):
    """Wrap `spectrum`'s family evaluations; returns the list of
    (t, pressure at EVAL_DEPTH) pairs in the order they are made."""
    calls = []

    def recorded_equilibrium(*args, **kwargs):
        calls.append([kwargs["t"], None])
        return equilibrium_measure(*args, **kwargs)

    def recorded_pressure(measure, potential, **kwargs):
        value = pressure_measure(measure, potential, **kwargs)
        if kwargs["depth"] == spectrum.EVAL_DEPTH:
            calls[-1][1] = value
        return value

    monkeypatch.setattr(spectrum, "equilibrium_measure",
                        recorded_equilibrium)
    monkeypatch.setattr(spectrum, "pressure_measure", recorded_pressure)
    return calls


@pytest.mark.parametrize("level", ["map", "flow"])
def test_realize_refinement_beats_bisection(monkeypatch, lmap, coord, roof,
                                            level):
    roof = roof if level == "flow" else None
    tol = {"map": 1e-3, "flow": 1e-2}[level]
    catalog = build_catalog(lmap, coord)
    _, values = catalog_pressures(catalog, coord, level=level, roof=roof)
    p_inf, p_top = min(values), max(values)
    calls = _recording_family(monkeypatch)
    totals = [0, 0]
    for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
        req = TargetRequest(lmap, coord, p_inf + fraction * (p_top - p_inf),
                            tol, level=level, roof=roof, catalog=catalog)
        del calls[:]
        nu = realize_intermediate(req)
        interior = [(t, v) for t, v in calls
                    if t not in (spectrum.T_LO, spectrum.T_HI)]
        # every interior t lies strictly inside the bracket current at
        # its step; a horseshoe's end evaluations open a new bracket
        for t, v in calls:
            if t == spectrum.T_LO:
                lo_t, hi_t, f_lo = t, spectrum.T_HI, v - req.target
            elif t != spectrum.T_HI:
                assert lo_t < t < hi_t
                if (v - req.target) * f_lo <= 0.0:
                    hi_t = t
                else:
                    lo_t, f_lo = t, v - req.target
        x_gap = float(nu.label.split(":")[1][1:])
        oracle = _bisection_evaluations(
            req, build_horseshoe(lmap, req.depth, x_gap))
        assert len(interior) <= oracle
        totals[0] += len(interior)
        totals[1] += oracle
    assert totals[0] <= 0.7 * totals[1]


def test_realize_label_names_the_exact_t(lmap, coord):
    catalog = build_catalog(lmap, coord)
    req = TargetRequest(lmap, coord, 0.1, 1e-3, catalog=catalog)
    nu = realize_intermediate(req)
    _, gap, t = nu.label.split(":")
    assert gap.startswith("g") and t.startswith("t")
    eq = equilibrium_measure(
        lmap, build_horseshoe(lmap, req.depth, float(gap[1:])), coord,
        t=float(t[1:]))
    assert eq.probs.tobytes() == nu.probs.tobytes()
    assert eq.stationary.tobytes() == nu.stationary.tobytes()


def test_realize_does_not_depend_on_call_history(fresh_model_cache, lmap,
                                                 coord):
    catalog = build_catalog(lmap, coord)

    def realize(target):
        nu = realize_intermediate(
            TargetRequest(lmap, coord, target, 1e-3, catalog=catalog))
        return nu.label, nu.probs.tobytes(), nu.stationary.tobytes()

    cold = realize(0.1)
    fresh_model_cache(lmap)
    for target in (-0.2, 0.3, 0.05):
        realize(target)
    assert realize(0.1) == cold


def test_realize_pass_computes_few_masses_twice(fresh_model_cache,
                                                monkeypatch):
    # the benchmark's realize pass at seed 11 integrates 32 distinct
    # (scheme, measure) pairs. With the integrals memoized on each
    # measure, masses are computed again only where a measure meets new
    # integrands: the flow bounds and requests integrate the roof and the
    # passage over measures that the map ones integrated the potential
    # over. Without the memo the pass makes 67 calls
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    import geolorenz

    calls = collections.Counter()
    masses = measures._CylinderScheme.masses

    def counted(self, stationary, probs):
        calls[id(self), stationary.tobytes(), probs.tobytes()] += 1
        return masses(self, stationary, probs)

    monkeypatch.setattr(measures._CylinderScheme, "masses", counted)
    ops = workloads.run_realize(
        geolorenz, workloads.make_inputs("realize", 11))
    assert [op["ok"] for op in ops] == [True] * 6
    assert len(calls) == 32 and sum(calls.values()) <= 37


def test_build_gap_potential_guards(lmap):
    h = h_top_estimate(lmap)
    with pytest.raises(PreconditionError):
        build_gap_potential(0.0, 0.05, 0.1, lmap=lmap)
    with pytest.raises(PreconditionError):
        build_gap_potential(h, 0.0, 0.1, lmap=lmap)


def test_eta_too_large_names_the_offender(lmap):
    h = h_top_estimate(lmap)
    catalog = [AtomicMeasure(lmap, find_periodic_point(lmap, "LRR"))]
    with pytest.raises(EtaTooLargeError) as err:
        build_gap_potential(h, 0.05, 0.1, catalog=catalog)
    assert err.value.offending_measure == catalog[0].id


def test_gap_core_population_passes_eta_check(lmap):
    h = h_top_estimate(lmap)
    bump = build_gap_potential(h, 0.05, 0.1, lmap=lmap)
    assert isinstance(bump, SingularBumpPotential)
    assert bump.value_at_sigma() == pytest.approx(4.2 * h, rel=1e-12)


def test_verify_gap_certifies_core_and_flags_demonstrators(lmap, roof):
    h = h_top_estimate(lmap)
    bump = build_gap_potential(h, 0.05, 0.1, lmap=lmap)
    core = build_catalog(lmap, bump, GAP_CORE_RECIPE)
    demo = build_catalog(lmap, bump, GAP_DEMONSTRATOR_RECIPE)
    report = verify_gap(lmap, roof, bump, core + demo)
    assert report.certified
    assert report.delta_pressure == report.L
    assert report.sup_satisfying <= 0.5 * report.L + report.slack
    flagged = set(report.flagged_ids())
    assert {m.id for m in demo} <= flagged
    # the Dirac row is appended, flagged by convention, never certified
    ids = [r["measure_id"] for r in report.rows]
    assert "delta_sigma" in ids
    assert ids == sorted(ids)
    for row in report.rows:
        assert set(row) == {"measure_id", "entropy_map", "mean_roof",
                            "h_flow", "integral", "pressure",
                            "ball_fraction", "hypothesis_flag"}


def test_gap_certification_monotone_in_level(lmap, roof):
    h = h_top_estimate(lmap)
    bump = build_gap_potential(h, 0.05, 0.1, lmap=lmap)
    core = build_catalog(lmap, bump, GAP_CORE_RECIPE)
    low = verify_gap(lmap, roof, bump, core)
    assert low.certified
    for L2 in (1.2 * low.L, 2.0 * low.L):
        bigger = SingularBumpPotential(L2, 0.1)
        high = verify_gap(lmap, roof, bigger, core)
        assert high.certified
        assert high.delta_pressure == L2


def test_verify_gap_uncertified_when_level_too_low(lmap, roof):
    # at L = 0.5 the core members' flow entropy alone exceeds L/2
    bump = SingularBumpPotential(0.5, 0.1)
    core = build_catalog(lmap, bump, GAP_CORE_RECIPE)
    report = verify_gap(lmap, roof, bump, core)
    assert not report.certified
    assert report.delta_pressure == 0.5


def test_spectrum_scan_sorted_with_attained_gap(lmap, coord):
    catalog = build_catalog(lmap, coord)
    report = spectrum_scan(coord, catalog, level="map")
    values = [v for _, v in report.entries]
    assert values == sorted(values)
    assert report.p_inf_est == values[0]
    assert report.p_top_est == values[-1]
    lo, hi = report.gap_interval
    assert lo in values and hi in values
    assert report.gap_size == pytest.approx(
        max(b - a for a, b in zip(values, values[1:])), abs=1e-15)
    # the Dirac has no map-level entry
    assert all(mid != "delta_sigma" for mid, _ in report.entries)


def test_spectrum_argmax_invariant_under_shift(lmap, coord):
    catalog = build_catalog(lmap, coord)
    base = spectrum_scan(coord, catalog, level="map")
    shifted = spectrum_scan(Shifted(coord, 0.4), catalog, level="map")
    v0 = dict(base.entries)
    v1 = dict(shifted.entries)
    assert set(v0) == set(v1)
    for mid in v0:
        assert v1[mid] - v0[mid] == pytest.approx(0.4, abs=1e-10)

    def neighbors(report):
        lo, hi = report.gap_interval
        return ({mid for mid, v in report.entries if abs(v - lo) < 1e-9},
                {mid for mid, v in report.entries if abs(v - hi) < 1e-9})

    assert neighbors(base) == neighbors(shifted)
    assert shifted.gap_interval[0] - base.gap_interval[0] == pytest.approx(
        0.4, abs=1e-10)


# ---------------------------------------------------------------------------
# catalog passes against the per-member formulas they replaced

def _member_integral(integrand, m, depth=12):
    """One measure at a time: the orbit mean of an atom, the scheme
    masses against the midpoint values of a Markov measure, and a
    mixture's weighted sum from 0.0 in component order."""
    if isinstance(m, AtomicMeasure):
        pts = m.points()
        return float(np.mean(integrand.value(pts)))
    if isinstance(m, ConvexMeasure):
        value = 0.0
        for w, comp in m.components:
            value += w * _member_integral(integrand, comp, depth)
        return value
    scheme = measures._scheme(m.lmap, m.horseshoe, depth)
    mass = scheme.masses(m.stationary, m.probs)
    return float(np.add.reduce(mass * np.asarray(
        integrand.value(scheme.mid))))


def _member_flow(m, phi, roof, b):
    """(mean roof, h_flow, integral, pressure, ball fraction) of one measure."""
    if isinstance(m, SingularDeltaMeasure):
        return math.inf, 0.0, phi.value_at_sigma(), \
            0.0 + phi.value_at_sigma(), 1.0
    mean_roof = _member_integral(
        measures._RoofIntegrand("roof", roof_array, roof), m)
    passage = _member_integral(measures._PassageIntegrand(phi, roof), m)
    dwell = _member_integral(
        measures._RoofIntegrand("dwell", dwell_array, roof, b), m)
    h_flow = entropy_map(m) / mean_roof
    integral = passage / mean_roof
    bf = float(min(max(dwell / mean_roof, 0.0), 1.0))
    return mean_roof, h_flow, integral, h_flow + integral, bf


def _member_pressure(m, phi, level, roof):
    if level == "map":
        return entropy_map(m) + _member_integral(phi, m)
    return _member_flow(m, phi, roof, 0.2)[3]


ORACLE_POTENTIALS = ("coord:x", "grid:seed:11", "bump:0.5,0.1", "const:0.25",
                     "shifted")


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (1.0, 1.95),
                                         (0.8, 1.99)])
def test_catalog_passes_equal_per_member_formulas(alpha, beta, roof):
    lmap = LorenzMap1D(alpha, beta)
    for spec in ORACLE_POTENTIALS:
        phi = (Shifted(CoordinatePotential(), 0.4) if spec == "shifted"
               else parse_potential_spec(spec))
        catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
        atom = next(m for m in catalog if isinstance(m, AtomicMeasure))
        markov = [m for m in catalog if isinstance(m, MarkovMeasure)]
        catalog.append(convex_combine(
            [(0.3, atom), (0.5, markov[1]), (0.2, markov[0])],
            label="convex:mixed"))
        # the passage integral is flow-level only; Shifted has none
        levels = ("map",) if spec == "shifted" else ("map", "flow")
        for level in levels:
            use_roof = roof if level == "flow" else None
            expected = {m.id: _member_pressure(m, phi, level, roof)
                        for m in catalog
                        if level == "flow"
                        or not isinstance(m, SingularDeltaMeasure)}
            scan = spectrum_scan(phi, catalog, level=level, roof=use_roof)
            assert dict(scan.entries) == expected, (spec, level)
            assert estimate_P_bounds(catalog, phi, level=level,
                                     roof=use_roof) == (
                min(expected.values()), max(expected.values()))
            for m in catalog:
                if m.id in expected:
                    assert pressure_measure(m, phi, level=level,
                                            roof=use_roof) == \
                        expected[m.id], (spec, level, m.id)
        if spec.startswith("bump"):
            report = verify_gap(lmap, roof, phi, catalog)
            for row in report.rows:
                m = next(c for c in catalog if c.id == row["measure_id"])
                assert (row["mean_roof"], row["h_flow"], row["integral"],
                        row["pressure"], row["ball_fraction"]) == \
                    _member_flow(m, phi, roof, 2.0 * phi.eta), row


def test_spectrum_scan_evaluates_each_integrand_once_per_catalog(
        lmap, roof, fresh_model_cache, monkeypatch):
    # per integrand: one value call for all the atoms together and one per
    # distinct cylinder scheme, whose bound is also evaluated once. Every
    # integrand here has a key: cold orbit records (a fresh model store)
    # and cold measures compute its integrals once, and a later scan of
    # the same potential, under an equal roof at flow level, reads them
    # back
    phi = SectionGridPotential.seeded(2)
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    markov = [m for m in catalog if isinstance(m, MarkovMeasure)]
    schemes = {id(measures._scheme(lmap, m.horseshoe, 12)) for m in markov}
    assert len(markov) == 2 and len(schemes) == 1
    calls = collections.Counter()
    # the integrator's own calls: the bounds of the roof integrand and the
    # passage integral of the grid call `value` in turn, uncounted
    inside = [0]

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            if not inside[0]:
                calls[cls.__name__, name] += 1
            inside[0] += 1
            try:
                return original(self, *args)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (SectionGridPotential, measures._RoofIntegrand,
                measures._PassageIntegrand):
        counted(cls, "value")
        counted(cls, "midpoint_error")
    spectrum_scan(phi, catalog, level="map")
    assert calls == {("SectionGridPotential", "value"): 1 + len(schemes),
                     ("SectionGridPotential", "midpoint_error"): len(schemes)}
    calls.clear()
    spectrum_scan(phi, catalog, level="map")
    assert calls == {}
    # the Dirac's value at the singularity, its flow convention, is read
    # on every scan
    sigma = {("SectionGridPotential", "value"): 1}
    # the passage and the roof under a roof not met before
    new_roof = {("_PassageIntegrand", "value"): 1 + len(schemes),
                ("_PassageIntegrand", "midpoint_error"): len(schemes),
                ("_RoofIntegrand", "value"): 1 + len(schemes),
                ("_RoofIntegrand", "midpoint_error"): len(schemes)}
    for flow_roof, integrand_calls in (
            (roof, new_roof),
            # equal to the first roof but a distinct object: a cache hit
            (RoofFunction(roof.c0, roof.c1, roof.eta0), {}),
            (roof.scaled(2.0), new_roof),
            (RoofFunction(roof.c0, roof.c1, 0.25), new_roof)):
        calls.clear()
        spectrum_scan(phi, catalog, level="flow", roof=flow_roof)
        assert calls == {**sigma, **integrand_calls}
