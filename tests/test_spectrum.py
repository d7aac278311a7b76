"""Spectrum reports, gap certification, case reduction, realization."""

import collections
import math

import numpy as np
import pytest

from geolorenz import measures
from geolorenz import (
    AtomicMeasure,
    BracketFailureError,
    ConstantPotential,
    ConvexMeasure,
    CoordinatePotential,
    EtaTooLargeError,
    LorenzMap1D,
    MarkovMeasure,
    NoWitnessError,
    PreconditionError,
    RoofFunction,
    SectionGridPotential,
    SFTHorseshoe,
    SingularBumpPotential,
    SingularDeltaMeasure,
    TargetRequest,
    build_catalog,
    build_gap_potential,
    convex_combine,
    entropy_map,
    equilibrium_measure,
    estimate_P_bounds,
    find_periodic_point,
    h_top_estimate,
    integrate_map,
    parse_potential_spec,
    pressure_measure,
    realize_intermediate,
    reduce_to_essential_case,
    spectrum_scan,
    verify_gap,
)
from geolorenz.catalog import (DEFAULT_RECIPE, GAP_CORE_RECIPE,
                               GAP_DEMONSTRATOR_RECIPE)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class Shifted:
    """A duck-typed potential plus a constant; map level only (it has no
    passage integral)."""

    def __init__(self, base, c):
        self.base, self.c = base, c

    def value(self, x, y=0.0):
        return self.base.value(x, y) + self.c

    def midpoint_error(self, lo, hi):
        return self.base.midpoint_error(lo, hi)

    def lipschitz_bound(self):
        return self.base.lipschitz_bound()

    def value_at_sigma(self):
        return self.base.value_at_sigma() + self.c


@pytest.fixture(scope="module")
def golden_sft(lmap):
    # hand-built golden-mean shift: forbid the RR transition
    return SFTHorseshoe.from_adjacency(
        1, ["L", "R"], [[1, 1], [1, 0]], lmap)


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
    with pytest.raises(BracketFailureError) as err:
        realize_intermediate(req)
    lo, hi = err.value.achieved_range
    assert lo <= hi < 0.3


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


def _margins(mu, potential, P):
    I, _ = integrate_map(potential, mu, 12)
    h = entropy_map(mu)
    return P - I, (h + I) - P


def test_reduce_identity_when_already_strict(lmap, coord):
    catalog = build_catalog(lmap, coord)
    parry = next(m for m in catalog if m.id == "markov:d12:g0.002:t0")
    I, _ = integrate_map(coord, parry, 12)
    P = I + 0.25  # comfortably interior
    out = reduce_to_essential_case(parry, coord, P, catalog)
    assert out is parry


def test_reduce_rejects_nonmember(lmap, coord):
    catalog = build_catalog(lmap, coord)
    parry = next(m for m in catalog if m.id == "markov:d12:g0.002:t0")
    I, _ = integrate_map(coord, parry, 12)
    with pytest.raises(PreconditionError):
        reduce_to_essential_case(parry, coord, I - 0.5, catalog)


def test_reduce_tight_pressure_side(lmap, coord):
    catalog = build_catalog(lmap, coord)
    parry = next(m for m in catalog if m.id == "markov:d12:g0.002:t0")
    low, high = _margins(parry, coord, 0.0)
    P = entropy_map(parry) + integrate_map(coord, parry, 12)[0] - 1e-4
    nu = reduce_to_essential_case(parry, coord, P, catalog, tol=1e-2)
    low, high = _margins(nu, coord, P)
    assert low >= 1e-2 / 4.0 - 1e-12
    assert high >= 1e-2 / 4.0 - 1e-12


def test_reduce_no_witness_above(lmap, coord):
    # a catalog with no high-pressure member cannot lift the pressure side
    atoms = [AtomicMeasure(lmap, find_periodic_point(lmap, w))
             for w in ("LR", "LRR")]
    mu = atoms[0]
    I, _ = integrate_map(coord, mu, 12)
    with pytest.raises(NoWitnessError):
        reduce_to_essential_case(mu, coord, I, atoms, tol=1e-2)


# ---------------------------------------------------------------------------
# catalog passes against the per-member formulas they replaced

def _member_integral(integrand, m, depth=12):
    """One measure at a time: the orbit mean of an atom, the scheme
    masses against the midpoint values of a Markov measure, and a
    mixture's weighted sum from 0.0 in component order."""
    if isinstance(m, AtomicMeasure):
        pts = m.points()
        return float(np.mean(integrand.value(pts, np.zeros_like(pts))))
    if isinstance(m, ConvexMeasure):
        value = 0.0
        for w, comp in m.components:
            value += w * _member_integral(integrand, comp, depth)
        return value
    scheme = measures._scheme(m.lmap, m.horseshoe, depth)
    mass = scheme.masses(m.stationary, m.probs)
    return float(np.add.reduce(mass * np.asarray(integrand.value(
        scheme.mid, np.zeros_like(scheme.mid)))))


def _member_flow(m, phi, roof, b):
    """(mean roof, h_flow, integral, pressure, ball fraction) of one measure."""
    if isinstance(m, SingularDeltaMeasure):
        return math.inf, 0.0, phi.value_at_sigma(), \
            0.0 + phi.value_at_sigma(), 1.0
    mean_roof = _member_integral(measures._RoofIntegrand(roof), m)
    passage = _member_integral(measures._PassageIntegrand(phi, roof), m)
    dwell = _member_integral(measures._DwellIntegrand(roof, b), m)
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
            bounds = estimate_P_bounds(catalog, phi, level=level,
                                       roof=use_roof)
            assert (bounds.p_inf, bounds.p_top) == (
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
    # distinct cylinder scheme, whose bound is also evaluated once. The
    # roof's integrals are model-only work: cold orbit records (a fresh
    # model store) and cold schemes compute them once, and a later scan
    # under an equal roof reads them back
    monkeypatch.setattr(measures, "_scheme_cache", {})
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
    # plus the Dirac's value at the singularity, its flow convention
    passage = {("SectionGridPotential", "value"): 1,
               ("_PassageIntegrand", "value"): 1 + len(schemes),
               ("_PassageIntegrand", "midpoint_error"): len(schemes)}
    first_roof = {("_RoofIntegrand", "value"): 1 + len(schemes),
                  ("_RoofIntegrand", "midpoint_error"): len(schemes)}
    for flow_roof, roof_calls in (
            (roof, first_roof),
            # equal to the first roof but a distinct object: a cache hit
            (RoofFunction(roof.c0, roof.c1, roof.eta0), {}),
            (roof.scaled(2.0), first_roof),
            (RoofFunction(roof.c0, roof.c1, 0.25), first_roof)):
        calls.clear()
        spectrum_scan(phi, catalog, level="flow", roof=flow_roof)
        assert calls == {**passage, **roof_calls}
