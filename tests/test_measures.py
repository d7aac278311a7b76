"""Measure representations, entropy, integration, suspension, payloads."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

import word_oracles
from word_oracles import horseshoe_from_adjacency
from geolorenz import measures, symbolic
from geolorenz import (
    AtomicMeasure,
    ConstantPotential,
    CoordinatePotential,
    LorenzMap1D,
    MarkovMeasure,
    PreconditionError,
    RoofFunction,
    SectionGridPotential,
    SingularDeltaMeasure,
    build_horseshoe,
    convex_combine,
    entropy_map,
    equilibrium_measure,
    find_periodic_point,
    integrate_map,
    measure_from_payload,
    suspend,
)
from geolorenz.model import dwell_array, monotone_ends, roof_array
from geolorenz.symbolic import decode_words


@pytest.fixture(scope="module")
def parry(lmap, horseshoe12):
    return equilibrium_measure(lmap, horseshoe12, ConstantPotential(0.0),
                               t=0.0, label="parry")


@pytest.fixture(scope="module")
def tilted(lmap, horseshoe12, coord):
    return equilibrium_measure(lmap, horseshoe12, coord, t=1.0,
                               label="tilted")


@pytest.fixture(scope="module")
def atom(lmap):
    return AtomicMeasure(lmap, find_periodic_point(lmap, "LRR"))


def test_atomic_entropy_zero_exact(atom):
    assert entropy_map(atom) == 0.0


def test_atomic_integral_is_orbit_average(lmap, atom, coord):
    value, bound = integrate_map(coord, atom)
    pts = atom.orbit.orbit_points(lmap)
    assert bound == 0.0
    assert value == pytest.approx(float(np.mean(pts)), abs=1e-15)


def test_affinity_of_entropy_and_integral(parry, tilted, atom, coord):
    # entropy_map and integrate_map are affine over convex_combine
    weights = (0.22, 0.45, 0.33)
    parts = (parry, tilted, atom)
    mix = convex_combine(list(zip(weights, parts)))
    h_direct = entropy_map(mix)
    h_affine = sum(w * entropy_map(m) for w, m in zip(weights, parts))
    assert h_direct == pytest.approx(h_affine, abs=1e-10)
    v_direct, b_direct = integrate_map(coord, mix)
    v_affine = sum(w * integrate_map(coord, m)[0]
                   for w, m in zip(weights, parts))
    assert v_direct == pytest.approx(v_affine, abs=1e-10)
    assert b_direct >= 0.0


def test_convex_weights_validated(parry, atom):
    with pytest.raises(PreconditionError):
        convex_combine([(0.6, parry), (0.6, atom)])
    with pytest.raises(PreconditionError):
        convex_combine([(-0.2, parry), (1.2, atom)])
    with pytest.raises(PreconditionError):
        convex_combine([])
    # weight-1 singleton collapses to the component itself
    assert convex_combine([(1.0, parry)]) is parry


def test_markov_validation_errors(lmap, horseshoe12, parry):
    n = horseshoe12.n_vertices
    bad_rows = parry.probs.copy()
    bad_rows[0] *= 0.5
    with pytest.raises(PreconditionError):
        MarkovMeasure(lmap, horseshoe12, bad_rows, parry.stationary)
    bad_pi = parry.stationary.copy()
    bad_pi[0] += 0.01
    bad_pi /= bad_pi.sum()
    with pytest.raises(PreconditionError):
        MarkovMeasure(lmap, horseshoe12, parry.probs, bad_pi)
    with pytest.raises(PreconditionError):
        MarkovMeasure(lmap, horseshoe12, parry.probs[: n - 1],
                      parry.stationary)


def test_markov_off_adjacency_support_rejected(lmap, horseshoe12, parry):
    probs = parry.probs.copy()
    # force mass onto a missing edge
    dead = np.nonzero(horseshoe12.next[:, 0] < 0)[0]
    if dead.size:
        i = int(dead[0])
        probs[i] = [0.5, 0.5]
        with pytest.raises(PreconditionError):
            MarkovMeasure(lmap, horseshoe12, probs, parry.stationary)


def test_markov_reducible_support_rejected(lmap):
    # full 2-shift on length-2 words; LL and RR carry self-loops
    words = ("LL", "LR", "RL", "RR")
    adj = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    hs = horseshoe_from_adjacency(2, words, adj, lmap)
    # a proper support with two absorbing self-loops is reducible
    probs = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(PreconditionError, match="not irreducible"):
        MarkovMeasure(lmap, hs, probs, [0.5, 0.0, 0.0, 0.5])
    # a proper support along the 4-cycle LL -> LR -> RR -> RL is irreducible
    probs = [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
    MarkovMeasure(lmap, hs, probs, [0.25] * 4)
    # full support on a reducible adjacency: RR absorbs everything
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = horseshoe_from_adjacency(2, words, adj, lmap)
    probs = [[0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(PreconditionError, match="not irreducible"):
        MarkovMeasure(lmap, hs, probs, [0.0, 0.0, 0.0, 1.0])
    # full support, one cycle {LR, RL}, but LL only feeds into it
    adj = [[0, 1, 0], [0, 0, 1], [0, 1, 0]]
    hs = horseshoe_from_adjacency(2, words[:3], adj, lmap)
    probs = [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(PreconditionError, match="not irreducible"):
        MarkovMeasure(lmap, hs, probs, [0.0, 0.5, 0.5])


def test_shallow_cylinder_masses_match_dict_oracle(lmap, parry, tilted):
    # below its horseshoe's depth a Markov measure is integrated over the
    # model's cylinders, charged with its vertices' summed stationary
    # masses: against the word-keyed dict, float for float, in word order
    for depth in (0, 2, 3, 6, 11):
        level = symbolic.cylinder_levels(lmap, depth)[depth]
        for m in (parry, tilted):
            masses, cylinders = measures._shallow_cylinders(m, depth)
            want = word_oracles.cylinder_masses(m, depth)
            words = sorted(want)
            assert [v.hex() for v in masses.tolist()] == \
                [want[w].hex() for w in words]
            pos = level.find(symbolic.encode_words(words))
            assert (pos >= 0).all()
            assert np.array_equal(cylinders.lo, level.lo[pos])
            assert np.array_equal(cylinders.hi, level.hi[pos])


def test_error_bound_honesty_over_seeded_potentials(parry):
    # refining the integration depth moves the value by less than the
    # coarse depth's reported bound, for 50 certified random potentials
    for seed in range(50):
        pot = SectionGridPotential.seeded(seed)
        v8, b8 = integrate_map(pot, parry, depth=8)
        v12, _ = integrate_map(pot, parry, depth=12)
        assert abs(v8 - v12) <= b8, "seed %d" % seed


@pytest.mark.parametrize("depth", [-3, 2.5, 13.0, 16.0,
                                   measures.MAX_DEPTH + 1])
def test_integration_depth_contract(coord, roof, parry, atom, depth):
    # one check before any measure is sorted: atoms once ignored the
    # depth, a float depth failed inside range() and a deep one only once
    # a scheme was built
    match = "integration depth %s is not" % re.escape(repr(depth))
    mixture = convex_combine([(0.5, atom), (0.5, parry)])
    for measure in (atom, parry, mixture):
        with pytest.raises(PreconditionError, match=match):
            integrate_map(coord, measure, depth)
    with pytest.raises(PreconditionError, match=match):
        suspend(SingularDeltaMeasure(), roof, coord, depth)


def test_integration_at_depth_zero_is_an_honest_bound(coord, parry, atom):
    # depth 0 charges the one cylinder [-1, 1] at its midpoint
    value, bound = integrate_map(coord, parry, 0)
    fine, fine_bound = integrate_map(coord, parry, 12)
    assert bound > 0.0 and abs(value - fine) <= bound + fine_bound
    assert integrate_map(coord, atom, 0) == integrate_map(coord, atom, 12)


@pytest.mark.parametrize("depth", [6, 12])
def test_integrate_many_equals_one_measure_calls(lmap, parry, tilted, atom,
                                                 coord, depth):
    # a batch gives each member what a call on that member alone gives,
    # bit for bit: atoms of several periods, two Markov measures sharing
    # a scheme, a mixture of both kinds, and a repeated member
    atoms = [AtomicMeasure(lmap, find_periodic_point(lmap, w))
             for w in ("LR", "LLRR", "LRRLR", "LRLRR")]
    mix = convex_combine([(0.25, atoms[1]), (0.5, tilted), (0.25, atom)])
    batch = atoms + [parry, atom, mix, tilted, atoms[0]]
    for pot in (coord, SectionGridPotential.seeded(5)):
        singles = [integrate_map(pot, m, depth) for m in batch]
        values, bounds = measures.integrate_many(pot, batch, depth)
        assert values == [v for v, _ in singles]
        assert bounds == [b for _, b in singles]
    assert measures.integrate_many(coord, [], depth) == ([], [])


def test_batched_suspension_equals_one_measure_calls(lmap, parry, atom,
                                                     roof, coord):
    delta = SingularDeltaMeasure()
    mix = convex_combine([(0.4, atom), (0.6, parry)])
    batch = [atom, delta, parry, mix]
    stats = measures.suspend_many(batch, roof, coord)
    fractions = measures.ball_fractions(stats, 0.2)
    for m, got, bf in zip(batch, stats, fractions):
        one = suspend(m, roof, coord)
        assert got.as_dict() == one.as_dict()
        assert got.singular == one.singular
        assert bf == one.ball_fraction(0.2)
    assert stats[1].singular and fractions[1] == 1.0
    # the Dirac has flow conventions only: the section integrator
    # rejects it inside a batch as it does alone
    with pytest.raises(PreconditionError):
        measures.integrate_many(coord, [atom, delta])
    # one dwell integral serves stats of one roof and depth only
    other = suspend(atom, roof.scaled(2.0), coord)
    with pytest.raises(PreconditionError):
        measures.ball_fractions([stats[0], other], 0.2)


def test_ball_fractions_batch_stats_of_equal_roofs(parry, atom, coord):
    # stats from separate suspend calls, each under its own roof object of
    # equal value, batch to each stat's own ball fraction bit for bit; a
    # roof of another value or another depth is still rejected
    stats = [suspend(m, RoofFunction(1.0, 1.0, 0.5), coord)
             for m in (atom, parry)]
    assert stats[0].roof is not stats[1].roof
    assert measures.ball_fractions(stats, 0.2) == [
        s.ball_fraction(0.2) for s in stats]
    for other in (suspend(parry, RoofFunction(1.0, 1.0, 0.25), coord),
                  suspend(parry, RoofFunction(1.0, 1.0, 0.5), coord, 10)):
        with pytest.raises(PreconditionError, match="one roof and one depth"):
            measures.ball_fractions([stats[0], other], 0.2)


def test_model_only_caches_give_the_cold_floats(lmap, roof,
                                                fresh_model_cache,
                                                monkeypatch):
    # suspension, ball fractions and flow scans read cached roof, dwell
    # and passage integrals (on the orbit records, the Markov measures and,
    # for the roof and the dwell, the cylinder schemes) and must return
    # what cold caches return, bit for bit, hits and misses mixed
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog
    from geolorenz.spectrum import spectrum_scan

    phi = SectionGridPotential.seeded(4)

    def results(catalog):
        stats = measures.suspend_many(catalog, roof, phi)
        out = [s.mean_roof for s in stats]
        out += [s.pressure() for s in stats]
        for b in (0.05, 0.2):
            out += measures.ball_fractions(stats, b)
        out += [v for _, v in spectrum_scan(phi, catalog, level="flow",
                                             roof=roof).entries]
        return [v.hex() for v in out]

    def catalog():
        return build_catalog(lmap, phi, DEFAULT_RECIPE) + [
            SingularDeltaMeasure()]

    cold = results(catalog())
    records = [m.orbit for m in catalog() if isinstance(m, AtomicMeasure)]
    # the roof, the passage of phi and the dwell at each radius
    assert records and all(len(r.averages) == 4 for r in records)
    assert results(catalog()) == cold
    # cold again, then warm for half of the catalog only
    fresh_model_cache(lmap)
    members = catalog()
    results(members[::2])
    assert results(members) == cold
    # on warm caches each keyed integral equals that of the same integrand
    # without a key, which is never cached: a key missing a parameter of
    # the roof or the radius would read another integral's entries
    section = [m for m in members if not isinstance(m, SingularDeltaMeasure)]
    other = RoofFunction(1.0, 1.0, 0.25)
    for integrand in (phi, measures._PassageIntegrand(phi, roof),
                      measures._PassageIntegrand(phi, other),
                      measures._RoofIntegrand("roof", roof_array, roof),
                      measures._RoofIntegrand("roof", roof_array, other),
                      measures._RoofIntegrand("dwell", dwell_array, roof,
                                              0.05),
                      measures._RoofIntegrand("dwell", dwell_array, roof,
                                              0.2),
                      measures._RoofIntegrand("dwell", dwell_array, other,
                                              0.2)):
        if isinstance(integrand, measures._RoofIntegrand):
            def bound(lo, hi, integrand=integrand):
                return integrand.ends(lo, hi)[0]
        else:
            bound = integrand.midpoint_error
        keyless = types.SimpleNamespace(value=integrand.value,
                                        midpoint_error=bound)
        assert measures.integrate_many(integrand, section) == \
            measures.integrate_many(keyless, section)


def _hexes(values):
    return [v.hex() for v in np.asarray(values, dtype=float).tolist()]


def _plain_potentials():
    return [ConstantPotential(0.75), CoordinatePotential(),
            SectionGridPotential.seeded(7)]


@pytest.mark.parametrize("c1", [1.0, 0.0])
@pytest.mark.parametrize("depth", [12, 14])
def test_plain_passage_on_a_scheme_reads_the_roof_entry(lmap, c1, depth,
                                                        fresh_model_cache):
    # the passage of a plain potential on a scheme at or above the
    # horseshoe's depth takes the roof's values and ends from the scheme's
    # roof entry, and gets the floats of the potential's own passage
    # methods, which evaluate the roof themselves; so does its integral
    roof = RoofFunction(1.0, c1, 0.5)
    hs = build_horseshoe(lmap, 12, 0.002)
    mu = equilibrium_measure(lmap, hs, ConstantPotential(0.0), t=0.0)
    scheme = measures._scheme(lmap, mu.horseshoe, depth)
    mass = scheme.masses(mu.stationary, mu.probs)
    for phi in _plain_potentials():
        passage = measures._PassageIntegrand(phi, roof)
        assert passage.plain
        values = phi.passage_integral(scheme.mid, roof)
        bounds = phi.passage_error(scheme.lo, scheme.hi, roof)
        got = measures._scheme_integrals(passage, scheme)
        assert [_hexes(a) for a in got] == [_hexes(values), _hexes(bounds)]
        # the first passage filled the roof's entry, which the roof
        # integrand reads
        assert list(scheme.integrals) == [passage.roof_part.key]
        (value,), (bound,) = measures.integrate_many(passage, [mu], depth)
        assert _hexes([value, bound]) == _hexes(
            [np.add.reduce(mass * values), np.add.reduce(mass * bounds)])
    r, r_range, r_max = scheme.integrals[passage.roof_part.key]
    r_min, top = monotone_ends(lambda x: roof_array(roof, x), scheme.lo,
                               scheme.hi, diverges=c1 > 0.0)
    assert [_hexes(a) for a in (r, r_range, r_max)] == [
        _hexes(roof_array(roof, scheme.mid)), _hexes(top - r_min),
        _hexes(top)]
    assert not any(a.flags.writeable for a in (r, r_range, r_max))


def test_catalog_walk_evaluates_the_roof_once_per_scheme(lmap, roof,
                                                          fresh_model_cache,
                                                          monkeypatch):
    # walking one catalog under three potentials evaluates the roof at a
    # scheme's paths (midpoints and the two ends of each cylinder) for the
    # first potential only: every later passage and roof integral of a new
    # measure reads the scheme's roof entry
    from geolorenz import potentials
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog

    sizes = []

    def counted(roof, x, *args):
        sizes.append(np.size(x))
        return roof_array(roof, x, *args)

    monkeypatch.setattr(measures, "roof_array", counted)
    monkeypatch.setattr(potentials, "roof_array", counted)
    walks = []
    for phi in _plain_potentials():
        catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
        del sizes[:]
        for m in catalog:
            suspend(m, roof, phi)
        walks.append(list(sizes))
    markov = [m for m in catalog if isinstance(m, MarkovMeasure)]
    schemes = {id(s): s for s in (
        measures._scheme(lmap, m.horseshoe, measures.DEFAULT_DEPTH)
        for m in markov)}
    paths = {len(s.lo) for s in schemes.values()}
    # the atoms' one batch of orbit points has its own size
    atoms = [m for m in catalog if isinstance(m, AtomicMeasure)]
    assert sum(m.orbit.orbit_points(lmap).size for m in atoms) not in paths
    assert len(markov) == 2 and len(schemes) == 1
    on_schemes = [sum(1 for n in walk if n in paths) for walk in walks]
    assert on_schemes == [3 * len(schemes), 0, 0]


def _survey_walk(catalog, roof, phi, b=0.2):
    """A survey's per-member calls: each member's suspension statistics
    and its ball fraction, as in the survey workload."""
    out = []
    for m in catalog:
        stats = suspend(m, roof, phi)
        out.append((stats.as_dict(), stats.ball_fraction(b)))
    return out


def _walk_hexes(walk):
    return [([v.hex() for v in stats.values()], bf.hex())
            for stats, bf in walk]


def test_catalog_walk_builds_each_roof_model_integrand_once(lmap,
                                                            monkeypatch):
    # a walk of suspend and ball_fraction over every member, under three
    # potentials, builds one roof integrand and one dwell integrand in
    # all, and each member's floats are those of the whole-catalog calls
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog

    built = []
    original = measures._RoofIntegrand.__init__

    def counted(self, name, *args):
        built.append(name)
        original(self, name, *args)

    monkeypatch.setattr(measures._RoofIntegrand, "__init__", counted)
    roof = RoofFunction(1.0, 1.0, 0.5)
    for seed in (3, 5, 8):
        phi = SectionGridPotential.seeded(seed)
        catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
        walk = _survey_walk(catalog, roof, phi)
        stats = measures.suspend_many(catalog, roof, phi)
        whole = list(zip([s.as_dict() for s in stats],
                         measures.ball_fractions(stats, 0.2)))
        assert _walk_hexes(walk) == _walk_hexes(whole)
    assert sorted(built) == ["dwell", "roof"]


def test_long_survey_keeps_the_roof_model_keys_in_every_memo(
        lmap, fresh_model_cache, monkeypatch):
    # one catalog walked under CACHE_LIMIT + 4 potentials: every memo on
    # a member fills past its limit with passage keys, yet keeps at most
    # CACHE_LIMIT keys, and the roof and dwell keys, recalled on every
    # walk, are never the least recently used. So after the first
    # potential no roof or dwell integral is evaluated again, and the
    # roof is never evaluated at a scheme's paths
    from geolorenz import potentials
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog

    sizes = []

    def counted(roof, x, *args):
        sizes.append(np.size(x))
        return roof_array(roof, x, *args)

    monkeypatch.setattr(measures, "roof_array", counted)
    monkeypatch.setattr(potentials, "roof_array", counted)
    evaluated = []
    value = measures._RoofIntegrand.value

    def counted_value(self, x):
        evaluated.append(self.key[0])
        return value(self, x)

    monkeypatch.setattr(measures._RoofIntegrand, "value", counted_value)
    roof = RoofFunction(1.0, 1.0, 0.5)
    grids = [SectionGridPotential.seeded(seed)
             for seed in range(symbolic.CACHE_LIMIT + 4)]
    catalog = build_catalog(lmap, grids[0], DEFAULT_RECIPE)
    markov = [m for m in catalog if isinstance(m, MarkovMeasure)]
    paths = {len(measures._scheme(lmap, m.horseshoe,
                                  measures.DEFAULT_DEPTH).lo)
             for m in markov}
    walks = []
    for phi in grids:
        del sizes[:], evaluated[:]
        _survey_walk(catalog, roof, phi)
        walks.append((sum(1 for n in sizes if n in paths), len(evaluated)))
    assert walks[0][0] > 0 and walks[0][1] > 0
    assert walks[1:] == [(0, 0)] * (len(grids) - 1)
    keys = {measures._PassageIntegrand(grids[0], roof).roof_part.key,
            measures._roof_integrand("dwell", dwell_array, roof, 0.2).key}
    records = catalog[0].batch
    assert len(records) == sum(isinstance(m, AtomicMeasure)
                               for m in catalog)
    memos = ([r.averages for r in records]
             + [{k for k, _ in m.integrals} for m in markov])
    for memo in memos:
        assert len(memo) == symbolic.CACHE_LIMIT
        assert keys <= set(memo)


def test_a_second_roof_gets_its_own_scheme_entry(lmap, roof,
                                                 fresh_model_cache):
    # two roofs on one scheme keep one entry each, and the passage under
    # each reads its own roof's arrays
    hs = build_horseshoe(lmap, 12, 0.002)
    mu = equilibrium_measure(lmap, hs, ConstantPotential(0.0), t=0.0)
    scheme = measures._scheme(lmap, mu.horseshoe, 14)
    mass = scheme.masses(mu.stationary, mu.probs)
    phi = CoordinatePotential()
    other = RoofFunction(2.0, 0.5, 0.25)
    for r in (roof, other):
        stats = suspend(mu, r, phi, depth=14)
        passage = np.add.reduce(mass * phi.passage_integral(scheme.mid, r))
        assert stats.potential_integral.hex() == (
            float(passage) / stats.mean_roof).hex()
    keys = [measures._RoofIntegrand("roof", roof_array, r).key
            for r in (roof, other)]
    assert list(scheme.integrals) == keys
    for key, r in zip(keys, (roof, other)):
        assert _hexes(scheme.integrals[key][0]) == _hexes(
            roof_array(r, scheme.mid))


def _memo_members(lmap, phi):
    """Two memo copies of one equilibrium state under different labels,
    another state, an atom and a mixture of all three kinds, built on the
    depth-12 horseshoe of the model's current store."""
    hs = build_horseshoe(lmap, 12, 0.002)
    a = equilibrium_measure(lmap, hs, phi, t=1.0, label="a")
    b = equilibrium_measure(lmap, hs, phi, t=1.0, label="b")
    c = equilibrium_measure(lmap, hs, phi, t=-2.0, label="c")
    assert b is not a and b.integrals is a.integrals
    atom = AtomicMeasure(lmap, find_periodic_point(lmap, "LLR"))
    mix = convex_combine([(0.3, a), (0.5, c), (0.2, atom)])
    return [a, atom, b, mix, c]


def _memo_ops(roof, phi):
    """Each integration entry point as a function of a batch, returning
    float.hex strings; depth 8 is below the horseshoe's and reads the
    model's levels."""
    from geolorenz.pressure import catalog_pressures

    def integrals(batch, depth):
        values, bounds = measures.integrate_many(phi, batch, depth)
        return values + bounds

    def flow(batch):
        stats = measures.suspend_many(batch, roof, phi)
        return ([s.mean_roof for s in stats] + [s.pressure() for s in stats]
                + measures.ball_fractions(stats, 0.2))

    def pressures(batch, level):
        return catalog_pressures(batch, phi, level, roof)[1]

    calls = [(integrals, 8), (integrals, 12), (integrals, 14), (flow,),
             (pressures, "map"), (pressures, "flow")]
    return [lambda batch, fn=fn, args=args: [v.hex() for v in fn(batch, *args)]
            for fn, *args in calls]


@pytest.mark.parametrize("spec", ["grid:seed:7", "bump:1.0,0.1"])
def test_memoized_integrals_give_the_cold_floats(lmap, roof, spec,
                                                 fresh_model_cache):
    # every keyed integral is memoized on the orbit records and the Markov
    # measures; the warm floats, hits and misses mixed in one call, are
    # those of each call alone on a fresh model store
    from geolorenz import parse_potential_spec

    phi = parse_potential_spec(spec)
    ops = _memo_ops(roof, phi)
    cold = []
    for op in ops:
        fresh_model_cache(lmap)
        batch = _memo_members(lmap, phi)
        assert not batch[0].integrals and not batch[1].orbit.averages
        cold.append(op(batch))
    fresh_model_cache(lmap)
    members = _memo_members(lmap, phi)
    for op in ops[::2]:
        op(members[1::2])
    warm = [op(members) for op in ops]
    assert warm == cold
    assert [op(members) for op in ops] == cold
    assert members[0].integrals and members[1].orbit.averages


def test_keyless_potential_is_integrated_uncached(lmap, roof,
                                                  fresh_model_cache):
    # a potential class without a key is integrated afresh every time, to
    # the floats of the keyed potential, and adds nothing to any memo but
    # the roof's and the dwell's
    phi = SectionGridPotential.seeded(7)
    methods = ("value", "midpoint_error", "abs_bound", "passage_integral",
               "passage_error", "value_at_sigma")
    keyless = types.SimpleNamespace(**{name: getattr(phi, name)
                                       for name in methods})
    members = _memo_members(lmap, phi)
    plain = [op(members) for op in _memo_ops(roof, keyless)]
    model_only = {measures._RoofIntegrand("roof", roof_array, roof).key,
                  measures._RoofIntegrand("dwell", dwell_array, roof,
                                          0.2).key}
    assert set(members[1].orbit.averages) == model_only
    assert set(members[0].integrals) == {(key, measures.DEFAULT_DEPTH)
                                         for key in model_only}
    assert [op(members) for op in _memo_ops(roof, keyless)] == plain
    assert [op(members) for op in _memo_ops(roof, phi)] == plain


@pytest.fixture
def orbit_evaluations(monkeypatch):
    """The (integrand class name, orbit count) of each `_orbit_averages`
    call the test makes, in call order."""
    calls = []
    inner = measures._orbit_averages

    def counted(integrand, orbits):
        calls.append((type(integrand).__name__, len(orbits)))
        return inner(integrand, orbits)

    monkeypatch.setattr(measures, "_orbit_averages", counted)
    return calls


def _member_flows(catalog, roof, phi):
    """float.hex of each member's `suspend` pressure, mean roof and ball
    fraction at radius 0.2, one member per call."""
    out = []
    for m in catalog:
        flow = suspend(m, roof, phi)
        out.append([v.hex() for v in (flow.mean_roof, flow.pressure(),
                                      flow.ball_fraction(0.2))])
    return out


def _lone_flows(lmap, catalog, roof, phi):
    """`_member_flows` of the catalog's atoms, each rebuilt alone, so that
    it batches its own record only."""
    lone = [AtomicMeasure(lmap, m.orbit) for m in catalog
            if isinstance(m, AtomicMeasure)]
    assert all(m.batch == (m.orbit,) for m in lone)
    return _member_flows(lone, roof, phi)


def test_catalog_walk_evaluates_the_passage_once(lmap, roof,
                                                 fresh_model_cache,
                                                 orbit_evaluations):
    # a catalog walked member by member under a new potential evaluates
    # each keyed integrand once on the orbit points of all its atoms, to
    # the floats of each atom integrated alone on cold records
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog

    phi = SectionGridPotential.seeded(3701)
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    atoms = [m for m in catalog if isinstance(m, AtomicMeasure)]
    assert all(m.batch is atoms[0].batch for m in atoms)
    assert atoms[0].batch == tuple(m.orbit for m in atoms)
    cold = _lone_flows(lmap, catalog, roof, phi)
    # alone, each atom evaluates the roof, the passage and the dwell
    assert orbit_evaluations == [(name, 1) for _ in atoms
                                 for name in ("_RoofIntegrand",
                                              "_PassageIntegrand",
                                              "_RoofIntegrand")]
    fresh_model_cache(lmap)
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    del orbit_evaluations[:]
    warm = _member_flows(catalog, roof, phi)
    assert orbit_evaluations == [("_RoofIntegrand", len(atoms)),
                                 ("_PassageIntegrand", len(atoms)),
                                 ("_RoofIntegrand", len(atoms))]
    assert warm[:len(atoms)] == cold
    assert all(len(m.orbit.averages) == 3 for m in catalog
               if isinstance(m, AtomicMeasure))


def test_batch_skips_records_that_hold_the_key(lmap, roof, fresh_model_cache,
                                                orbit_evaluations):
    # records that a gap catalog filled first are left out of the default
    # catalog's evaluation, and every float stays that of a cold record
    from geolorenz.catalog import (DEFAULT_RECIPE, GAP_CORE_RECIPE,
                                   build_catalog)

    phi = SectionGridPotential.seeded(3702)
    cold = _lone_flows(lmap, build_catalog(lmap, phi, DEFAULT_RECIPE), roof,
                       phi)
    fresh_model_cache(lmap)
    core = [m for m in build_catalog(lmap, phi, GAP_CORE_RECIPE)
            if isinstance(m, AtomicMeasure)]
    _member_flows(core[:1], roof, phi)
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    atoms = [m for m in catalog if isinstance(m, AtomicMeasure)]
    assert {id(m.orbit) for m in core} < {id(m.orbit) for m in atoms}
    del orbit_evaluations[:]
    warm = _member_flows(atoms, roof, phi)
    rest = len(atoms) - len(core)
    assert orbit_evaluations == [("_RoofIntegrand", rest),
                                 ("_PassageIntegrand", rest),
                                 ("_RoofIntegrand", rest)]
    assert warm == cold


def test_lone_atom_fills_its_own_record(lmap, coord, fresh_model_cache):
    # an atom built outside a catalog batches itself: its miss adds the
    # key to its own record and to no other record of the store
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog

    catalog = build_catalog(lmap, coord, DEFAULT_RECIPE)
    lone = AtomicMeasure(lmap, find_periodic_point(lmap, "LLR"))
    assert lone.batch == (lone.orbit,)
    integrate_map(coord, lone)
    for m in catalog:
        if isinstance(m, AtomicMeasure):
            assert set(m.orbit.averages) == (
                {coord.key} if m.orbit is lone.orbit else set())


def test_keyless_potential_batches_nothing(lmap, roof, fresh_model_cache,
                                           orbit_evaluations):
    # an integrand without a key is evaluated on each member's own orbit
    # and cached nowhere, however the atoms are batched
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog

    phi = SectionGridPotential.seeded(3703)
    methods = ("value", "midpoint_error", "abs_bound", "passage_integral",
               "passage_error", "value_at_sigma")
    keyless = types.SimpleNamespace(**{name: getattr(phi, name)
                                       for name in methods})
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    atoms = [m for m in catalog if isinstance(m, AtomicMeasure)]
    del orbit_evaluations[:]
    flows = _member_flows(atoms, roof, keyless)
    passages = [count for name, count in orbit_evaluations
                if name == "_PassageIntegrand"]
    assert passages == [1] * len(atoms)
    model_only = {measures._RoofIntegrand("roof", roof_array, roof).key,
                  measures._RoofIntegrand("dwell", dwell_array, roof,
                                          0.2).key}
    assert all(set(m.orbit.averages) == model_only for m in atoms)
    assert flows == _member_flows(atoms, roof, phi)


def test_markov_measure_keeps_its_own_arrays(lmap, parry, coord):
    # a caller's arrays are copied at validation: writing to them later
    # changes neither the measure nor its integrals, memoized or not
    probs = np.array(parry.probs)
    stationary = np.array(parry.stationary)
    m = MarkovMeasure(lmap, parry.horseshoe, probs, stationary)
    assert not m.probs.flags.writeable and not m.stationary.flags.writeable
    keyless = types.SimpleNamespace(value=coord.value,
                                    midpoint_error=coord.midpoint_error)
    before = [integrate_map(pot, m, 14) for pot in (coord, keyless)]
    probs[:] = probs[:, ::-1]
    stationary[:] = 1.0 / len(stationary)
    assert [integrate_map(pot, m, 14) for pot in (coord, keyless)] == before
    assert before[0] == before[1]
    assert np.array_equal(m.probs, parry.probs)
    assert np.array_equal(m.stationary, parry.stationary)


def test_birkhoff_sampling_oracle(lmap, parry, coord):
    # seeded trajectory of the chain; its Birkhoff average of the
    # potential must approach the cylinder-midpoint integral
    rng = np.random.default_rng(12345)
    scheme_depth = parry.horseshoe.depth
    from geolorenz.symbolic import cylinder_levels

    level = cylinder_levels(lmap, scheme_depth)[scheme_depth]
    spans = dict(zip(decode_words(level.codes, scheme_depth),
                     zip(level.lo.tolist(), level.hi.tolist())))
    i = int(np.argmax(parry.stationary))
    total, n_steps = 0.0, 20000
    for _ in range(n_steps):
        w = parry.horseshoe.vertices[i]
        lo, hi = spans[w]
        total += coord.value(0.5 * (lo + hi))
        p_l = parry.probs[i, 0]
        k = 0 if rng.random() < p_l else 1
        i = int(parry.horseshoe.next[i, k])
        assert i >= 0
    birkhoff = total / n_steps
    integral, _ = integrate_map(coord, parry)
    assert abs(birkhoff - integral) < 0.02


def test_suspension_abramov_scaling(parry, roof, coord):
    base = suspend(parry, roof, coord)
    for k in (2.0, 5.0):
        scaled = suspend(parry, roof.scaled(k), coord)
        assert scaled.mean_roof == pytest.approx(k * base.mean_roof,
                                                 rel=1e-12)
        assert scaled.h_flow == pytest.approx(base.h_flow / k, rel=1e-12)


def test_suspension_constant_roof_identity(parry, coord):
    # with a flat roof of height c0, flow entropy times c0 is map entropy
    flat = RoofFunction(c0=1.7, c1=0.0, eta0=0.5)
    stats = suspend(parry, flat, coord)
    assert stats.mean_roof == pytest.approx(1.7, abs=1e-12)
    assert stats.h_flow * 1.7 == pytest.approx(entropy_map(parry), abs=1e-12)


def test_ball_fraction_monotone_and_bounded(parry, roof, coord):
    stats = suspend(parry, roof, coord)
    prev = -1.0
    for b in (0.001, 0.01, 0.05, 0.2, 0.4, 0.49):
        f = stats.ball_fraction(b)
        assert 0.0 <= f <= 1.0
        assert f >= prev - 1e-12
        prev = f


def test_singular_delta_conventions(roof, coord):
    delta = SingularDeltaMeasure()
    stats = suspend(delta, roof, coord)
    assert stats.mean_roof == math.inf
    assert stats.h_flow == 0.0
    assert stats.ball_fraction(0.123) == 1.0
    assert stats.potential_integral == coord.value_at_sigma() == 0.0
    for op in (lambda: entropy_map(delta),
               lambda: integrate_map(coord, delta)):
        with pytest.raises(PreconditionError):
            op()


def test_payload_round_trip(lmap, parry, atom, coord):
    mix = convex_combine([(0.25, atom), (0.75, parry)], label="mix")
    for m in (atom, parry, mix, SingularDeltaMeasure()):
        clone = measure_from_payload(lmap, m.to_payload())
        assert clone.id == m.id
        assert clone.to_payload() == m.to_payload()
        if not isinstance(m, SingularDeltaMeasure):
            assert integrate_map(coord, clone) == integrate_map(coord, m)
    # an equilibrium state loads onto the component its horseshoe stores,
    # so clones share one horseshoe and its cylinder schemes
    first, second = (measure_from_payload(lmap, parry.to_payload())
                     for _ in range(2))
    assert first.horseshoe is second.horseshoe


@pytest.mark.parametrize("case", ["symbol", "length", "duplicate",
                                  "missing"])
def test_payload_names_the_malformed_vertex(lmap, parry, case):
    # the fourth serialized vertex is replaced by a malformed word
    payload = parry.to_payload()
    vertices = payload["vertices"]
    word, message = {
        "symbol": (vertices[3][:-1] + "X", "bad symbol 'X' in word"),
        "length": (vertices[3] + "L", "is not a depth-12 word"),
        "duplicate": (vertices[0], "appears twice"),
        "missing": ("R" * 12, "does not exist at depth 12"),
    }[case]
    payload["vertices"] = vertices[:3] + [word] + vertices[4:]
    with pytest.raises(PreconditionError) as err:
        measure_from_payload(lmap, payload)
    assert message in str(err.value)
    assert repr(word) in str(err.value)


def test_payload_without_vertices_is_rejected(lmap, parry):
    payload = dict(parry.to_payload(), vertices=[], probs=[], stationary=[])
    with pytest.raises(PreconditionError):
        measure_from_payload(lmap, payload)


def test_equilibrium_is_stationary_markov(tilted):
    # construction already validates; spot-check the balance directly on
    # the measure's own (recurrent-part) horseshoe
    hs = tilted.horseshoe
    pi = tilted.stationary
    flow = np.zeros_like(pi)
    for k in range(2):
        arr = hs.next[:, k]
        ok = arr >= 0
        np.add.at(flow, arr[ok], pi[ok] * tilted.probs[ok, k])
    assert np.max(np.abs(flow - pi)) < 1e-10


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (1.0, 1.95),
                                         (0.8, 1.99)])
def test_equilibrium_probs_follow_the_successor_table(alpha, beta, coord):
    # probs shares the (vertices, 2) layout of the horseshoe's table: an
    # equilibrium state charges exactly the edges the table has
    from geolorenz.catalog import (DEFAULT_RECIPE, GAP_CORE_RECIPE,
                                   GAP_DEMONSTRATOR_RECIPE, build_catalog)

    lm = LorenzMap1D(alpha, beta)
    states = [m for recipe in (DEFAULT_RECIPE, GAP_CORE_RECIPE,
                               GAP_DEMONSTRATOR_RECIPE)
              for m in build_catalog(lm, coord, recipe)
              if isinstance(m, MarkovMeasure)]
    assert len(states) == 5
    for mu in states:
        table = mu.horseshoe.next
        assert mu.probs.shape == table.shape
        assert (mu.probs[table < 0] == 0.0).all()
        assert (mu.probs[table >= 0] > 0.0).all()


# ---------------------------------------------------------------------------
# cylinder schemes: array pullback against the scalar branch chain, cache


def _scalar_pullback(lmap, word):
    lo, hi = -1.0, 1.0
    for s in reversed(word):
        lo = lmap.inverse_branch(s, lo, clip=True)
        hi = lmap.inverse_branch(s, hi, clip=True)
        if lo > hi:
            lo, hi = hi, lo
    return lo, hi


def _scalar_scheme_interval(lmap, word):
    """The path interval by scalar inverse branches, with the fallback to
    the deepest live prefix for paths the kneading data forbids."""
    lo, hi = _scalar_pullback(lmap, word)
    probe = word[:-1]
    while hi - lo <= 1e-12 and probe:
        lo, hi = _scalar_pullback(lmap, probe)
        probe = probe[:-1]
    return lo, hi


def test_shallow_integral_matches_scalar_prefix_cylinders(lmap, parry, coord):
    # below the horseshoe depth the integral charges each vertex prefix
    # with its stationary mass, evaluated on the prefix cylinder; the
    # terms are summed as the scheme path sums them
    depth = 6
    assert depth < parry.horseshoe.depth
    masses = {}
    for w, pi in zip(parry.horseshoe.vertices, parry.stationary):
        masses[w[:depth]] = masses.get(w[:depth], 0.0) + float(pi)
    values = []
    bounds = []
    for w in sorted(masses):
        lo, hi = _scalar_pullback(lmap, w)
        values.append(masses[w] * float(coord.value(0.5 * (lo + hi))))
        bounds.append(masses[w] * float(coord.midpoint_error(lo, hi)))
    assert integrate_map(coord, parry, depth=depth) == (
        float(np.add.reduce(np.array(values))),
        float(np.add.reduce(np.array(bounds))))


@pytest.mark.parametrize("alpha, beta, rtol", [
    (1.0, 1.7, 0.0),
    (1.0, 1.95, 0.0),
    # numpy's vectorized power may differ from libm pow in the last bit
    (0.8, 1.99, 1e-14),
])
def test_scheme_intervals_match_scalar_inverse_branches(alpha, beta, rtol):
    lm = LorenzMap1D(alpha, beta)
    scheme = measures._CylinderScheme(lm, build_horseshoe(lm, 6, 0.002), 10)
    words = decode_words(scheme.codes, scheme.depth)
    raw = np.array([_scalar_pullback(lm, w) for w in words])
    assert np.any(raw[:, 1] - raw[:, 0] <= 1e-12), \
        "no path exercises the dead-row fallback"
    ref = np.array([_scalar_scheme_interval(lm, w) for w in words])
    for got, want in ((scheme.lo, ref[:, 0]), (scheme.hi, ref[:, 1])):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def _counting_scheme(monkeypatch):
    builds = []

    class Counting(measures._CylinderScheme):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(measures, "_CylinderScheme", Counting)
    return builds


def test_realization_builds_one_scheme_per_depth(monkeypatch, lmap, coord,
                                                 fresh_model_cache):
    # the catalog integrates at depth 12, the bisection at 16 and the
    # replay at 20; every equilibrium state of the family lives on the
    # one restricted component its horseshoe stores, so each depth is
    # built once and every later lookup finds it on that horseshoe
    from geolorenz.spectrum import TargetRequest, realize_intermediate

    builds = _counting_scheme(monkeypatch)
    nu = realize_intermediate(TargetRequest(lmap, coord, 0.3, 1e-3))
    depths = [args[2] for args in builds]
    assert sorted(depths) == [12, 16, 20]
    assert measures._scheme(lmap, nu.horseshoe, 20) is \
        nu.horseshoe.schemes[20]
    assert len(builds) == 3


def test_thin_paths_take_their_own_level_cylinders(monkeypatch, lmap,
                                                   coord):
    # with every path at most EMPTY_WIDTH wide, each is looked up in the
    # level of its depth; all of them are real cylinders, so each keeps
    # its own interval instead of a prefix's
    monkeypatch.setattr(measures, "EMPTY_WIDTH", 1e-3)
    mu = equilibrium_measure(lmap, build_horseshoe(lmap, 12, 0.05), coord,
                             t=-1.5)
    scheme = measures._CylinderScheme(lmap, mu.horseshoe, 16)
    assert len(scheme.codes) == 3006
    level = symbolic.cylinder_levels(lmap, 16)[16]
    pos = level.find(scheme.codes)
    assert (pos >= 0).all()
    assert (level.hi[pos] - level.lo[pos] <= 1e-3).all()
    assert scheme.lo.tobytes() == level.lo[pos].tobytes()
    assert scheme.hi.tobytes() == level.hi[pos].tobytes()


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.95), (0.8, 1.7)])
def test_a_map_of_another_model_is_rejected(lmap, horseshoe12, coord, parry,
                                            alpha, beta):
    # a horseshoe's cylinders, and so its weights and schemes, belong to
    # the model it was built for
    other = LorenzMap1D(alpha, beta)
    assert horseshoe12.model == (lmap.alpha, lmap.beta)
    with pytest.raises(PreconditionError, match="model"):
        MarkovMeasure(other, parry.horseshoe, parry.probs, parry.stationary)
    # the memo holds this weight vector, and the check comes before it
    equilibrium_measure(lmap, horseshoe12, coord, t=1.0)
    with pytest.raises(PreconditionError, match="model"):
        equilibrium_measure(other, horseshoe12, coord, t=1.0)
    sub = parry.horseshoe
    assert sub.model == horseshoe12.model
    with pytest.raises(PreconditionError, match="model"):
        equilibrium_measure(other, sub, coord, t=0.0)


def _reference_scheme_paths(horseshoe, depth):
    """(words, start, steps_v, steps_s): the scheme's paths as first built,
    by string concatenation and one (vertex, symbol) column pair per
    extension."""
    n = horseshoe.n_vertices
    start = np.arange(n, dtype=np.int64)
    cur = start.copy()
    words = list(horseshoe.vertices)
    steps_v = np.zeros((n, 0), dtype=np.int64)
    steps_s = np.zeros((n, 0), dtype=np.int64)
    for _ in range(depth - horseshoe.depth):
        pieces = []
        for s_idx, s in enumerate(("L", "R")):
            nxt = horseshoe.next[cur, s_idx]
            ok = np.nonzero(nxt >= 0)[0]
            pieces.append((s_idx, s, ok, nxt[ok]))
        new_words = []
        idx_all = []
        for s_idx, s, ok, _ in pieces:
            new_words.extend(words[i] + s for i in ok)
            idx_all.append(ok)
        idx = np.concatenate(idx_all)
        sym = np.concatenate([np.full(len(ok), s_idx, dtype=np.int64)
                              for s_idx, _, ok, _ in pieces])
        steps_v = np.hstack([steps_v[idx], cur[idx][:, None]])
        steps_s = np.hstack([steps_s[idx], sym[:, None]])
        start = start[idx]
        cur = np.concatenate([nx for _, _, _, nx in pieces])
        words = new_words
    return words, start, steps_v, steps_s


def _read_back(links, n_paths):
    """(start, steps): each path's starting vertex and its (paths,
    extensions) table of steps, read back from the last extension's
    (parent, step) links to the first."""
    steps = np.empty((n_paths, len(links)), dtype=np.int64)
    path = np.arange(n_paths, dtype=np.int64)
    for j in range(len(links) - 1, -1, -1):
        parent, step = links[j]
        steps[:, j] = step[path]
        path = parent[path]
    return path, steps


@pytest.mark.parametrize("alpha, beta, x_gap, t, depths", [
    # the replay scheme of a realization at beta = 1.7
    (1.0, 1.7, 0.05, -1.5, (12, 13, 20)),
    (0.8, 1.99, 0.002, 2.0, (12, 15)),
])
def test_scheme_paths_match_string_construction(alpha, beta, x_gap, t,
                                                depths):
    lm = LorenzMap1D(alpha, beta)
    mu = equilibrium_measure(lm, build_horseshoe(lm, 12, x_gap),
                             CoordinatePotential(), t=t)
    for depth in depths:
        scheme = measures._CylinderScheme(lm, mu.horseshoe, depth)
        words, start, steps_v, steps_s = _reference_scheme_paths(
            mu.horseshoe, depth)
        assert decode_words(scheme.codes, depth) == words
        assert np.array_equal(scheme.start, start)
        assert np.array_equal(_read_back(scheme.links, len(words))[1],
                              2 * steps_v + steps_s)
        want = mu.stationary[start]
        if steps_v.shape[1]:
            want = want * np.prod(mu.probs[steps_v, steps_s], axis=1)
        assert np.array_equal(scheme.masses(mu.stationary, mu.probs), want)


def _pullback(lmap, symbols):
    """Cylinder endpoints of each row of a (words, length) symbol matrix:
    [-1, 1] pulled back through the row's branches, last symbol first."""
    ends = np.array([[-1.0], [1.0]]).repeat(symbols.shape[0], axis=1)
    for j in range(symbols.shape[1] - 1, -1, -1):
        ends = symbolic._inverse_step(lmap, symbols[:, j] == 1, ends)
    return ends[0], ends[1]


def _full_pullback_scheme(lmap, horseshoe, depth):
    """A scheme built the first array way: a (paths, depth - m) step
    table read back along the extension links, every path's whole word
    pulled back from [-1, 1], and the masses as one product per row.
    `dead` counts the paths whose word cylinder is empty."""
    m = horseshoe.depth
    table = horseshoe.next
    cur = np.arange(horseshoe.n_vertices, dtype=np.int64)
    codes = horseshoe.codes
    links = []
    for _ in range(depth - m):
        ok = [np.flatnonzero(col >= 0) for col in table[cur].T]
        parent = np.concatenate(ok)
        bit = np.repeat(np.arange(2), [len(o) for o in ok])
        step = 2 * cur[parent] + bit
        links.append((parent, step))
        codes = (codes[parent] << np.uint64(1)) | bit.astype(np.uint64)
        cur = table.reshape(-1)[step]
    start, steps = _read_back(links, len(cur))
    symbols = symbolic.code_symbols(codes, depth)
    lo, hi = _pullback(lmap, symbols)
    dead = np.nonzero(hi - lo <= measures.EMPTY_WIDTH)[0]
    n_dead = dead.size
    for length in range(depth - 1, 0, -1):
        if not dead.size:
            break
        a, b = _pullback(lmap, symbols[dead, :length])
        lo[dead] = a
        hi[dead] = b
        dead = dead[b - a <= measures.EMPTY_WIDTH]

    def masses(stationary, probs):
        mass = stationary[start]
        if steps.shape[1]:
            mass = mass * np.prod(probs.reshape(-1).take(steps), axis=1)
        return mass

    return types.SimpleNamespace(codes=codes, start=start, lo=lo, hi=hi,
                                 mid=0.5 * (lo + hi), masses=masses,
                                 dead=n_dead)


def _assert_scheme_matches_full_pullback(lm, horseshoe, depths, stationary,
                                        probs):
    """Every array of the scheme and its masses, bit for bit; returns the
    number of dead paths seen."""
    dead = 0
    for depth in depths:
        scheme = measures._CylinderScheme(lm, horseshoe, depth)
        ref = _full_pullback_scheme(lm, horseshoe, depth)
        for name in ("codes", "start", "lo", "hi", "mid"):
            assert np.array_equal(getattr(scheme, name),
                                  getattr(ref, name)), (depth, name)
        assert np.array_equal(scheme.masses(stationary, probs),
                              ref.masses(stationary, probs)), depth
        dead += ref.dead
    return dead


@pytest.mark.parametrize("alpha, beta, x_gap, m, t", [
    (1.0, 1.7, 0.05, 12, -1.5),
    (1.0, 1.95, 0.002, 10, 2.0),
    (0.8, 1.99, 0.002, 10, 2.0),
])
def test_scheme_matches_full_pullback(alpha, beta, x_gap, m, t):
    # each path's cylinder is its last vertex's pulled back through its
    # first depth - m symbols, and its mass is multiplied along the
    # links: the floats of the whole-word pullback and the row product
    lm = LorenzMap1D(alpha, beta)
    mu = equilibrium_measure(lm, build_horseshoe(lm, m, x_gap),
                             CoordinatePotential(), t=t)
    _assert_scheme_matches_full_pullback(lm, mu.horseshoe, range(m, m + 9),
                                         mu.stationary, mu.probs)


def test_scheme_dead_rows_match_full_pullback(lmap):
    # the whole depth-6 horseshoe allows tails the kneading data forbids:
    # those paths fall back to their deepest live prefix. Some of its
    # vertices have no successor, so no Markov measure lives on all of
    # it: the masses are taken of plain positive weights on its edges
    hs = build_horseshoe(lmap, 6, 0.002)
    rng = np.random.default_rng(5)
    probs = np.where(hs.next >= 0, rng.uniform(0.1, 1.0, hs.next.shape), 0.0)
    stationary = rng.uniform(0.1, 1.0, hs.n_vertices)
    assert _assert_scheme_matches_full_pullback(lmap, hs, (10,), stationary,
                                                probs) > 0



def _kept_bytes(scheme):
    """Bytes of every array a scheme keeps: its links and each array
    attribute (start, codes, lo, hi)."""
    arrays = [a for pair in scheme.links for a in pair]
    arrays += [v for v in vars(scheme).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (0.8, 1.99)])
def test_scheme_bytes_per_path(alpha, beta):
    # int32 links and start, the uint64 code, lo and hi, and no stored
    # midpoint: 48.7 and 45.2 bytes per path here, against 81.4 and 74.4
    # with int64 links and start and a stored midpoint
    lm = LorenzMap1D(alpha, beta)
    scheme = measures._CylinderScheme(lm, build_horseshoe(lm, 12, 0.05), 20)
    assert _kept_bytes(scheme) / len(scheme.codes) <= 52
    assert scheme.mid.tobytes() == (0.5 * (scheme.lo + scheme.hi)).tobytes()


def test_scheme_build_working_set_per_path(lmap):
    # 39,558 paths at depth 20; a build that took the L/R split from two
    # index lists, the bits from an int64 repeat and a new array per
    # pullback step peaked at 131 bytes per path, and this one at 63.
    # The levels are warm, as they are for every build after a model's
    # first
    hs = build_horseshoe(lmap, 12, 0.05)
    want = measures._CylinderScheme(lmap, hs, 20)
    tracemalloc.start()
    try:
        got = measures._CylinderScheme(lmap, hs, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("codes", "start", "lo", "hi"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert peak / len(got.codes) <= 90


_THREADS_PROBE = """
import geolorenz as gl
lm = gl.LorenzMap1D(1.0, 1.7)
phi = gl.parse_potential_spec("coord:x")
mu = gl.equilibrium_measure(lm, gl.build_horseshoe(lm, 12, 0.05), phi, t=-1.0)
value, bound = gl.integrate_map(phi, mu, 20)
print(len(gl.measures._scheme(lm, mu.horseshoe, 20).start),
      value.hex(), bound.hex())
"""


def test_markov_integral_independent_of_blas_threads():
    # the depth-20 scheme has 19,968 paths, long enough that a BLAS dot
    # would split the sum across threads
    import geolorenz

    root = os.path.dirname(os.path.dirname(os.path.abspath(
        geolorenz.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [root, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run(
            [sys.executable, "-c", _THREADS_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    assert outs[0].split()[0] == "19968"
    assert outs[0] == outs[1]
