"""Measure representations, entropy, integration, suspension, distance."""

import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from geolorenz import measures
from geolorenz import (
    AtomicMeasure,
    ConstantPotential,
    CoordinatePotential,
    DepthTooShallowError,
    LorenzMap1D,
    MarkovMeasure,
    PreconditionError,
    RoofFunction,
    SectionGridPotential,
    SFTHorseshoe,
    SingularDeltaMeasure,
    build_horseshoe,
    convex_combine,
    cylinder_interval,
    entropy_map,
    enumerate_periodic,
    equilibrium_measure,
    find_periodic_point,
    integrate_map,
    measure_distance,
    measure_from_payload,
    restrict_horseshoe,
    strongly_connected_components,
    suspend,
)


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
    pts = atom.points()
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
    dead = np.nonzero(horseshoe12.succ["L"] < 0)[0]
    if dead.size:
        i = int(dead[0])
        probs[i] = [0.5, 0.5]
        with pytest.raises(PreconditionError):
            MarkovMeasure(lmap, horseshoe12, probs, parry.stationary)


def test_markov_reducible_support_rejected(lmap):
    # full 2-shift on length-2 words; LL and RR carry self-loops
    words = ("LL", "LR", "RL", "RR")
    adj = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    # a proper support with two absorbing self-loops is reducible
    probs = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(PreconditionError, match="not irreducible"):
        MarkovMeasure(lmap, hs, probs, [0.5, 0.0, 0.0, 0.5])
    # a proper support along the 4-cycle LL -> LR -> RR -> RL is irreducible
    probs = [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
    MarkovMeasure(lmap, hs, probs, [0.25] * 4)
    # full support on a reducible adjacency: RR absorbs everything
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    probs = [[0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(PreconditionError, match="not irreducible"):
        MarkovMeasure(lmap, hs, probs, [0.0, 0.0, 0.0, 1.0])
    # full support, one cycle {LR, RL}, but LL only feeds into it
    adj = [[0, 1, 0], [0, 0, 1], [0, 1, 0]]
    hs = SFTHorseshoe.from_adjacency(2, words[:3], adj, lmap)
    probs = [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(PreconditionError, match="not irreducible"):
        MarkovMeasure(lmap, hs, probs, [0.0, 0.5, 0.5])


def test_cylinder_masses_are_probabilities(parry):
    for depth in (12, 14):
        masses = parry.cylinder_masses(depth)
        vals = np.array(list(masses.values()))
        assert np.all(vals >= 0.0)
        assert vals.sum() == pytest.approx(1.0, abs=1e-9)


def test_error_bound_honesty_over_seeded_potentials(parry):
    # refining the integration depth moves the value by less than the
    # coarse depth's reported bound, for 50 certified random potentials
    for seed in range(50):
        pot = SectionGridPotential.seeded(seed)
        v8, b8 = integrate_map(pot, parry, depth=8)
        v12, _ = integrate_map(pot, parry, depth=12)
        assert abs(v8 - v12) <= b8, "seed %d" % seed


def test_integrate_tol_guard(parry):
    pot = SectionGridPotential.seeded(3)
    with pytest.raises(DepthTooShallowError):
        integrate_map(pot, parry, depth=6, tol=1e-12)
    # at the scheme depth too, where the bound is a mass-weighted sum
    value, bound = integrate_map(pot, parry, depth=12)
    assert bound > 0.0
    assert integrate_map(pot, parry, depth=12, tol=bound) == (value, bound)
    with pytest.raises(DepthTooShallowError):
        integrate_map(pot, parry, depth=12, tol=0.5 * bound)


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


def test_model_only_caches_give_the_cold_floats(lmap, roof,
                                                fresh_model_cache,
                                                monkeypatch):
    # suspension, ball fractions and flow scans read cached roof and dwell
    # integrals (on the orbit records and the cylinder schemes) and must
    # return what cold caches return, bit for bit, hits and misses mixed
    from geolorenz.catalog import DEFAULT_RECIPE, build_catalog
    from geolorenz.spectrum import spectrum_scan

    monkeypatch.setattr(measures, "_scheme_cache", {})
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
    assert records and all(len(r.averages) == 3 for r in records)
    assert results(catalog()) == cold
    # cold again, then warm for half of the catalog only
    fresh_model_cache.clear()
    measures._scheme_cache.clear()
    members = catalog()
    results(members[::2])
    assert results(members) == cold
    # on warm caches each keyed integral equals that of the same integrand
    # without a key, which is never cached: a key missing a parameter of
    # the roof or the radius would read another integral's entries
    section = [m for m in members if not isinstance(m, SingularDeltaMeasure)]
    for integrand in (measures._RoofIntegrand(roof),
                      measures._RoofIntegrand(RoofFunction(1.0, 1.0, 0.25)),
                      measures._DwellIntegrand(roof, 0.05),
                      measures._DwellIntegrand(roof, 0.2),
                      measures._DwellIntegrand(RoofFunction(1.0, 1.0, 0.25),
                                               0.2)):
        keyless = types.SimpleNamespace(
            value=integrand.value, midpoint_error=integrand.midpoint_error)
        assert measures.integrate_many(integrand, section) == \
            measures.integrate_many(keyless, section)


def test_birkhoff_sampling_oracle(lmap, parry, coord):
    # seeded trajectory of the chain; its Birkhoff average of the
    # potential must approach the cylinder-midpoint integral
    rng = np.random.default_rng(12345)
    scheme_depth = parry.horseshoe.depth
    from geolorenz.symbolic import cylinder_levels

    level = cylinder_levels(lmap, scheme_depth)[scheme_depth]
    spans = dict(zip(level.words(), zip(level.lo.tolist(), level.hi.tolist())))
    i = int(np.argmax(parry.stationary))
    total, n_steps = 0.0, 20000
    for _ in range(n_steps):
        w = parry.horseshoe.vertices[i]
        lo, hi = spans[w]
        total += coord.value(0.5 * (lo + hi))
        p_l = parry.probs[i, 0]
        s = "L" if rng.random() < p_l else "R"
        i = int(parry.horseshoe.succ[s][i])
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
               lambda: integrate_map(coord, delta),
               lambda: measure_distance(delta, delta)):
        with pytest.raises(PreconditionError):
            op()


def test_measure_distance_is_a_metric(lmap, parry, tilted, atom):
    pool = [parry, tilted, atom,
            AtomicMeasure(lmap, find_periodic_point(lmap, "LR")),
            convex_combine([(0.5, parry), (0.5, atom)])]
    for a in pool:
        assert measure_distance(a, a) == 0.0
        for b in pool:
            dab = measure_distance(a, b)
            dba = measure_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-14)
            assert 0.0 <= dab <= 2.0 + 1e-12
            for c in pool:
                assert dab <= (measure_distance(a, c)
                               + measure_distance(c, b) + 1e-12)


def test_distance_separates_distinct_measures(parry, tilted, atom):
    assert measure_distance(parry, tilted) > 1e-4
    assert measure_distance(parry, atom) > 0.1


def test_payload_round_trip(lmap, parry, atom):
    mix = convex_combine([(0.25, atom), (0.75, parry)], label="mix")
    for m in (atom, parry, mix, SingularDeltaMeasure()):
        clone = measure_from_payload(lmap, m.to_payload())
        assert clone.id == m.id
        if not isinstance(m, SingularDeltaMeasure):
            assert measure_distance(m, clone) <= 1e-12


def test_equilibrium_is_stationary_markov(tilted):
    # construction already validates; spot-check the balance directly on
    # the measure's own (recurrent-part) horseshoe
    hs = tilted.horseshoe
    pi = tilted.stationary
    flow = np.zeros_like(pi)
    for k, s in enumerate("LR"):
        arr = hs.succ[s]
        ok = arr >= 0
        np.add.at(flow, arr[ok], pi[ok] * tilted.probs[ok, k])
    assert np.max(np.abs(flow - pi)) < 1e-10


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
    # with its stationary mass, evaluated on the prefix cylinder
    depth = 6
    assert depth < parry.horseshoe.depth
    masses = {}
    for w, pi in zip(parry.horseshoe.vertices, parry.stationary):
        masses[w[:depth]] = masses.get(w[:depth], 0.0) + float(pi)
    value = bound = 0.0
    for w in sorted(masses):
        lo, hi = _scalar_pullback(lmap, w)
        value += masses[w] * float(coord.value(0.5 * (lo + hi), 0.0))
        bound += masses[w] * float(coord.midpoint_error(lo, hi))
    assert integrate_map(coord, parry, depth=depth) == (value, bound)


@pytest.mark.parametrize("alpha, beta, rtol", [
    (1.0, 1.7, 0.0),
    (1.0, 1.95, 0.0),
    # numpy's vectorized power may differ from libm pow in the last bit
    (0.8, 1.99, 1e-14),
])
def test_scheme_intervals_match_scalar_inverse_branches(alpha, beta, rtol):
    lm = LorenzMap1D(alpha, beta)
    scheme = measures._CylinderScheme(lm, build_horseshoe(lm, 6, 0.002), 10)
    raw = np.array([_scalar_pullback(lm, w) for w in scheme.words])
    assert np.any(raw[:, 1] - raw[:, 0] <= 1e-12), \
        "no path exercises the dead-row fallback"
    ref = np.array([_scalar_scheme_interval(lm, w) for w in scheme.words])
    # cylinder_interval is the same pullback on a single row
    single = [cylinder_interval(lm, w) for w in scheme.words[::7]]
    for got, want in ((scheme.lo, ref[:, 0]), (scheme.hi, ref[:, 1]),
                      ([c.lo for c in single], raw[::7, 0]),
                      ([c.hi for c in single], raw[::7, 1])):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def _counting_scheme(monkeypatch):
    builds = []

    class Counting(measures._CylinderScheme):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(measures, "_CylinderScheme", Counting)
    monkeypatch.setattr(measures, "_scheme_cache", {})
    return builds


def test_scheme_cache_shared_by_equal_structures(monkeypatch, lmap,
                                                 horseshoe6):
    builds = _counting_scheme(monkeypatch)
    big = max(strongly_connected_components(horseshoe6), key=len)
    first = restrict_horseshoe(horseshoe6, big)
    second = restrict_horseshoe(horseshoe6, big)
    assert first is not second
    scheme = measures._scheme(lmap, first, 10)
    assert measures._scheme(lmap, second, 10) is scheme
    assert len(builds) == 1
    measures._scheme(lmap, second, 11)
    assert len(builds) == 2


def test_scheme_cache_keys_on_the_map(monkeypatch, lmap):
    # one vertex structure under two maps must give two schemes
    builds = _counting_scheme(monkeypatch)
    words = ("LR", "RL", "RR")
    adj = [[0, 1, 1], [1, 0, 0], [0, 1, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    other = LorenzMap1D(1.0, 1.95)
    a = measures._scheme(lmap, hs, 6)
    b = measures._scheme(other, hs, 6)
    assert len(builds) == 2
    assert not np.array_equal(a.lo, b.lo)
    ref = np.array([_scalar_scheme_interval(other, w) for w in b.words])
    assert np.array_equal(b.lo, ref[:, 0])


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
            nxt = horseshoe.succ[s][cur]
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
        assert scheme.words == words
        assert np.array_equal(scheme.start, start)
        assert np.array_equal(scheme.steps, 2 * steps_v + steps_s)
        want = mu.stationary[start]
        if steps_v.shape[1]:
            want = want * np.prod(mu.probs[steps_v, steps_s], axis=1)
        assert np.array_equal(scheme.masses(mu.stationary, mu.probs), want)


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
