"""Symbolic dynamics: kneading, admissibility, cylinders, orbits, horseshoes.

The oracles here are deliberately independent of the library internals:
at alpha = 1 with rational beta the map is exact in Fraction arithmetic,
so kneading words, lap counts, and preimage trees can be recomputed from
scratch and compared.
"""

import itertools
import math
import re
import tracemalloc
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from geolorenz import (
    ConstantPotential,
    DomainError,
    EmptyHorseshoeError,
    InadmissibleWordError,
    LorenzMap1D,
    PreconditionError,
    admissible_words,
    build_horseshoe,
    cylinder_levels,
    entropy_map,
    enumerate_periodic,
    equilibrium_measure,
    find_periodic_point,
    kneading,
    pressure_transfer,
    restrict_horseshoe,
    strongly_connected_components,
)
from geolorenz import symbolic
from word_oracles import (is_admissible, itinerary_of, least_rotation,
                          periodic_word_admissible, successors)

BETA = Fraction(17, 10)


def spans_of(level):
    """A cylinder level as a dict from word to (lo, hi)."""
    return dict(zip(symbolic.decode_words(level.codes, level.depth),
                    zip(level.lo.tolist(), level.hi.tolist())))


def exact_step(x, beta=BETA):
    # f(x) = beta*x - sign(x) at alpha = 1, exact in rationals
    assert x != 0
    return beta * x - (1 if x > 0 else -1)


def exact_itinerary(x, n, beta=BETA):
    out = []
    for _ in range(n):
        assert x != 0
        out.append("R" if x > 0 else "L")
        x = exact_step(x, beta)
    return "".join(out)


def exact_edges(n, beta=BETA):
    """The breakpoints of f^n at alpha = 1, -1 and 1 included, sorted, by
    the exact preimage tree of 0; `beta` is taken exactly as a Fraction.

    Interior breakpoints of f^n are the preimages of 0 up to order n-1.
    """
    b = Fraction(beta)
    level = {Fraction(0)}
    breaks = set(level) if n else set()
    for _ in range(n - 1):
        level = {x for t in level for x in ((t + 1) / b, (t - 1) / b)
                 if -1 < x < 1 and x != 0}
        breaks |= level
    return [Fraction(-1)] + sorted(breaks) + [Fraction(1)]


def exact_lap_count(n):
    """Number of monotone laps of f^n: one per interval between
    neighbouring breakpoints."""
    return len(exact_edges(n)) - 1


def all_words(length):
    out = [""]
    for _ in range(length):
        out = [w + s for w in out for s in "LR"]
    return out


def test_kneading_matches_exact_arithmetic(lmap):
    kp = kneading(lmap, 64)
    assert kp.k_minus == exact_itinerary(Fraction(1), 64)
    assert kp.k_plus == exact_itinerary(Fraction(-1), 64)
    assert kp.depth == 64
    assert kp.k_minus.startswith("RRRL")
    assert kp.k_plus.startswith("LLLR")


def test_kneading_symmetric_pair(lmap):
    # odd symmetry of the map swaps the two kneading words
    kp = kneading(lmap, 48)
    swapped = kp.k_plus.translate(str.maketrans("LR", "RL"))
    assert kp.k_minus == swapped


def assert_admissible_iff_in_levels(lm, n_max):
    # the kneading criterion of the oracle against membership in the
    # cylinder levels, which the library enumerates by pullback
    kp = kneading(lm, 16)
    for n in range(1, n_max + 1):
        live = set(admissible_words(lm, n))
        for w in all_words(n):
            assert is_admissible(w, kp) == (w in live), w


def test_admissibility_equals_nonemptiness_exhaustive(lmap):
    assert_admissible_iff_in_levels(lmap, 10)


def test_admissibility_equals_nonemptiness_other_beta():
    assert_admissible_iff_in_levels(LorenzMap1D(alpha=1.0, beta=1.9), 10)


def test_lap_counts_match_exact_preimage_tree(fresh_model_cache, lmap):
    # the counts first, on a fresh store: they read no level
    for n in range(1, 15):
        assert symbolic.lap_count(lmap, n) == exact_lap_count(n)
    assert list(lmap.store.levels) == [0]
    for n in (13, 14):
        assert len(cylinder_levels(lmap, n)[n]) == exact_lap_count(n)


def test_lap_growth_rate_near_log_beta(lmap):
    n13 = exact_lap_count(13)
    n14 = exact_lap_count(14)
    rate = math.log(n14 / n13)
    assert rate == pytest.approx(math.log(1.7), rel=0.02)


def test_cylinder_nesting_and_disjointness(lmap):
    levels = [spans_of(level) for level in cylinder_levels(lmap, 7)]
    for n in range(1, 7):
        for w, (lo, hi) in levels[n].items():
            for s in "LR":
                child = levels[n + 1].get(w + s)
                if child is not None:
                    assert lo - 1e-14 <= child[0] and child[1] <= hi + 1e-14
        # distinct same-length cylinders have disjoint interiors
        spans = sorted(levels[n].values())
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2 + 1e-14
        # width bound from the minimal slope
        for w, (lo, hi) in levels[n].items():
            assert hi - lo <= 2.0 * lmap.min_slope() ** (-n) + 1e-14


def test_cylinder_itinerary_prefix(lmap):
    levels = [spans_of(level) for level in cylinder_levels(lmap, 6)]
    for w, (lo, hi) in levels[6].items():
        mid = 0.5 * (lo + hi)
        assert itinerary_of(lmap, mid, 6) == w


def test_periodic_records(lmap):
    records = enumerate_periodic(lmap, 7)
    assert records
    seen = set()
    for rec in records:
        assert rec.word == least_rotation(rec.word)
        assert rec.word not in seen
        seen.add(rec.word)
        # coding consistency and closure
        assert itinerary_of(lmap, rec.point, rec.period) == rec.word
        orbit = lmap.iterate(rec.point, rec.period)
        assert abs(lmap(orbit[-1]) - rec.point) <= 1e-10
        assert rec.multiplier > math.sqrt(2.0) ** rec.period
    # deterministic ordering: by period then word
    keys = [(r.period, r.word) for r in records]
    assert keys == sorted(keys)


def test_no_fixed_points_but_rl_cycle(lmap):
    records = enumerate_periodic(lmap, 2)
    assert [r.word for r in records] == ["LR"]
    rec = records[0]
    assert rec.point == pytest.approx(-10.0 / 27.0, rel=1e-12)


def test_find_periodic_point_rejections(lmap):
    with pytest.raises(PreconditionError):
        find_periodic_point(lmap, "LRLR")  # not primitive
    with pytest.raises(InadmissibleWordError):
        find_periodic_point(lmap, "R")  # no fixed points in this model


def test_exact_periodic_point_value(lmap):
    # the LR point solves f(f(x)) = x through the L then R branch
    rec = find_periodic_point(lmap, "LR")
    x = Fraction(-10, 27)  # solves beta*(beta*x + 1) - 1 = x
    assert exact_itinerary(x, 2) == "LR"
    assert rec.point == pytest.approx(float(x), abs=1e-12)


def test_horseshoe_vertex_rule_brute_force(lmap):
    depth, gap = 8, 0.01
    hs = build_horseshoe(lmap, depth, gap)
    levels = [spans_of(level) for level in cylinder_levels(lmap, depth)]

    def dist0(span):
        lo, hi = span
        if lo <= 0.0 <= hi:
            return 0.0
        return min(abs(lo), abs(hi))

    expected = sorted(
        w for w, span in levels[depth].items()
        if dist0(span) >= gap and dist0(levels[depth - 1][w[1:]]) >= gap)
    assert list(hs.vertices) == expected


def test_horseshoe_edges_are_shift_compatible(lmap, horseshoe6):
    joined = spans_of(cylinder_levels(lmap, 7)[7])
    for i, w in enumerate(horseshoe6.vertices):
        for s, j in successors(horseshoe6, i):
            v = horseshoe6.vertices[j]
            assert v == w[1:] + s
            assert w + s in joined


def test_horseshoe_cycle_orbit_avoids_gap(lmap):
    full = build_horseshoe(lmap, 10, 0.05)
    big = max(strongly_connected_components(full), key=len)
    hs = restrict_horseshoe(full, big)
    # walk the recurrent part until a vertex repeats, then check the
    # actual periodic orbit of the cycle word against the gap
    i, path = 0, []
    seen = {}
    while i not in seen:
        seen[i] = len(path)
        path.append(i)
        succs = successors(hs, i)
        assert succs, "stranded vertex inside a strongly connected component"
        i = succs[0][1]
    cycle = path[seen[i]:]
    word = "".join(hs.vertices[j][0] for j in cycle)
    rec = find_periodic_point(lmap, least_rotation(word))
    for x in rec.orbit_points(lmap):
        assert abs(x) >= full.x_gap


def test_horseshoe_small_gap_recovers_all_but_boundary(lmap):
    depth = 6
    hs = build_horseshoe(lmap, depth, 1e-9)
    levels = [spans_of(level) for level in cylinder_levels(lmap, depth)]

    def touches(span):
        return span[0] <= 0.0 <= span[1]

    excluded = {w for w, span in levels[depth].items()
                if touches(span) or touches(levels[depth - 1][w[1:]])}
    assert set(hs.vertices) == set(levels[depth]) - excluded
    # the boundary set is the only loss and it is small
    assert 0 < len(excluded) <= 2 * depth


def test_horseshoe_guards(lmap):
    with pytest.raises(PreconditionError):
        build_horseshoe(lmap, 0, 0.0)
    with pytest.raises(PreconditionError):
        build_horseshoe(lmap, 8, -0.01)
    with pytest.raises(PreconditionError):
        build_horseshoe(lmap, 8, 1.0)
    # both depth-1 cylinders reach the singular line
    with pytest.raises(EmptyHorseshoeError):
        build_horseshoe(lmap, 1, 0.01)
    with pytest.raises(EmptyHorseshoeError):
        build_horseshoe(lmap, 8, 0.9)


def test_far_horseshoe_degenerates_to_two_cycle(lmap):
    hs = build_horseshoe(lmap, 10, 0.2)
    comps = strongly_connected_components(hs)
    # partition check
    counted = sorted(i for comp in comps for i in comp)
    assert counted == list(range(hs.n_vertices))
    sizes = sorted(len(c) for c in comps)
    assert sizes[-1] == 2
    big = max(comps, key=len)
    words = {hs.vertices[i] for i in big}
    assert words == {w for w in hs.vertices
                     if w in ("LR" * 5, "RL" * 5)}


def test_restrict_horseshoe_keeps_adjacency(lmap, horseshoe12):
    comps = strongly_connected_components(horseshoe12)
    big = max(comps, key=len)
    sub = restrict_horseshoe(horseshoe12, big)
    assert sub.n_vertices == len(big)
    assert len(strongly_connected_components(sub)) == 1
    assert sub.edge_count() > 0


def test_full_shift_vertex_count_matches_admissible(lmap):
    for depth in (4, 8):
        sft = build_horseshoe(lmap, depth, 0.0)
        assert sft.n_vertices == len(cylinder_levels(lmap, depth)[depth])
        assert 0.0 < sft.adjacency_density() <= 1.0


def test_matched_depth_entropy_bound(lmap):
    zero = ConstantPotential(0.0)
    for depth, gap in ((6, 0.002), (12, 0.002), (10, 0.05)):
        hs = build_horseshoe(lmap, depth, gap)
        h_sft = entropy_map(equilibrium_measure(lmap, hs, zero, t=0.0))
        ambient = pressure_transfer(lmap, zero, depth=depth).value
        assert h_sft <= ambient + 1e-6


def test_adjacency_matrix_agrees_with_successors(horseshoe6):
    mat = horseshoe6.adjacency_matrix()
    n = horseshoe6.n_vertices
    expected = np.zeros((n, n))
    for i in range(n):
        for _, j in successors(horseshoe6, i):
            expected[i, j] = 1.0
    assert np.array_equal(mat, expected)
    assert horseshoe6.edge_count() == int(expected.sum())


def scalar_levels(lm, depth):
    """Cylinder levels by plain recursion over scalar inverse branches.

    The reference for the array enumeration: dicts from word to (lo, hi),
    built with no numpy and no word codes.
    """
    levels = [{"": (-1.0, 1.0)}]
    for _ in range(depth):
        nxt = {}
        for s in "LR":
            for w, (lo, hi) in levels[-1].items():
                a = lm.inverse_branch(s, lo, clip=True)
                b = lm.inverse_branch(s, hi, clip=True)
                if b - a > 1e-12:
                    nxt[s + w] = (a, b)
        levels.append(nxt)
    return levels


@pytest.mark.parametrize("alpha, beta, rtol, atol", [
    (1.0, 1.7, 0.0, 0.0),
    (1.0, 1.95, 0.0, 0.0),
    # numpy's vectorized power may differ from libm pow in the last bit;
    # the difference stays near one ulp of 1, which is a larger relative
    # error at endpoints close to 0
    (0.8, 1.99, 1e-14, 4 * np.finfo(float).eps),
])
def test_cylinder_levels_match_scalar_recursion(alpha, beta, rtol, atol):
    lm = LorenzMap1D(alpha, beta)
    want = scalar_levels(lm, 12)
    got = cylinder_levels(lm, 12)
    for d in range(13):
        words = sorted(want[d])
        assert symbolic.decode_words(got[d].codes, d) == words
        ends = np.array([want[d][w] for w in words])
        np.testing.assert_allclose(got[d].lo, ends[:, 0], rtol=rtol, atol=atol)
        np.testing.assert_allclose(got[d].hi, ends[:, 1], rtol=rtol, atol=atol)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (0.8, 1.99)])
def test_level_codes_increase_and_decode_to_admissible_words(alpha, beta):
    lm = LorenzMap1D(alpha, beta)
    levels = cylinder_levels(lm, 12)
    for d in range(1, 13):
        codes = [int(c) for c in levels[d].codes]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        decoded = [format(c, "0%db" % d).replace("0", "L").replace("1", "R")
                   for c in codes]
        assert decoded == list(admissible_words(lm, d))
        assert len(levels[d]) == len(decoded)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (0.8, 1.99)])
def test_admissible_words_view_matches_format_oracle(alpha, beta,
                                                     monkeypatch):
    lm = LorenzMap1D(alpha, beta)
    level = cylinder_levels(lm, 19)[19]

    def no_decoding(codes, depth):
        raise AssertionError("a word count decoded its words")

    with monkeypatch.context() as m:
        m.setattr(symbolic, "decode_words", no_decoding)
        words = admissible_words(lm, 19)
        assert len(words) == len(level)
        assert "L" * 19 not in words

    depth = 10
    codes = cylinder_levels(lm, depth)[depth].codes

    def oracle(c):
        return format(int(c), "0%db" % depth).replace("0", "L").replace(
            "1", "R")

    want = [oracle(c) for c in codes]
    words = admissible_words(lm, depth)
    # iteration across decode blocks
    monkeypatch.setattr(symbolic, "_DECODE_BLOCK", 7)
    assert len(want) > 2 * 7
    assert list(words) == want
    # indices, negative and out of range
    n = len(want)
    for i in (0, 6, 7, n - 1, -1, -7, -n):
        assert words[i] == want[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            words[i]
    # slices, with steps
    for sl in (slice(None), slice(3, 40, 5), slice(None, None, -3),
               slice(-10, None, 2), slice(n, None)):
        assert words[sl] == want[sl]
    # membership: admitted, inadmissible, wrong length, not over L/R
    absent = np.setdiff1d(np.arange(1 << depth, dtype=np.uint64), codes)
    assert absent.size
    assert all(w in words for w in want[::17])
    assert not any(oracle(c) in words for c in absent)
    for other in (want[0][:-1], want[0] + "L", want[0].lower(),
                  "X" * depth, list(want[0]), None, 7):
        assert other not in words


# the centres of the eight sweep benchmark bands, then the two hard models
LAP_MODELS = [(1.0, 1.45), (1.0, 1.52), (1.0, 1.60), (1.0, 1.68),
              (1.0, 1.76), (1.0, 1.86), (1.0, 1.945), (0.8, 1.985),
              (0.8, 1.99), (0.9, 1.8)]


# three alphas, each with five betas the validator admits (alpha * beta
# above sqrt(2), beta below 2)
LAP_GRID = [(0.8, b) for b in (1.78, 1.83, 1.88, 1.93, 1.98)] + \
           [(0.9, b) for b in (1.58, 1.68, 1.78, 1.88, 1.98)] + \
           [(1.0, b) for b in (1.42, 1.56, 1.70, 1.84, 1.98)]


# the two sliver models: finite kneading, K = 2 and K = 4
GOLDEN = (1 + math.sqrt(5)) / 2
SLIVER = 1.9275619754829254

# models whose critical orbits pass 0 by more than SINGULAR_TOL, so their
# kneading pairs never end, yet their run ends hold real cylinders
# narrower than 1e-12 from depth 3 (or 5) on
NEAR_SLIVERS = [(1.0, GOLDEN + 1e-13), (1.0, SLIVER + 1e-13),
                (0.9, 1.5951873284904379)]


@pytest.mark.parametrize("alpha, beta, deepest, dropping", [
    *((a, b, 20, False) for a, b in LAP_MODELS + LAP_GRID + NEAR_SLIVERS),
    # finite kneading: both run ends are dropped at most depths of these
    # two
    (1.0, GOLDEN, 24, True),
    (1.0, SLIVER, 20, True),
    # finite kneading one ulp below them, where the float breakpoint at
    # 1 - beta lies left of it, so the runs hold no empty end to drop
    (1.0, math.nextafter(GOLDEN, 0.0), 24, False),
    (1.0, math.nextafter(SLIVER, 0.0), 20, False)])
def test_lap_count_equals_the_level_it_does_not_build(fresh_model_cache,
                                                      alpha, beta, deepest,
                                                      dropping):
    lm = LorenzMap1D(alpha, beta)
    fresh_model_cache(lm)
    # the counts come from the kneading pair alone, on a fresh store, so
    # they share no work with the levels built after them
    counts = [symbolic.lap_count(lm, d) for d in range(deepest + 1)]
    assert list(lm.store.levels) == [0]
    levels = cylinder_levels(lm, deepest)
    assert counts == [len(level) for level in levels]
    edge = beta - 1.0
    dropped = 0
    for parent, count in zip(levels, counts[1:]):
        first = int(np.searchsorted(parent.hi, -edge))
        stop = int(np.searchsorted(parent.lo, edge, side="right"))
        dropped += len(parent) - first + stop - count
    assert bool(dropped) == dropping
    # a view's len() is the count of the words it yields
    for d in range(13):
        words = admissible_words(lm, d)
        assert len(words) == sum(1 for _ in words)


def test_lap_count_of_a_view_leaves_its_level_unbuilt(fresh_model_cache):
    lm = LorenzMap1D(0.8, 1.985)
    fresh_model_cache(lm)
    words = admissible_words(lm, 19)
    assert list(lm.store.levels) == [0]
    count = len(words)
    assert repr(words) == "Words(depth=19, count=%d)" % count
    assert list(lm.store.levels) == [0]
    # the first read builds the codes
    assert "L" * 19 not in words
    assert max(lm.store.levels) == 19
    assert len(words) == count == len(cylinder_levels(lm, 19)[19])
    # nor is the deepest level built to be counted
    lm = LorenzMap1D(0.8, 1.99)
    fresh_model_cache(lm)
    count = len(admissible_words(lm, symbolic.MAX_DEPTH))
    assert list(lm.store.levels) == [0]
    assert 1.9 < count / symbolic.lap_count(lm, symbolic.MAX_DEPTH - 1) < 2


@pytest.mark.parametrize("depth", [-3, 2.5, symbolic.MAX_DEPTH + 1, "3"])
def test_lap_count_rejects_a_bad_depth_before_building(fresh_model_cache,
                                                       depth):
    lm = LorenzMap1D(1.0, 1.95)
    fresh_model_cache(lm)
    with pytest.raises(PreconditionError) as want:
        cylinder_levels(lm, depth)
    for count in (symbolic.lap_count, admissible_words):
        with pytest.raises(PreconditionError) as got:
            count(lm, depth)
        assert str(got.value) == str(want.value)
    assert list(lm.store.levels) == [0]


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.95), (0.8, 1.99)])
def test_sft_edges_follow_the_string_rule(alpha, beta):
    lm = LorenzMap1D(alpha, beta)
    for depth, gap in ((6, 0.0), (9, 0.0), (6, 0.002), (9, 0.01)):
        sft = build_horseshoe(lm, depth, gap)
        joined = scalar_levels(lm, depth + 1)[depth + 1]
        vertices = set(sft.vertices)
        for i, w in enumerate(sft.vertices):
            for k, s in enumerate("LR"):
                j = int(sft.next[i, k])
                if w + s in joined and w[1:] + s in vertices:
                    assert j >= 0 and sft.vertices[j] == w[1:] + s
                else:
                    assert j == -1


def test_decode_spans_several_blocks():
    level = cylinder_levels(LorenzMap1D(1.0, 1.95), 18)[18]
    assert len(level) > 2 * symbolic._DECODE_BLOCK
    assert symbolic.decode_words(level.codes, level.depth) == [
        format(int(c), "018b").replace("0", "L").replace("1", "R")
        for c in level.codes]


def test_word_codes_hold_at_most_64_symbols():
    # a longer word must not wrap around
    u = "R" + "LR" * 32
    with pytest.raises(PreconditionError, match="at most 64 symbols"):
        symbolic.encode_words([u])
    assert symbolic.encode_words([u[1:]]).tolist() == [int("01" * 32, 2)]


@pytest.mark.parametrize("depth", [-1, -3, 2.5, symbolic.MAX_DEPTH + 1])
def test_cylinder_levels_depth_cap(lmap, depth):
    for enumerate_words in (cylinder_levels, admissible_words):
        with pytest.raises(PreconditionError, match=str(depth)):
            enumerate_words(lmap, depth)


@pytest.mark.parametrize("depth", [0, -1, 2.5, 3.0])
def test_kneading_depth_must_be_a_positive_integer(lmap, depth):
    # a fractional depth used to be truncated to a shorter pair
    with pytest.raises(PreconditionError,
                       match="kneading depth %s is not" % re.escape(repr(depth))):
        kneading(lmap, depth)


@pytest.mark.parametrize("depth", [0, 24, 6.0])
def test_horseshoe_depth_names_the_value_passed(lmap, depth):
    # the edges read the depth + 1 cylinders; the message names the
    # horseshoe depth, not that one
    with pytest.raises(PreconditionError,
                       match=r"horseshoe depth %s is not an integer in \[1, 23\]"
                       % re.escape(repr(depth))):
        build_horseshoe(lmap, depth, 0.01)


def test_deepest_horseshoe_builds(fresh_model_cache):
    # 23 is the deepest horseshoe; the slowest-growing admissible model
    # keeps its depth-24 level small
    assert build_horseshoe(LorenzMap1D(1.0, 1.45), 23, 0.0).depth == 23


def test_cylinder_levels_continue_the_deepest_list(fresh_model_cache):
    # one list per model: 12 -> 19 -> 15 extends the depth-12 list to 19,
    # then slices it; every level must equal a cold build bit for bit
    lm = LorenzMap1D(1.0, 1.7)
    cold = {}
    for depth in (12, 19, 15):
        fresh_model_cache(lm)
        cold[depth] = cylinder_levels(lm, depth)
    fresh_model_cache(lm)
    warm = {}
    for depth in (12, 19, 15):
        warm[depth] = cylinder_levels(lm, depth)
        assert len(warm[depth]) == len(cold[depth]) == depth + 1
        for got, want in zip(warm[depth], cold[depth]):
            assert got.depth == want.depth
            for attr in ("codes", "edges"):
                assert (getattr(got, attr).tobytes()
                        == getattr(want, attr).tobytes())
        assert cylinder_levels(lm, depth) is warm[depth]
    # each level was built once: the lists share their level objects
    assert all(a is b for a, b in zip(warm[15], warm[19]))
    assert all(a is b for a, b in zip(warm[12], warm[19]))


# ---------------------------------------------------------------------------
# the level extension by branch runs against the loop it replaced

# the width at or below which the reference drops a pulled cylinder: the
# float emptiness rule the levels used before the kneading pair decided
REFERENCE_WIDTH = 1e-12


def _reference_extend_levels(lmap, levels, depth):
    """Levels extended with two full-width pullbacks and four compresses
    per level, as first written: every cylinder keeps its own lo and hi,
    and one mask drops every pulled cylinder of width <= REFERENCE_WIDTH.
    Returns the new levels only, as namespaces of (depth, codes, lo, hi).
    It reads no kneading pair, so it shares no code with the rule the
    levels follow; away from the slivers the two agree bit for bit.
    """
    level = levels[-1]
    ends = np.vstack([level.lo, level.hi])
    out = []
    for d in range(len(levels) - 1, depth):
        # the word s + w has code s << d | code(w); the L half then the
        # R half keeps the codes sorted
        pulled = [symbolic._inverse_step(lmap, s == "R", ends)
                  for s in symbolic.ALPHABET]
        live = [p[1] - p[0] > REFERENCE_WIDTH for p in pulled]
        cut = np.cumsum([0] + [np.count_nonzero(m) for m in live])
        codes = np.empty(cut[-1], dtype=np.uint64)
        ends = np.empty((2, cut[-1]))
        for bit in range(len(symbolic.ALPHABET)):
            part = slice(cut[bit], cut[bit + 1])
            np.compress(live[bit], level.codes, out=codes[part])
            codes[part] |= np.uint64(bit << d)
            np.compress(live[bit], pulled[bit], axis=1, out=ends[:, part])
        level = types.SimpleNamespace(depth=d + 1, codes=codes, lo=ends[0],
                                      hi=ends[1])
        out.append(level)
    return out


def assert_partition(level):
    """One breakpoint array partitions [-1, 1] into cylinders of positive
    width in code (= spatial) order; lo and hi are views of it."""
    edges = level.edges
    assert len(edges) == len(level) + 1
    assert edges[0] == -1.0 and edges[-1] == 1.0
    assert (np.diff(edges) > 0.0).all()
    assert level.lo.tobytes() == edges[:-1].tobytes()
    assert level.hi.tobytes() == edges[1:].tobytes()
    assert np.shares_memory(level.lo, edges)
    assert np.shares_memory(level.hi, edges)


def junction_of(level):
    """Index of the last L cylinder, whose hi is the slot at x = 0."""
    return int(np.searchsorted(level.codes,
                               np.uint64(1 << (level.depth - 1)))) - 1


@pytest.mark.parametrize("alpha, beta", [
    (1.0, 1.45), (1.0, 1.5602), (1.0, 1.7), (1.0, 1.82), (1.0, 1.945),
    (1.0, 1.999), (0.8, 1.99), (0.9, 1.8), (0.75, 1.95)])
def test_level_runs_match_reference_extension(alpha, beta):
    lm = LorenzMap1D(alpha, beta)
    root = symbolic._ModelStore().levels[0]
    got = symbolic._extend_levels(lm, root, 20)
    want = _reference_extend_levels(lm, root, 20)
    assert len(got) == 21
    assert_partition(got[0])
    for level, ref in zip(got[1:], want):
        assert level.depth == ref.depth
        assert_partition(level)
        assert level.codes.tobytes() == ref.codes.tobytes()
        assert level.lo.tobytes() == ref.lo.tobytes()
        # the one slot the two pulls share: the reference's last L hi is
        # the L pull of 1, -0.0; the level keeps the R pull of -1, +0.0
        j = junction_of(level)
        assert ref.hi[j] == 0.0 and np.signbit(ref.hi[j])
        assert level.hi[j] == 0.0 and not np.signbit(level.hi[j])
        hi = ref.hi.copy()
        hi[j] = 0.0
        assert level.hi.tobytes() == hi.tobytes()


@pytest.mark.parametrize("beta, depth, drops", [
    ((1.0 + 5.0 ** 0.5) / 2.0, 24, 44), (1.9275619754829254, 20, 32)])
def test_level_runs_drop_empty_run_ends_at_sliver_models(beta, depth, drops):
    # at these models the first L cylinder and the last R cylinder of a
    # run are empty at every depth from 3 (golden ratio) or 5 on: width 0
    # or 1.1e-16 after the pullback. The reference drops them and leaves
    # the neighbour its rounded end; the runs give it the clamped end
    lm = LorenzMap1D(1.0, beta)
    root = symbolic._ModelStore().levels[0]
    got = symbolic._extend_levels(lm, root, depth)
    want = _reference_extend_levels(lm, root, depth)
    edge = beta - 1.0
    dropped = 0
    for prev, level, ref in zip(got, got[1:], want):
        assert_partition(level)
        assert level.codes.tobytes() == ref.codes.tobytes()
        for mine, theirs in ((level.lo, ref.lo), (level.hi, ref.hi)):
            assert np.abs(mine - theirs).max() <= 2 * REFERENCE_WIDTH
        runs = (len(prev) - int(np.searchsorted(prev.hi, -edge))
                + int(np.searchsorted(prev.lo, edge, side="right")))
        dropped += runs - len(level)
    assert dropped == drops


@pytest.mark.parametrize("beta", [1.7, GOLDEN + 1e-13, SLIVER + 1e-13])
def test_level_run_ends_match_exact_rational_levels(beta):
    # the kneading pairs of these models never end, so the levels keep
    # every run end, however thin: at the two near-sliver models the end
    # cylinders shrink below 1e-12 from depth 3 (or 5) on. Each exact
    # cylinder, an interval between neighbouring exact breakpoints, is
    # named by the exact itinerary of its midpoint; nothing is rounded,
    # so no width decides emptiness
    lm = LorenzMap1D(1.0, beta)
    levels = symbolic._extend_levels(lm, symbolic._ModelStore().levels[0],
                                     12)
    thinnest = math.inf
    for n, level in enumerate(levels):
        edges = exact_edges(n, beta)
        words = [exact_itinerary((lo + hi) / 2, n, Fraction(beta))
                 for lo, hi in zip(edges, edges[1:])]
        assert symbolic.decode_words(level.codes, n) == words
        assert np.abs(level.edges - [float(e) for e in edges]).max() < 1e-15
        thinnest = min(thinnest, *(level.hi - level.lo))
    assert (thinnest < REFERENCE_WIDTH) == (beta != 1.7)


def test_inverse_step_writes_only_out():
    lm = LorenzMap1D(0.8, 1.99)
    ends = np.vstack([np.linspace(-1.0, 0.9, 7), np.linspace(-0.9, 1.0, 7)])
    before = ends.tobytes()
    for right in (False, True, np.arange(7) % 2 == 1):
        # the whole array and non-contiguous column slices
        for cols in (slice(None), slice(1, 6), slice(0, 7, 2)):
            src = ends[:, cols]
            branch = right if np.ndim(right) == 0 else right[cols]
            fresh = symbolic._inverse_step(lm, branch, src)
            out = np.full((2, 9), np.nan)[:, 1:1 + src.shape[1]]
            got = symbolic._inverse_step(lm, branch, src, out=out)
            assert got is out
            assert np.array_equal(out, fresh)
            assert ends.tobytes() == before


def test_live_maps_of_one_model_share_its_store(fresh_model_cache):
    # levels, horseshoes and periodic orbits live in one store per model,
    # which every live map of that (alpha, beta) holds
    one = LorenzMap1D(1.0, 1.62)
    two = LorenzMap1D(1.0, 1.62)
    assert one.store is two.store
    assert LorenzMap1D(1.0, 1.64).store is not one.store
    assert cylinder_levels(one, 6) is cylinder_levels(two, 6)
    assert build_horseshoe(one, 6, 0.01) is build_horseshoe(two, 6, 0.01)
    assert enumerate_periodic(one, 4)[-1] is enumerate_periodic(two, 4)[-1]


def test_a_live_map_keeps_its_store_while_other_models_pass():
    # a map kept alive keeps its model's objects however many other
    # models are built and dropped meanwhile
    kept = LorenzMap1D(1.0, 1.62)
    levels = cylinder_levels(kept, 6)
    horseshoe = build_horseshoe(kept, 6, 0.01)
    orbits = enumerate_periodic(kept, 4)
    for k in range(20):
        lm = LorenzMap1D(1.0, 1.501 + 0.02 * k)
        cylinder_levels(lm, 6)
        build_horseshoe(lm, 6, 0.01)
        enumerate_periodic(lm, 4)
    del lm
    assert cylinder_levels(kept, 6) is levels
    assert build_horseshoe(kept, 6, 0.01) is horseshoe
    assert enumerate_periodic(kept, 4)[-1] is orbits[-1]


def test_restrict_horseshoe_succ_matches_dict_remap(horseshoe12):
    for comp in strongly_connected_components(horseshoe12):
        sub = restrict_horseshoe(horseshoe12, comp)
        remap = {int(old): new for new, old in enumerate(sorted(comp))}
        for k in range(2):
            want = np.array([remap.get(int(j), -1)
                             for j in horseshoe12.next[np.sort(comp), k]],
                            dtype=np.int64)
            assert sub.next[:, k].tobytes() == want.tobytes()


def kosaraju(graph):
    """Kosaraju SCC decomposition in plain Python: the oracle for the array one.

    Same contract: index arrays, each ascending, ordered by smallest index.
    """
    n = graph.n_vertices
    succs = graph.next.T
    order = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, 0)]
        seen[start] = True
        while stack:
            node, si = stack.pop()
            if si < len(succs):
                stack.append((node, si + 1))
                nxt = int(succs[si][node])
                if nxt >= 0 and not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
    preds = [[] for _ in range(n)]
    for arr in succs:
        for u in range(n):
            v = int(arr[u])
            if v >= 0:
                preds[v].append(u)
    comp = [-1] * n
    ncomp = 0
    for node in reversed(order):
        if comp[node] >= 0:
            continue
        stack = [node]
        comp[node] = ncomp
        while stack:
            u = stack.pop()
            for w in preds[u]:
                if comp[w] < 0:
                    comp[w] = ncomp
                    stack.append(w)
        ncomp += 1
    groups = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    comps = [np.array(sorted(g), dtype=np.int64) for g in groups.values()]
    comps.sort(key=lambda a: int(a[0]))
    return comps


def assert_same_components(graph):
    got = strongly_connected_components(graph)
    want = kosaraju(graph)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    return got


def graph_of(n, edges):
    """Successor graph with edges (u, v, symbol) as the SCC functions read it."""
    table = np.full((n, 2), -1, dtype=np.int64)
    for u, v, s in edges:
        table[u, "LR".index(s)] = v
    return types.SimpleNamespace(n_vertices=n, next=table)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (1.0, 1.95),
                                         (0.8, 1.99)])
def test_scc_matches_kosaraju_on_horseshoes(alpha, beta):
    lm = LorenzMap1D(alpha, beta)
    sizes = set()
    for graph in (build_horseshoe(lm, 12, 0.002), build_horseshoe(lm, 10, 0.2),
                  build_horseshoe(lm, 9, 0.05), build_horseshoe(lm, 8, 0.0)):
        sizes.add(len(assert_same_components(graph)))
    assert max(sizes) > 1  # some graph here is reducible


def test_scc_matches_kosaraju_on_random_shift_graphs():
    rng = np.random.default_rng(20261018)
    for depth in (3, 5, 8):
        n = 1 << depth
        for keep in (0.45, 0.6, 0.8, 0.95):
            # vertex i is the word of code i; its successor on symbol s is
            # the code of i[1:] + s, kept with probability `keep`
            edges = [(i, ((i << 1) | bit) & (n - 1), s)
                     for i in range(n) for bit, s in enumerate("LR")
                     if rng.random() < keep]
            assert_same_components(graph_of(n, edges))


def test_scc_small_graphs():
    chain = graph_of(4, [(0, 1, "L"), (1, 2, "R"), (2, 3, "L")])
    assert [c.tolist() for c in assert_same_components(chain)] == [
        [0], [1], [2], [3]]
    loop = graph_of(3, [(0, 1, "L"), (1, 1, "R"), (1, 2, "L")])
    assert [c.tolist() for c in assert_same_components(loop)] == [
        [0], [1], [2]]
    two = graph_of(3, [(2, 0, "L"), (0, 2, "R")])
    assert [c.tolist() for c in assert_same_components(two)] == [[0, 2], [1]]
    edgeless = graph_of(3, [])
    assert [c.tolist() for c in assert_same_components(edgeless)] == [
        [0], [1], [2]]
    assert strongly_connected_components(graph_of(0, [])) == []
    assert kosaraju(graph_of(0, [])) == []


def test_scc_on_long_cycle_chain_and_high_in_degree():
    # a long cycle and a long chain take one search round or one trimming
    # round per vertex; random successors give in-degrees far above two
    n = 8000
    cycle = graph_of(n, [(i, (i + 1) % n, "L") for i in range(n)])
    assert [len(c) for c in assert_same_components(cycle)] == [n]
    chain = graph_of(n, [(i, i + 1, "LR"[i % 2]) for i in range(n - 1)])
    assert len(assert_same_components(chain)) == n
    rng = np.random.default_rng(11)
    for n, hubs in ((60, 3), (400, 8)):
        targets = rng.integers(0, hubs, size=(n, 2))
        edges = [(u, int(targets[u, k]), s) for u in range(n)
                 for k, s in enumerate("LR") if rng.random() < 0.8]
        graph = graph_of(n, edges)
        assert max(np.bincount(graph.next[graph.next >= 0])) > 2
        assert_same_components(graph)


def test_scc_on_masked_shadow_graph(horseshoe12):
    # the shadow MarkovMeasure builds for a support smaller than the
    # adjacency: the horseshoe's successor table with some edges cut
    rng = np.random.default_rng(7)
    for cut in (0.05, 0.3):
        masked = horseshoe12.next.copy()
        for k in range(2):
            masked[rng.random(len(masked)) < cut, k] = -1
        shadow = types.SimpleNamespace(n_vertices=horseshoe12.n_vertices,
                                       next=masked)
        assert len(assert_same_components(shadow)) > 1


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.945), (0.8, 1.985)])
def test_scc_matches_kosaraju_at_sweep_size(alpha, beta):
    # the depth-14 horseshoes of the two hardest sweep models, 12,000 to
    # 16,000 vertices
    lm = LorenzMap1D(alpha, beta)
    for x_gap in (0.002, 0.0):
        graph = build_horseshoe(lm, 14, x_gap)
        assert graph.n_vertices > 10000
        for comp in assert_same_components(graph):
            assert comp.dtype == np.intp
            assert (np.diff(comp) > 0).all()


def test_scc_working_set_per_vertex():
    # 16,160 vertices and 32,192 edges; the int64 arrays that held each
    # count, offset and edge twice peaked at 242 bytes per vertex here
    graph = build_horseshoe(LorenzMap1D(0.8, 1.9884), 14, 0.002)
    want = [c.tolist() for c in strongly_connected_components(graph)]
    tracemalloc.start()
    try:
        got = strongly_connected_components(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.tolist() for c in got] == want
    assert peak / graph.n_vertices <= 242 / 2


def scalar_periodic(lm, words):
    """(point, multiplier) of each word by scalar inverse-branch iteration.

    The reference for the array search: from 0, apply the inverse branches
    last symbol first, stop after the first pass through the word that
    moves the point by less than 1e-15, then multiply |f'| along the orbit.
    """
    out = []
    for word in words:
        p = len(word)
        x = 0.0
        for _ in range(max(60, int(200.0 / p) + 10)):
            prev = x
            for s in reversed(word):
                x = lm.inverse_branch(s, x, clip=True)
            if abs(x - prev) < 1e-15:
                break
        mult = 1.0
        for q in lm.iterate(x, p):
            mult *= lm.deriv(q)
        out.append((x, mult))
    return out


@pytest.mark.parametrize("alpha, beta, rtol", [
    (1.0, 1.7, 0.0),
    (1.0, 1.95, 0.0),
    # numpy's vectorized power may differ from libm pow in the last bit
    (0.8, 1.99, 1e-14),
])
def test_enumerate_periodic_matches_scalar_chain(fresh_model_cache, alpha,
                                                 beta, rtol):
    lm = LorenzMap1D(alpha, beta)
    kp = kneading(lm, 64)
    words = []
    for p in range(1, 11):
        necklaces = {least_rotation("".join(t))
                     for t in itertools.product("LR", repeat=p)}
        words += sorted(w for w in necklaces if symbolic.is_primitive(w)
                        and periodic_word_admissible(w, kp))
    records = enumerate_periodic(lm, 10)
    assert [r.word for r in records] == words
    long = "LRRLLRLRRRLL"
    records.append(find_periodic_point(lm, long))
    want = np.array(scalar_periodic(lm, words + [long]))
    np.testing.assert_allclose([r.point for r in records], want[:, 0],
                               rtol=rtol, atol=0.0)
    if alpha == 1.0:
        # every |f'| is alpha * beta, whatever the orbit points
        assert [r.multiplier for r in records] == want[:, 1].tolist()


def mp_multiplier(alpha, beta, word):
    """Multiplier of word^inf in 30-digit arithmetic: the point by 100+
    contracting inverse steps, then |f'| along its forward orbit."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        x = mpmath.mpf(0)
        for _ in range(100 // len(word) + 1):
            for s in reversed(word):
                if s == "R":
                    x = ((1 + min(x, b - 1)) / b) ** (1 / a)
                else:
                    x = -((1 - max(x, 1 - b)) / b) ** (1 / a)
        mult = mpmath.mpf(1)
        for _ in word:
            mult *= a * b * abs(x) ** (a - 1)
            x = 1 - b * (-x) ** a if x < 0 else -1 + b * x ** a
        return float(mult)


def test_periodic_multipliers_match_high_precision(fresh_model_cache):
    # each orbit point comes from contraction, good to about one ulp of 1;
    # |f'| ~ |x|^(alpha - 1) turns that into a relative error of at most
    # (1 - alpha) * 2.2e-16 / |x| per factor, about 8e-15 at the closest
    # approach to 0 here (0.0057, on LLLLLLLRRR), so 10 factors stay
    # within 1e-13. Read along the forward orbit of x, as the scalar
    # search did, these multipliers were up to 1.2e-12 off
    lm = LorenzMap1D(0.8, 1.99)
    records = enumerate_periodic(lm, 10)
    want = [mp_multiplier(0.8, 1.99, r.word) for r in records]
    np.testing.assert_allclose([r.multiplier for r in records], want,
                               rtol=1e-13, atol=0.0)


def reference_periodic_points(lmap, words):
    """`_periodic_points` as it was when every rotation of every word was
    its own row, each iterated from 0 to its own freeze; kept verbatim as
    the oracle of the one-row-per-word search."""
    periods = np.array([len(w) for w in words])
    # padded to one width; no word is read past its own length
    width = int(periods.max())
    symbols = symbolic.symbol_matrix([w.ljust(width, "L") for w in words])
    # one row per rotation: row first[k] + j is word k rotated by j
    first = np.concatenate([[0], np.cumsum(periods)[:-1]])
    word_of = np.repeat(np.arange(len(words)), periods)
    period = periods[word_of]
    step = np.arange(len(word_of)) - first[word_of]
    row_symbols = np.stack([symbols[word_of, (i + step) % period]
                            for i in range(width)], axis=1)
    x = np.zeros(len(word_of))
    start = x.copy()       # each row's point at the start of its pass
    pos = period - 1       # the next symbol of each row
    # contraction per pass is min_slope**-p; bound the passes accordingly
    passes = np.maximum(60, 200 // period + 10)
    live = np.arange(len(word_of))
    while live.size:
        x[live] = symbolic._inverse_step(
            lmap, row_symbols[live, pos[live]] == 1, x[live])
        pos[live] -= 1
        ended = live[pos[live] < 0]
        passes[ended] -= 1
        done = ended[(np.abs(x[ended] - start[ended]) < 1e-15)
                     | (passes[ended] == 0)]
        start[ended] = x[ended]
        pos[ended] = period[ended] - 1
        pos[done] = -1  # frozen: no next symbol
        live = live[pos[live] >= 0]
    if (x == 0.0).any():
        raise DomainError("periodic orbit of %r hits the singularity"
                          % words[word_of[np.argmax(x == 0.0)]])
    successor = first[word_of] + (step + 1) % period
    defect = np.abs(lmap.step_array(x) - x[successor])
    if defect.max() > 1e-10:
        k = int(np.argmax(defect))
        raise PreconditionError(
            "periodic-point iteration failed to close up on %r (defect %.3e); "
            "this indicates an internal inconsistency"
            % (words[word_of[k]], defect[k]))
    slope = lmap.alpha * lmap.beta * np.abs(x) ** (lmap.alpha - 1.0)
    return x[first], np.multiply.reduceat(slope, first)


def admissible_necklaces(lm, n_max, kp):
    """The least rotations of the primitive periodically admissible words
    of length <= n_max, by period then word, from the string oracle."""
    words = []
    for p in range(1, n_max + 1):
        necklaces = {least_rotation("".join(t))
                     for t in itertools.product("LR", repeat=p)}
        words += sorted(w for w in necklaces if symbolic.is_primitive(w)
                        and periodic_word_admissible(w, kp))
    return words


@pytest.mark.parametrize("alpha, beta", LAP_MODELS + LAP_GRID
                         + [(1.0, GOLDEN), (1.0, SLIVER)])
def test_periodic_points_match_every_rotation_reference(fresh_model_cache,
                                                        alpha, beta):
    # one row per word iterates as each word's rotation 0 did, so the
    # points are its bits; the other orbit points come from one backward
    # pass instead of their own searches, so a multiplier of alpha != 1
    # may move in its last bits (at alpha = 1 every |f'| is alpha * beta)
    lm = LorenzMap1D(alpha, beta)
    kp = kneading(lm, 280)
    words = admissible_necklaces(lm, 10, kp)
    words += [w for w in ("LRRLLRLRRRLL", "LRR" * 23 + "L")
              if periodic_word_admissible(w, kp)]
    try:
        want = reference_periodic_points(lm, words)
    except DomainError:
        # the two sliver models: an orbit through the singularity
        with pytest.raises(DomainError):
            enumerate_periodic(lm, 10)
        return
    got = symbolic._periodic_points(lm, words)
    assert np.array_equal(got[0], want[0])
    if alpha == 1.0:
        assert np.array_equal(got[1], want[1])
    else:
        # both searches place each orbit point within about an ulp of 1,
        # and |f'| ~ |x|^(alpha - 1) turns an absolute error d in x into
        # a relative one of (1 - alpha) d / |x|; with one rounding per
        # factor that bounds each product's relative difference. A flat
        # 1e-15 fails on LLRLLRLRR at (0.9, 1.58), 1.3e-15 apart
        eps = np.finfo(float).eps
        bound = [sum((1.0 - alpha) * 2.0 * eps / abs(q) + eps
                     for q in lm.iterate(x, len(w)))
                 for w, x in zip(words, got[0])]
        assert (np.abs(got[1] - want[1]) <= np.multiply(bound, want[1])).all()
    records = enumerate_periodic(lm, 10)
    assert [r.word for r in records] == words[:len(records)]
    assert np.array_equal([r.point for r in records],
                          want[0][:len(records)])


def reference_mp_itinerary(alpha, beta, x0, depth, dps):
    """`_mp_itinerary` as it was when each step converted its constants
    and took the power at alpha = 1 too; kept verbatim as its oracle."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        x = mpmath.mpf(x0)
        word = []
        for _ in range(depth):
            if abs(x) < symbolic.SINGULAR_TOL:
                return "".join(word), True
            if x > 0:
                word.append("R")
                x = -1 + b * x ** a
            else:
                word.append("L")
                x = 1 - b * (-x) ** a
        return "".join(word), False


@pytest.mark.parametrize("alpha, beta", LAP_MODELS + LAP_GRID + NEAR_SLIVERS
                         + [(1.0, GOLDEN), (1.0, SLIVER)])
def test_itineraries_match_the_converting_reference(alpha, beta):
    # the depths of enumerate_periodic(10) and of a 70-letter word; the
    # slivers end their words within 4 symbols, the near slivers never
    for depth in (64, 280):
        dps = 30 + math.ceil(depth * math.log10(beta))
        for x0 in (1.0, -1.0):
            assert (symbolic._mp_itinerary(alpha, beta, x0, depth, dps)
                    == reference_mp_itinerary(alpha, beta, x0, depth, dps))


def test_enumerate_periodic_serves_shorter_requests(monkeypatch,
                                                    fresh_model_cache, lmap):
    calls = []
    real = symbolic._periodic_points

    def counting(lm, words):
        calls.append(list(words))
        return real(lm, words)

    monkeypatch.setattr(symbolic, "_periodic_points", counting)
    eight = enumerate_periodic(lmap, 8)
    assert len(calls) == 1
    five = enumerate_periodic(lmap, 5)
    assert len(calls) == 1
    assert five == [r for r in eight if r.period <= 5]
    # a longer request locates the new periods only
    ten = enumerate_periodic(lmap, 10)
    assert len(calls) == 2
    assert {len(w) for w in calls[1]} == {9, 10}
    assert ten[:len(eight)] == eight
    # equal to a build from a fresh store
    fresh_model_cache(lmap)
    cold = enumerate_periodic(lmap, 10)
    assert [(r.word, r.point, r.multiplier) for r in cold] == \
        [(r.word, r.point, r.multiplier) for r in ten]
    assert len(calls) == 3
    # a located word is not searched again
    assert find_periodic_point(lmap, cold[-1].word) is cold[-1]
    assert len(calls) == 3


@pytest.mark.parametrize("n_max", [2.5, 8.0, "3", 0, 17])
def test_enumerate_periodic_rejects_a_bad_n_max(fresh_model_cache, lmap,
                                                 n_max):
    # 2.5, 8.0 and "3" used to raise TypeError from range() or <
    enumerate_periodic(lmap, 4)
    with pytest.raises(PreconditionError,
                       match=r"n_max %s is not an integer in \[1, 16\]"
                       % re.escape(repr(n_max))):
        enumerate_periodic(lmap, n_max)
    assert lmap.store.n_max == 4


def test_cached_horseshoe_is_read_only(fresh_model_cache, lmap):
    hs = build_horseshoe(lmap, 8, 0.002)
    assert build_horseshoe(lmap, 8, 0.002) is hs
    for arr in (hs.codes, hs.next, hs.cyl_lo, hs.cyl_hi):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    # vertex strings are made on first use only
    strongly_connected_components(hs)
    assert hs._vertices is None
    assert len(hs.vertices) == hs.n_vertices
    assert list(hs.vertices) == sorted(set(hs.vertices)
                                       & set(admissible_words(lmap, 8)))


def assert_periodic_admissibility_matches_oracle(kp, p_max):
    # every necklace of period <= p_max, each rotation compared with the
    # kneading words symbol by symbol as strings
    for p in range(1, p_max + 1):
        codes = symbolic._necklace_codes(p)
        got = symbolic._periodic_admissible(symbolic.code_symbols(codes, p),
                                            kp)
        want = [periodic_word_admissible(w, kp)
                for w in symbolic.decode_words(codes, p)]
        assert got.tolist() == want, p


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.7), (1.0, 1.95),
                                         (0.8, 1.99)])
def test_periodic_admissibility_matches_string_oracle(alpha, beta):
    assert_periodic_admissibility_matches_oracle(
        kneading(LorenzMap1D(alpha, beta), 64), 16)


@pytest.mark.parametrize("k_minus, k_plus", [("RRLRL", "LLRLR"),
                                             ("RRRL", "LRLLR")])
def test_periodic_admissibility_ties_match_string_oracle(k_minus, k_plus):
    # periodic kneading words, so that the rotations of some necklaces
    # agree with a kneading word over the whole depth
    kp = symbolic.KneadingPair((k_minus * 20)[:64], (k_plus * 20)[:63])
    assert_periodic_admissibility_matches_oracle(kp, 12)


def test_long_primitive_words_against_the_oracle(fresh_model_cache, lmap):
    # longer than a uint64 code holds; the kneading depth is 4 * 70
    kp = kneading(lmap, 280)
    good = "LRR" * 23 + "L"
    bad = "LRR" * 23 + "R"
    assert periodic_word_admissible(good, kp)
    assert not periodic_word_admissible(bad, kp)
    rec = find_periodic_point(lmap, good)
    assert (rec.word, rec.period) == (good, 70)
    assert rec.multiplier == pytest.approx(1.7 ** 70, rel=1e-12)
    with pytest.raises(InadmissibleWordError):
        find_periodic_point(lmap, bad)


def contraction_orbit(beta, word):
    """The orbit x_0, ..., x_(p-1) of word^inf at alpha = 1, located in
    40-digit arithmetic by unclipped inverse-branch contraction; it reads
    no kneading pair.

    At alpha = 1 the inverse branches (x + 1) / beta (R) and
    (x - 1) / beta (L) are affine and defined on the whole line, so
    their composition contracts to one fixed point whether or not the
    word is realized. The word is realized iff every x_j lies in
    [-1, 1] on the side of 0 that w[j] names.
    """
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        x = mpmath.mpf(0)
        for _ in range(int(45 / (len(word) * math.log10(beta))) + 2):
            for s in reversed(word):
                x = (x + 1) / b if s == "R" else (x - 1) / b
        # x_j = g_{w[j]}(x_{j+1}) for j = p - 1 down to 1, with x_p = x_0
        back = [x]
        for s in reversed(word[1:]):
            back.append((back[-1] + 1) / b if s == "R" else (back[-1] - 1) / b)
        return [x] + back[:0:-1]


@pytest.mark.parametrize("beta, n_max", [(GOLDEN, 2), (SLIVER, 4),
                                         (1.7, 8), (1.945, 8)])
def test_periodic_words_match_contraction_oracle(fresh_model_cache, beta,
                                                 n_max):
    # the slivers' kneading pairs end after K = 2 and K = 4 symbols, and
    # their critical orbits LLR and LLLLR run through 0 (DomainError), so
    # n_max stops below them; 'L' and 'R' used to be admitted there
    lm = LorenzMap1D(1.0, beta)
    want, points = [], []
    for p in range(1, n_max + 1):
        for w in sorted({least_rotation("".join(t))
                         for t in itertools.product("LR", repeat=p)}):
            if not symbolic.is_primitive(w):
                continue
            orbit = contraction_orbit(beta, w)
            if all(-1 <= x <= 1 and x != 0 and (x > 0) == (s == "R")
                   for x, s in zip(orbit, w)):
                want.append(w)
                points.append(float(orbit[0]))
    assert want
    records = enumerate_periodic(lm, n_max)
    assert [r.word for r in records] == want
    np.testing.assert_allclose([r.point for r in records], points,
                               rtol=0.0, atol=1e-13)
