"""Symbolic dynamics: kneading, admissibility, cylinders, orbits, horseshoes.

The oracles here are deliberately independent of the library internals:
at alpha = 1 with rational beta the map is exact in Fraction arithmetic,
so kneading words, lap counts, and preimage trees can be recomputed from
scratch and compared.
"""

import itertools
import math
import re
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from geolorenz import (
    ConstantPotential,
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


def exact_step(x):
    # f(x) = beta*x - sign(x) at alpha = 1, exact in rationals
    assert x != 0
    return BETA * x - (1 if x > 0 else -1)


def exact_itinerary(x, n):
    out = []
    for _ in range(n):
        assert x != 0
        out.append("R" if x > 0 else "L")
        x = exact_step(x)
    return "".join(out)


def exact_lap_count(n):
    """Number of monotone laps of f^n, via the exact preimage tree of 0.

    Interior breakpoints of f^n are the preimages of 0 up to order n-1;
    the lap count is their number plus one.
    """
    level = {Fraction(0)}
    breaks = set(level)
    for _ in range(n - 1):
        nxt = set()
        for t in level:
            right = (t + 1) / BETA
            if 0 < right <= 1:
                nxt.add(right)
            left = (t - 1) / BETA
            if -1 <= left < 0:
                nxt.add(left)
        breaks |= nxt
        level = nxt
    return len(breaks) + 1


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


def test_lap_counts_match_exact_preimage_tree(lmap):
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
        fresh_model_cache.clear()
        cold[depth] = cylinder_levels(lm, depth)
    fresh_model_cache.clear()
    warm = {}
    for depth in (12, 19, 15):
        warm[depth] = cylinder_levels(lm, depth)
        assert len(warm[depth]) == len(cold[depth]) == depth + 1
        for got, want in zip(warm[depth], cold[depth]):
            assert got.depth == want.depth
            for attr in ("codes", "lo", "hi"):
                assert (getattr(got, attr).tobytes()
                        == getattr(want, attr).tobytes())
        assert cylinder_levels(lm, depth) is warm[depth]
    # each level was built once: the lists share their level objects
    assert all(a is b for a, b in zip(warm[15], warm[19]))
    assert all(a is b for a, b in zip(warm[12], warm[19]))


# ---------------------------------------------------------------------------
# the level extension by branch runs against the loop it replaced

def _reference_extend_levels(lmap, levels, depth):
    """Levels extended with two full-width pullbacks and four compresses
    per level, as first written."""
    levels = list(levels)
    level = levels[-1]
    ends = np.vstack([level.lo, level.hi])
    for d in range(len(levels) - 1, depth):
        # the word s + w has code s << d | code(w); the L half then the
        # R half keeps the codes sorted
        pulled = [symbolic._inverse_step(lmap, s == "R", ends)
                  for s in symbolic.ALPHABET]
        live = [p[1] - p[0] > symbolic.EMPTY_WIDTH for p in pulled]
        cut = np.cumsum([0] + [np.count_nonzero(m) for m in live])
        codes = np.empty(cut[-1], dtype=np.uint64)
        ends = np.empty((2, cut[-1]))
        for bit in range(len(symbolic.ALPHABET)):
            part = slice(cut[bit], cut[bit + 1])
            np.compress(live[bit], level.codes, out=codes[part])
            codes[part] |= np.uint64(bit << d)
            np.compress(live[bit], pulled[bit], axis=1, out=ends[:, part])
        level = symbolic.CylinderLevel(d + 1, codes, ends[0], ends[1])
        levels.append(level)
    return levels


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.depth == b.depth
        for attr in ("codes", "lo", "hi"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()


@pytest.mark.parametrize("alpha, beta", [
    (1.0, 1.45), (1.0, 1.5602), (1.0, 1.7), (1.0, 1.82), (1.0, 1.945),
    (1.0, 1.999), (0.8, 1.99), (0.9, 1.8), (0.75, 1.95)])
def test_level_runs_match_reference_extension(alpha, beta):
    lm = LorenzMap1D(alpha, beta)
    root = symbolic._ModelStore().levels[0]
    got = symbolic._extend_levels(lm, root, 20)
    # code order is spatial order, which the runs rest on
    for level in got:
        assert (np.diff(level.lo) >= 0.0).all()
        assert (np.diff(level.hi) >= 0.0).all()
    assert_same_levels(got, _reference_extend_levels(lm, root, 20))


def test_level_runs_drop_thin_and_touching_cylinders():
    # at beta = 1.7 the L range is [1 - beta, 1] and the R range
    # [-1, beta - 1]. Rows: one outside the L range, one touching it at
    # hi = 1 - beta exactly, one meeting it in 5e-13, one inside both,
    # one meeting the R range in 5e-13 and one outside the R range
    lm = LorenzMap1D(1.0, 1.7)
    edge = lm.beta - 1.0
    lo = np.array([-1.0, -0.8, -0.8, -edge + 5e-13, edge - 5e-13, 0.8])
    hi = np.array([-0.8, -edge, -edge + 5e-13, 0.5, 0.75, 1.0])
    depth = 3
    level = symbolic.CylinderLevel(depth, np.arange(6, dtype=np.uint64),
                                   lo, hi)
    levels = [None] * depth + [level]
    got = symbolic._extend_levels(lm, levels, depth + 1)
    want = _reference_extend_levels(lm, levels, depth + 1)
    assert_same_levels(got[depth:], want[depth:])
    # the runs hold 5 rows through L and 5 through R; the new level keeps
    # fewer, so the compaction ran
    through_l = np.count_nonzero(hi >= -edge)
    through_r = np.count_nonzero(lo <= edge)
    assert (through_l, through_r) == (5, 5)
    assert len(got[-1]) == through_l + through_r - 3


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


def test_cylinder_levels_cache_holds_sixteen_models(fresh_model_cache):
    # levels, horseshoes and periodic orbits share one entry per model,
    # so the 17th model evicts all three of the least recently used one
    models = [LorenzMap1D(1.0, 1.5 + 0.02 * k) for k in range(17)]
    first = cylinder_levels(models[0], 4)
    second = cylinder_levels(models[1], 4)
    horseshoe = build_horseshoe(models[1], 6, 0.01)
    orbits = enumerate_periodic(models[1], 4)
    assert cylinder_levels(models[0], 4) is first  # now most recent
    for lm in models[2:]:
        cylinder_levels(lm, 4)
    assert len(fresh_model_cache) == 16
    assert cylinder_levels(models[0], 4) is first
    assert (models[1].alpha, models[1].beta) not in fresh_model_cache
    assert cylinder_levels(models[1], 4) is not second  # evicted
    assert build_horseshoe(models[1], 6, 0.01) is not horseshoe
    assert enumerate_periodic(models[1], 4)[0] is not orbits[0]


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
    # equal to a cold build
    fresh_model_cache.clear()
    cold = enumerate_periodic(lmap, 10)
    assert [(r.word, r.point, r.multiplier) for r in cold] == \
        [(r.word, r.point, r.multiplier) for r in ten]
    assert len(calls) == 3
    # a located word is not searched again
    assert find_periodic_point(lmap, cold[-1].word) is cold[-1]
    assert len(calls) == 3


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
