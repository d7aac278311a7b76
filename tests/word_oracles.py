"""String-keyed reference implementations of the symbolic and measure layers.

The library handles words as integer codes only. These are the plain
string versions the tests compare it against: kneading comparisons,
finite and periodic admissibility, itineraries, least rotations,
successor lists, and cylinder masses as dicts keyed by word. Only the
Markov masses read word codes, to decode the paths of a cylinder scheme.
Hand-built horseshoes, such as the full 2-shift or the golden-mean
shift, come from `horseshoe_from_adjacency`.
"""

import numpy as np

from geolorenz import (AtomicMeasure, ConvexMeasure, MarkovMeasure,
                       SFTHorseshoe, cylinder_levels, measures)
from geolorenz.symbolic import (SINGULAR_TOL, check_word, decode_words,
                                encode_words)


def horseshoe_from_adjacency(depth, vertices, adjacency, lmap, x_gap=0.0):
    """The SFTHorseshoe on the given depth-`depth` vertex words whose
    edges are the nonzero entries of a 0/1 matrix.

    Each edge u -> v must be shift-compatible (v == u[1:] + s), and each
    vertex's cylinder is read from the map's level, so it must be
    nonempty.
    """
    table = np.full((len(vertices), 2), -1, dtype=np.int64)
    for i, j in zip(*np.nonzero(adjacency)):
        u, v = vertices[i], vertices[j]
        assert len(u) == depth and v[:-1] == u[1:], (u, v)
        table[i, "LR".index(v[-1])] = j
    codes = encode_words(vertices)
    level = cylinder_levels(lmap, depth)[depth]
    pos = level.find(codes)
    assert (pos >= 0).all(), "a vertex has an empty cylinder"
    return SFTHorseshoe(depth, codes, table, x_gap, level.lo[pos],
                        level.hi[pos], (lmap.alpha, lmap.beta))


def word_le(a, b):
    """Lexicographic order with L < R; a prefix compares as <=.

    Both branches of the map are increasing, so itinerary order is plain
    lexicographic order with no sign bookkeeping.
    """
    for ca, cb in zip(a, b):
        if ca != cb:
            return ca == "L"
    return True


def is_admissible(word, kp):
    """Finite-word admissibility: true iff the word's cylinder is nonempty.

    Every suffix beginning with R must be <= k_minus and every suffix
    beginning with L must be >= k_plus, prefixes comparing as equal.
    """
    check_word(word)
    assert kp.depth >= len(word), "kneading shorter than the word"
    for j in range(len(word)):
        suf = word[j:]
        if suf[0] == "R":
            if not word_le(suf, kp.k_minus):
                return False
        else:
            if not word_le(kp.k_plus, suf):
                return False
    return True


def periodic_word_admissible(word, kp):
    """True iff a periodic orbit with itinerary word^inf fits the kneading
    bounds.

    Checks every cyclic shift of the periodic extension against k_plus and
    k_minus over the full kneading depth. Ties at full depth pass.

    A truncated pair (a critical orbit that reached 0) goes on as the
    itineraries it stands for, k_plus as (k_plus + "R") repeated and
    k_minus as (k_minus + "L") repeated. The extensions then have periods
    len(k_plus) + 1 and len(k_minus) + 1, so p times their product is a
    period of every sequence compared, and reading that far decides the
    comparison for good.
    """
    check_word(word)
    p = len(word)
    k_plus, k_minus, depth = kp.k_plus, kp.k_minus, kp.depth
    if kp.truncated:
        depth = p * (len(k_plus) + 1) * (len(k_minus) + 1)
        k_plus = ((k_plus + "R") * depth)[:depth]
        k_minus = ((k_minus + "L") * depth)[:depth]
    reps = depth // p + 2
    for j in range(p):
        ext = ((word[j:] + word[:j]) * reps)[:depth]
        if ext[0] == "R":
            if not word_le(ext, k_minus):
                return False
        else:
            if not word_le(k_plus, ext):
                return False
    return True


def itinerary_of(lmap, x, n):
    """Symbol word of the orbit segment x, f(x), ..., f^(n-1)(x)."""
    word = []
    for j in range(n):
        assert abs(x) >= SINGULAR_TOL, "orbit hits the singularity at %d" % j
        word.append("R" if x > 0 else "L")
        if j + 1 < n:
            x = lmap(x)
    return "".join(word)


def successors(horseshoe, i):
    """The (symbol, vertex) edges out of vertex i of a horseshoe."""
    return [(s, int(j)) for s, j in zip("LR", horseshoe.next[i]) if j >= 0]


def least_rotation(word):
    return min(word[j:] + word[:j] for j in range(len(word)))


def cylinder_masses(measure, depth):
    """Depth-`depth` cylinder masses as a dict from word to mass, each
    summed from 0.0 in the order the words are met."""
    out = {}
    if isinstance(measure, AtomicMeasure):
        word = measure.orbit.word
        p = len(word)
        ext = word * (depth // p + 2)
        for i in range(p):
            w = ext[i:i + depth]
            out[w] = out.get(w, 0.0) + 1.0 / p
    elif (isinstance(measure, MarkovMeasure)
          and depth >= measure.horseshoe.depth):
        scheme = measures._scheme(measure.lmap, measure.horseshoe, depth)
        mass = scheme.masses(measure.stationary, measure.probs)
        for w, mu in zip(decode_words(scheme.codes, depth), mass):
            out[w] = out.get(w, 0.0) + float(mu)
    elif isinstance(measure, MarkovMeasure):
        for w, pi in zip(measure.horseshoe.vertices, measure.stationary):
            out[w[:depth]] = out.get(w[:depth], 0.0) + float(pi)
    else:
        assert isinstance(measure, ConvexMeasure)
        for weight, comp in measure.components:
            for w, mu in cylinder_masses(comp, depth).items():
                out[w] = out.get(w, 0.0) + weight * mu
    return out


def measure_distance(a, b, depth):
    """L1 distance of the two mass dicts, summed in sorted word order."""
    ma = cylinder_masses(a, depth)
    mb = cylinder_masses(b, depth)
    keys = sorted(set(ma) | set(mb))
    return float(sum(abs(ma.get(k, 0.0) - mb.get(k, 0.0)) for k in keys))
