"""Symbolic dynamics of the quotient map.

Itineraries over the alphabet {L, R} (L means x < 0, R means x > 0),
kneading sequences of the two one-sided limits at the singular point,
admissibility of finite words, cylinder intervals, periodic orbit
location by inverse-branch contraction, and subshift-of-finite-type
horseshoes whose cylinders keep a prescribed distance from x = 0.

Words are plain strings over 'L' and 'R'. Two admissibility notions
coexist and differ:

* `is_admissible(word, kp)` decides whether some orbit realizes the
  word as an itinerary prefix, i.e. whether the word's cylinder is
  nonempty. This is the finite-word (cylinder) criterion.
* `periodic_word_admissible(word, kp)` decides whether a periodic
  point with itinerary word^inf exists: every cyclic shift of the
  periodic extension must fit between the kneading bounds. This is
  strictly stronger; e.g. at beta = 1.7 the word "RR" has a nonempty
  cylinder but no period-2 point realizes it.
"""

import functools
import itertools
import math

import mpmath as mp
import numpy as np

from .errors import (DomainError, EmptyHorseshoeError, InadmissibleWordError,
                     InsufficientKneadingError, PreconditionError)
from .model import LorenzMap1D

ALPHABET = ("L", "R")

# hard cap on cylinder enumeration depth; admissible word counts grow like
# beta^depth so this bounds both memory and runtime
MAX_DEPTH = 24

# orbit points closer to 0 than this are treated as hitting the singularity
SINGULAR_TOL = 1e-14

# width below which a pulled-back cylinder is considered empty; true
# nonempty cylinders at depth <= MAX_DEPTH are wider than beta**-24 ~ 3e-6
EMPTY_WIDTH = 1e-12


def check_word(word):
    if not word:
        raise PreconditionError("empty symbol word")
    if len(word) > MAX_DEPTH * 4:
        raise PreconditionError("word length %d exceeds configured maximum" % len(word))
    for ch in word:
        if ch not in ("L", "R"):
            raise PreconditionError("bad symbol %r in word %r" % (ch, word))


def word_le(a, b):
    """Lexicographic order with L < R; a prefix compares as <=.

    Both branches of the map are increasing, so itinerary order is plain
    lexicographic order with no sign bookkeeping.
    """
    for ca, cb in zip(a, b):
        if ca != cb:
            return ca == "L"
    return True


class KneadingPair:
    """Itineraries k_minus of f(0-) = 1 and k_plus of f(0+) = -1.

    truncated is True when a critical orbit came within SINGULAR_TOL of 0
    before reaching the requested depth; the words then end early and
    admissibility tests against them are only valid to the shorter depth.
    """

    def __init__(self, k_minus, k_plus, truncated=False):
        self.k_minus = k_minus
        self.k_plus = k_plus
        self.truncated = truncated

    @property
    def depth(self):
        return min(len(self.k_minus), len(self.k_plus))

    def __repr__(self):
        return "KneadingPair(k_minus=%s..., k_plus=%s..., depth=%d)" % (
            self.k_minus[:8], self.k_plus[:8], self.depth)


def _mp_itinerary(alpha, beta, x0, depth, dps):
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        x = mp.mpf(x0)
        word = []
        for _ in range(depth):
            if abs(x) < SINGULAR_TOL:
                return "".join(word), True
            if x > 0:
                word.append("R")
                x = -1 + b * x ** a
            else:
                word.append("L")
                x = 1 - b * (-x) ** a
        return "".join(word), False


@functools.lru_cache(maxsize=64)
def _kneading_cached(alpha, beta, depth):
    # the critical orbits lose about log10(beta) digits per step, so give
    # the iteration depth-proportional precision plus headroom
    dps = 30 + int(math.ceil(depth * max(0.0, math.log10(beta))))
    km, trunc_m = _mp_itinerary(alpha, beta, 1.0, depth, dps)
    kp, trunc_p = _mp_itinerary(alpha, beta, -1.0, depth, dps)
    return KneadingPair(km, kp, trunc_m or trunc_p)


def kneading(lmap, depth=64):
    """Kneading pair of the map to the given depth.

    The one-sided limits are iterated as the actual points 1 and -1 in
    arbitrary precision; no floating epsilon offset is involved.
    """
    if depth < 1:
        raise PreconditionError("kneading depth must be >= 1")
    return _kneading_cached(lmap.alpha, lmap.beta, int(depth))


def itinerary_of(lmap, x, n):
    """Symbol word of the orbit segment x, f(x), ..., f^(n-1)(x).

    Raises DomainError naming the first index whose orbit point is within
    SINGULAR_TOL of the singularity.
    """
    if n < 1:
        raise PreconditionError("need n >= 1 symbols")
    word = []
    for j in range(n):
        if abs(x) < SINGULAR_TOL:
            raise DomainError(
                "orbit hits the singularity at index %d (|x| = %.3e)" % (j, abs(x)))
        word.append("R" if x > 0 else "L")
        if j + 1 < n:
            x = lmap(x)
    return "".join(word)


def is_admissible(word, kp):
    """Finite-word admissibility: true iff the word's cylinder is nonempty.

    Every suffix beginning with R must be <= k_minus and every suffix
    beginning with L must be >= k_plus, prefixes comparing as equal.
    """
    check_word(word)
    if kp.depth < len(word):
        raise InsufficientKneadingError(
            "kneading depth %d < word length %d" % (kp.depth, len(word)))
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
    """True iff a periodic orbit with itinerary word^inf fits the kneading bounds.

    Checks every cyclic shift of the periodic extension against k_plus and
    k_minus over the full kneading depth. Ties at full depth pass.
    """
    check_word(word)
    p = len(word)
    depth = kp.depth
    reps = depth // p + 2
    for j in range(p):
        ext = ((word[j:] + word[:j]) * reps)[:depth]
        if ext[0] == "R":
            if not word_le(ext, kp.k_minus):
                return False
        else:
            if not word_le(kp.k_plus, ext):
                return False
    return True


class CylinderInterval:
    """Closed interval of points whose itinerary starts with a given word."""

    def __init__(self, word, lo, hi, nonempty):
        self.word = word
        self.lo = lo
        self.hi = hi
        self.nonempty = nonempty

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def distance_to_zero(self):
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def __repr__(self):
        return "CylinderInterval(%r, [%.6g, %.6g], nonempty=%r)" % (
            self.word, self.lo, self.hi, self.nonempty)


def symbol_matrix(words):
    """Equal-length words as a uint8 matrix of ALPHABET indices (L = 0, R = 1)."""
    raw = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    return (raw == ord("R")).astype(np.uint8).reshape(len(words), -1)


def pullback(lmap, symbols):
    """Cylinder endpoints of many words at once.

    `symbols` is a (words, length) matrix of ALPHABET indices (see
    `symbol_matrix`). Each row pulls [-1, 1] back through its branch
    chain, last symbol first: clamp to the branch range, which encodes
    intersection with the branch domain, then apply the branch inverse.
    Both inverses are increasing, so lo <= hi holds at every step.
    Returns the closed cylinder endpoints as two arrays.
    """
    symbols = np.asarray(symbols)
    ends = np.empty((2, symbols.shape[0]))
    ends[0] = -1.0
    ends[1] = 1.0
    beta = lmap.beta
    power = 1.0 / lmap.alpha
    for j in range(symbols.shape[1] - 1, -1, -1):
        right = symbols[:, j] == 1
        t = np.clip(ends, np.where(right, -1.0, 1.0 - beta),
                    np.where(right, beta - 1.0, 1.0))
        ends = (np.where(right, 1.0 + t, 1.0 - t) / beta) ** power
        ends = np.where(right, ends, -ends)
    return ends[0], ends[1]


def cylinder_interval(lmap, word):
    """Cylinder of a word, computed by composing branch inverses."""
    check_word(word)
    lo, hi = pullback(lmap, symbol_matrix([word]))
    lo = float(lo[0])
    hi = float(hi[0])
    return CylinderInterval(word, lo, hi, (hi - lo) > EMPTY_WIDTH)


@functools.lru_cache(maxsize=16)
def _cylinder_levels_cached(alpha, beta, depth):
    lmap = LorenzMap1D(alpha, beta)
    levels = [{"": (-1.0, 1.0)}]
    for _ in range(depth):
        prev = levels[-1]
        nxt = {}
        for s in ALPHABET:
            for w, (lo, hi) in prev.items():
                a = lmap.inverse_branch(s, lo, clip=True)
                b = lmap.inverse_branch(s, hi, clip=True)
                if a > b:
                    a, b = b, a
                if b - a > EMPTY_WIDTH:
                    nxt[s + w] = (a, b)
        levels.append(nxt)
    return levels


def cylinder_levels(lmap, depth):
    """All nonempty cylinders up to the given depth.

    Returns a list indexed by word length; entry d is a dict mapping each
    admissible depth-d word to its closed cylinder endpoints. Cached per
    (alpha, beta, depth).
    """
    if depth > MAX_DEPTH:
        raise PreconditionError(
            "enumeration depth %d exceeds maximum %d" % (depth, MAX_DEPTH))
    return _cylinder_levels_cached(lmap.alpha, lmap.beta, int(depth))


def admissible_words(lmap, depth):
    """Sorted list of admissible words of exactly the given length."""
    return sorted(cylinder_levels(lmap, depth)[depth].keys())


class PeriodicOrbitRecord:
    """A located periodic point: primitive word, point, expansion multiplier."""

    def __init__(self, word, point, multiplier):
        self.word = word
        self.point = point
        self.multiplier = multiplier

    @property
    def period(self):
        return len(self.word)

    def orbit_points(self, lmap):
        """The full orbit [x, f(x), ..., f^(p-1)(x)]."""
        return lmap.iterate(self.point, self.period)

    def __repr__(self):
        return "PeriodicOrbitRecord(%r, point=%.12g, multiplier=%.6g)" % (
            self.word, self.point, self.multiplier)


def is_primitive(word):
    p = len(word)
    for d in range(1, p):
        if p % d == 0 and word == word[:d] * (p // d):
            return False
    return True


def find_periodic_point(lmap, word, kp=None):
    """Locate the periodic point whose itinerary is word^inf.

    The point is the unique fixed point of the composed inverse branches
    along the reversed word; each inverse contracts by at least
    1/min_slope, so plain iteration converges geometrically.
    """
    check_word(word)
    if not is_primitive(word):
        raise PreconditionError("word %r is not primitive" % word)
    if kp is None:
        kp = kneading(lmap, max(64, 4 * len(word)))
    if not periodic_word_admissible(word, kp):
        raise InadmissibleWordError(
            "no periodic orbit realizes %r in this model" % word)
    x = 0.0
    p = len(word)
    # contraction factor per sweep is min_slope**-p; iterate to fixed point
    sweeps = max(60, int(200.0 / p) + 10)
    for _ in range(sweeps):
        prev = x
        for s in reversed(word):
            x = lmap.inverse_branch(s, x, clip=True)
        if abs(x - prev) < 1e-15:
            break
    pts = lmap.iterate(x, p)
    closure = abs(lmap(pts[-1]) - x)
    if closure > 1e-10:
        raise PreconditionError(
            "periodic-point iteration failed to close up on %r (defect %.3e); "
            "this indicates an internal inconsistency" % (word, closure))
    mult = 1.0
    for q in pts:
        mult *= lmap.deriv(q)
    return PeriodicOrbitRecord(word, x, mult)


def least_rotation(word):
    return min(word[j:] + word[:j] for j in range(len(word)))


def enumerate_periodic(lmap, n_max, kp=None):
    """One record per primitive admissible necklace of length <= n_max.

    Deterministic ordering: by period, then lexicographically by the
    representative word (the least rotation).
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if n_max > 16:
        raise PreconditionError("n_max > 16 exceeds the configured bound")
    if kp is None:
        kp = kneading(lmap, max(64, 4 * n_max))
    records = []
    seen = set()
    for p in range(1, n_max + 1):
        for tup in itertools.product(ALPHABET, repeat=p):
            word = "".join(tup)
            if not is_primitive(word):
                continue
            canon = least_rotation(word)
            if canon in seen:
                continue
            seen.add(canon)
            if periodic_word_admissible(canon, kp):
                records.append(find_periodic_point(lmap, canon, kp))
    records.sort(key=lambda r: (r.period, r.word))
    return records


class SFTHorseshoe:
    """Subshift of finite type over depth-m cylinder words away from x = 0.

    vertices are admissible depth-m words; an edge u -> v exists iff v is
    the shift successor u[1:] + s and the joined word u + s is admissible.
    Successors are stored as two index arrays (one per appended symbol),
    -1 meaning no edge; adjacency_matrix() materializes the 0/1 matrix.
    """

    def __init__(self, depth, vertices, succ_by_symbol, x_gap, cyl_lo, cyl_hi):
        self.depth = depth
        self.vertices = tuple(vertices)
        self.succ = {s: np.asarray(a, dtype=np.int64) for s, a in succ_by_symbol.items()}
        self.x_gap = float(x_gap)
        self.cyl_lo = np.asarray(cyl_lo, dtype=float)
        self.cyl_hi = np.asarray(cyl_hi, dtype=float)
        self._index = {w: i for i, w in enumerate(self.vertices)}
        self._cyclic = None

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def midpoints(self):
        return 0.5 * (self.cyl_lo + self.cyl_hi)

    def index(self, word):
        return self._index[word]

    def edge_count(self):
        return int(sum(int(np.sum(a >= 0)) for a in self.succ.values()))

    def adjacency_matrix(self):
        n = self.n_vertices
        adj = np.zeros((n, n), dtype=np.int8)
        for arr in self.succ.values():
            src = np.nonzero(arr >= 0)[0]
            adj[src, arr[src]] = 1
        return adj

    def adjacency_density(self):
        n = self.n_vertices
        return self.edge_count() / float(n * n) if n else 0.0

    def successors(self, i):
        out = []
        for s in ALPHABET:
            j = self.succ[s][i]
            if j >= 0:
                out.append((s, int(j)))
        return out

    def cyclic_components(self):
        """Strongly connected components that carry a cycle.

        Returns (indices, sub-SFT) pairs in the order of
        `strongly_connected_components`. One-vertex components without a
        self-loop are dropped before restriction. The decomposition is
        computed on first use and stored on this horseshoe, so it is
        shared by every later caller and freed with the object.
        """
        if self._cyclic is None:
            cyclic = []
            for comp in strongly_connected_components(self):
                i = comp[0]
                if len(comp) == 1 and all(self.succ[s][i] != i
                                          for s in ALPHABET):
                    continue
                cyclic.append((comp, restrict_horseshoe(self, comp)))
            self._cyclic = cyclic
        return self._cyclic

    @classmethod
    def from_adjacency(cls, depth, vertices, adjacency, lmap, x_gap=0.0):
        """Build from an explicit 0/1 adjacency matrix.

        Each allowed edge u -> v must be shift-compatible (v == u[1:] + s);
        cylinders come from the ambient map. Intended for hand-built
        subshifts such as the full 2-shift or the golden-mean shift.
        """
        adjacency = np.asarray(adjacency)
        n = len(vertices)
        if adjacency.shape != (n, n):
            raise PreconditionError("adjacency shape mismatch")
        succ = {s: np.full(n, -1, dtype=np.int64) for s in ALPHABET}
        index = {w: k for k, w in enumerate(vertices)}
        for i, u in enumerate(vertices):
            for j, v in enumerate(vertices):
                if not adjacency[i, j]:
                    continue
                if v[:-1] != u[1:]:
                    raise PreconditionError(
                        "edge %r -> %r is not shift-compatible" % (u, v))
                succ[v[-1]][i] = index[v]
        cyls = [cylinder_interval(lmap, w) for w in vertices]
        return cls(depth, vertices, succ,
                   x_gap, [c.lo for c in cyls], [c.hi for c in cyls])


def _interval_dist_zero(lo, hi):
    if lo <= 0.0 <= hi:
        return 0.0
    return min(abs(lo), abs(hi))


def build_horseshoe(lmap, depth, x_gap, kp=None):
    """Extract the SFT over depth-m words whose cylinders avoid the gap.

    A word is kept when the closed cylinder of the word itself and the
    closed cylinder of its shift (the image cylinder, one symbol shorter)
    both lie at distance >= x_gap from 0, so every orbit threading the
    SFT provably avoids |x| < x_gap. Edges follow shift compatibility
    with the joined (m+1)-word required admissible.
    """
    if depth < 2:
        raise PreconditionError("horseshoe depth must be >= 2")
    if not 0.0 < x_gap < 1.0:
        raise PreconditionError("x_gap must lie in (0, 1), got %r" % x_gap)
    levels = cylinder_levels(lmap, depth + 1)
    cyl_m = levels[depth]
    cyl_m1 = levels[depth - 1]
    joined = levels[depth + 1]

    vertices = []
    for w in sorted(cyl_m.keys()):
        lo, hi = cyl_m[w]
        slo, shi = cyl_m1[w[1:]]
        if _interval_dist_zero(lo, hi) >= x_gap and \
           _interval_dist_zero(slo, shi) >= x_gap:
            vertices.append(w)
    if not vertices:
        raise EmptyHorseshoeError(
            "x_gap = %g excludes every depth-%d cylinder" % (x_gap, depth))

    index = {w: i for i, w in enumerate(vertices)}
    n = len(vertices)
    succ = {s: np.full(n, -1, dtype=np.int64) for s in ALPHABET}
    edges = 0
    for w, i in index.items():
        for s in ALPHABET:
            v = w[1:] + s
            if w + s in joined and v in index:
                succ[s][i] = index[v]
                edges += 1
    if edges == 0:
        raise EmptyHorseshoeError(
            "x_gap = %g leaves vertices but no transitions at depth %d"
            % (x_gap, depth))
    lo = [cyl_m[w][0] for w in vertices]
    hi = [cyl_m[w][1] for w in vertices]
    return SFTHorseshoe(depth, vertices, succ, x_gap, lo, hi)


def full_shift_sft(lmap, depth):
    """The unpruned SFT over all admissible depth-m words (x_gap = 0).

    Same structure as a horseshoe but without the gap exclusion; the
    transfer-operator pressure estimator runs on this object.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    levels = cylinder_levels(lmap, depth + 1)
    cyl_m = levels[depth]
    joined = levels[depth + 1]
    vertices = sorted(cyl_m.keys())
    index = {w: i for i, w in enumerate(vertices)}
    n = len(vertices)
    succ = {s: np.full(n, -1, dtype=np.int64) for s in ALPHABET}
    for w, i in index.items():
        for s in ALPHABET:
            v = w[1:] + s
            if w + s in joined and v in index:
                succ[s][i] = index[v]
    lo = [cyl_m[w][0] for w in vertices]
    hi = [cyl_m[w][1] for w in vertices]
    return SFTHorseshoe(depth, vertices, succ, 0.0, lo, hi)


def strongly_connected_components(horseshoe):
    """Kosaraju SCC decomposition over the successor graph.

    Returns a list of index arrays, one per component, in a deterministic
    order (by smallest contained vertex index).
    """
    n = horseshoe.n_vertices
    succs = [horseshoe.succ[s] for s in ALPHABET]
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
    # transpose adjacency
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
        members = [node]
        while stack:
            u = stack.pop()
            for w in preds[u]:
                if comp[w] < 0:
                    comp[w] = ncomp
                    stack.append(w)
                    members.append(w)
        ncomp += 1
    groups = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    comps = [np.array(sorted(g), dtype=np.int64) for g in groups.values()]
    comps.sort(key=lambda a: int(a[0]))
    return comps


def restrict_horseshoe(horseshoe, indices):
    """Sub-SFT on a vertex subset (used to pass to an irreducible component)."""
    indices = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    remap = {int(old): new for new, old in enumerate(indices)}
    vertices = [horseshoe.vertices[i] for i in indices]
    succ = {}
    for s in ALPHABET:
        arr = horseshoe.succ[s][indices]
        succ[s] = np.array([remap.get(int(j), -1) for j in arr], dtype=np.int64)
    return SFTHorseshoe(horseshoe.depth, vertices, succ, horseshoe.x_gap,
                        horseshoe.cyl_lo[indices], horseshoe.cyl_hi[indices])
