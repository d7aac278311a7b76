"""Symbolic dynamics of the quotient map.

Itineraries over the alphabet {L, R} (L means x < 0, R means x > 0),
kneading sequences of the two one-sided limits at the singular point,
cylinder levels, admissibility of periodic words, periodic orbit location
by inverse-branch contraction (one search per word for its point, then
one backward pass of inverse branches for the rest of its orbit), and
subshift-of-finite-type horseshoes whose cylinders keep a prescribed
distance from x = 0.

Everything here that depends on the model (alpha, beta) alone is built
once per model and kept in the model's store: the cylinder levels, the
horseshoes by (depth, x_gap) with their stored SCC decompositions, and
the periodic orbits. Each `LorenzMap1D` takes its model's store when it
is built, every live map of one model shares it, and the last of them
frees it, so a sweep over many models holds only the models it still
has maps of. Catalogs for different potentials and every realization
request share these objects, so they are read-only.

Words are held as integer codes: each level of `cylinder_levels` is a
`CylinderLevel` of sorted uint64 codes (L = 0, R = 1, first symbol most
significant) with one array of the breakpoints that partition [-1, 1],
and horseshoe edges are found by searching those codes (`find_codes`).
Words are strings over 'L' and 'R' only at the edges: user-supplied
words, the kneading pair, periodic orbit records,
`SFTHorseshoe.vertices`, measure ids and payloads. The kneading pair
alone decides which cylinders are empty (`_extend_levels`), and
`lap_count` counts level d from it by the Milnor-Thurston recurrence.
`admissible_words` is a `Words` view over (map, depth): its `len()` is
`lap_count`, its codes are built on first read, `in` reads the codes
alone, and a word is decoded to a string only when it is read.
Two admissibility notions coexist and differ:

* A finite word is admissible, i.e. realized by some orbit as an
  itinerary prefix, iff its cylinder is nonempty, i.e. iff its code is
  in the level of its length in `cylinder_levels`.
* A word w is periodically admissible iff a periodic point with
  itinerary w^inf exists: every cyclic shift of the periodic extension
  must fit between the kneading bounds (`_periodic_admissible`). This is
  strictly stronger; e.g. at beta = 1.7 the word "RR" has a nonempty
  cylinder but no period-2 point realizes it.
"""

import collections.abc
import functools
import math
import numbers
import operator
import weakref

import mpmath as mp
import numpy as np

from .errors import (DomainError, EmptyHorseshoeError, InadmissibleWordError,
                     PreconditionError)
from .model import abs_range

ALPHABET = ("L", "R")

# hard cap on cylinder enumeration depth; admissible word counts grow like
# beta^depth so this bounds both memory and runtime
MAX_DEPTH = 24

# longest period `enumerate_periodic` lists
MAX_PERIOD = 16

# longest symbol word `check_word` accepts, and a config's extra words
MAX_WORD = MAX_DEPTH * 4

# orbit points closer to 0 than this are treated as hitting the singularity
SINGULAR_TOL = 1e-14

# words decoded to strings per numpy block in decode_words
_DECODE_BLOCK = 1 << 16

# keys kept by each memo of a shared object: a horseshoe's equilibrium
# states and cylinder schemes, and the keyed integrals of `measures`: on
# each periodic orbit record, on each Markov measure (shared by the
# copies of one equilibrium state) and, for the roof and the dwell, on
# each scheme. Each realization request on a horseshoe recalls the 3
# states all of them share (at T_LO, T_HI and the opening midpoint)
# before it solves its own, 2 to 6 for `coord:x` at beta = 1.7, so with
# 16 keys those 3 stay while the single-use states of a survey over many
# potentials are evicted
CACHE_LIMIT = 16


def _recall(cache, key):
    """cache[key], moved to the most recently used end of the memo, or
    None on a miss (see `_remember`)."""
    value = cache.pop(key, None)
    if value is not None:
        cache[key] = value
    return value


def _remember(cache, key, value):
    """cache[key] = value, first evicting the least recently used key
    once the memo holds CACHE_LIMIT keys. A memo is a plain dict, whose
    order is insertion order, and `_recall` moves a hit to its end, so
    its first key is the least recently used."""
    if len(cache) >= CACHE_LIMIT:
        del cache[next(iter(cache))]
    cache[key] = value


def check_word(word):
    if not word:
        raise PreconditionError("empty symbol word")
    if len(word) > MAX_WORD:
        raise PreconditionError("word length %d exceeds configured maximum" % len(word))
    for ch in word:
        if ch not in ("L", "R"):
            raise PreconditionError("bad symbol %r in word %r" % (ch, word))


def check_depth(depth, what="enumeration", low=0, high=MAX_DEPTH):
    """`depth` as an int, if it is an integer in [low, high]; else a
    PreconditionError naming the value, as the depth of `what`."""
    # a plain int, the usual depth, skips the slower ABC check
    if not ((type(depth) is int or isinstance(depth, numbers.Integral))
            and low <= depth <= high):
        raise PreconditionError("%s depth %r is not an integer in [%d, %d]"
                                % (what, depth, low, high))
    return int(depth)


class KneadingPair:
    """Itineraries k_minus of f(0-) = 1 and k_plus of f(0+) = -1.

    truncated is True when a critical orbit came within SINGULAR_TOL of 0
    before reaching the requested depth; the words then end early. A
    word that ended within d symbols makes one run end of level d + 1
    empty (`_extend_levels`); no width test overrules it. Periodic words
    are compared with the one-sided itineraries that an ended pair
    continues into (`_periodic_admissible`).
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
        # converted once, not at every comparison and step
        tol, one = mp.mpf(SINGULAR_TOL), mp.mpf(1)
        word = []
        for _ in range(depth):
            if abs(x) < tol:
                return "".join(word), True
            # y**1 is y exactly in mpmath, so alpha = 1 skips the power
            y = abs(x) if alpha == 1.0 else abs(x) ** a
            if x > 0:
                word.append("R")
                x = b * y - one
            else:
                word.append("L")
                x = one - b * y
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
    arbitrary precision; no floating epsilon offset is involved. Raises
    PreconditionError unless the depth is an integer >= 1.
    """
    if not (isinstance(depth, numbers.Integral) and depth >= 1):
        raise PreconditionError(
            "kneading depth %r is not an integer >= 1" % (depth,))
    return _kneading_cached(lmap.alpha, lmap.beta, int(depth))


def symbol_matrix(words):
    """Equal-length words as a uint8 matrix of ALPHABET indices (L = 0, R = 1)."""
    raw = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    width = len(words[0]) if len(words) else 0
    return (raw == ord("R")).astype(np.uint8).reshape(len(words), width)


def code_symbols(codes, depth):
    """The (words, depth) symbol matrix of length-`depth` word codes."""
    shifts = np.arange(depth - 1, -1, -1, dtype=np.uint64)
    return ((codes[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def encode_words(words):
    """Equal-length words of at most 64 symbols as uint64 codes.

    L = 0 and R = 1, first symbol most significant, so for words of one
    length code order is the lexicographic word order.
    """
    bits = symbol_matrix(words).astype(np.uint64)
    if bits.shape[1] > 64:
        raise PreconditionError("a word code holds at most 64 symbols")
    shifts = np.arange(bits.shape[1] - 1, -1, -1, dtype=np.uint64)
    return np.bitwise_or.reduce(bits << shifts, axis=1)


def decode_words(codes, depth):
    """The length-`depth` words of `codes`, as a list of strings.

    Inverse of `encode_words`. Each block of words is assembled as one
    (words, depth) matrix of UCS-4 code points, which numpy reads as
    strings without a per-word conversion.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    if depth == 0:
        return [""] * len(codes)
    words = []
    # blocks bound the temporary matrices to a few MB at any depth
    for start in range(0, len(codes), _DECODE_BLOCK):
        block = codes[start:start + _DECODE_BLOCK]
        # one row per symbol position, so each row is written contiguously
        chars = np.empty((depth, len(block)), dtype=np.uint32)
        for j in range(depth):
            chars[j] = (block >> np.uint64(depth - 1 - j)) & np.uint64(1)
        chars *= ord("R") - ord("L")
        chars += ord("L")
        words.extend(np.ascontiguousarray(chars.T).view("U%d" % depth)[:, 0]
                     .tolist())
    return words


def _inverse_step(lmap, right, ends, out=None):
    """Pull cylinder endpoints back through one branch.

    `right` selects the R branch (True) or the L branch, for all columns
    of `ends` at once or per column. Clamp to the branch range, which
    encodes intersection with the branch domain, then apply the branch
    inverse. Both inverses are increasing, so lo <= hi is kept. Returns
    `out`, an array of the shape of `ends` that may be any view, `ends`
    itself included (each entry is read before it is written), or a new
    array without it; `ends` is written only when `out` is it.

    With s = +1 on R and -1 on L, both branch ranges clamp u = s * x to
    [-1, beta - 1], and the branch inverse of an endpoint x is
    s * ((1 + u) / beta)**(1/alpha), computed in place on u. This has the
    bits of the two-branch formula, since x * -1 = -x,
    1 - beta = -(beta - 1), 1 + (-x) = 1 - x and y**1.0 = y hold exactly
    in IEEE arithmetic.
    """
    beta = lmap.beta
    sign = np.where(right, 1.0, -1.0)
    u = np.multiply(ends, sign, out=out)
    # maximum then minimum is np.clip's arithmetic without its wrapper
    np.maximum(u, -1.0, out=u)
    np.minimum(u, beta - 1.0, out=u)
    u += 1.0
    u /= beta
    if lmap.alpha != 1.0:
        u **= 1.0 / lmap.alpha
    u *= sign
    return u


def find_codes(sorted_codes, codes):
    """Positions of `codes` (any shape) in the strictly increasing uint64
    array `sorted_codes`, -1 where absent."""
    codes = np.asarray(codes, dtype=np.uint64)
    pos = np.minimum(np.searchsorted(sorted_codes, codes),
                     len(sorted_codes) - 1)
    return np.where(sorted_codes[pos] == codes, pos, -1)


class CylinderLevel:
    """The nonempty cylinders of one word length, as one partition.

    `codes` holds the words as uint64 codes (see `encode_words`), strictly
    increasing. `edges`, one entry longer, holds the breakpoints: the
    cylinder of codes[i] is [edges[i], edges[i + 1]], so neighbouring
    cylinders share their common endpoint, and `lo` and `hi` are the
    views edges[:-1] and edges[1:]. Code order is spatial order: both
    branches are increasing and the L branch lies left of the R branch,
    so `edges` is nondecreasing. At every level edges[0] = -1.0 and
    edges[-1] = 1.0 (`_extend_levels` keeps the clamped ends), and at
    depth >= 1 exactly one slot is 0, the junction of the last L
    cylinder and the first R one; it holds +0.0. `len()` is the word
    count, `lap_count`: the kneading pair, not a width, decides which
    cylinders are empty, so a kept one may be however thin. The arrays
    are read-only, since cached levels are shared.
    """

    def __init__(self, depth, codes, edges):
        self.depth = depth
        self.codes = codes
        self.edges = edges
        for arr in (codes, edges):
            arr.flags.writeable = False
        self.lo = edges[:-1]
        self.hi = edges[1:]

    def __len__(self):
        return len(self.codes)

    def find(self, codes):
        """Positions of the given codes in this level, -1 where absent."""
        return find_codes(self.codes, codes)


class _ModelStore:
    """The model-only symbolic objects of one model (alpha, beta), held by
    the model's live maps (`LorenzMap1D.store`) and freed with the last.
    Nothing in the store refers to a map or holds a reference cycle, so
    it goes by reference counts as soon as the last map does.

    `levels`: each depth handed out -> its list of cylinder levels, all
    prefixes of the deepest one, so each level is built once.
    `horseshoes`: (depth, x_gap) -> horseshoe. `orbits`: the periodic
    records of periods <= `n_max`, by (period, word). `points`: each word
    located so far -> its record.
    """

    def __init__(self):
        root = CylinderLevel(0, np.zeros(1, dtype=np.uint64),
                             np.array([-1.0, 1.0]))
        self.levels = {0: [root]}
        self.horseshoes = {}
        self.orbits = []
        self.n_max = 0
        self.points = {}


# per model (alpha, beta): the store that the live maps of that model
# hold. The last map to go frees it, and with it all of the model's
# symbolic objects.
_MODELS = weakref.WeakValueDictionary()


def model_store(alpha, beta):
    """The store of the model (alpha, beta) that its live maps share, or a
    new one if no live map holds one. `LorenzMap1D` takes it when built."""
    key = (alpha, beta)
    store = _MODELS.get(key)
    if store is None:
        store = _MODELS[key] = _ModelStore()
    return store


def _extend_levels(lmap, levels, depth):
    """`levels` continued to the given depth (a new list).

    A level's edges are nondecreasing (see `CylinderLevel`), so the
    cylinders of level d that pull back through a branch form one run:
    through L those meeting its range [1 - beta, 1], from the first
    hi >= 1 - beta to the end; through R those meeting [-1, beta - 1],
    from the start to the last lo <= beta - 1. A cylinder outside a run
    clamps both of its ends to the same value, so it is empty. The L
    run's breakpoints edges[first:], then the R run's edges[:stop + 1],
    are pulled back straight into the new level's edges array. The two
    pulls share one slot, the junction at x = 0: L pulls edges[-1] = 1 to
    -0.0, and R, written last, pulls edges[0] = -1 to +0.0, which the
    slot keeps. Nothing reads the sign of that zero: `abs_range` and the
    bounds compare and subtract, midpoints add it to a nonzero endpoint,
    and `_inverse_step` adds 1.0 to it after the clip.

    Inside a run the inverse is strictly increasing, so only the two
    cylinders with a clamped end can be empty: the L run's first, which
    holds 1 - beta = f(-1), and the R run's last, which holds
    beta - 1 = f(1). The kneading pair decides. If `k_plus`, the
    itinerary of -1, ended within d symbols, 1 - beta is a breakpoint of
    level d; its float edge is the nearer end of the L run's first
    cylinder, which is empty if that is its hi. `k_minus` decides the R
    run's last cylinder alike at beta - 1. An unended word of the default
    depth-64 pair is longer than MAX_DEPTH. A dropped run end hands its
    clamped end to its neighbour, so the level still partitions [-1, 1].
    """
    levels = list(levels)
    level = levels[-1]
    kp = kneading(lmap)
    # the L range starts at 1 - beta = -(beta - 1), the R range ends at
    # beta - 1, the clip bounds of `_inverse_step`
    edge = lmap.beta - 1.0
    for d in range(len(levels) - 1, depth):
        first = int(np.searchsorted(level.hi, -edge))
        stop = int(np.searchsorted(level.lo, edge, side="right"))
        # the word s + w has code s << d | code(w); the L run then the
        # R run keeps the codes sorted
        cut = len(level) - first
        codes = np.empty(cut + stop, dtype=np.uint64)
        edges = np.empty(cut + stop + 1)
        codes[:cut] = level.codes[first:]
        np.bitwise_or(level.codes[:stop], np.uint64(1 << d), out=codes[cut:])
        _inverse_step(lmap, False, level.edges[first:], out=edges[:cut + 1])
        _inverse_step(lmap, True, level.edges[:stop + 1], out=edges[cut:])
        lo = int(len(kp.k_plus) <= d
                 and level.lo[first] + level.hi[first] <= -2.0 * edge)
        hi = cut + stop - int(len(kp.k_minus) <= d
                              and level.lo[stop - 1] + level.hi[stop - 1]
                              >= 2.0 * edge)
        # a dropped run end hands its clamped end to its neighbour
        edges[lo] = edges[0]
        edges[hi] = edges[-1]
        level = CylinderLevel(d + 1, codes[lo:hi], edges[lo:hi + 1])
        levels.append(level)
    return levels


def cylinder_levels(lmap, depth):
    """All nonempty cylinders up to the given depth.

    Returns a list indexed by word length; entry d is the `CylinderLevel`
    of the depth-d words, one partition of [-1, 1] by breakpoints. It is
    built from entry d - 1 with one vectorized `_inverse_step` per symbol
    over the breakpoints of the run of cylinders that meet the symbol's
    branch range; the cylinders outside the run pull back to a single
    point, so they are empty, and of the run only the cylinder at its
    clamped end can be, as the kneading pair decides (see
    `_extend_levels`). A caller that needs only the size of entry d calls
    `lap_count`, which counts from the same pair and builds no level.
    Cached in the model's store, which lives as long as some map of the model: a
    request no deeper than the deepest list built so far is a prefix of
    it, and a deeper one continues it from its last level, so no level
    is enumerated twice while the model has a map. The same depth returns
    the same list object.
    Raises PreconditionError unless the depth is an integer in
    [0, MAX_DEPTH].
    """
    depth = check_depth(depth)
    lists = lmap.store.levels
    levels = lists.get(depth)
    if levels is None:
        deepest = lists[max(lists)]
        if depth < len(deepest):
            levels = deepest[:depth + 1]
        else:
            levels = _extend_levels(lmap, deepest, depth)
        lists[depth] = levels
    return levels


def lap_count(lmap, depth):
    """The lap number of f^depth: the count of nonempty depth-`depth`
    cylinders, i.e. len(cylinder_levels(lmap, depth)[depth]).

    Counted from the kneading pair alone; no cylinder level is built.
    Let a_j and b_j be the digits (R = 1, L = 0) of `k_minus` and
    `k_plus`, and K their length if the pair is truncated, else infinite.
    Then for every n >= 0

        lap(n) = [n <= K]
                 + sum_{j=1}^{min(n, K)} (a_{j-1} - b_{j-1}) lap(n - j),

    i.e. sum_n lap(n) t^n = (1 - t^(K+1)) / ((1 - t) D_K(t)) with the
    kneading determinant D_K(t) = 1 - sum_{j=1}^{K} (a_{j-1} - b_{j-1}) t^j
    (J. Milnor and W. Thurston, "On iterated maps of the interval", 1988).
    The lap numbers grow at the exponential rate h_top (M. Misiurewicz
    and W. Szlenk, "Entropy of piecewise monotone mappings", Studia Math.
    67, 1980). The sum is exact in Python integers, O(depth^2) operations
    on the default depth-64 pair, which reaches past MAX_DEPTH.
    Raises PreconditionError unless the depth is an integer in
    [0, MAX_DEPTH].
    """
    depth = check_depth(depth)
    kp = kneading(lmap)
    # K = len(steps) if the pair is truncated; an untruncated pair is
    # longer than any depth, so K acts as infinite
    steps = [int(a == "R") - int(b == "R")
             for a, b in zip(kp.k_minus, kp.k_plus)]
    laps = []
    for n in range(depth + 1):
        # steps[j - 1] meets lap(n - j) for j = 1 to min(n, K)
        laps.append(int(n <= len(steps) or not kp.truncated) + sum(
            c * lap for c, lap in zip(steps, reversed(laps))))
    return laps[depth]


class Words(collections.abc.Sequence):
    """The admissible words of one map and length, decoded on access.

    A read-only sequence, in code (= lexicographic) order. `len()` is
    `lap_count`, which counts from the kneading pair, so a count builds
    no level and no codes. The codes are built on
    first read: `in` searches them with no decoding, an index or a
    slice decodes only the words it selects, and iteration decodes
    `_DECODE_BLOCK` words at a time; nothing decoded is kept. A view
    holds its map, and so its model's store with every level built so
    far. Like `range`, a view never compares equal to a list.
    """

    __slots__ = ("lmap", "depth", "_codes")

    def __init__(self, lmap, depth):
        self.lmap = lmap
        self.depth = check_depth(depth)
        self._codes = None

    @property
    def codes(self):
        """The level's strictly increasing codes, built on first read."""
        if self._codes is None:
            level = cylinder_levels(self.lmap, self.depth)[self.depth]
            self._codes = level.codes
        return self._codes

    def __len__(self):
        return lap_count(self.lmap, self.depth)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return decode_words(self.codes[index], self.depth)
        return decode_words(self.codes[[operator.index(index)]],
                            self.depth)[0]

    def __iter__(self):
        codes = self.codes
        for start in range(0, len(codes), _DECODE_BLOCK):
            yield from decode_words(codes[start:start + _DECODE_BLOCK],
                                    self.depth)

    def __contains__(self, word):
        """One code search; False for anything but a length-`depth`
        string over L and R."""
        if (not isinstance(word, str) or len(word) != self.depth
                or word.strip("LR")):
            return False
        return bool(find_codes(self.codes, encode_words([word]))[0] >= 0)

    def __repr__(self):
        return "Words(depth=%d, count=%d)" % (self.depth, len(self))


def admissible_words(lmap, depth):
    """The admissible words of exactly the given length, in lexicographic
    order, as a `Words` view over (map, depth): `len()` is the lap count
    (`lap_count`, from the kneading pair), and the level's codes are built
    on the first read, a word becoming a string only when it is read.
    Raises PreconditionError, before any level is built, unless the
    depth is an integer in [0, MAX_DEPTH]."""
    return Words(lmap, depth)


class PeriodicOrbitRecord:
    """A located periodic point: primitive word, point, expansion multiplier.

    Records live in the model's store, so every atom on one orbit shares
    one. A record caches its orbit points, read-only, and in `averages`
    the orbit average of each keyed integrand of `measures.integrate_many`
    by its key, potentials included (at most CACHE_LIMIT keys, the least
    recently used evicted first; see `_remember`). An average may be
    filled before any atom of the record asks for it: a catalog's atoms
    share one batch of records (`measures.AtomicMeasure.batch`), and a
    miss on one of them fills every record of the batch. A record refers
    to no measure, so a batch of records makes no reference cycle.
    """

    def __init__(self, word, point, multiplier):
        self.word = word
        self.point = point
        self.multiplier = multiplier
        self.averages = {}
        self._points = None

    @property
    def period(self):
        return len(self.word)

    def orbit_points(self, lmap):
        """The full orbit [x, f(x), ..., f^(p-1)(x)] of the record's model,
        as a read-only array computed once."""
        if self._points is None:
            points = np.array(lmap.iterate(self.point, self.period))
            points.flags.writeable = False
            self._points = points
        return self._points

    def __repr__(self):
        return "PeriodicOrbitRecord(%r, point=%.12g, multiplier=%.6g)" % (
            self.word, self.point, self.multiplier)


def is_primitive(word):
    p = len(word)
    for d in range(1, p):
        if p % d == 0 and word == word[:d] * (p // d):
            return False
    return True


def _periodic_points(lmap, words):
    """Periodic points and multipliers of primitive words, all at once.

    The point x_0 of a word w of period p is the unique fixed point of
    its composed inverse branches g_{w[0]} o ... o g_{w[p-1]}; each
    inverse contracts by at least 1/min_slope, so plain iteration from 0
    converges geometrically. One row per word iterates, one
    `_inverse_step` per symbol from the word's last symbol backwards, and
    a row is frozen after the first pass through its word that moves it
    by less than 1e-15 (or after its pass limit). One backward pass then
    locates the rest of the orbit by contraction too: x_j =
    g_{w[j]}(x_{j+1}) for j = p - 1 down to 1, with x_p = x_0. The
    multiplier, the product of |f'| along the orbit, is read at these
    points: the expanding forward map would multiply a last-bit error in
    x_0 by up to the multiplier itself. Words may differ in length.
    Returns (x_0, multipliers) as arrays. Raises DomainError if some
    x_j lies within SINGULAR_TOL of 0, and PreconditionError if some
    f(x_j) misses x_{j+1} by over 1e-10: each edge but x_0 -> x_1 is one
    inverse step, which misses only where it clamped, and that edge
    tests that x_0 closed up.
    """
    periods = np.array([len(w) for w in words])
    # padded to one width; no word is read past its own length
    width = int(periods.max())
    symbols = symbol_matrix([w.ljust(width, "L") for w in words]) == 1
    x = np.zeros(len(words))
    start = x.copy()       # each row's point at the start of its pass
    pos = periods - 1      # the next symbol of each row
    # contraction per pass is min_slope**-p; bound the passes accordingly
    passes = np.maximum(60, 200 // periods + 10)
    live = np.arange(len(words))
    while live.size:
        x[live] = _inverse_step(lmap, symbols[live, pos[live]], x[live])
        pos[live] -= 1
        ended = live[pos[live] < 0]
        passes[ended] -= 1
        done = ended[(np.abs(x[ended] - start[ended]) < 1e-15)
                     | (passes[ended] == 0)]
        start[ended] = x[ended]
        pos[ended] = periods[ended] - 1
        pos[done] = -1  # frozen: no next symbol
        live = live[pos[live] >= 0]
    # orbit[k, j] is x_j of word k; every column starts at x_0, so
    # orbit[k, p] = x_0 closes the orbit
    orbit = np.repeat(x[:, None], width + 1, axis=1)
    for j in range(width - 1, 0, -1):
        rows = np.flatnonzero(periods > j)
        orbit[rows, j] = _inverse_step(lmap, symbols[rows, j],
                                       orbit[rows, j + 1])
    # the orbits one after another: points[i] is x_col[i] of word row[i]
    row, col = np.nonzero(np.arange(width) < periods[:, None])
    points = orbit[row, col]
    singular = np.abs(points) < SINGULAR_TOL
    if singular.any():
        raise DomainError("periodic orbit of %r hits the singularity"
                          % words[row[np.argmax(singular)]])
    defect = np.abs(lmap.step_array(points) - orbit[row, col + 1])
    if defect.max() > 1e-10:
        k = int(np.argmax(defect))
        raise PreconditionError(
            "periodic-point iteration failed to close up on %r (defect %.3e); "
            "this indicates an internal inconsistency"
            % (words[row[k]], defect[k]))
    slope = lmap.alpha * lmap.beta * np.abs(points) ** (lmap.alpha - 1.0)
    return x, np.multiply.reduceat(slope, np.cumsum(periods) - periods)


def _periodic_admissible(symbols, kp):
    """Which rows w of a (words, p) symbol matrix are periodically admissible.

    Every rotation of w^inf, read to the kneading depth, must be <= k_minus
    if it begins with R and >= k_plus if it begins with L, in lexicographic
    order with L < R: the first differing symbol decides, and a tie passes.
    All rotations of all rows are compared at once, as one uint8 array.

    A truncated pair is compared through the one-sided itineraries it
    stands for. When the orbit of f(0+) = -1 reaches 0 after its K
    symbols, the orbit of f(0+ + e) = -1 + beta e^alpha passes 0 on the
    right, since both branches are increasing, and returns near -1; so
    the itinerary of f(0+) is (k_plus + "R")^inf, and that of f(0-) is
    (k_minus + "L")^inf alike. Both repeat with period K + 1, so reading
    them to 64 symbols, or to p + K + 1 if that is longer, decides every
    rotation of w^inf: two periodic sequences that agree so far agree
    everywhere (Fine and Wilf).
    """
    p = symbols.shape[1]
    k_plus, k_minus = kp.k_plus, kp.k_minus
    depth = kp.depth
    if kp.truncated:
        depth = max(64, p + max(len(k_plus), len(k_minus)) + 1)
        k_plus = (k_plus + "R") * depth
        k_minus = (k_minus + "L") * depth
    # row 0 bounds the rotations that begin with L, row 1 those with R
    bounds = symbol_matrix([k_plus[:depth], k_minus[:depth]])
    # rotation r of w^inf, read to the kneading depth
    ext = symbols[:, (np.arange(p)[:, None] + np.arange(depth)) % p]
    lead = ext[:, :, 0]
    differ = ext != bounds[lead]
    first = differ.argmax(axis=2)
    # at the first difference an R rotation must read L (it is then below
    # k_minus) and an L rotation must read R (it is then above k_plus)
    decider = np.take_along_axis(ext, first[:, :, None], axis=2)[:, :, 0]
    return (~differ.any(axis=2) | (decider != lead)).all(axis=1)


def find_periodic_point(lmap, word):
    """Locate the periodic point whose itinerary is word^inf.

    One word of `_periodic_points`; the record is kept in the model's
    store, so each word is located and tested once per model (it was
    admitted at a kneading depth at least as deep as this call's).

    Admission does not promise a point. At a finite-kneading model an
    admitted long word whose orbit shadows a critical loop through 0
    comes within SINGULAR_TOL of 0 and raises DomainError: at beta =
    (1 + sqrt 5)/2, "LRR" * 23 + "L" does.
    """
    check_word(word)
    if not is_primitive(word):
        raise PreconditionError("word %r is not primitive" % word)
    points = lmap.store.points
    record = points.get(word)
    if record is None:
        kp = kneading(lmap, max(64, 4 * len(word)))
        if not _periodic_admissible(symbol_matrix([word]), kp)[0]:
            raise InadmissibleWordError(
                "no periodic orbit realizes %r in this model" % word)
        (x,), (mult,) = _periodic_points(lmap, [word])
        record = points[word] = PeriodicOrbitRecord(word, float(x),
                                                    float(mult))
    return record


def _necklace_codes(p):
    """Codes of the primitive length-p words that are their least rotation.

    Such a word is smaller than each of its p - 1 nontrivial rotations
    (equal to none, since it is primitive); a rotation of a code is two
    shifts. The codes come out increasing, i.e. in word order.
    """
    codes = np.arange(1 << p, dtype=np.uint64)
    mask = np.uint64((1 << p) - 1)
    keep = np.ones(len(codes), dtype=bool)
    for j in range(1, p):
        keep &= codes < (((codes << np.uint64(j))
                          | (codes >> np.uint64(p - j))) & mask)
    return codes[keep]


def enumerate_periodic(lmap, n_max):
    """One record per primitive admissible necklace of length <= n_max.

    Deterministic ordering: by period, then lexicographically by the
    representative word (the least rotation). Cached per model with the
    cylinder levels: a smaller n_max is served as the period <= n_max
    prefix of the longest list built, and a larger one locates only the
    new periods, all in one `_periodic_points` call. Raises
    PreconditionError unless n_max is an integer in [1, MAX_PERIOD].

    At finite kneading the critical orbits close up through 0, reading
    "R" + k_plus from 0+ and "L" + k_minus from 0-; f is undefined at 0,
    so those loops are left out (`find_periodic_point` raises DomainError
    on them). Near such a model (beta = phi + 1e-13) the pair never ends,
    and the orbits closest to 0 still raise DomainError.
    """
    if not (isinstance(n_max, numbers.Integral) and 1 <= n_max <= MAX_PERIOD):
        raise PreconditionError("n_max %r is not an integer in [1, %d]"
                                % (n_max, MAX_PERIOD))
    n_max = int(n_max)
    store = lmap.store
    if n_max > store.n_max:
        kp = kneading(lmap, max(64, 4 * n_max))
        # a word that did not end is longer than MAX_PERIOD, and no
        # necklace matches its loop
        loops = {min(w[i:] + w[:i] for i in range(len(w)))
                 for w in ("R" + kp.k_plus, "L" + kp.k_minus)
                 if kp.truncated}
        words = []
        for p in range(store.n_max + 1, n_max + 1):
            codes = _necklace_codes(p)
            keep = _periodic_admissible(code_symbols(codes, p), kp)
            words += [w for w in decode_words(codes[keep], p)
                      if w not in loops]
        if words:
            points, mults = _periodic_points(lmap, words)
            for word, x, mult in zip(words, points.tolist(), mults.tolist()):
                record = store.points.setdefault(
                    word, PeriodicOrbitRecord(word, x, mult))
                store.orbits.append(record)
        store.n_max = n_max
    return [r for r in store.orbits if r.period <= n_max]


class SFTHorseshoe:
    """Subshift of finite type over depth-m cylinder words away from x = 0.

    Built by `build_horseshoe`, or by `restrict_horseshoe` from one. The
    constructor takes the arrays as given and checks none of them.
    `model` is the (alpha, beta) it was built for, and `cyl_lo`, `cyl_hi`
    are its vertices' cylinders in that model's level (see
    `check_model`). vertices are admissible depth-m words, held as
    their uint64 codes (`codes`, see `encode_words`); an edge u -> v
    exists iff v is the shift successor u[1:] + s and the joined word
    u + s is admissible.
    The edges are one (vertices, 2) int64 table `next`: next[u, k] is the
    successor of u on ALPHABET[k], -1 meaning no edge, so next.reshape(-1)
    is indexed by the flat steps 2*u + k of the transition tables;
    adjacency_matrix() materializes the 0/1 matrix. The words are decoded
    to strings on the first use of `vertices` (graph work and cylinder
    schemes need none). The arrays are read-only, since horseshoes are
    shared through the per-model store. Two memos live and die with the
    horseshoe, each at most CACHE_LIMIT keys, the least recently used
    evicted first (see `_remember`):
    `equilibria`, the solved equilibrium states of
    `pressure.equilibrium_measure` by the bytes of their log-weight
    vector, and `schemes`, the cylinder schemes of `measures` by depth.
    So does `perron`, the read-only `pressure._PerronPlan` of `next` (its
    class maps and gather tables), built by the first Perron solve on the
    horseshoe and None before it.
    """

    def __init__(self, depth, codes, table, x_gap, cyl_lo, cyl_hi, model):
        self.depth = depth
        self.model = model
        self.codes = np.asarray(codes, dtype=np.uint64)
        self.next = np.asarray(table, dtype=np.int64)
        self.x_gap = float(x_gap)
        self.cyl_lo = np.asarray(cyl_lo, dtype=float)
        self.cyl_hi = np.asarray(cyl_hi, dtype=float)
        for arr in (self.codes, self.next, self.cyl_lo, self.cyl_hi):
            arr.flags.writeable = False
        self._vertices = None
        self._cyclic = None
        self.equilibria = {}
        self.schemes = {}
        self.perron = None

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = tuple(decode_words(self.codes, self.depth))
        return self._vertices

    @property
    def n_vertices(self):
        return len(self.cyl_lo)

    @property
    def midpoints(self):
        return 0.5 * (self.cyl_lo + self.cyl_hi)

    def edge_count(self):
        return int(np.count_nonzero(self.next >= 0))

    def adjacency_matrix(self):
        n = self.n_vertices
        adj = np.zeros((n, n), dtype=np.int8)
        src, bit = np.nonzero(self.next >= 0)
        adj[src, self.next[src, bit]] = 1
        return adj

    def cyclic_components(self):
        """Strongly connected components that carry a cycle.

        Returns (indices, sub-SFT) pairs in the order of
        `strongly_connected_components`. One-vertex components without a
        self-loop are dropped before restriction, and a component of all
        vertices is this horseshoe itself. The decomposition is computed
        on first use and stored on this horseshoe, so it is shared by
        every later caller and freed with the object; a horseshoe from
        `build_horseshoe` lives in its model's store, so every catalog
        and realization request on that model decomposes it once. The
        stored list holds None for this horseshoe itself, so the
        horseshoe is no reference cycle and goes with its last reference.
        """
        if self._cyclic is None:
            cyclic = []
            for comp in strongly_connected_components(self):
                i = comp[0]
                if len(comp) == 1 and not (self.next[i] == i).any():
                    continue
                sub = (None if len(comp) == self.n_vertices
                       else restrict_horseshoe(self, comp))
                cyclic.append((comp, sub))
            self._cyclic = cyclic
        return [(comp, self if sub is None else sub)
                for comp, sub in self._cyclic]


def check_model(lmap, horseshoe):
    """PreconditionError unless the horseshoe was built for the map's model:
    its cylinders and everything read from them belong to that model.
    Every horseshoe carries its model from `build_horseshoe`, and a
    restriction inherits it."""
    model = (lmap.alpha, lmap.beta)
    if model != horseshoe.model:
        raise PreconditionError("horseshoe of model %r used with a map of "
                                "model %r" % (horseshoe.model, model))


def build_horseshoe(lmap, depth, x_gap):
    """Extract the SFT over depth-m words whose cylinders avoid the gap.

    A word is kept when the closed cylinder of the word itself and the
    closed cylinder of its shift (the image cylinder, one symbol shorter)
    both lie at distance >= x_gap from 0, so every orbit threading the
    SFT provably avoids |x| < x_gap. Edges follow shift compatibility
    with the joined (m+1)-word required admissible; x_gap = 0 keeps every
    word, the full shift of `pressure_transfer`. The horseshoe does not
    depend on any potential: it is kept in the model's store under
    (depth, x_gap), and the same arguments return the same object.
    Raises PreconditionError unless the depth is an integer in
    [1, MAX_DEPTH - 1]: the edges read the depth + 1 cylinders, so 23 is
    the deepest horseshoe.
    """
    depth = check_depth(depth, "horseshoe", 1, MAX_DEPTH - 1)
    if not 0.0 <= x_gap < 1.0:
        raise PreconditionError("x_gap must lie in [0, 1), got %r" % x_gap)
    horseshoes = lmap.store.horseshoes
    key = (depth, float(x_gap))
    horseshoe = horseshoes.get(key)
    if horseshoe is not None:
        return horseshoe
    levels = cylinder_levels(lmap, depth + 1)
    level = levels[depth]
    shifted = levels[depth - 1]
    # every depth-m word was built from its shift, so the lookup hits
    tail = shifted.find(level.codes & np.uint64((1 << (depth - 1)) - 1))
    keep = ((abs_range(level.lo, level.hi)[0] >= x_gap)
            & (abs_range(shifted.lo[tail], shifted.hi[tail])[0] >= x_gap))
    if not keep.any():
        raise EmptyHorseshoeError(
            "x_gap = %g excludes every depth-%d cylinder" % (x_gap, depth))
    # a gap that keeps every word (x_gap = 0 does) shares the level's arrays
    if keep.all():
        keep = slice(None)
    codes = level.codes[keep]
    # the edge u -> v on symbol s exists iff the joined word u + s is a
    # nonempty (m+1)-cylinder and v = (u + s)[1:] is a kept vertex; both
    # are code lookups, since (u + s)[1:] is code(u + s) & (2^m - 1)
    joined = ((codes[:, None] << np.uint64(1))
              | np.arange(len(ALPHABET), dtype=np.uint64))
    table = find_codes(codes, joined & np.uint64((1 << depth) - 1))
    table[levels[depth + 1].find(joined) < 0] = -1
    horseshoe = SFTHorseshoe(depth, codes, table, x_gap, level.lo[keep],
                             level.hi[keep], (lmap.alpha, lmap.beta))
    if horseshoe.edge_count() == 0:
        raise EmptyHorseshoeError(
            "x_gap = %g leaves vertices but no transitions at depth %d"
            % (x_gap, depth))
    horseshoes[key] = horseshoe
    return horseshoe


def _predecessors(table):
    """(k, n) int32 table of the predecessors of each vertex, -1 if none.

    `table` is a (n, 2) successor table with -1 for no edge, of any
    in-degree. Column v lists the sources of v's edges on L, then those
    on R, each ascending; k is the largest in-degree, at least 2. A
    shift-compatible graph has k = 2: an edge u -> v has u = a + W and
    v = W + s, so v has at most the predecessors L + W and R + W.
    """
    n = len(table)
    # flat entry k*n + u is u's edge on ALPHABET[k], so a stable sort lists
    # each vertex's sources in that order, after the absent edges
    dst = table.T.astype(np.int32, order="C").ravel()
    order = np.argsort(dst, kind="stable")
    # count[v] is v's in-degree and first[v] its first edge's place
    count = np.bincount(dst + 1, minlength=n + 1)
    first = np.cumsum(count[:-1])
    count = count[1:]
    prev = np.full((max(len(ALPHABET), count.max(initial=0)), n), -1,
                   dtype=np.int32)
    for rank, row in enumerate(prev):
        has = count > rank
        row[has] = order[first[has] + rank] % n
    return prev


def _live(graph, dead, frontier):
    """The live targets of the edges out of `frontier`, with repeats, as
    np.intp indices; `dead` marks the rest, and the slot 2n of every
    absent edge."""
    hit = graph.take(frontier, axis=0).ravel().astype(np.intp)
    return hit[~dead[hit]]


def _distinct(values, slot):
    """`values` without repeats, in no particular order.

    `slot` is scratch space with an entry for every value; the last write
    to a slot wins, so each value keeps one entry, without a sort.
    """
    rank = np.arange(values.size, dtype=slot.dtype)
    slot[values] = rank
    return values[slot[values] == rank]


def _component(graph, dead, slot, pivot):
    """The component of the live vertex `pivot`: the vertices that one
    breadth-first search from `pivot` and `pivot` + n reaches in both
    halves of the graph (see `strongly_connected_components`). A search
    marks what it visits `dead` and unmarks what it reached in one half
    only, so the component is left dead in both.
    """
    n = len(graph) // 2
    frontier = np.array([pivot, pivot + n])
    visited = []
    while frontier.size:
        dead[frontier] = True
        visited.append(frontier)
        frontier = _distinct(_live(graph, dead, frontier), slot)
    visited = np.concatenate(visited)
    half = visited % n
    both = dead[half] & dead[half + n]
    dead[visited[~both]] = False
    return visited[both & (visited < n)]


def _roots(graph):
    """The smallest vertex of each vertex's component, by the rounds of
    `strongly_connected_components` on its (2n, k) table."""
    n = len(graph) // 2
    # the live in-degrees of the first half, then the live out-degrees;
    # the last entry counts the absent edges and is never read
    degree = np.bincount(graph.ravel(), minlength=2 * n + 1).astype(np.int32)
    slot = np.empty(2 * n, dtype=np.int32)
    # dead in both halves: vertices trimmed or in a component found; a
    # search marks what it visits here too and unmarks it afterwards
    dead = np.zeros(2 * n + 1, dtype=bool)
    dead[2 * n] = True
    # a pivot is the smallest live vertex, and components die whole
    root = np.arange(n, dtype=np.int32)
    pivot = 0
    live = n
    dying = np.flatnonzero((degree[:n] == 0) | (degree[n:-1] == 0))
    while True:
        while dying.size:
            dead[dying] = True
            dead[dying + n] = True
            live -= dying.size
            if not live:
                return root
            hit = _live(graph, dead, np.concatenate([dying, dying + n]))
            # an int32 step: a Python int takes numpy's slow path here
            np.subtract.at(degree, hit, np.int32(1))
            hit %= n
            dying = _distinct(hit[(degree[hit] == 0) | (degree[hit + n] == 0)],
                              slot)
        pivot += int(np.argmin(dead[pivot:n]))
        dying = _component(graph, dead, slot, pivot)
        root[dying] = pivot


def strongly_connected_components(graph):
    """Strongly connected components of a successor graph.

    `graph` needs `n_vertices` and `next`, a (vertices, 2) successor
    table with -1 for no edge; in-degrees are arbitrary. Forward-backward
    decomposition on arrays, over one graph holding the edges u -> v and,
    shifted by n, their reversals v + n -> u + n: one (2n, k) table whose
    row u < n is next[u] and row v + n the column of `_predecessors` at
    v plus n, with absent edges pointing at a slot 2n that is dead from
    the start. Its in-degree at v counts v's live in-edges and at v + n
    its live out-edges. Vertices die in rounds: each round lowers those
    counts along the edges of the vertices that died last, and every live
    vertex left without a live in-edge or out-edge lies on no cycle, so
    it is a component of its own and dies next. When none is left, the
    vertices both reachable from and reaching the smallest live vertex
    (one breadth-first search from it in both halves) form its
    component, which dies in turn. Each round gathers the rows of its own
    frontier only.

    The arrays kept through the rounds (the table, degrees, scratch slots
    and roots) are int32: a horseshoe, or a subgraph of one, has
    n <= 2^MAX_DEPTH vertices, so the 2n + 1 slots stay below 2^31. A
    round's own index arrays are np.intp, which numpy indexes with no
    conversion. At alpha = 0.8, beta = 1.9884, depth 14, x_gap 0.002
    (16,160 vertices, 32,192 edges) a call allocates at most about 90
    bytes per vertex (tracemalloc), where int64 arrays took 242.

    Returns a list of index arrays, one per component, each ascending
    and of dtype np.intp, in a deterministic order (by smallest contained
    vertex index).
    """
    n = graph.n_vertices
    if not n:
        return []
    prev = _predecessors(graph.next)
    table = np.full((2 * n, len(prev)), 2 * n, dtype=np.int32)
    table[:n, :2] = np.where(graph.next < 0, 2 * n, graph.next)
    table[n:] = np.where(prev < 0, 2 * n, prev + n).T
    del prev
    root = _roots(table)
    # argsort returns np.intp, the dtype of every component
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def restrict_horseshoe(horseshoe, indices):
    """Sub-SFT on a vertex subset (used to pass to an irreducible component)."""
    indices = np.sort(np.asarray(indices, dtype=np.int64))
    # new index of each old vertex, -1 if dropped; the extra last slot
    # maps a missing successor (-1) to -1
    remap = np.full(horseshoe.n_vertices + 1, -1, dtype=np.int64)
    remap[indices] = np.arange(len(indices), dtype=np.int64)
    return SFTHorseshoe(horseshoe.depth, horseshoe.codes[indices],
                        remap[horseshoe.next[indices]], horseshoe.x_gap,
                        horseshoe.cyl_lo[indices], horseshoe.cyl_hi[indices],
                        horseshoe.model)
