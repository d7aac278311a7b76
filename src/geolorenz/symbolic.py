"""Symbolic dynamics of the quotient map.

Itineraries over the alphabet {L, R} (L means x < 0, R means x > 0),
kneading sequences of the two one-sided limits at the singular point,
cylinder levels, admissibility of periodic words, periodic orbit location
by inverse-branch contraction, and subshift-of-finite-type horseshoes
whose cylinders keep a prescribed distance from x = 0.

Everything here that depends on the model (alpha, beta) alone is built
once per model and kept in one store per model, for the 16 most recently
used models: the cylinder levels, the horseshoes by (depth, x_gap) with
their stored SCC decompositions, and the periodic orbits. Catalogs for
different potentials and every realization request share these objects,
so they are read-only.

Words are held as integer codes: each level of `cylinder_levels` is a
`CylinderLevel` of sorted uint64 codes (L = 0, R = 1, first symbol most
significant) with endpoint arrays, and horseshoe edges are found by
searching those codes. Words are strings over 'L' and 'R' only at the
edges: user-supplied words, the kneading pair, periodic orbit records,
`SFTHorseshoe.vertices`, measure ids and payloads. `admissible_words`
is a `Words` view over one level's codes: its `len()` and `in` read the
codes alone, and a word is decoded to a string only when it is read.
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

import collections
import collections.abc
import functools
import math
import numbers
import operator

import mpmath as mp
import numpy as np

from .errors import (DomainError, EmptyHorseshoeError, InadmissibleWordError,
                     PreconditionError)
from .model import LorenzMap1D, abs_range

ALPHABET = ("L", "R")

# hard cap on cylinder enumeration depth; admissible word counts grow like
# beta^depth so this bounds both memory and runtime
MAX_DEPTH = 24

# orbit points closer to 0 than this are treated as hitting the singularity
SINGULAR_TOL = 1e-14

# words decoded to strings per numpy block in decode_words
_DECODE_BLOCK = 1 << 16

# width below which a pulled-back cylinder is considered empty; true
# nonempty cylinders at depth <= MAX_DEPTH are wider than beta**-24 ~ 3e-6
EMPTY_WIDTH = 1e-12

# keys kept by each memo of a shared object: a horseshoe's equilibrium
# states and cylinder schemes, and the keyed integrals of `measures` on
# each periodic orbit record and each scheme
CACHE_LIMIT = 64


def _remember(cache, key, value):
    """cache[key] = value, emptying the cache once it holds more than
    CACHE_LIMIT keys."""
    if len(cache) > CACHE_LIMIT:
        cache.clear()
    cache[key] = value


def check_word(word):
    if not word:
        raise PreconditionError("empty symbol word")
    if len(word) > MAX_DEPTH * 4:
        raise PreconditionError("word length %d exceeds configured maximum" % len(word))
    for ch in word:
        if ch not in ("L", "R"):
            raise PreconditionError("bad symbol %r in word %r" % (ch, word))


def check_depth(depth, what="enumeration"):
    """`depth` as an int, if it is an integer in [0, MAX_DEPTH]; else a
    PreconditionError naming the value, as the depth of `what`."""
    if not (isinstance(depth, numbers.Integral) and 0 <= depth <= MAX_DEPTH):
        raise PreconditionError("%s depth %r is not an integer in [0, %d]"
                                % (what, depth, MAX_DEPTH))
    return int(depth)


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
    `out`, an array of the shape of `ends` that may be any view, or a
    new array without it; `ends` is not written.

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
    np.clip(u, -1.0, beta - 1.0, out=u)
    u += 1.0
    u /= beta
    if lmap.alpha != 1.0:
        u **= 1.0 / lmap.alpha
    u *= sign
    return u


def pullback(lmap, symbols):
    """Cylinder endpoints of many words at once.

    `symbols` is a (words, length) matrix of ALPHABET indices (see
    `symbol_matrix`). Each row pulls [-1, 1] back through its branch
    chain, last symbol first, one `_inverse_step` per symbol.
    Returns the closed cylinder endpoints as two arrays.
    """
    symbols = np.asarray(symbols)
    ends = np.empty((2, symbols.shape[0]))
    ends[0] = -1.0
    ends[1] = 1.0
    for j in range(symbols.shape[1] - 1, -1, -1):
        ends = _inverse_step(lmap, symbols[:, j] == 1, ends)
    return ends[0], ends[1]


class CylinderLevel:
    """The nonempty cylinders of one word length, as sorted parallel arrays.

    `codes` holds the words as uint64 codes (see `encode_words`), strictly
    increasing; `lo` and `hi` hold the closed cylinder endpoints. Code
    order is spatial order: both branches are increasing and the L
    branch lies left of the R branch, so `lo` and `hi` are nondecreasing.
    `len()` is the word count. The arrays are read-only, since cached
    levels are shared.
    """

    def __init__(self, depth, codes, lo, hi):
        self.depth = depth
        self.codes = codes
        self.lo = lo
        self.hi = hi
        for arr in (codes, lo, hi):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.codes)

    def find(self, codes):
        """Positions of the given codes in this level, -1 where absent."""
        codes = np.asarray(codes, dtype=np.uint64)
        pos = np.minimum(np.searchsorted(self.codes, codes),
                         len(self.codes) - 1)
        return np.where(self.codes[pos] == codes, pos, -1)

    def subset(self, keep):
        """The level restricted to a boolean mask of its words."""
        return CylinderLevel(self.depth, self.codes[keep], self.lo[keep],
                             self.hi[keep])


class _ModelStore:
    """The model-only symbolic objects of one model (alpha, beta).

    `levels`: each depth handed out -> its list of cylinder levels, all
    prefixes of the deepest one, so each level is built once.
    `horseshoes`: (depth, x_gap) -> horseshoe. `orbits`: the periodic
    records of periods <= `n_max`, by (period, word). `points`: each word
    located so far -> its record.
    """

    def __init__(self):
        root = CylinderLevel(0, np.zeros(1, dtype=np.uint64),
                             np.array([-1.0]), np.array([1.0]))
        self.levels = {0: [root]}
        self.horseshoes = {}
        self.orbits = []
        self.n_max = 0
        self.points = {}


# per model (alpha, beta), least recently used first: the model's store.
# Evicting a model drops all of its symbolic objects together.
_MODELS = collections.OrderedDict()
_MODEL_LIMIT = 16


def _model_store(lmap):
    """The store of the map's model, marked most recently used."""
    key = (lmap.alpha, lmap.beta)
    store = _MODELS.pop(key, None)
    if store is None:
        store = _ModelStore()
    _MODELS[key] = store
    if len(_MODELS) > _MODEL_LIMIT:
        _MODELS.popitem(last=False)
    return store


def _extend_levels(lmap, levels, depth):
    """`levels` continued to the given depth (a new list).

    A level's lo and hi rows are nondecreasing (see `CylinderLevel`), so
    the cylinders that pull back through a branch form one run: through
    L those meeting its range [1 - beta, 1], from the first hi >= 1 - beta
    to the end; through R those meeting [-1, beta - 1], from the start to
    the last lo <= beta - 1. A cylinder outside a run clamps both of its
    ends to the same value, a pulled width of exactly 0, so it is empty
    there. Each run is pulled back straight into the new level's
    (2, words) endpoint array, whose rows are its lo and hi, and the next
    level pulls those rows back with no restacking. One mask then drops
    the pulled cylinders of width <= EMPTY_WIDTH, when there are any.
    """
    levels = list(levels)
    level = levels[-1]
    ends = np.vstack([level.lo, level.hi])
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
        pulled = np.empty((2, cut + stop))
        codes[:cut] = level.codes[first:]
        np.bitwise_or(level.codes[:stop], np.uint64(1 << d), out=codes[cut:])
        _inverse_step(lmap, False, ends[:, first:], out=pulled[:, :cut])
        _inverse_step(lmap, True, ends[:, :stop], out=pulled[:, cut:])
        live = pulled[1] - pulled[0] > EMPTY_WIDTH
        if not live.all():
            codes, pulled = codes[live], pulled[:, live]
        ends = pulled
        level = CylinderLevel(d + 1, codes, ends[0], ends[1])
        levels.append(level)
    return levels


def cylinder_levels(lmap, depth):
    """All nonempty cylinders up to the given depth.

    Returns a list indexed by word length; entry d is the `CylinderLevel`
    of the depth-d words, built from entry d - 1 with one vectorized
    `_inverse_step` per symbol over the run of cylinders that meet the
    symbol's branch range; the cylinders outside the run pull back to a
    single point, so they are empty (see `_extend_levels`). Cached per
    model (alpha, beta), for the 16 most recently used models: a request
    no deeper than the deepest list built so far is a prefix of it, and a
    deeper one continues it from its last level, so no level is
    enumerated twice. The same depth returns the same list object.
    Raises PreconditionError unless the depth is an integer in
    [0, MAX_DEPTH].
    """
    depth = check_depth(depth)
    lists = _model_store(lmap).levels
    levels = lists.get(depth)
    if levels is None:
        deepest = lists[max(lists)]
        if depth < len(deepest):
            levels = deepest[:depth + 1]
        else:
            levels = _extend_levels(LorenzMap1D(lmap.alpha, lmap.beta),
                                    deepest, depth)
        lists[depth] = levels
    return levels


class Words(collections.abc.Sequence):
    """The words of strictly increasing length-`depth` codes, decoded on
    access.

    A read-only sequence, in code (= lexicographic) order. `len()` and
    `in` read the codes alone, with no decoding. An index or a slice
    decodes only the words it selects, and iteration decodes
    `_DECODE_BLOCK` words at a time; nothing decoded is kept. Like
    `range`, a view never compares equal to a list.
    """

    __slots__ = ("codes", "depth")

    def __init__(self, codes, depth):
        self.codes = codes
        self.depth = depth

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return decode_words(self.codes[index], self.depth)
        return decode_words(self.codes[[operator.index(index)]],
                            self.depth)[0]

    def __iter__(self):
        for start in range(0, len(self.codes), _DECODE_BLOCK):
            yield from decode_words(self.codes[start:start + _DECODE_BLOCK],
                                    self.depth)

    def __contains__(self, word):
        """One code search; False for anything but a length-`depth`
        string over L and R."""
        if (not isinstance(word, str) or len(word) != self.depth
                or word.strip("LR")):
            return False
        code = encode_words([word])
        pos = np.searchsorted(self.codes, code)[0]
        return bool(pos < len(self.codes) and self.codes[pos] == code[0])

    def __repr__(self):
        return "Words(depth=%d, count=%d)" % (self.depth, len(self))


def admissible_words(lmap, depth):
    """The admissible words of exactly the given length, in lexicographic
    order, as a `Words` view over the codes of their cylinder level:
    `len()` is the lap count at no decoding cost, and a word becomes a
    string only when it is read."""
    return Words(cylinder_levels(lmap, depth)[depth].codes, depth)


class PeriodicOrbitRecord:
    """A located periodic point: primitive word, point, expansion multiplier.

    Records live in the model's store, so every atom on one orbit shares
    one. A record caches model-only work: its orbit points, read-only,
    and in `averages` the orbit average of each keyed integrand of
    `measures.integrate_many` by its key (at most CACHE_LIMIT + 1 keys,
    emptied past that).
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

    The point of a word is the unique fixed point of its composed inverse
    branches; each inverse contracts by at least 1/min_slope, so plain
    iteration from 0 converges geometrically. Every rotation of every
    word iterates together, one `_inverse_step` per symbol, each from its
    own last symbol backwards, and a row is frozen after the first pass
    through its word that moves it by less than 1e-15 (or after its pass
    limit). Rotation j of a word gives the orbit point f^j(x), so the
    multiplier, the product of |f'| along the orbit, is read at points
    located by contraction: the expanding forward map would multiply a
    last-bit error in x by up to the multiplier itself. Words may differ
    in length. Returns (points, multipliers) as arrays; raises
    PreconditionError if some f(f^j(x)) misses f^(j+1)(x) by over 1e-10.
    """
    periods = np.array([len(w) for w in words])
    # padded to one width; no word is read past its own length
    width = int(periods.max())
    symbols = symbol_matrix([w.ljust(width, "L") for w in words])
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
        x[live] = _inverse_step(lmap, row_symbols[live, pos[live]] == 1,
                                x[live])
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


def _periodic_admissible(symbols, kp):
    """Which rows w of a (words, p) symbol matrix are periodically admissible.

    Every rotation of w^inf, read to the kneading depth, must be <= k_minus
    if it begins with R and >= k_plus if it begins with L, in lexicographic
    order with L < R: the first differing symbol decides, and a tie passes.
    All rotations of all rows are compared at once, as one uint8 array.
    """
    p = symbols.shape[1]
    depth = kp.depth
    # row 0 bounds the rotations that begin with L, row 1 those with R
    bounds = symbol_matrix([kp.k_plus[:depth], kp.k_minus[:depth]])
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
    """
    check_word(word)
    if not is_primitive(word):
        raise PreconditionError("word %r is not primitive" % word)
    points = _model_store(lmap).points
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
    new periods, all in one `_periodic_points` call.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    if n_max > 16:
        raise PreconditionError("n_max > 16 exceeds the configured bound")
    store = _model_store(lmap)
    if n_max > store.n_max:
        kp = kneading(lmap, max(64, 4 * n_max))
        words = []
        for p in range(store.n_max + 1, n_max + 1):
            codes = _necklace_codes(p)
            keep = _periodic_admissible(code_symbols(codes, p), kp)
            words += decode_words(codes[keep], p)
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

    vertices are admissible depth-m words, held as their uint64 codes
    (`codes`, see `encode_words`); an edge u -> v exists iff v is the
    shift successor u[1:] + s and the joined word u + s is admissible.
    The edges are one (vertices, 2) int64 table `next`: next[u, k] is the
    successor of u on ALPHABET[k], -1 meaning no edge, so next.reshape(-1)
    is indexed by the flat steps 2*u + k of the transition tables;
    adjacency_matrix() materializes the 0/1 matrix. The words are decoded
    to strings on the first use of `vertices` (graph work and cylinder
    schemes need none). The arrays are read-only, since horseshoes are
    shared through the per-model store. Two memos live and die with the
    horseshoe, each at most CACHE_LIMIT + 1 keys (see `_remember`):
    `equilibria`, the solved equilibrium states of
    `pressure.equilibrium_measure` by the bytes of their log-weight
    vector, and `schemes`, the cylinder schemes of `measures` by
    (alpha, beta, depth).
    """

    def __init__(self, depth, codes, table, x_gap, cyl_lo, cyl_hi):
        self.depth = depth
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

    def adjacency_density(self):
        n = self.n_vertices
        return self.edge_count() / float(n * n) if n else 0.0

    def cyclic_components(self):
        """Strongly connected components that carry a cycle.

        Returns (indices, sub-SFT) pairs in the order of
        `strongly_connected_components`. One-vertex components without a
        self-loop are dropped before restriction, and a component of all
        vertices is this horseshoe itself. The decomposition is computed
        on first use and stored on this horseshoe, so it is shared by
        every later caller and freed with the object; a horseshoe from
        `build_horseshoe` lives in its model's store, so every catalog
        and realization request on that model decomposes it once.
        """
        if self._cyclic is None:
            cyclic = []
            for comp in strongly_connected_components(self):
                i = comp[0]
                if len(comp) == 1 and not (self.next[i] == i).any():
                    continue
                sub = (self if len(comp) == self.n_vertices
                       else restrict_horseshoe(self, comp))
                cyclic.append((comp, sub))
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
        for w in vertices:
            check_word(w)
            if len(w) != depth:
                raise PreconditionError(
                    "vertex %r is not a depth-%d word" % (w, depth))
        table = np.full((n, len(ALPHABET)), -1, dtype=np.int64)
        for i, j in zip(*np.nonzero(adjacency)):
            u, v = vertices[i], vertices[j]
            if v[:-1] != u[1:]:
                raise PreconditionError(
                    "edge %r -> %r is not shift-compatible" % (u, v))
            table[i, ALPHABET.index(v[-1])] = j
        lo, hi = pullback(lmap, symbol_matrix(vertices))
        return cls(depth, encode_words(vertices), table, x_gap, lo, hi)


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
    if not (isinstance(depth, numbers.Integral)
            and 1 <= depth <= MAX_DEPTH - 1):
        raise PreconditionError(
            "horseshoe depth %r is not an integer in [1, %d]"
            % (depth, MAX_DEPTH - 1))
    if not 0.0 <= x_gap < 1.0:
        raise PreconditionError("x_gap must lie in [0, 1), got %r" % x_gap)
    horseshoes = _model_store(lmap).horseshoes
    key = (int(depth), float(x_gap))
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
    verts = level.subset(keep)
    # the edge u -> v on symbol s exists iff the joined word u + s is a
    # nonempty (m+1)-cylinder and v = (u + s)[1:] is a kept vertex; both
    # are code lookups, since (u + s)[1:] is code(u + s) & (2^m - 1)
    joined = ((verts.codes[:, None] << np.uint64(1))
              | np.arange(len(ALPHABET), dtype=np.uint64))
    table = verts.find(joined & np.uint64((1 << depth) - 1))
    table[levels[depth + 1].find(joined) < 0] = -1
    horseshoe = SFTHorseshoe(depth, verts.codes, table, x_gap, verts.lo,
                             verts.hi)
    if horseshoe.edge_count() == 0:
        raise EmptyHorseshoeError(
            "x_gap = %g leaves vertices but no transitions at depth %d"
            % (x_gap, depth))
    horseshoes[key] = horseshoe
    return horseshoe


def _neighbours(adjacency, frontier):
    """The targets of the edges out of `frontier`, with repeats.

    `adjacency` is (count, first, targets): the targets of vertex u are
    targets[first[u]:first[u] + count[u]], so a round gathers only the
    edges of its frontier.
    """
    count, first, targets = adjacency
    size = count[frontier]
    end = np.cumsum(size)
    # entry k of frontier vertex f's run sits at first[f] + k
    pos = np.repeat(first[frontier] - (end - size), size)
    return targets[pos + np.arange(pos.size)]


def _distinct(values, slot):
    """`values` without repeats, in no particular order.

    `slot` is scratch space with an entry for every value; the last write
    to a slot wins, so each value keeps one entry, without a sort.
    """
    rank = np.arange(values.size)
    slot[values] = rank
    return values[slot[values] == rank]


def strongly_connected_components(graph):
    """Strongly connected components of a successor graph.

    `graph` needs `n_vertices` and `next`, a (vertices, 2) successor
    table with -1 for no edge; in-degrees are arbitrary. Forward-backward
    decomposition on arrays, over one graph holding the edges u -> v and,
    shifted by n, their reversals v + n -> u + n, stored once per call
    sorted by source. Its in-degree at v counts v's live in-edges and at
    v + n its live out-edges. Vertices die in rounds: each round lowers
    those counts along the edges of the vertices that died last, and
    every live vertex left without a live in-edge or out-edge lies on no
    cycle, so it is a component of its own and dies next. When none is
    left, the vertices both reachable from and reaching the smallest live
    vertex (one breadth-first search from it in both halves) form its
    component, which dies in turn. Each round works on the edges of its
    own frontier only.

    Returns a list of index arrays, one per component, each ascending,
    in a deterministic order (by smallest contained vertex index).
    """
    n = graph.n_vertices
    if not n:
        return []
    table = graph.next
    has = table >= 0
    # the edges u -> v by source u, row by row, then reversed by source v
    dst = table[has]
    out_degree = has.sum(axis=1)
    in_degree = np.bincount(dst, minlength=n)
    src = np.repeat(np.arange(n), out_degree)[np.argsort(dst, kind="stable")]
    count = np.concatenate([out_degree, in_degree])
    adjacency = (count, np.cumsum(count) - count, np.concatenate([dst, src + n]))
    degree = np.concatenate([in_degree, out_degree])
    slot = np.empty(2 * n, dtype=np.int64)
    # dead in both halves: vertices trimmed or in a component found; a
    # search marks what it visits here too and unmarks it afterwards
    dead = np.zeros(2 * n, dtype=bool)
    # the smallest vertex of each vertex's component: a pivot is the
    # smallest live vertex, and components die whole
    root = np.arange(n)
    pivot = 0
    live = n
    dying = np.flatnonzero((degree[:n] == 0) | (degree[n:] == 0))
    while True:
        while dying.size:
            dead[dying] = True
            dead[dying + n] = True
            live -= dying.size
            if not live:
                break
            hit = _neighbours(adjacency, np.concatenate([dying, dying + n]))
            np.subtract.at(degree, hit, 1)
            hit = hit[~dead[hit]] % n
            dying = _distinct(hit[(degree[hit] == 0) | (degree[hit + n] == 0)],
                              slot)
        if not live:
            break
        pivot += int(np.argmin(dead[pivot:n]))
        frontier = np.array([pivot, pivot + n])
        visited = []
        while frontier.size:
            dead[frontier] = True
            visited.append(frontier)
            hit = _neighbours(adjacency, frontier)
            frontier = _distinct(hit[~dead[hit]], slot)
        visited = np.concatenate(visited)
        half = visited % n
        both = dead[half] & dead[half + n]
        dead[visited[~both]] = False
        dying = visited[both & (visited < n)]
        root[dying] = pivot
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
                        horseshoe.cyl_lo[indices], horseshoe.cyl_hi[indices])
