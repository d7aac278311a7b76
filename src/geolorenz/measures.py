"""Invariant measures on the section and their flow-level statistics.

Four representations cover everything downstream needs: periodic-orbit
measures, Markov measures on an SFT horseshoe, finite convex mixtures,
and the Dirac measure at the singularity (flow-level only). Entropy and
potential integrals are exact where closed forms exist and otherwise come
with rigorous per-cylinder error bounds. Flow quantities never touch an
integrator: the suspension translates everything through the roof model.

The one section integrator, `integrate_many`, takes a catalog at a time:
each integrand is evaluated once for the orbit points of all atoms and
once per shared cylinder scheme, and each member gets the floats of its
one-element call (`integrate_map`, `suspend`) bit for bit. Orbits are
averaged by per-period blocks, as `np.mean` averages one orbit, not by
`np.add.reduceat`, whose segment sums round differently.
"""

import hashlib
import math
import types

import numpy as np

from .errors import DepthTooShallowError, PreconditionError
from .model import abs_range, dwell_array, roof_array
from .potentials import midpoint_error_many, passage_error_many
from .symbolic import (ALPHABET, EMPTY_WIDTH, MAX_DEPTH, CylinderLevel,
                       _inverse_step, _remember, build_horseshoe, check_depth,
                       check_word, code_symbols, cylinder_levels,
                       encode_words, find_periodic_point, pullback,
                       restrict_horseshoe, strongly_connected_components)

DEFAULT_DEPTH = 12


class AtomicMeasure:
    """Uniform measure on a periodic orbit: zero entropy, exact averages."""

    variant = "atomic"

    def __init__(self, lmap, orbit, label=None):
        self.lmap = lmap
        self.orbit = orbit
        self.label = label
        self._points = orbit.orbit_points(lmap)

    @property
    def id(self):
        return self.label or "atomic:%s" % self.orbit.word

    def __repr__(self):
        return "AtomicMeasure(%s)" % self.id

    def points(self):
        return self._points

    def cylinder_masses(self, depth):
        """(codes, masses) of the depth-`depth` cylinders (see `_summed`),
        for an integer depth in [0, MAX_DEPTH]."""
        check_depth(depth, "cylinder")
        word = self.orbit.word
        p = len(word)
        ext = word * (depth // p + 2)
        return _summed(encode_words([ext[i:i + depth] for i in range(p)]),
                       np.full(p, 1.0 / p))

    def to_payload(self):
        return {"variant": "atomic", "word": self.orbit.word,
                "label": self.label}


class MarkovMeasure:
    """Stationary Markov chain on a horseshoe SFT.

    Transition probabilities share the layout of the horseshoe's table
    `next`: `probs[i, k]` is the probability of following the edge
    next[i, k] out of vertex i. Validation enforces row-stochasticity
    (1e-12), stationarity (1e-10), support inside the adjacency, and
    irreducibility of the support graph, so the measure is ergodic by
    construction. When the support is the whole adjacency, as
    for every equilibrium state, irreducibility is read from the
    horseshoe's stored decomposition (`SFTHorseshoe.cyclic_components`).
    The entropy is computed once, after validation (`entropy`).
    """

    variant = "markov"

    def __init__(self, lmap, horseshoe, probs, stationary, label=None):
        self.lmap = lmap
        self.horseshoe = horseshoe
        probs = np.asarray(probs, dtype=float)
        stationary = np.asarray(stationary, dtype=float)
        n = horseshoe.n_vertices
        if probs.shape != (n, len(ALPHABET)):
            raise PreconditionError(
                "transition table must have shape (%d, %d)" % (n, len(ALPHABET)))
        if stationary.shape != (n,):
            raise PreconditionError("stationary vector must have length %d" % n)
        if np.any(probs < 0.0) or np.any(stationary < -1e-15):
            raise PreconditionError("probabilities must be nonnegative")
        rows = probs.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise PreconditionError(
                "transition rows must sum to 1 within 1e-12 (worst %.3g)"
                % np.max(np.abs(rows - 1.0)))
        if abs(stationary.sum() - 1.0) > 1e-12:
            raise PreconditionError("stationary vector must sum to 1 within 1e-12")
        bad = (probs > 0.0) & (horseshoe.next < 0)
        if np.any(bad):
            raise PreconditionError(
                "transition support leaves the adjacency at vertex %d"
                % int(np.nonzero(bad)[0][0]))
        flow = self._push(stationary, probs)
        if np.max(np.abs(flow - stationary)) > 1e-10:
            raise PreconditionError(
                "vector is not stationary within 1e-10 (worst %.3g)"
                % np.max(np.abs(flow - stationary)))
        if not self._support_irreducible(probs):
            raise PreconditionError("transition support graph is not irreducible")
        self.probs = probs
        self.stationary = np.maximum(stationary, 0.0)
        self.label = label
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0.0,
                             probs * np.log(np.where(probs > 0.0, probs, 1.0)),
                             0.0)
        self.entropy = float(-np.sum(self.stationary * plogp.sum(axis=1)))

    def _push(self, pi, probs):
        # symbol by symbol, each in vertex order
        table = self.horseshoe.next.T
        ok = table >= 0
        out = np.zeros_like(pi)
        np.add.at(out, table[ok], (probs.T * pi)[ok])
        return out

    def _support_irreducible(self, probs):
        hs = self.horseshoe
        if (probs[hs.next >= 0] > 0.0).all():
            # the support is the whole adjacency (always so for an
            # equilibrium state): the horseshoe's stored decomposition
            # answers, so a family of measures on it decomposes it once
            comps = hs.cyclic_components()
            return len(comps) == 1 and len(comps[0][0]) == hs.n_vertices
        support = np.where(probs > 0.0, hs.next, -1)
        shadow = types.SimpleNamespace(n_vertices=hs.n_vertices, next=support)
        return len(strongly_connected_components(shadow)) == 1

    @property
    def id(self):
        if self.label:
            return self.label
        digest = hashlib.sha256()
        digest.update(self.horseshoe.codes.tobytes())
        digest.update(np.ascontiguousarray(self.probs).tobytes())
        digest.update(np.ascontiguousarray(self.stationary).tobytes())
        return "markov:d%d:g%g:%s" % (self.horseshoe.depth,
                                      self.horseshoe.x_gap,
                                      digest.hexdigest()[:10])

    def __repr__(self):
        return "MarkovMeasure(%s, %d vertices)" % (self.id,
                                                   self.horseshoe.n_vertices)

    def transition_matrix(self):
        n = self.horseshoe.n_vertices
        mat = np.zeros((n, n))
        src, bit = np.nonzero(self.horseshoe.next >= 0)
        mat[src, self.horseshoe.next[src, bit]] = self.probs[src, bit]
        return mat

    def cylinder_masses(self, depth):
        """(codes, masses) of the depth-`depth` cylinders (see `_summed`),
        for an integer depth in [0, MAX_DEPTH]."""
        check_depth(depth, "cylinder")
        m = self.horseshoe.depth
        if depth >= m:
            scheme = _scheme(self.lmap, self.horseshoe, depth)
            return _summed(scheme.codes,
                           scheme.masses(self.stationary, self.probs))
        return _summed(self.horseshoe.codes >> np.uint64(m - depth),
                       self.stationary)

    def to_payload(self):
        return {
            "variant": "markov",
            "depth": self.horseshoe.depth,
            "x_gap": self.horseshoe.x_gap,
            "vertices": list(self.horseshoe.vertices),
            "probs": [[float(v) for v in row] for row in self.probs],
            "stationary": [float(v) for v in self.stationary],
            "label": self.label,
        }


class ConvexMeasure:
    """Finite convex combination, kept flat (components are never Convex)."""

    variant = "convex"

    def __init__(self, components, label=None):
        flat = []
        for w, comp in components:
            w = float(w)
            if w <= 0.0:
                raise PreconditionError("mixture weights must be positive")
            if isinstance(comp, ConvexMeasure):
                flat.extend((w * wi, ci) for wi, ci in comp.components)
            elif isinstance(comp, SingularDeltaMeasure):
                raise PreconditionError(
                    "the singular Dirac measure cannot enter a section-level "
                    "mixture; it is not a section measure")
            else:
                flat.append((w, comp))
        total = sum(w for w, _ in flat)
        if abs(total - 1.0) > 1e-12:
            raise PreconditionError(
                "mixture weights must sum to 1 within 1e-12, got %.17g" % total)
        self.components = [(w, c) for w, c in flat]
        self.label = label

    @property
    def id(self):
        if self.label:
            return self.label
        parts = ["%.6g*%s" % (w, c.id) for w, c in self.components]
        return "convex:" + "+".join(parts)

    def __repr__(self):
        return "ConvexMeasure(%d components)" % len(self.components)

    def cylinder_masses(self, depth):
        """(codes, masses) of the depth-`depth` cylinders (see `_summed`),
        for an integer depth in [0, MAX_DEPTH]."""
        check_depth(depth, "cylinder")
        parts = [comp.cylinder_masses(depth) for _, comp in self.components]
        return _summed(np.concatenate([codes for codes, _ in parts]),
                       np.concatenate([w * masses for (w, _), (_, masses)
                                       in zip(self.components, parts)]))

    def to_payload(self):
        return {"variant": "convex", "label": self.label,
                "components": [{"weight": w, "measure": c.to_payload()}
                               for w, c in self.components]}


class SingularDeltaMeasure:
    """The Dirac measure at the singularity; meaningful at flow level only."""

    variant = "delta_sigma"

    def __init__(self, label=None):
        self.label = label

    @property
    def id(self):
        return self.label or "delta_sigma"

    def __repr__(self):
        return "SingularDeltaMeasure()"

    def to_payload(self):
        return {"variant": "delta_sigma", "label": self.label}


def _reject_delta(measure, what):
    if isinstance(measure, SingularDeltaMeasure):
        raise PreconditionError(
            "%s is undefined for the singular Dirac measure at map level; "
            "use its flow-level conventions instead" % what)


def entropy_map(measure):
    """Kolmogorov-Sinai entropy per return, exact per variant."""
    _reject_delta(measure, "map-level entropy")
    if isinstance(measure, AtomicMeasure):
        return 0.0
    if isinstance(measure, MarkovMeasure):
        return measure.entropy
    if isinstance(measure, ConvexMeasure):
        return float(sum(w * entropy_map(c) for w, c in measure.components))
    raise PreconditionError("unknown measure variant %r" % (measure,))


def integrate_map(potential, measure, depth=DEFAULT_DEPTH, tol=None):
    """Section integral of the potential with a rigorous error bound.

    Returns (value, bound), the one-element call of `integrate_many`.
    Atomic orbits are averaged exactly (bound 0). Markov measures are
    integrated over depth-`depth` cylinder words at cylinder midpoints;
    the bound sums each word's mass against the potential's modulus of
    continuity on that cylinder. When `tol` is given and the bound
    exceeds it, DepthTooShallowError is raised.
    """
    (values, bounds), = _integrate_each([potential], [measure], depth)
    value, bound = values[0], bounds[0]
    if tol is not None and bound > tol:
        raise DepthTooShallowError(
            "integration error bound %.3g exceeds tolerance %.3g at depth %d"
            % (bound, tol, depth))
    return value, bound


def integrate_many(integrand, measures, depth=DEFAULT_DEPTH):
    """Section integrals of one integrand over many measures.

    Returns (values, bounds) in the order of `measures`, each equal bit
    for bit to `integrate_map` on that measure alone. The orbit points of
    all atoms, mixture components included, go through one
    `integrand.value` call, laid out period by period; the orbits of one
    period, read as a (count, p) matrix, are averaged by row sums over p,
    the arithmetic of `np.mean` on one orbit (numpy reduces each row
    pairwise). Markov measures share one evaluation of the integrand and
    its bound per cylinder scheme. Mixtures recombine from 0.0 in
    component order; the singular Dirac is rejected.

    An integrand with a `key` depends on the model and that key alone:
    the roof integrand (key: the roof's c0, c1 and eta0) and the dwell
    integrand (the same plus the radius b). Its results are cached where
    the points live, both shared through the per-model stores: each
    atom's average on its `PeriodicOrbitRecord`, and each scheme's
    (values, bounds) arrays, read-only, on the `_CylinderScheme`. Each
    cache holds at most `symbolic.CACHE_LIMIT` + 1 keys and is emptied
    past that.
    Potentials carry no key and are never cached. A hit returns the cold
    floats, since each average and each array entry depends on its own
    points only.
    """
    return _integrate_each([integrand], list(measures), depth)[0]


def _integrate_each(integrands, measures, depth):
    """[(values, bounds)] of each integrand over a list of measures (see
    `integrate_many`, also for what is cached), sorting the measures into
    atoms and cylinder schemes, and computing their cylinder masses, once
    for all integrands. Raises PreconditionError unless the depth is an
    integer in [0, MAX_DEPTH], whatever the measures.
    """
    check_depth(depth, "integration")
    index = {}     # id -> position of each distinct atomic or Markov measure
    atoms = []     # (position, atom) of each distinct atom
    schemes = {}   # id(scheme) -> (scheme, [(position, cylinder masses)])
    shallow = []
    mixed = False
    for measure in measures:
        if isinstance(measure, ConvexMeasure):
            mixed = True
            parts = [comp for _, comp in measure.components]
        else:
            parts = (measure,)
        for leaf in parts:
            if id(leaf) in index:
                continue
            i = index[id(leaf)] = len(index)
            if isinstance(leaf, AtomicMeasure):
                atoms.append((i, leaf))
            elif not isinstance(leaf, MarkovMeasure):
                _reject_delta(leaf, "section integration")
                raise PreconditionError("unknown measure variant %r" % (leaf,))
            elif depth >= leaf.horseshoe.depth:
                scheme = _scheme(leaf.lmap, leaf.horseshoe, depth)
                schemes.setdefault(id(scheme), (scheme, []))[1].append(
                    (i, scheme.masses(leaf.stationary, leaf.probs)))
            else:
                shallow.append((i, leaf))
    # the results of distinct plain measures are, in order, theirs
    plain = not mixed and len(index) == len(measures)
    out = []
    for integrand in integrands:
        key = getattr(integrand, "key", None)
        value = [0.0] * len(index)
        bound = [0.0] * len(index)     # atoms are exact
        todo = atoms
        if key is not None:
            todo = []
            for i, atom in atoms:
                cached = atom.orbit.averages.get(key)
                if cached is None:
                    todo.append((i, atom))
                else:
                    value[i] = cached
        if todo:
            for (i, atom), average in zip(todo,
                                          _orbit_averages(integrand, todo)):
                value[i] = average
                if key is not None:
                    _remember(atom.orbit.averages, key, average)
        for scheme, block in schemes.values():
            vals_errs = None if key is None else scheme.integrals.get(key)
            if vals_errs is None:
                vals_errs = (
                    np.asarray(integrand.value(scheme.mid,
                                               np.zeros(scheme.mid.shape))),
                    midpoint_error_many(integrand, scheme.lo, scheme.hi))
                if key is not None:
                    for arr in vals_errs:
                        arr.flags.writeable = False
                    _remember(scheme.integrals, key, vals_errs)
            vals, errs = vals_errs
            # np.add.reduce sums pairwise in a fixed order; a BLAS dot
            # splits long vectors by thread count, and its last bits with them
            for i, mass in block:
                value[i] = float(np.add.reduce(mass * vals))
                bound[i] = float(np.add.reduce(mass * errs))
        for i, leaf in shallow:
            value[i], bound[i] = _integrate_shallow(integrand, leaf, depth)
        if plain:
            out.append((value, bound))
        else:
            out.append(([_mix(value, index, m) for m in measures],
                        [_mix(bound, index, m) for m in measures]))
    return out


def _orbit_averages(integrand, atoms):
    """The integrand's average over the orbit of each (position, atom)."""
    blocks = {}    # period -> [k] of the atoms of that period
    for k, (_, atom) in enumerate(atoms):
        blocks.setdefault(atom.points().size, []).append(k)
    pts = [atoms[k][1].points() for block in blocks.values() for k in block]
    # a lone orbit is read in place: a one-measure call copies nothing
    pts = pts[0] if len(pts) == 1 else np.concatenate(pts)
    vals = np.asarray(integrand.value(pts, np.zeros(pts.shape)), dtype=float)
    out = [0.0] * len(atoms)
    start = 0
    for p, block in blocks.items():
        stop = start + len(block) * p
        sums = np.add.reduce(vals[start:stop].reshape(-1, p), axis=1)
        for k, total in zip(block, sums.tolist()):
            out[k] = total / p
        start = stop
    return out


def _mix(result, index, measure):
    """A measure's entry in `result`, placed by `index`; a mixture's is
    summed from its components' entries from 0.0 in component order."""
    if not isinstance(measure, ConvexMeasure):
        return result[index[id(measure)]]
    total = 0.0
    for w, comp in measure.components:
        total += w * result[index[id(comp)]]
    return total


def _integrate_shallow(potential, measure, depth):
    """A Markov measure at a depth below its horseshoe's, cylinder by
    cylinder in code (= word) order."""
    level = cylinder_levels(measure.lmap, depth)[depth]
    codes, masses = measure.cylinder_masses(depth)
    pos = level.find(codes)
    if (pos < 0).any():
        raise PreconditionError(
            "measure charges an empty depth-%d cylinder" % depth)
    value = 0.0
    bound = 0.0
    for mass, lo, hi in zip(masses.tolist(), level.lo[pos].tolist(),
                            level.hi[pos].tolist()):
        mid = 0.5 * (lo + hi)
        value += mass * float(potential.value(mid, 0.0))
        bound += mass * float(potential.midpoint_error(lo, hi))
    return value, bound


def _summed(codes, masses):
    """(distinct codes increasing, the masses summed per code), each sum
    from 0.0 in input order (`np.add.at` is unbuffered)."""
    keys, inverse = np.unique(codes, return_inverse=True)
    total = np.zeros(len(keys))
    np.add.at(total, inverse, masses)
    return keys, total


def convex_combine(components, label=None):
    """Convex combination of measures; a single weight-1 part is returned as is."""
    components = list(components)
    if not components:
        raise PreconditionError("convex combination needs at least one component")
    if len(components) == 1 and abs(float(components[0][0]) - 1.0) <= 1e-12:
        return components[0][1]
    return ConvexMeasure(components, label=label)


class FlowMeasureStats:
    """Suspension statistics of a section measure under a roof function.

    h_flow is the Abramov quotient h_map / mean_roof; potential_integral
    is the passage integral divided by the mean roof; ball_fraction(b) is
    the fraction of flow time spent within dwell radius b of the
    singularity. The singular Dirac measure carries fixed conventions:
    infinite mean roof, zero entropy, ball fraction one, and the
    potential's value at the singularity as its integral.
    """

    def __init__(self, measure, roof, depth, mean_roof, h_flow,
                 potential_integral, singular=False):
        self.measure = measure
        self.roof = roof
        self.depth = depth
        self.mean_roof = mean_roof
        self.h_flow = h_flow
        self.potential_integral = potential_integral
        self.singular = singular

    def ball_fraction(self, b):
        return ball_fractions([self], b)[0]

    def pressure(self):
        return self.h_flow + self.potential_integral

    def as_dict(self):
        return {"mean_roof": self.mean_roof, "h_flow": self.h_flow,
                "potential_integral": self.potential_integral}


def suspend(measure, roof, potential, depth=DEFAULT_DEPTH):
    """Translate a section measure into flow-level statistics."""
    return suspend_many([measure], roof, potential, depth)[0]


def suspend_many(measures, roof, potential, depth=DEFAULT_DEPTH):
    """`suspend` of each measure: the roof and passage integrands of all
    section measures in one pass of the section integrator.

    The roof integral is model-only work, cached per orbit and cylinder
    scheme under the roof's (c0, c1, eta0) (see `integrate_many`): a
    catalog suspended again under another potential integrates only the
    passage.
    """
    measures = list(measures)
    section = [m for m in measures if not isinstance(m, SingularDeltaMeasure)]
    (roofs, _), (passages, _) = _integrate_each(
        [_RoofIntegrand(roof), _PassageIntegrand(potential, roof)], section,
        depth)
    flows = iter(zip(roofs, passages))
    out = []
    for m in measures:
        if isinstance(m, SingularDeltaMeasure):
            out.append(FlowMeasureStats(
                m, roof, depth, mean_roof=math.inf, h_flow=0.0,
                potential_integral=potential.value_at_sigma(),
                singular=True))
        else:
            mean_roof, passage = next(flows)
            out.append(FlowMeasureStats(
                m, roof, depth, mean_roof=mean_roof,
                h_flow=entropy_map(m) / mean_roof,
                potential_integral=passage / mean_roof))
    return out


def ball_fractions(stats, b):
    """`ball_fraction(b)` of each FlowMeasureStats, one dwell integral for all.

    The stats must share one roof and depth, as those of one
    `suspend_many` call do. The dwell integral is cached like the roof's,
    under (c0, c1, eta0, b).
    """
    if not b > 0.0:
        raise PreconditionError("dwell radius must be positive")
    section = [s for s in stats if not s.singular]
    if not section:
        return [1.0] * len(stats)
    roof, depth = section[0].roof, section[0].depth
    for s in section:
        if s.roof is not roof or s.depth != depth:
            raise PreconditionError(
                "batched ball fractions need one roof and one depth")
    (dwells, _), = _integrate_each([_DwellIntegrand(roof, b)],
                                   [s.measure for s in section], depth)
    dwells = iter(dwells)
    return [1.0 if s.singular
            else float(min(max(next(dwells) / s.mean_roof, 0.0), 1.0))
            for s in stats]


def measure_distance(a, b, depth=DEFAULT_DEPTH):
    """L1 distance between depth-`depth` cylinder mass vectors, summed in
    code order over the union of the charged cylinders. Raises
    PreconditionError unless the depth is an integer in [0, MAX_DEPTH]."""
    _reject_delta(a, "cylinder distance")
    _reject_delta(b, "cylinder distance")
    check_depth(depth, "distance")
    (codes_a, masses_a), (codes_b, masses_b) = (a.cylinder_masses(depth),
                                                b.cylinder_masses(depth))
    keys = np.union1d(codes_a, codes_b)
    diff = np.zeros(len(keys))
    diff[np.searchsorted(keys, codes_a)] = masses_a
    diff[np.searchsorted(keys, codes_b)] -= masses_b
    return float(sum(np.abs(diff).tolist()))


def measure_from_payload(lmap, payload):
    """Rebuild a measure from its serialized form (see each to_payload)."""
    variant = payload.get("variant")
    label = payload.get("label")
    if variant == "atomic":
        orbit = find_periodic_point(lmap, payload["word"])
        return AtomicMeasure(lmap, orbit, label=label)
    if variant == "markov":
        full = build_horseshoe(lmap, int(payload["depth"]),
                               float(payload["x_gap"]))
        wanted = list(payload["vertices"])
        seen = set()
        for w in wanted:
            if len(w) != full.depth:
                raise PreconditionError(
                    "serialized vertex %r is not a depth-%d word"
                    % (w, full.depth))
            check_word(w)
            if w in seen:
                raise PreconditionError(
                    "serialized vertex %r appears twice" % w)
            seen.add(w)
        # the vertices are nonempty cylinders of one length, codes sorted
        picked = CylinderLevel(full.depth, full.codes, full.cyl_lo,
                               full.cyl_hi).find(encode_words(wanted))
        if (picked < 0).any():
            raise PreconditionError(
                "serialized horseshoe vertex %r does not exist at depth %d, "
                "gap %g" % (wanted[np.argmax(picked < 0)], full.depth,
                            full.x_gap))
        # an equilibrium state's vertices are a component the horseshoe
        # stores: reuse that object, and with it its cylinder schemes
        keep = np.sort(picked)
        sub = next((s for c, s in full.cyclic_components()
                    if np.array_equal(c, keep)), None)
        if sub is None:
            sub = restrict_horseshoe(full, keep)
        # the vertices are sorted; realign the serialized rows
        realign = np.argsort(picked)
        probs = np.asarray(payload["probs"], dtype=float)[realign]
        stationary = np.asarray(payload["stationary"], dtype=float)[realign]
        return MarkovMeasure(lmap, sub, probs, stationary, label=label)
    if variant == "convex":
        comps = [(item["weight"], measure_from_payload(lmap, item["measure"]))
                 for item in payload["components"]]
        return ConvexMeasure(comps, label=label)
    if variant == "delta_sigma":
        return SingularDeltaMeasure(label=label)
    raise PreconditionError("unknown measure payload variant %r" % variant)


# ---------------------------------------------------------------------------
# roof-model integrands: quack like potentials (value / midpoint_error),
# array-native like them

class _RoofIntegrand:
    """r(x) as an integrand; exact range bounds from monotonicity in |x|.

    Keyed by the bytes of the roof's (c0, c1, eta0): see `integrate_many`.
    """

    def __init__(self, roof):
        self.roof = roof
        self.key = ("roof", np.array([roof.c0, roof.c1, roof.eta0]).tobytes())

    def value(self, x, y=0.0):
        out = roof_array(self.roof, x)
        return out if np.ndim(x) else float(out)

    def midpoint_error(self, lo, hi):
        return _monotone_range(self.value, lo, hi)


class _DwellIntegrand:
    """d_b(x): time within radius b, monotone nonincreasing in |x|.

    Keyed by the bytes of (c0, c1, eta0, b): see `integrate_many`.
    """

    def __init__(self, roof, b):
        self.roof = roof
        self.b = float(b)
        self.key = ("dwell", np.array([roof.c0, roof.c1, roof.eta0,
                                       self.b]).tobytes())

    def value(self, x, y=0.0):
        out = dwell_array(self.roof, x, self.b)
        return out if np.ndim(x) else float(out)

    def midpoint_error(self, lo, hi):
        return _monotone_range(self.value, lo, hi)


class _PassageIntegrand:
    """Per-passage integral of a potential: the flow weight over one return."""

    def __init__(self, potential, roof):
        self.potential = potential
        self.roof = roof

    def value(self, x, y=0.0):
        return self.potential.passage_integral(x, self.roof)

    def midpoint_error(self, lo, hi):
        return passage_error_many(self.potential, self.roof, lo, hi)


def _monotone_range(value_fn, lo, hi):
    """Exact range over each [lo, hi] of a function monotone in |x|.

    The range is infinite where the interval reaches 0, since both
    integrands diverge there.
    """
    d0, d1 = abs_range(lo, hi)
    out = np.where(d0 <= 0.0, np.inf, np.abs(value_fn(d0) - value_fn(d1)))
    return out if np.ndim(lo) else float(out)


# ---------------------------------------------------------------------------
# path expansion: depth-D cylinder masses of a Markov measure, vectorized
#
# A scheme depends only on the map and the horseshoe, so it is kept on the
# horseshoe (`SFTHorseshoe.schemes`) under (alpha, beta, depth): every
# measure on one horseshoe object, such as the restricted component that
# each equilibrium state of a bisection shares, reads one build, and the
# scheme is freed with its horseshoe. Schemes hold no strings and no
# per-path step table: the paths form a tree of extensions, and both the
# masses and the cylinders are computed along it.


class _CylinderScheme:
    """Depth-D refinement of a horseshoe's word structure.

    Extends every vertex word by all SFT-compatible tails to length D,
    one symbol per extension. Each extension keeps its links (`links`):
    for every new path, its parent among the previous extension's paths
    and its step, the flat index 2*vertex + symbol into a (vertices, 2)
    transition table. Per path the scheme records the starting vertex
    (`start`), the uint64 code of its depth-D word (`codes`) and the
    cylinder interval of that word (`lo`, `hi`, `mid`). The mass vector
    of a Markov measure is multiplied along the links, one gather and
    one product per extension (see `masses`).

    A path's last m symbols are the word of its last vertex, so its
    cylinder is that vertex's cylinder pulled back through the path's
    first D - m symbols. The vertex cylinders are pulled back once per
    scheme under the scheme's own map: a horseshoe's stored cylinders
    belong to the map it was built for, and its schemes may be for
    several. Each float is one that the pullback of the whole word
    computes, in the same order.

    `integrals` caches the read-only (values, bounds) arrays of each
    keyed integrand by its key (see `integrate_many` and `_remember`).
    """

    def __init__(self, lmap, horseshoe, depth):
        m = horseshoe.depth
        if depth < m:
            raise PreconditionError("scheme depth below horseshoe depth")
        if depth > MAX_DEPTH:
            raise PreconditionError(
                "scheme depth %d exceeds maximum %d" % (depth, MAX_DEPTH))
        table = horseshoe.next
        cur = np.arange(horseshoe.n_vertices, dtype=np.int64)
        start = cur
        codes = horseshoe.codes
        links = []     # per extension: (parent path, step) of each new path
        for _ in range(depth - m):
            # the L extensions of all paths, in path order, then the R ones
            ok = [np.flatnonzero(col >= 0) for col in table[cur].T]
            parent = np.concatenate(ok)
            bit = np.repeat(np.arange(len(ALPHABET)), [len(o) for o in ok])
            step = 2 * cur[parent] + bit
            links.append((parent, step))
            start = start[parent]
            codes = (codes[parent] << np.uint64(1)) | bit.astype(np.uint64)
            cur = table.reshape(-1)[step]
        self.links = links
        self.start = start
        self.codes = codes
        self.depth = depth
        lo, hi = pullback(lmap, code_symbols(horseshoe.codes, m))
        ends = np.stack((lo[cur], hi[cur]))
        # the first D - m symbols, last one first: bits m to D - 1
        head = codes >> np.uint64(m)
        for _ in range(depth - m):
            ends = _inverse_step(lmap, (head & np.uint64(1)).astype(bool),
                                 ends)
            head >>= np.uint64(1)
        lo, hi = ends
        # fictitious refinement: the SFT allows a tail the kneading data
        # forbids; such a path falls back to its deepest live prefix
        dead = np.flatnonzero(hi - lo <= EMPTY_WIDTH)
        for length in range(depth - 1, 0, -1):
            if not dead.size:
                break
            a, b = pullback(lmap, code_symbols(
                codes[dead] >> np.uint64(depth - length), length))
            lo[dead] = a
            hi[dead] = b
            dead = dead[b - a <= EMPTY_WIDTH]
        self.lo = lo
        self.hi = hi
        self.mid = 0.5 * (lo + hi)
        self.integrals = {}

    def masses(self, stationary, probs):
        """stationary[start] times the product of each path's step
        probabilities, multiplied left to right as `np.prod` would."""
        p = probs.reshape(-1)
        mass = stationary[self.start]
        if not self.links:
            return mass
        (_, step), *rest = self.links
        q = p.take(step)
        for parent, step in rest:
            q = q.take(parent) * p.take(step)
        return mass * q


def _scheme(lmap, horseshoe, depth):
    key = (lmap.alpha, lmap.beta, int(depth))
    scheme = horseshoe.schemes.get(key)
    if scheme is None:
        scheme = _CylinderScheme(lmap, horseshoe, depth)
        _remember(horseshoe.schemes, key, scheme)
    return scheme
