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
`np.add.reduceat`, whose segment sums round differently. The integral
of a keyed integrand (every potential of `potentials`, and the roof,
dwell and passage integrands, whose roof part is `RoofFunction.key`) is
computed once per measure and depth and then read back from a memo; a
catalog's periodic orbits share one batch, so a keyed integral that
misses on one of its atoms is computed for all of them at once. The
roof and dwell bounds are exact cylinder ranges (`model.monotone_ends`).
"""

import hashlib
import math
import types

import numpy as np

from .errors import PreconditionError
from .model import dwell_array, monotone_ends, roof_array
from .potentials import (PLAIN_POTENTIALS, midpoint_error_many,
                         passage_error_many)
from .symbolic import (ALPHABET, MAX_DEPTH, _inverse_step, _recall, _remember,
                       build_horseshoe, check_depth, check_model, check_word,
                       cylinder_levels, encode_words, find_codes,
                       find_periodic_point, restrict_horseshoe,
                       strongly_connected_components)

DEFAULT_DEPTH = 12

# width at or below which a `_CylinderScheme` path is looked up in the
# model's levels. A path the kneading pair forbids pulls back to width 0
# or a few ulps (1.1e-16 at beta = 1.9275619754829254); real cylinders,
# kept however thin, can be as narrow (5.4e-13 at depth 23, alpha = 0.8,
# beta = 1.99), and the lookup keeps their own intervals
EMPTY_WIDTH = 1e-12


class AtomicMeasure:
    """Uniform measure on a periodic orbit: zero entropy, exact averages.

    `batch` is the read-only tuple of `PeriodicOrbitRecord`s, of the
    atom's model, that a keyed integral missing on this atom fills in
    one evaluation (see `integrate_many`). `build_catalog` gives every
    atom it builds the records of its catalog; any other atom batches
    its own record alone. A batch holds store records only, never
    measures, so it makes no reference cycle.
    """

    variant = "atomic"

    def __init__(self, lmap, orbit, label=None):
        self.lmap = lmap
        self.orbit = orbit
        self.label = label
        self.batch = (orbit,)
        self._points = orbit.orbit_points(lmap)

    @property
    def id(self):
        return self.label or "atomic:%s" % self.orbit.word

    def __repr__(self):
        return "AtomicMeasure(%s)" % self.id

    def points(self):
        return self._points

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
    The map must be of the horseshoe's model (`symbolic.check_model`).
    The measure keeps read-only copies of `probs` and `stationary`, so a
    caller who writes to its own arrays afterwards changes nothing here.
    The entropy is computed once, after validation (`entropy`), and
    `integrals` memoizes the (value, bound) of each keyed integrand by
    (key, depth) (see `integrate_many`); shallow copies share it.
    """

    variant = "markov"

    def __init__(self, lmap, horseshoe, probs, stationary, label=None):
        check_model(lmap, horseshoe)
        self.lmap = lmap
        self.horseshoe = horseshoe
        probs = np.array(probs, dtype=float)
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
        for arr in (self.probs, self.stationary):
            arr.flags.writeable = False
        self.label = label
        self.integrals = {}
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0.0,
                             probs * np.log(np.where(probs > 0.0, probs, 1.0)),
                             0.0)
        self.entropy = float(-np.sum(self.stationary * plogp.sum(axis=1)))

    def _push(self, pi, probs):
        # symbol by symbol, each in vertex order
        table = self.horseshoe.next.T
        ok = table >= 0
        return np.bincount(table[ok], weights=(probs.T * pi)[ok],
                           minlength=len(pi))

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


def integrate_map(potential, measure, depth=DEFAULT_DEPTH):
    """Section integral of the potential with a rigorous error bound.

    Returns (value, bound), the one-element call of `integrate_many`.
    Atomic orbits are averaged exactly (bound 0). Markov measures are
    integrated over depth-`depth` cylinder words at cylinder midpoints;
    the bound sums each word's mass against the potential's modulus of
    continuity on that cylinder.
    """
    (values, bounds), = _integrate_each([potential], [measure], depth)
    return values[0], bounds[0]


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
    every potential of `potentials` (its class and parameters), the
    passage integrand of a keyed potential (that key and the roof's c0,
    c1 and eta0), the roof integrand (the roof's c0, c1 and eta0) and the
    dwell integrand (the same plus the radius b). Its results are cached
    as floats: each atom's average on its `PeriodicOrbitRecord`, in the
    model's store, which lives as long as some map of the model, and each
    Markov measure's (value, bound) on the measure (`MarkovMeasure.
    integrals`) by (key, depth). A miss on an atom fills its whole
    `AtomicMeasure.batch`: the integrand is evaluated once over the
    orbit points of every record of the missing atoms' batches that
    lacks the key, and each average is cached. So a catalog from
    `build_catalog`, walked member by member, evaluates a new keyed
    integrand on its orbit points once. The roof and dwell integrands,
    which depend on the model alone, also keep their (values, bounds) arrays,
    read-only, on each `_CylinderScheme`, and the roof's entry keeps the
    roof's max on each cylinder too; no other integrand's arrays are
    kept. The passage integrand of a constant, coordinate or grid
    potential reads the roof's values and range from that entry, so a miss
    on a Markov measure evaluates the potential alone and never the roof
    once the scheme has the roof's entry. Integrand keys are taken once,
    when the integrand is built. Each cache holds at most
    `symbolic.CACHE_LIMIT` keys and
    evicts the least recently used one to take a new key. An integrand
    without a key, such as a potential class of the caller's, is never
    cached. A hit returns the cold floats, since each average and each
    integral depends on its own points and masses only.
    """
    return _integrate_each([integrand], list(measures), depth)[0]


def _integrate_each(integrands, measures, depth):
    """[(values, bounds)] of each integrand over a list of measures (see
    `integrate_many`, also for what is cached), sorting the measures into
    atoms and cylinder schemes. A keyed integrand that misses on some
    atoms is evaluated once over their batches (`_fill_batches`). The
    cylinder masses of each Markov measure that misses some integrand's
    memo are computed once for all integrands, before any integrand is
    evaluated. Raises
    PreconditionError unless the depth is an integer in [0, MAX_DEPTH],
    whatever the measures.
    """
    check_depth(depth, "integration")
    keys = [getattr(integrand, "key", None) for integrand in integrands]
    index = {}     # id -> position of each distinct atomic or Markov measure
    atoms = []     # (position, atom) of each distinct atom
    markov = []    # (position, measure) of each distinct Markov measure
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
            elif isinstance(leaf, MarkovMeasure):
                markov.append((i, leaf))
            else:
                _reject_delta(leaf, "section integration")
                raise PreconditionError("unknown measure variant %r" % (leaf,))
    values = [[0.0] * len(index) for _ in integrands]
    bounds = [[0.0] * len(index) for _ in integrands]   # atoms are exact
    # id(scheme) -> (scheme, [(position, measure, masses, integrands missed)])
    schemes = {}
    for i, leaf in markov:
        missed = set()
        for k, key in enumerate(keys):
            cached = None if key is None else _recall(leaf.integrals,
                                                      (key, depth))
            if cached is None:
                missed.add(k)
            else:
                values[k][i], bounds[k][i] = cached
        if not missed:
            continue
        if depth >= leaf.horseshoe.depth:
            scheme = _scheme(leaf.lmap, leaf.horseshoe, depth)
            mass = scheme.masses(leaf.stationary, leaf.probs)
        else:
            mass, scheme = _shallow_cylinders(leaf, depth)
        schemes.setdefault(id(scheme), (scheme, []))[1].append(
            (i, leaf, mass, missed))
    # the results of distinct plain measures are, in order, theirs
    plain = not mixed and len(index) == len(measures)
    out = []
    for k, (integrand, key) in enumerate(zip(integrands, keys)):
        value, bound = values[k], bounds[k]
        if key is None:
            if atoms:
                averages = _orbit_averages(
                    integrand, [atom.points() for _, atom in atoms])
                for (i, _), average in zip(atoms, averages):
                    value[i] = average
        else:
            missed = []
            for i, atom in atoms:
                cached = _recall(atom.orbit.averages, key)
                if cached is None:
                    missed.append((i, atom))
                else:
                    value[i] = cached
            if missed:
                filled = _fill_batches(integrand, key, missed)
                for i, atom in missed:
                    value[i] = filled[id(atom.orbit)]
        for scheme, block in schemes.values():
            block = [entry for entry in block if k in entry[3]]
            if not block:
                continue
            vals, errs = _scheme_integrals(integrand, scheme)
            # np.add.reduce sums pairwise in a fixed order; a BLAS dot
            # splits long vectors by thread count, and its last bits with them
            for i, leaf, mass, _ in block:
                value[i] = float(np.add.reduce(mass * vals))
                bound[i] = float(np.add.reduce(mass * errs))
                if key is not None:
                    _remember(leaf.integrals, (key, depth),
                              (value[i], bound[i]))
        if plain:
            out.append((value, bound))
        else:
            out.append(([_mix(value, index, m) for m in measures],
                        [_mix(bound, index, m) for m in measures]))
    return out


def _scheme_integrals(integrand, scheme):
    """(values, bounds) of the integrand at the scheme's paths: their
    midpoints and their cylinders. Those of a model-only integrand (roof
    or dwell) are kept on the scheme (`_model_arrays`). The passage
    integrand of a plain potential (`potentials.PLAIN_POTENTIALS`) takes
    the roof's values and range from the roof's entry there, filling it
    on a miss, and evaluates only the potential and its own bound terms."""
    if isinstance(integrand, _RoofIntegrand):
        return _model_arrays(integrand, scheme)[:2]
    if isinstance(integrand, _PassageIntegrand) and integrand.plain:
        r, *roof_range = _model_arrays(integrand.roof_part, scheme)
        return (integrand.value(scheme.mid, r),
                midpoint_error_many(integrand, scheme.lo, scheme.hi,
                                    roof_range))
    return (np.asarray(integrand.value(scheme.mid)),
            midpoint_error_many(integrand, scheme.lo, scheme.hi))


def _model_arrays(integrand, scheme):
    """The read-only arrays of a model-only integrand at a scheme's paths,
    kept in `scheme.integrals` by its key: its values at the midpoints and
    its bounds, the width of its range on each cylinder; the roof's entry
    also keeps the roof's max on each cylinder, so that (bounds, max) is
    the roof's range that a plain passage bound reads."""
    arrays = _recall(scheme.integrals, integrand.key)
    if arrays is None:
        with_max = integrand.name == "roof"
        values = np.asarray(integrand.value(scheme.mid))
        bounds = midpoint_error_many(integrand, scheme.lo, scheme.hi,
                                     with_max)
        arrays = (values,) + (bounds if with_max else (bounds,))
        for arr in arrays:
            arr.flags.writeable = False
        _remember(scheme.integrals, integrand.key, arrays)
    return arrays


def _fill_batches(integrand, key, atoms):
    """{id(record): average} of the keyed integrand over the orbit of every
    record that lacks the key in the batches of the (position, atom)
    pairs, each atom's own record among them, each average cached on its
    record. Each distinct batch is read once, and every orbit goes
    through one evaluation."""
    records = {}
    batches = {id(atom.batch): (atom.batch, atom.lmap) for _, atom in atoms}
    for batch, lmap in batches.values():
        for record in batch:
            if key not in record.averages:
                records.setdefault(id(record), (record, lmap))
    orbits = [record.orbit_points(lmap) for record, lmap in records.values()]
    averages = _orbit_averages(integrand, orbits)
    for (record, _), average in zip(records.values(), averages):
        _remember(record.averages, key, average)
    return dict(zip(records, averages))


def _orbit_averages(integrand, orbits):
    """The integrand's average over each orbit, an array of its points."""
    blocks = {}    # period -> [k] of the orbits of that period
    for k, points in enumerate(orbits):
        blocks.setdefault(points.size, []).append(k)
    pts = [orbits[k] for block in blocks.values() for k in block]
    # a lone orbit is read in place: a one-measure call copies nothing
    pts = pts[0] if len(pts) == 1 else np.concatenate(pts)
    vals = np.asarray(integrand.value(pts), dtype=float)
    out = [0.0] * len(orbits)
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


def _shallow_cylinders(measure, depth):
    """(masses, cylinders) of a Markov measure at a depth below its
    horseshoe's: the stationary mass of the vertices in each depth-`depth`
    cylinder, in code (= word) order, each sum from 0.0 in vertex order
    (`np.add.at` is unbuffered), and those cylinders from the model's
    level, integrated as a scheme's paths."""
    shift = np.uint64(measure.horseshoe.depth - depth)
    codes, inverse = np.unique(measure.horseshoe.codes >> shift,
                               return_inverse=True)
    masses = np.zeros(len(codes))
    np.add.at(masses, inverse, measure.stationary)
    level = cylinder_levels(measure.lmap, depth)[depth]
    pos = level.find(codes)
    if (pos < 0).any():
        raise PreconditionError(
            "measure charges an empty depth-%d cylinder" % depth)
    lo, hi = level.lo[pos], level.hi[pos]
    return masses, types.SimpleNamespace(lo=lo, hi=hi, mid=0.5 * (lo + hi),
                                         integrals={})


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
    weight = _PassageIntegrand(potential, roof)
    (roofs, _), (passages, _) = _integrate_each(
        [weight.roof_part, weight], section, depth)
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
    (dwells, _), = _integrate_each(
        [_RoofIntegrand("dwell", dwell_array, roof, b)],
        [s.measure for s in section], depth)
    dwells = iter(dwells)
    return [1.0 if s.singular
            else float(min(max(next(dwells) / s.mean_roof, 0.0), 1.0))
            for s in stats]


def measure_from_payload(lmap, payload):
    """Rebuild a measure from its serialized form (see each to_payload).
    TypeError unless the payload, or a component's, is a dict."""
    if not isinstance(payload, dict):
        raise TypeError("a measure payload is an object, got %r" % (payload,))
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
        picked = find_codes(full.codes, encode_words(wanted))
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
    """A function of the roof model that does not increase with |x|, as an
    integrand: r(x) (name "roof", fn `roof_array`) or d_b(x), the time
    within radius b (name "dwell", fn `dwell_array`, args (b,)). Its range
    over a cylinder is exact (`monotone_ends`), and unbounded at 0 only
    when the roof diverges there (c1 > 0).

    Values are fn(roof, x, *args). Keyed by the name, the roof's `key`
    and the bytes of args, taken once: see `integrate_many`.
    """

    def __init__(self, name, fn, roof, *args):
        self.name = name
        self.fn = fn
        self.roof = roof
        self.args = tuple(float(a) for a in args)
        self.key = (name, roof.key, np.array(self.args).tobytes())

    def value(self, x):
        out = self.fn(self.roof, x, *self.args)
        return out if np.ndim(x) else float(out)

    def midpoint_error(self, lo, hi, with_max=False):
        """The width high - low of the range over each cylinder [lo, hi]
        (`monotone_ends`); with `with_max`, (width, high)."""
        low, high = monotone_ends(self.value, lo, hi, self.roof.c1 > 0.0)
        width = high - low if np.ndim(lo) else float(high - low)
        return (width, high) if with_max else width


class _PassageIntegrand:
    """Per-passage integral of a potential: the flow weight over one return.

    Keyed by the potential's key and the roof's, taken once, or not at all
    if the potential has no key (see `integrate_many`). `roof_part` is the
    roof's integrand, whose entry on a cylinder scheme a plain potential's
    passage reads (`_scheme_integrals`)."""

    def __init__(self, potential, roof):
        self.potential = potential
        self.roof = roof
        self.roof_part = _RoofIntegrand("roof", roof_array, roof)
        self.plain = type(potential) in PLAIN_POTENTIALS
        key = getattr(potential, "key", None)
        self.key = None if key is None else (key, roof.key)

    def value(self, x, *r):
        """The passage integral at x; a plain potential may be given the
        roof at x, r (see `_scheme_integrals`)."""
        return self.potential.passage_integral(x, self.roof, *r)

    def midpoint_error(self, lo, hi, *roof_range):
        """The passage bound on each cylinder; a plain potential may be
        given the roof's range on them (see `_scheme_integrals`)."""
        return passage_error_many(self.potential, self.roof, lo, hi,
                                  *roof_range)


# ---------------------------------------------------------------------------
# path expansion: depth-D cylinder masses of a Markov measure, vectorized
#
# A scheme depends only on the horseshoe, which belongs to one model, so it
# is kept on the horseshoe (`SFTHorseshoe.schemes`) under its depth: every
# measure on one horseshoe object, such as the restricted component that
# each equilibrium state of a realization shares, reads one build, and the
# scheme is freed with its horseshoe. Schemes hold no strings and no
# per-path step table: the paths form a tree of extensions, and both the
# masses and the cylinders are computed along it. A scheme keeps about 49
# bytes per path at depth 20 (beta = 1.7): the int32 links of every
# extension, the int32 start, the uint64 code and the float64 lo and hi.
# Its model-only entries add 8 bytes per path per array: 24 for a roof
# (values, bounds and the roof's max) and 16 for a dwell radius.


class _CylinderScheme:
    """Depth-D refinement of a horseshoe's word structure.

    Extends every vertex word by all SFT-compatible tails to length D,
    one symbol per extension. Each extension keeps its links (`links`):
    for every new path, its parent among the previous extension's paths
    and its step, the flat index 2*vertex + symbol into a (vertices, 2)
    transition table, both int32. Per path the scheme records the
    starting vertex (`start`, int32), the uint64 code of its depth-D word
    (`codes`) and the cylinder interval of that word (`lo`, `hi`); the
    midpoint `mid` is derived from them on each read, not stored. The
    mass vector of a Markov measure is multiplied along the links, one
    gather and one product per extension (see `masses`).

    A path's last m symbols are the word of its last vertex, so its
    cylinder is that vertex's stored cylinder pulled back, in place,
    through the path's first D - m symbols (`lmap` is of the horseshoe's
    model). A path at most EMPTY_WIDTH wide, which may be a tail the SFT
    allows and the kneading data forbids, takes the cylinder of its
    longest prefix in the model's levels, its own word first: a real thin
    cylinder keeps its own interval. Only then are the levels extended to
    depth D.

    `integrals` caches the read-only (values, bounds) arrays of the
    model-only integrands, roof and dwell, by their key, the roof's with
    its max on each cylinder (see `_model_arrays`, `integrate_many` and
    `_remember`). Potential and passage integrands keep no arrays here:
    their integrals are memoized as floats on each measure, which holds
    the scheme's peak memory to the roof's and the dwell's arrays.
    """

    def __init__(self, lmap, horseshoe, depth):
        m = horseshoe.depth
        check_depth(depth, "scheme")
        if depth < m:
            raise PreconditionError("scheme depth below horseshoe depth")
        # a path count is below 2**31 and a step below 2**(MAX_DEPTH + 1)
        table = horseshoe.next.astype(np.int32)
        live = (table >= 0).T
        cur = np.arange(horseshoe.n_vertices, dtype=np.int32)
        start = cur
        codes = horseshoe.codes
        links = []     # per extension: (parent path, step) of each new path
        for _ in range(depth - m):
            # the L extensions of all paths, in path order, then the R ones
            parent = np.flatnonzero(live[:, cur]).astype(np.int32)
            split = np.searchsorted(parent, len(cur))
            parent[split:] -= len(cur)
            step = cur[parent]
            step *= 2
            step[split:] += 1
            links.append((parent, step))
            start = start[parent]
            codes = codes[parent]
            codes <<= np.uint64(1)
            codes[split:] |= np.uint64(1)
            cur = table.reshape(-1)[step]
        self.links = links
        self.start = start
        self.codes = codes
        self.depth = depth
        ends = np.stack((horseshoe.cyl_lo, horseshoe.cyl_hi)).take(cur, axis=1)
        right = np.empty(len(codes), dtype=bool)
        # the first D - m symbols, last one first: bits m to D - 1
        for bit in range(m, depth):
            np.bitwise_and(codes, np.uint64(1 << bit), out=right,
                           casting="unsafe")
            _inverse_step(lmap, right, ends, out=ends)
        lo, hi = ends
        thin = np.flatnonzero(hi - lo <= EMPTY_WIDTH)
        length = depth
        # level 1 holds both symbols, so every path stops by then
        while thin.size:
            level = cylinder_levels(lmap, depth)[length]
            pos = level.find(codes[thin] >> np.uint64(depth - length))
            hit = pos >= 0
            lo[thin[hit]] = level.lo[pos[hit]]
            hi[thin[hit]] = level.hi[pos[hit]]
            thin = thin[~hit]
            length -= 1
        self.lo = lo
        self.hi = hi
        self.integrals = {}

    @property
    def mid(self):
        """Each path's cylinder midpoint, 0.5 * (lo + hi)."""
        return 0.5 * (self.lo + self.hi)

    def masses(self, stationary, probs):
        """stationary[start] times the product of each path's step
        probabilities, multiplied left to right as `np.prod` would."""
        p = probs.reshape(-1)
        if not self.links:
            return stationary[self.start]
        (_, step), *rest = self.links
        q = p.take(step)
        for parent, step in rest:
            q = q.take(parent)
            q *= p.take(step)
        # one product either way round: stationary[start] * q
        q *= stationary[self.start]
        return q


def _scheme(lmap, horseshoe, depth):
    depth = int(depth)
    scheme = _recall(horseshoe.schemes, depth)
    if scheme is None:
        scheme = _CylinderScheme(lmap, horseshoe, depth)
        _remember(horseshoe.schemes, depth, scheme)
    return scheme
