"""Invariant measures on the section and their flow-level statistics.

Four representations cover everything downstream needs: periodic-orbit
measures, Markov measures on an SFT horseshoe, finite convex mixtures,
and the Dirac measure at the singularity (flow-level only). Entropy and
potential integrals are exact where closed forms exist and otherwise come
with rigorous per-cylinder error bounds. Flow quantities never touch an
integrator: the suspension translates everything through the roof model.
"""

import hashlib
import math
import types

import numpy as np

from .errors import DepthTooShallowError, PreconditionError
from .model import abs_range, roof_array
from .potentials import midpoint_error_many, passage_error_many
from .symbolic import (ALPHABET, EMPTY_WIDTH, MAX_DEPTH, cylinder_levels,
                       encode_words, pullback, strongly_connected_components,
                       symbol_matrix)

DEFAULT_DEPTH = 12


class AtomicMeasure:
    """Uniform measure on a periodic orbit: zero entropy, exact averages."""

    variant = "atomic"

    def __init__(self, lmap, orbit, label=None):
        self.lmap = lmap
        self.orbit = orbit
        self.label = label
        self._points = np.asarray(orbit.orbit_points(lmap), dtype=float)

    @property
    def id(self):
        return self.label or "atomic:%s" % self.orbit.word

    def __repr__(self):
        return "AtomicMeasure(%s)" % self.id

    def points(self):
        return self._points

    def cylinder_masses(self, depth):
        word = self.orbit.word
        p = len(word)
        ext = word * (depth // p + 2)
        masses = {}
        for i in range(p):
            w = ext[i:i + depth]
            masses[w] = masses.get(w, 0.0) + 1.0 / p
        return masses

    def to_payload(self):
        return {"variant": "atomic", "word": self.orbit.word,
                "label": self.label}


class MarkovMeasure:
    """Stationary Markov chain on a horseshoe SFT.

    Transition probabilities are stored per vertex and appended symbol
    (at most two successors each); `probs[i, k]` is the probability of
    following the ALPHABET[k] edge out of vertex i. Validation enforces
    row-stochasticity (1e-12), stationarity (1e-10), support inside the
    adjacency, and irreducibility of the support graph, so the measure is
    ergodic by construction. When the support is the whole adjacency, as
    for every equilibrium state, irreducibility is read from the
    horseshoe's stored decomposition (`SFTHorseshoe.cyclic_components`).
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
        for k, s in enumerate(ALPHABET):
            bad = (probs[:, k] > 0.0) & (horseshoe.succ[s] < 0)
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

    def _push(self, pi, probs):
        out = np.zeros_like(pi)
        for k, s in enumerate(ALPHABET):
            arr = self.horseshoe.succ[s]
            ok = arr >= 0
            np.add.at(out, arr[ok], pi[ok] * probs[ok, k])
        return out

    def _support_irreducible(self, probs):
        hs = self.horseshoe
        if all(np.all(probs[hs.succ[s] >= 0, k] > 0.0)
               for k, s in enumerate(ALPHABET)):
            # the support is the whole adjacency (always so for an
            # equilibrium state): the horseshoe's stored decomposition
            # answers, so a family of measures on it decomposes it once
            comps = hs.cyclic_components()
            return len(comps) == 1 and len(comps[0][0]) == hs.n_vertices
        masked = {}
        for k, s in enumerate(ALPHABET):
            arr = hs.succ[s].copy()
            arr[probs[:, k] <= 0.0] = -1
            masked[s] = arr
        shadow = types.SimpleNamespace(n_vertices=hs.n_vertices, succ=masked)
        comps = strongly_connected_components(shadow)
        return len(comps) == 1

    @property
    def id(self):
        if self.label:
            return self.label
        digest = hashlib.sha256()
        digest.update(("|".join(self.horseshoe.vertices)).encode())
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
        for k, s in enumerate(ALPHABET):
            arr = self.horseshoe.succ[s]
            ok = arr >= 0
            mat[np.nonzero(ok)[0], arr[ok]] = self.probs[ok, k]
        return mat

    def cylinder_masses(self, depth):
        m = self.horseshoe.depth
        if depth >= m:
            scheme = _scheme(self.lmap, self.horseshoe, depth)
            mass = scheme.masses(self.stationary, self.probs)
            out = {}
            for w, mu in zip(scheme.words, mass):
                out[w] = out.get(w, 0.0) + float(mu)
            return out
        out = {}
        for w, pi in zip(self.horseshoe.vertices, self.stationary):
            key = w[:depth]
            out[key] = out.get(key, 0.0) + float(pi)
        return out

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
        out = {}
        for w, comp in self.components:
            for word, mu in comp.cylinder_masses(depth).items():
                out[word] = out.get(word, 0.0) + w * mu
        return out

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
        p = measure.probs
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        return float(-np.sum(measure.stationary * plogp.sum(axis=1)))
    if isinstance(measure, ConvexMeasure):
        return float(sum(w * entropy_map(c) for w, c in measure.components))
    raise PreconditionError("unknown measure variant %r" % (measure,))


def integrate_map(potential, measure, depth=DEFAULT_DEPTH, tol=None):
    """Section integral of the potential with a rigorous error bound.

    Returns (value, bound). Atomic orbits are averaged exactly (bound 0).
    Markov measures are integrated over depth-`depth` cylinder words at
    cylinder midpoints; the bound sums each word's mass against the
    potential's modulus of continuity on that cylinder. When `tol` is
    given and the bound exceeds it, DepthTooShallowError is raised.
    """
    _reject_delta(measure, "section integration")
    value, bound = _integrate(potential, measure, depth)
    if tol is not None and bound > tol:
        raise DepthTooShallowError(
            "integration error bound %.3g exceeds tolerance %.3g at depth %d"
            % (bound, tol, depth))
    return value, bound


def _integrate(potential, measure, depth):
    if isinstance(measure, AtomicMeasure):
        pts = measure.points()
        vals = np.asarray(potential.value(pts, np.zeros_like(pts)), dtype=float)
        return float(np.mean(vals)), 0.0
    if isinstance(measure, MarkovMeasure):
        m = measure.horseshoe.depth
        if depth >= m:
            scheme = _scheme(measure.lmap, measure.horseshoe, depth)
            mass = scheme.masses(measure.stationary, measure.probs)
            vals = np.asarray(potential.value(scheme.mid,
                                              np.zeros_like(scheme.mid)))
            errs = midpoint_error_many(potential, scheme.lo, scheme.hi)
            return float(mass @ vals), float(mass @ errs)
        level = cylinder_levels(measure.lmap, depth)[depth]
        masses = measure.cylinder_masses(depth)
        words = sorted(masses)
        pos = level.find(encode_words(words))
        if (pos < 0).any():
            raise PreconditionError(
                "measure charges an empty depth-%d cylinder" % depth)
        value = 0.0
        bound = 0.0
        for w, lo, hi in zip(words, level.lo[pos].tolist(),
                             level.hi[pos].tolist()):
            mid = 0.5 * (lo + hi)
            value += masses[w] * float(potential.value(mid, 0.0))
            bound += masses[w] * float(potential.midpoint_error(lo, hi))
        return value, bound
    if isinstance(measure, ConvexMeasure):
        value = 0.0
        bound = 0.0
        for w, comp in measure.components:
            v, b = _integrate(potential, comp, depth)
            value += w * v
            bound += w * b
        return value, bound
    raise PreconditionError("unknown measure variant %r" % (measure,))


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
        if self.singular:
            return 1.0
        dwell = _DwellIntegrand(self.roof, b)
        value, _ = integrate_map(dwell, self.measure, self.depth)
        return float(min(max(value / self.mean_roof, 0.0), 1.0))

    def pressure(self):
        return self.h_flow + self.potential_integral

    def as_dict(self):
        return {"mean_roof": self.mean_roof, "h_flow": self.h_flow,
                "potential_integral": self.potential_integral}


def suspend(measure, roof, potential, depth=DEFAULT_DEPTH):
    """Translate a section measure into flow-level statistics."""
    if isinstance(measure, SingularDeltaMeasure):
        return FlowMeasureStats(measure, roof, depth,
                                mean_roof=math.inf, h_flow=0.0,
                                potential_integral=potential.value_at_sigma(),
                                singular=True)
    mean_roof, _ = integrate_map(_RoofIntegrand(roof), measure, depth)
    h_flow = entropy_map(measure) / mean_roof
    passage, _ = integrate_map(_PassageIntegrand(potential, roof),
                               measure, depth)
    return FlowMeasureStats(measure, roof, depth, mean_roof=mean_roof,
                            h_flow=h_flow,
                            potential_integral=passage / mean_roof)


def measure_distance(a, b, depth=DEFAULT_DEPTH):
    """L1 distance between depth-`depth` cylinder mass vectors."""
    _reject_delta(a, "cylinder distance")
    _reject_delta(b, "cylinder distance")
    ma = a.cylinder_masses(depth)
    mb = b.cylinder_masses(depth)
    keys = sorted(set(ma) | set(mb))
    return float(sum(abs(ma.get(k, 0.0) - mb.get(k, 0.0)) for k in keys))


def measure_from_payload(lmap, payload):
    """Rebuild a measure from its serialized form (see each to_payload)."""
    from .symbolic import build_horseshoe, find_periodic_point

    variant = payload.get("variant")
    label = payload.get("label")
    if variant == "atomic":
        orbit = find_periodic_point(lmap, payload["word"])
        return AtomicMeasure(lmap, orbit, label=label)
    if variant == "markov":
        full = build_horseshoe(lmap, int(payload["depth"]),
                               float(payload["x_gap"]))
        wanted = list(payload["vertices"])
        try:
            picked = [full.index(w) for w in wanted]
        except KeyError as exc:
            raise PreconditionError(
                "serialized horseshoe vertex %r does not exist at depth %d, "
                "gap %g" % (exc.args[0], payload["depth"], payload["x_gap"])
            ) from None
        from .symbolic import restrict_horseshoe

        sub = restrict_horseshoe(full, picked)
        # restrict_horseshoe sorts vertices; realign the serialized rows
        row = {w: k for k, w in enumerate(wanted)}
        realign = [row[w] for w in sub.vertices]
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
    """r(x) as an integrand; exact range bounds from monotonicity in |x|."""

    def __init__(self, roof):
        self.roof = roof

    def value(self, x, y=0.0):
        out = roof_array(self.roof, x)
        return out if np.ndim(x) else float(out)

    def midpoint_error(self, lo, hi):
        return _monotone_range(self.value, lo, hi)


class _DwellIntegrand:
    """d_b(x): time within radius b, monotone nonincreasing in |x|."""

    def __init__(self, roof, b):
        if b <= 0.0:
            raise PreconditionError("dwell radius must be positive")
        self.roof = roof
        self.b = float(b)

    def value(self, x, y=0.0):
        a = np.maximum(np.abs(np.asarray(x, dtype=float)), 1e-300)
        raw = self.roof.c1 * np.maximum(0.0, np.log(self.b / a))
        cap = self.roof.c1 * np.maximum(0.0, np.log(self.roof.eta0 / a))
        out = np.minimum(raw, cap)
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
# A scheme depends only on the map and the horseshoe's word structure, so
# the cache keys on (alpha, beta, depth, vertex words, successor arrays):
# every horseshoe object with that structure, such as the restricted
# component of each equilibrium measure of a bisection, shares one build.

_scheme_cache = {}


class _CylinderScheme:
    """Depth-D refinement of a horseshoe's word structure.

    Extends every vertex word by all SFT-compatible tails to length D and
    records, per path, the starting vertex, the (vertex, symbol) steps,
    and the cylinder interval of the full word, so that the mass vector
    of any Markov measure on the horseshoe is a single vectorized gather.
    The intervals come from one array pullback of the (paths, D) symbol
    matrix.
    """

    def __init__(self, lmap, horseshoe, depth):
        m = horseshoe.depth
        if depth < m:
            raise PreconditionError("scheme depth below horseshoe depth")
        if depth > MAX_DEPTH:
            raise PreconditionError(
                "scheme depth %d exceeds maximum %d" % (depth, MAX_DEPTH))
        k = depth - m
        n = horseshoe.n_vertices
        start = np.arange(n, dtype=np.int64)
        cur = start.copy()
        words = list(horseshoe.vertices)
        steps_v = np.zeros((n, 0), dtype=np.int64)
        steps_s = np.zeros((n, 0), dtype=np.int64)
        for _ in range(k):
            pieces = []
            for s_idx, s in enumerate(ALPHABET):
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
        self.start = start
        self.steps_v = steps_v
        self.steps_s = steps_s
        self.words = words
        symbols = np.hstack([symbol_matrix(horseshoe.vertices)[start],
                             steps_s])
        lo, hi = pullback(lmap, symbols)
        # fictitious refinement: the SFT allows a tail the kneading data
        # forbids; such a path falls back to its deepest live prefix
        dead = np.nonzero(hi - lo <= EMPTY_WIDTH)[0]
        for length in range(depth - 1, 0, -1):
            if not dead.size:
                break
            a, b = pullback(lmap, symbols[dead, :length])
            lo[dead] = a
            hi[dead] = b
            dead = dead[b - a <= EMPTY_WIDTH]
        self.lo = lo
        self.hi = hi
        self.mid = 0.5 * (lo + hi)

    def masses(self, stationary, probs):
        mass = stationary[self.start]
        if self.steps_v.shape[1]:
            mass = mass * np.prod(probs[self.steps_v, self.steps_s], axis=1)
        return mass


def _scheme(lmap, horseshoe, depth):
    key = (lmap.alpha, lmap.beta, int(depth), horseshoe.vertices,
           tuple(horseshoe.succ[s].tobytes() for s in ALPHABET))
    scheme = _scheme_cache.get(key)
    if scheme is None:
        scheme = _CylinderScheme(lmap, horseshoe, depth)
        if len(_scheme_cache) > 64:
            _scheme_cache.clear()
        _scheme_cache[key] = scheme
    return scheme
