"""Topological pressure, three ways, and measure-theoretic pressure.

The separated-set estimator follows the growth-rate definition directly
and anchors fidelity; the transfer-operator estimator is the precision
workhorse (leading eigenvalue of the potential-weighted adjacency on
cylinder words); the catalog supremum realizes the variational principle
over whatever measures the caller supplies. Disagreement beyond the
reported slack is surfaced, never hidden.

All Perron eigendata come from one power solver, `_weighted_power`. The
transfer estimator asks it for the right side only; an equilibrium state
asks for the right vector h and the left vector g in the same loop, and
its stationary vector is g*h. Every solve iterates M + s*I with s half
the current estimate of the Perron root lambda, so periodic components
converge at a rate that does not depend on how small the max-normalized
weights make lambda. The loop runs in blocks of CERTIFY_EVERY steps: one
certified step reads the Collatz-Wielandt bracket from M's own quotients
and stops when it is within 1e-12 relative to its top, then plain steps
of (M + s*I)/scale take no reduction at all. A bracket that holds
relative to lambda keeps log lambda at the dense root for any tilt.

Equilibrium states are memoized. A solve depends on the horseshoe and
the log weights lw = t*phi(midpoints) alone, so `equilibrium_measure`
keeps its result, the validated `MarkovMeasure` on the winning sub-SFT
with every array read-only, in the horseshoe's `equilibria` dict, keyed
on the bytes of lw + 0.0 (so -0.0 and +0.0 are one key, and t = 0 is one
state for every potential). The memo holds at most
`symbolic.CACHE_LIMIT` + 1 entries: it is emptied when it grows past the
limit, and it is freed with its horseshoe when the per-model store
evicts the model. Equal keys mean equal inputs to the same
deterministic solve, so a hit is bit for bit the cold result and nothing
depends on call history; only converged solves are kept. Every call
hands out a shallow copy of the kept measure with its own label, so
nothing is validated twice and no label leaks.
"""

import copy
import math

import numpy as np

from .errors import PreconditionError
from .measures import (MarkovMeasure, SingularDeltaMeasure, entropy_map,
                       integrate_many, suspend_many)
# unused here, kept since benchmarks/test_benchmark.py checks that the
# tracer wraps this binding
from .measures import suspend
from .symbolic import ALPHABET, _remember, build_horseshoe

MAX_TRANSFER_DEPTH = 14
# Perron steps per Collatz-Wielandt check (see _weighted_power)
CERTIFY_EVERY = 16


class PressureEstimate:
    """A pressure value with its method tag, parameters, and slack."""

    def __init__(self, value, method, params, slack):
        self.value = float(value)
        self.method = method
        self.params = dict(params)
        self.slack = float(slack)

    def __repr__(self):
        return "PressureEstimate(%.12g, %s, slack=%.3g)" % (
            self.value, self.method, self.slack)

    def as_dict(self):
        return {"value": self.value, "method": self.method,
                "params": self.params, "slack": self.slack}


def pressure_separated(lmap, potential, n, eps, pitch_divisor=6):
    """Greedy maximal (n, eps)-separated sum on a deterministic grid.

    The grid pitch is eps / pitch_divisor (divisor 6 keeps the greedy
    set dense enough that the estimate sits within a few percent of the
    true growth rate for the models in range). Lower bound by
    construction; converges as n grows and eps shrinks.

    The greedy keeps a point when its length-n orbit is eps-separated (sup
    norm) from that of the last point kept. A kept point is kept with the
    run after it of points separated from their left neighbour (step,
    built row by row in one length-m buffer); past the run, points are
    measured against the last kept one a block at a time up to the first
    separated one. Python iterations count the stretches of dropped
    points, not the m grid points; the 4 M guard bounds m, not n x m.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if eps <= 0.0:
        raise PreconditionError("eps must be positive")
    if pitch_divisor < 4:
        raise PreconditionError("pitch divisor below 4 violates the pitch bound")
    pitch = eps / pitch_divisor
    count = int(math.floor(2.0 / pitch)) + 1
    if count > 4_000_000:
        raise PreconditionError(
            "grid too coarse to honor pitch <= eps/%d within the memory "
            "budget (%d points needed)" % (pitch_divisor, count))
    xs = np.linspace(-1.0, 1.0, count)
    xs = xs[np.abs(xs) > 1e-12]

    traj = np.empty((n, xs.size))
    traj[0] = xs
    alive = np.ones(xs.size, dtype=bool)
    for j in range(1, n):
        traj[j] = lmap.step_array(traj[j - 1])
        alive &= np.abs(traj[j]) > 1e-12
    traj = traj.compress(alive, axis=1)
    m = traj.shape[1]
    # C order: the sum over axis 0 adds the rows in orbit order, from 0.0
    phi = np.ascontiguousarray(potential.value(traj, 0.0),
                               dtype=float).sum(axis=0, initial=0.0)

    step = np.zeros(m - 1)
    for row in traj:
        np.maximum(step, np.abs(row[1:] - row[:-1]), out=step)
    # the points not separated from their left neighbour, then m
    breaks = np.append(np.flatnonzero(~(step >= eps)) + 1, m)
    keep = np.zeros(m, dtype=bool)
    start = 0
    while start < m:
        # keep `start` and its run; point `stop` is too close to stop - 1
        stop = int(breaks[np.searchsorted(breaks, start + 1)])
        keep[start:stop] = True
        start, width = stop + 1, 16
        while start < m:
            gap = traj[:, start:start + width] - traj[:, stop - 1, None]
            far = np.abs(gap).max(axis=0) >= eps
            if far.any():
                start += int(far.argmax())
                break
            start, width = start + width, 2 * width
    weights = phi[keep]
    mshift = float(np.max(weights))
    value = (math.log(float(np.sum(np.exp(weights - mshift)))) + mshift) / n

    slack = math.log(4.0) / n + potential.lipschitz_bound() * eps
    return PressureEstimate(value, "separated",
                            {"n": n, "eps": eps, "pitch": pitch,
                             "separated_points": int(keep.sum())}, slack)


def _predecessors(table, n):
    """(2, n) table of the at most two predecessors of each vertex, -1 if none.

    `table` is a (vertices, 2) successor table. An edge u -> v of a
    shift-compatible graph has u = a + W and v = W + s, so v has at most
    the two predecessors L + W and R + W.
    """
    # the L edges by source, then the R edges
    bit, src = np.nonzero(table.T >= 0)
    dst = table[src, bit]
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    count = np.bincount(dst, minlength=n)
    if n and count.max() > len(ALPHABET):
        raise PreconditionError("graph is not shift-compatible: a vertex "
                                "has more than two predecessors")
    first = np.searchsorted(dst, np.arange(n))
    prev = np.full((len(ALPHABET), n), -1, dtype=np.int64)
    for k in range(len(ALPHABET)):
        has = count > k
        prev[k, has] = src[first[has] + k]
    return prev


def _weighted_power(table, log_weights, left=False, tol=1e-12,
                    max_iter=20000):
    """Perron root of M[u][v] = A(u,v) * e^(lw[v]) and its vectors.

    A is given by `table`, a (vertices, 2) successor table with -1 for no
    edge (see `SFTHorseshoe.next`).
    Returns (log lambda, h, g, iterations, converged): log of the Perron
    root of M, the right vector h and, with `left`, the left vector g
    (None otherwise), each sup-normalized. Weights enter max-shifted, so
    every entry of M is at most 1 and arbitrarily large log weights stay
    finite. Both sides start at all ones and advance together: the rows
    of the stacked vector [h, g] gather their at most two successors
    (right side) or predecessors (left side) with one `take` into a
    (2, sides*n) table, scaled by the edge weights in place.

    Every solve iterates M + s*I, with one shift per side: s is half the
    side's latest estimate of lambda (1 until it has one). The
    peripheral eigenvalues lambda*e^(2 pi i k/p) of a period-p component
    then have modulus |e^(2 pi i k/p) + 1/2| / (3/2) < 1 relative to
    lambda + s (1/3 at period 2) whatever the scale of the weights, so the
    loop converges on periodic components too.

    The loop runs in blocks of CERTIFY_EVERY steps. A block starts with a
    certified step: it sup-normalizes v, takes one step Mv with the
    unscaled weights, and reads the Collatz-Wielandt bracket
    [min (Mv)/v, max (Mv)/v] of each side from M's own quotients, before
    s*v is added. The loop stops when every side's bracket is within
    `tol` relative to its top, hi - lo <= tol*hi, which holds however
    small lambda is. Otherwise the step sets s = lambda_hat/2 for the
    midpoint lambda_hat of the bracket and scale = lambda_hat + s, and
    the rest of the block is plain steps v <- (M + s*I) v / scale: one
    `take` of three rows (the two neighbours and the entry itself), one
    multiply by the table of the weights and of s, divided by scale once
    per block, and two adds, with no reduction. This is sound because:

    - plain steps never widen the bracket: B = M + s*I >= 0 commutes with
      M, so max (MBx)/(Bx) <= max (Mx)/x and min (MBx)/(Bx) >= min (Mx)/x
      for positive x. Skipping checks can delay the stop by at most a
      block; it can never stop early;
    - a plain step multiplies each entry of a positive v by a factor in
      [s/scale, (hi + s)/scale] = [1/3, 5/3] (hi <= 2*lambda_hat), so a
      block's growth lies in [3^-15, (5/3)^15] and cannot under- or
      overflow for any tilt. A v with a zero entry (an underflowed
      weight) has no bracket and no such bound: it is certified at every
      step and never reports convergence;
    - two cases can never converge, and return unconverged early. With
      s > 0 the support of v shrinks only by underflow, so a zero set of
      v that survives a whole step is closed under the edges and stays
      zero: the solve stops at the certified step that sees it again. A
      side of M with a zero row (no edge, or only weights that underflowed
      after max-normalization) next to a nonzero row holds its bracket's
      lower end at 0 while v > 0, and that entry of v decays to 0: the
      solve stops at its first certified step. Converged solves meet
      neither case, so their floats do not depend on these stops;
    - the first step of a solve is certified, so a graph with no edges
      (Mv = 0, the bracket [0, 0]) returns -inf, converged, at
      iteration 1, and a run stops at exactly `max_iter` steps.
    """
    lw = np.asarray(log_weights, dtype=float)
    n = lw.size
    c = float(np.max(lw)) if n else 0.0
    w = np.exp(lw - c)
    # one row per symbol slot: the right side gathers the successors with
    # their weights, the left side the predecessors with its own weight;
    # an absent edge reads entry 0 with coefficient 0. The rows are made
    # C-ordered: np.where on the transposed view would give F-ordered
    # tables, and every step gathers with them
    nxt = np.ascontiguousarray(table.T)
    idx = [np.where(nxt >= 0, nxt, 0)]
    coef = [np.where(nxt >= 0, w[nxt], 0.0)]
    if left:
        prev = _predecessors(table, n)
        idx.append(np.where(prev >= 0, prev + n, 0))
        coef.append(np.where(prev >= 0, w, 0.0))
    sides = 2 if left else 1
    # plain steps gather a third row, each entry itself, for s*v
    idx = np.vstack([np.concatenate(idx, axis=1), np.arange(sides * n)])
    coef = np.concatenate(coef, axis=1)
    # a side with a zero row of M next to a nonzero one (see above)
    live = coef.any(axis=0).reshape(sides, n)
    stuck = bool((live.any(axis=1) & ~live.all(axis=1)).any())
    step = np.empty((3, sides, n))
    v = np.ones((sides, n))
    s = np.ones((sides, 1))
    est = np.zeros(sides)
    converged = False
    iterations = 0
    last_zeros = None
    maximum, minimum = np.maximum.reduce, np.minimum.reduce
    while iterations < max_iter:
        # the certified step
        iterations += 1
        v /= maximum(v, axis=1, keepdims=True)
        flat = v.reshape(-1)
        gathered = flat.take(idx[:2])
        gathered *= coef
        gathered[0] += gathered[1]
        mv = gathered[0].reshape(sides, n)
        run = 0
        # v >= 0 always, so its least entry decides positivity (a NaN
        # fails the test)
        if minimum(flat) > 0.0:
            quot = mv / v
            lo, hi = minimum(quot, axis=1), maximum(quot, axis=1)
            est = 0.5 * (lo + hi)
            if (hi - lo <= tol * hi).all():
                converged = True
                break
            if stuck:
                break
            run = min(CERTIFY_EVERY - 1, max_iter - iterations)
            last_zeros = None
        else:
            zeros = flat == 0.0
            if zeros.any() and np.array_equal(zeros, last_zeros):
                break
            last_zeros = zeros
            est = maximum(mv, axis=1)
        s = np.where(est[:, None] > 0.0, 0.5 * est[:, None], s)
        scale = est[:, None] + s
        v = (mv + s * v) / scale
        np.divide(coef.reshape(2, sides, n), scale, out=step[:2])
        step[2] = s / scale
        table = step.reshape(3, -1)
        flat = v.reshape(-1)
        for _ in range(run):
            gathered = flat.take(idx)
            gathered *= table
            flat = gathered[0]
            flat += gathered[1]
            flat += gathered[2]
        v = flat.reshape(sides, n)
        iterations += run
    v = v / maximum(v, axis=1, keepdims=True)
    g = v[1] if left else None
    lam = float(est[0])
    if not lam > 0.0:
        return -math.inf, v[0], g, iterations, converged
    return math.log(lam) + c, v[0], g, iterations, converged


def pressure_transfer(lmap, potential, depth=12):
    """Log leading eigenvalue of the weighted full shift (x_gap = 0).

    One `_weighted_power` solve brackets the Perron root within 1e-12
    relative to its top. A word graph on which that bracket does not
    close (a reducible graph) is scored per strongly connected
    component that carries a cycle, and the best root is kept.
    """
    if not 1 <= depth <= MAX_TRANSFER_DEPTH:
        raise PreconditionError(
            "transfer depth must lie in [1, %d], got %r"
            % (MAX_TRANSFER_DEPTH, depth))
    sft = build_horseshoe(lmap, depth, 0.0)
    mids = sft.midpoints
    lw = np.asarray(potential.value(mids, np.zeros_like(mids)), dtype=float)
    value, _, _, iterations, converged = _weighted_power(sft.next, lw)
    params = {"depth": depth, "words": sft.n_vertices,
              "iterations": iterations}
    if not converged:
        # reducible (or periodic) word graph: score each strongly
        # connected component that carries a cycle and keep the best
        value = max((_weighted_power(sub.next, lw[comp])[0]
                     for comp, sub in sft.cyclic_components()),
                    default=-math.inf)
        params["fallback"] = "per-component"
    w_max = float(np.max(sft.cyl_hi - sft.cyl_lo))
    slack = 1.28 * (2.0 ** (-depth / 2.0)) + potential.lipschitz_bound() * w_max
    return PressureEstimate(value, "transfer", params, slack)


def pressure_measure(measure, potential, level="map", roof=None,
                     depth=12):
    """h + integral at the requested level (Abramov quotients for flow):
    the one-element call of `catalog_pressures`."""
    return catalog_pressures([measure], potential, level, roof, depth)[1][0]


def catalog_pressures(catalog, potential, level="map", roof=None, depth=12):
    """(members, pressures): the pressure of each catalog member in one pass.

    The singular Dirac only has flow-level conventions, so it is skipped
    at map level. Each integrand is evaluated once for the whole catalog
    (`integrate_many`, `suspend_many`), and each pressure is the one the
    member would get alone, bit for bit.
    """
    pool = [m for m in catalog
            if not (level == "map" and isinstance(m, SingularDeltaMeasure))]
    if not pool:
        raise PreconditionError(
            "catalog has no usable measures at level %r (the singular Dirac "
            "measure has only flow-level conventions)" % (level,))
    if level == "map":
        values, _ = integrate_many(potential, pool, depth)
        return pool, [entropy_map(m) + v for m, v in zip(pool, values)]
    if level == "flow":
        if roof is None:
            raise PreconditionError("flow-level pressure requires a roof function")
        return pool, [s.pressure()
                      for s in suspend_many(pool, roof, potential, depth)]
    raise PreconditionError("level must be 'map' or 'flow', got %r" % level)


class PressureBounds:
    """Catalog (min, max) of measure pressures, with a transfer cross-check."""

    def __init__(self, p_inf, p_top, transfer_value, shortfall_flagged):
        self.p_inf = p_inf
        self.p_top = p_top
        self.transfer_value = transfer_value
        self.shortfall_flagged = shortfall_flagged

    def __iter__(self):
        return iter((self.p_inf, self.p_top))

    def __repr__(self):
        return "PressureBounds(%.9g, %.9g, flagged=%r)" % (
            self.p_inf, self.p_top, self.shortfall_flagged)


def _find_lmap(catalog):
    for m in catalog:
        lm = getattr(m, "lmap", None)
        if lm is not None:
            return lm
        if hasattr(m, "components"):
            lm = _find_lmap([c for _, c in m.components])
            if lm is not None:
                return lm
    return None


def estimate_P_bounds(catalog, potential, level="map", roof=None,
                      depth=12, slack=0.02):
    """(inf, sup) of pressure over the catalog.

    The sup is additionally compared with the transfer estimate at map
    level; a shortfall beyond `slack` flags catalog insufficiency in the
    result (it is not an error). The singular Dirac measure only enters
    at flow level, where its conventions are defined.
    """
    pool, values = catalog_pressures(catalog, potential, level=level,
                                     roof=roof, depth=depth)
    p_inf = min(values)
    p_top = max(values)
    transfer_value = None
    flagged = False
    if level == "map":
        lmap = _find_lmap(pool)
        if lmap is not None:
            transfer_value = pressure_transfer(lmap, potential, depth).value
            flagged = (transfer_value - p_top) > slack
    return PressureBounds(p_inf, p_top, transfer_value, flagged)


def h_top_estimate(lmap, depth=12):
    """Topological entropy of the base map.

    Constant-slope maps have entropy log(beta) in closed form; any other
    exponent falls back to the transfer estimate at zero potential.
    """
    if lmap.alpha == 1.0:
        return math.log(lmap.beta)
    from .potentials import ConstantPotential

    return pressure_transfer(lmap, ConstantPotential(0.0), depth).value


def equilibrium_measure(lmap, horseshoe, potential, t=1.0, label=None):
    """Equilibrium state of t*phi on the horseshoe SFT.

    Perron eigendata of M[u][v] = A(u,v)*e^(t*phi(mid v)) stochasticized
    the standard way: P = D(Mh)^-1 M D(h), which is row-stochastic by
    construction. One power solve (`_weighted_power` with `left`) gives
    the right vector h and the left vector g together, and the stationary
    vector is g*h normalized, stationary for P to the solver tolerance.
    The solve iterates M + s*I with s half its estimate of lambda, so on
    a component of period 2 the eigenvalue -lambda maps to the ratio 1/3
    whatever the scale of the weights, and it stops when the
    Collatz-Wielandt brackets of M itself are within 1e-12 relative to
    their tops, for any tilt t. The computation restricts to the strongly
    connected component with the largest Perron root, so the result is
    ergodic. A weight that underflows after max-normalization can leave
    no certifiable bracket; that solve does not converge and raises. The
    decomposition into cyclic
    components does not depend on t: it is computed once per horseshoe
    object (`SFTHorseshoe.cyclic_components`), and every measure built on
    the same horseshoe shares the same restricted sub-SFT. A Perron solve
    that does not converge on either side raises PreconditionError.

    The solve is memoized on the horseshoe (`SFTHorseshoe.equilibria`)
    under the bytes of lw + 0.0, lw = t*phi(midpoints), since it depends
    on nothing else: a hit is bit for bit the cold result, so results do
    not depend on call history. The memo keeps converged solves only, at
    most `symbolic.CACHE_LIMIT` + 1 (it is emptied past the limit), and
    is freed with its horseshoe. It keeps the `MarkovMeasure` validated
    once, with read-only arrays and its entropy computed; every call
    returns a shallow copy carrying the caller's map and label, so a label
    set on one result never reaches another.
    """
    mids = horseshoe.midpoints
    # + 0.0 turns -0.0 into +0.0, so 0*phi is one key for every potential
    lw = float(t) * np.asarray(potential.value(mids, np.zeros_like(mids)),
                               dtype=float) + 0.0
    key = lw.tobytes()
    solved = horseshoe.equilibria.get(key)
    if solved is None:
        solved = _solve_equilibrium(lmap, horseshoe, lw)
        _remember(horseshoe.equilibria, key, solved)
    measure = copy.copy(solved)
    measure.lmap = lmap
    measure.label = label
    return measure


def _solve_equilibrium(lmap, horseshoe, lw):
    """The validated `MarkovMeasure` of the log weights lw.

    Its arrays are read-only: they are shared by every copy handed out
    from the memo entry that holds it.
    """
    best = None
    for comp, sub in horseshoe.cyclic_components():
        val, h, g, iterations, converged = _weighted_power(
            sub.next, lw[comp], left=True)
        if not converged:
            raise PreconditionError(
                "Perron iteration on a %d-vertex component did not converge "
                "in %d iterations" % (len(comp), iterations))
        if best is None or val > best[0] + 1e-15:
            best = (val, comp, sub, h, g)
    if best is None:
        raise PreconditionError("horseshoe has no cycles; no equilibrium exists")
    _, comp, sub, h, g = best

    w = np.exp(lw[comp] - np.max(lw[comp]))
    probs = np.where(sub.next >= 0, (w * h)[sub.next], 0.0)
    probs /= probs.sum(axis=1)[:, None]
    pi = g * h
    pi /= pi.sum()
    measure = MarkovMeasure(lmap, sub, probs, pi)
    for arr in (measure.probs, measure.stationary):
        arr.flags.writeable = False
    return measure
