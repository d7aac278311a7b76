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
its stationary vector is g*h. The right side holds one entry per class
of vertices with equal successor pairs, and the left side one per class
with equal predecessor pairs, iterating g/w for the weights w. Every
solve iterates M + s*I with s half the current estimate of the Perron
root lambda, so periodic components converge at a rate that does not
depend on how small the max-normalized weights make lambda. Only
certified steps read the Collatz-Wielandt bracket from M's own
quotients, and the loop stops at one whose bracket is within 1e-12
relative to its top; runs of plain steps of (M + s*I)/scale between
them take no reduction at all. Each run ends where the contraction of
the bracket measured over the last two certified steps says it will
close, within CERTIFY_EVERY steps. Plain steps never widen the bracket,
so the schedule can cost steps but never stop a solve early, and a
bracket that holds relative to lambda keeps log lambda at the dense root
for any tilt. What a solve needs of the graph alone, its classes and
gather tables, is a `_PerronPlan`, built on the first solve of a
successor table and kept on its `SFTHorseshoe`.

Equilibrium states are memoized. A solve depends on the horseshoe and
the log weights lw = t*phi(midpoints) alone, so `equilibrium_measure`
keeps its result, the validated `MarkovMeasure` on the winning sub-SFT
with every array read-only, in the horseshoe's `equilibria` dict, keyed
on the bytes of lw + 0.0 (so -0.0 and +0.0 are one key, and t = 0 is one
state for every potential). The memo holds at most
`symbolic.CACHE_LIMIT` entries: a new entry at the limit evicts the
least recently used one, so the states every realization on a horseshoe
shares stay while single-use states go, and the memo is freed with its
horseshoe when the last map of the model frees the model's store. Equal
keys mean equal inputs to the same deterministic solve, so a hit is bit
for bit the cold result and nothing depends on call history; only
converged solves are kept. Every call hands out a shallow copy of the
kept measure with its own label, so nothing is validated twice and no
label leaks.
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
from .symbolic import (ALPHABET, SFTHorseshoe, _recall, _remember,
                       build_horseshoe, check_depth, check_model)

MAX_TRANSFER_DEPTH = 14
# the most Perron steps from one Collatz-Wielandt check to the next (see
# _weighted_power)
CERTIFY_EVERY = 32


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
    The (n, m) orbit matrix is compressed only when some grid orbit hits
    |x| <= 1e-12, and each point's Birkhoff sum adds the potential's
    values one orbit row at a time, in orbit order from 0.0.
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
    if not alive.all():
        traj = traj.compress(alive, axis=1)
    m = traj.shape[1]
    # each point's Birkhoff sum, from 0.0 in orbit order, and the sup
    # distance of its orbit to its left neighbour's
    phi = np.zeros(m)
    step = np.zeros(m - 1)
    for row in traj:
        phi += potential.value(row)
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


def _classes(pairs, n):
    """(rep, cls) of the columns of `pairs`, a (2, n) table of vertices
    with -1 for none: rep holds one column of each class of equal
    columns, cls the class of each column."""
    _, rep, cls = np.unique((pairs[0] + 1) * (n + 1) + pairs[1],
                            return_index=True, return_inverse=True)
    return rep, cls


class _PerronPlan:
    """The part of a Perron solve that does not depend on the weights.

    Built from a (vertices, 2) successor table. `layout(left)` returns,
    for the stacked vector of the right side's classes followed, with
    `left`, by the left side's (see `_weighted_power`):

    - `gather`, the (2, entries) table of the offsets of each entry's at
      most two neighbours' classes in the stacked vector, 0 for an absent
      edge;
    - `source`, the (2, entries) table of the vertex whose weight is the
      coefficient of each neighbour, n for an absent edge, so that one
      `take` from the weights with a sentinel slot w[n] = 0 gives every
      coefficient;
    - `starts` and `sizes`, the offset and the length of each side.

    Building a layout sets the class maps: `succ`, the class of each
    vertex among the classes of equal successor pairs, and with `left`
    `pred`, its class among the classes of equal predecessor pairs, and
    `has_pred`, whether it has a predecessor. Each layout is built on the
    first solve that asks for it. `gather` and `source` are C-contiguous.
    The arrays that only a solve's set-up and return read are int32;
    every array is read-only. The plan of an
    `SFTHorseshoe` lives on it (`SFTHorseshoe.perron`) and is freed with
    it.
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.int64)
        self.succ = self.pred = self.has_pred = None
        self._layouts = {}

    def layout(self, left):
        got = self._layouts.get(left)
        if got is None:
            got = self._layouts[left] = self._build(left)
        return got

    def _build(self, left):
        n = len(self.table)
        # each entry gathers the neighbours of one vertex of its class:
        # its successors on the right side, its predecessors on the left
        rep, succ = _classes(self.table.T, n)
        sides = [(self.table[rep].T, succ)]
        self.succ = _frozen(succ.astype(np.int32))
        if left:
            prev = _predecessors(self.table, n)
            rep, pred = _classes(prev, n)
            sides.append((prev[:, rep], pred))
            self.pred = _frozen(pred.astype(np.int32))
            self.has_pred = _frozen((prev >= 0).any(axis=0))
        sizes = [nbr.shape[1] for nbr, _ in sides]
        starts = np.cumsum([0] + sizes[:-1])
        gather = np.concatenate([np.where(nbr >= 0, cls[nbr] + start, 0)
                                 for (nbr, cls), start in zip(sides, starts)],
                                axis=1)
        source = np.concatenate([np.where(nbr >= 0, nbr, n)
                                 for nbr, _ in sides], axis=1)
        # the neighbour tables come transposed, so the concatenations are
        # column-major; a `take` through a C-contiguous table runs over
        # one row at a time
        return (_frozen(np.ascontiguousarray(gather)),
                _frozen(np.ascontiguousarray(source, dtype=np.int32)),
                _frozen(starts), sizes)


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _perron_plan(graph):
    """The plan of an `SFTHorseshoe`, built on its first solve and kept on
    it; a raw (vertices, 2) successor table gets a plan of its own."""
    if not isinstance(graph, SFTHorseshoe):
        return _PerronPlan(graph)
    if graph.perron is None:
        graph.perron = _PerronPlan(graph.next)
    return graph.perron


def _plain_run(widths, last, since, tol):
    """Plain steps before the next certified step.

    `widths` are the relative widths (hi - lo)/hi of the brackets at this
    certified step, 0 for a side that has closed, and `last` those of the
    certified step `since` steps before (None if there was none). A side
    whose width fell from r0 to r contracts by (r/r0)^(1/since) per step,
    so it reaches tol after since*log(tol/r)/log(r/r0) more steps; the
    next certified step goes where the slowest side gets there, at most
    CERTIFY_EVERY steps on, and a full block when no side's contraction
    has been measured.
    """
    if last is None:
        return CERTIFY_EVERY - 1
    steps = 1
    for r, r0 in zip(widths, last):
        if r == 0.0:
            continue
        if not r < r0:
            return CERTIFY_EVERY - 1
        steps = max(steps, math.ceil(since * math.log(tol / r)
                                     / math.log(r / r0)))
    return min(steps, CERTIFY_EVERY) - 1


def _weighted_power(graph, log_weights, left=False, tol=1e-12,
                    max_iter=20000):
    """Perron root of M[u][v] = A(u,v) * e^(lw[v]) and its vectors.

    A is given by `graph`, an `SFTHorseshoe` or a (vertices, 2) successor
    table with -1 for no edge (see `SFTHorseshoe.next`); the weight-free
    part of the solve is its `_PerronPlan`, which a horseshoe keeps.
    Returns (log lambda, h, g, iterations, converged): log of the Perron
    root of M, the right vector h and, with `left`, the left vector g
    (None otherwise), each sup-normalized. Weights enter max-shifted, so
    every entry of M is at most 1 and arbitrarily large log weights stay
    finite.

    Both sides start at all ones and advance together, on classes of
    vertices. (Mh)(u) = sum of w(v)*h(v) over the successors v of u
    depends on u's successor pair alone, so the right side holds one
    entry per class of equal successor pairs. The left side iterates G =
    g/w: (gM)(v) = w(v) * sum of w(u)*G(u) over the predecessors u of v,
    so G advances by the matrix D*A (D the diagonal of w), and its new
    entry at v depends on v's predecessor pair alone; it holds one entry
    per class of equal predecessor pairs. D*A and M = A*D have the same
    nonzero spectrum, and where w > 0 (gM)(v)/g(v) = (G D A)(v)/G(v), so
    G's bracket is g's. From all ones, vertices of one class hold equal
    entries at every step, and h = H[succ], g = w * G[pred] are expanded
    on return. On horseshoes either side has a half to two thirds as
    many classes as vertices. The rows of the stacked vector gather their
    at most two neighbours with one `take` into a (2, entries) table,
    scaled by the edge weights in place; the per-side tops and bracket
    ends are taken with `reduceat`, and shifts and scales expanded with
    `repeat`.

    Every solve iterates M + s*I, with one shift per side: s is half the
    side's latest estimate of lambda (1 until it has one). The
    peripheral eigenvalues lambda*e^(2 pi i k/p) of a period-p component
    then have modulus |e^(2 pi i k/p) + 1/2| / (3/2) < 1 relative to
    lambda + s (1/3 at period 2) whatever the scale of the weights, so the
    loop converges on periodic components too.

    Certified steps alternate with runs of plain steps. A certified step
    sup-normalizes v, takes one step Mv with the unscaled weights, and
    reads the Collatz-Wielandt bracket [min (Mv)/v, max (Mv)/v] of each
    side from M's own quotients, before s*v is added. The loop stops only
    there, when every side's bracket is within `tol` relative to its top,
    hi - lo <= tol*hi, which holds however small lambda is. Otherwise the
    step sets s = lambda_hat/2 for the midpoint lambda_hat of the bracket
    and scale = lambda_hat + s, and plain steps v <- (M + s*I) v / scale
    follow: one `take` of the two neighbours into a buffer, one multiply
    by the weights divided by scale once per run, one add, and v scaled
    by s/scale and the sum added in place, with no reduction and no
    allocation. The run ends where the bracket should close
    (`_plain_run`): from two certified steps, the contraction of the
    relative width per step predicts the step at which it reaches tol.
    This is sound because:

    - plain steps never widen the bracket: B = M + s*I >= 0 commutes with
      M, so max (MBx)/(Bx) <= max (Mx)/x and min (MBx)/(Bx) >= min (Mx)/x
      for positive x. A prediction that comes too soon costs one more
      certified step, one that comes too late costs the steps past the
      closing; neither can stop a solve early;
    - runs hold at most CERTIFY_EVERY - 1 = 31 plain steps. Each
      multiplies every entry of a positive v by a factor in
      [s/scale, (hi + s)/scale] = [1/3, 5/3] (hi <= 2*lambda_hat), so a
      run's growth lies in [3^-31, (5/3)^31], about [1.6e-15, 7.6e6],
      for any tilt: from the sup-normalized v of its certified step
      nothing can overflow, and an entry above 1e-292 stays normal. A v
      with a zero entry (an underflowed weight) has no bracket and no
      such bound: it is certified at every step and never reports
      convergence;
    - two cases can never converge, and return unconverged early. With
      s > 0 the support of v shrinks only by underflow, so a zero set of
      v that survives a whole step is closed under the edges and stays
      zero: the solve stops at the certified step that sees it again. A
      side of M with a zero row (no edge, or only weights that underflowed
      after max-normalization) next to a nonzero row cannot close its
      bracket: the solve stops at its first certified step. On the left
      side the zero rows are those of the vertices with a predecessor and
      w(v) = 0, read per vertex; when every vertex is such, M = 0, and the
      left side gathers nothing, as g*M = 0 for every g. Converged solves
      meet neither case, so their floats do not depend on these stops;
    - the first step of a solve is certified, so a graph with no edges
      (Mv = 0, the bracket [0, 0]) returns -inf, converged, at
      iteration 1, and a run stops at exactly `max_iter` steps.
    """
    plan = _perron_plan(graph)
    lw = np.asarray(log_weights, dtype=float)
    n = lw.size
    c = float(np.max(lw)) if n else 0.0
    # the weights and, for absent edges, the sentinel w[n] = 0
    w = np.zeros(n + 1)
    np.exp(lw - c, out=w[:n])
    gather, source, starts, sizes = plan.layout(left)
    coef = w.take(source)
    m = sizes[0]
    # a side with a zero row of M next to a nonzero one (see above)
    live = coef[:, :m].any(axis=0)
    stuck = bool(live.any() and not live.all())
    if left:
        live = plan.has_pred & (w[:n] > 0.0)
        stuck = stuck or bool(live.any() and not live.all())
        if not live.any():
            # M = 0, though D*A may not be: g*M = 0 for every g
            coef[:, m:] = 0.0
    # every step works in these buffers and v, and allocates nothing
    gathered, step = np.empty(coef.shape), np.empty(coef.shape)
    diag = np.empty(coef.shape[1])
    v = np.ones(coef.shape[1])
    s = np.ones(len(sizes))
    est = np.zeros(len(sizes))
    converged = False
    iterations = 0
    last_zeros = last = None
    last_at = 0
    maximum, minimum = np.maximum.reduceat, np.minimum.reduceat
    while iterations < max_iter:
        # the certified step
        iterations += 1
        v /= maximum(v, starts).repeat(sizes)
        # mode="clip" lets take write into `out` unbuffered; every offset
        # is in range
        v.take(gather, out=gathered, mode="clip")
        gathered *= coef
        gathered[0] += gathered[1]
        mv = gathered[0]
        run = 0
        # v >= 0 always, so its least entry decides positivity (a NaN
        # fails the test)
        if np.minimum.reduce(v) > 0.0:
            quot = mv / v
            lo, hi = minimum(quot, starts), maximum(quot, starts)
            est = 0.5 * (lo + hi)
            if stuck:
                break
            gap = hi - lo
            if (gap <= tol * hi).all():
                converged = True
                break
            # an open side has hi > lo >= 0
            widths = [a / b if a > tol * b else 0.0
                      for a, b in zip(gap.tolist(), hi.tolist())]
            run = min(_plain_run(widths, last, iterations - last_at, tol),
                      max_iter - iterations)
            last, last_at = widths, iterations
            last_zeros = None
        else:
            zeros = v == 0.0
            if zeros.any() and np.array_equal(zeros, last_zeros):
                break
            last_zeros = zeros
            last = None
            est = maximum(mv, starts)
        s = np.where(est > 0.0, 0.5 * est, s)
        scale = est + s
        each_s, each_scale = s.repeat(sizes), scale.repeat(sizes)
        v *= each_s
        v += mv
        v /= each_scale
        np.divide(coef, each_scale, out=step)
        np.divide(each_s, each_scale, out=diag)
        for _ in range(run):
            v.take(gather, out=gathered, mode="clip")
            gathered *= step
            gathered[0] += gathered[1]
            v *= diag
            v += gathered[0]
        iterations += run
    v = v / maximum(v, starts).repeat(sizes)
    h = v[:m].take(plan.succ)
    g = None
    if left:
        g = w[:n] * v[m:].take(plan.pred)
        g /= np.maximum.reduce(g)
    lam = float(est[0])
    if not lam > 0.0:
        return -math.inf, h, g, iterations, converged
    return math.log(lam) + c, h, g, iterations, converged


def _finite(lw, what):
    """lw, if every entry is finite; else a PreconditionError naming
    `what` and the first vertex where it is not."""
    if not np.isfinite(lw).all():
        k = int(np.flatnonzero(~np.isfinite(lw))[0])
        raise PreconditionError(
            "%s is %r at vertex %d of %d; log weights must be finite"
            % (what, float(lw[k]), k, lw.size))
    return lw


def _solve_components(horseshoe, lw, left=False):
    """(indices, sub-SFT, log lambda, h, g) of the solve on each cyclic
    component; a solve that does not converge raises PreconditionError."""
    for comp, sub in horseshoe.cyclic_components():
        val, h, g, iterations, converged = _weighted_power(
            sub, lw[comp], left=left)
        if not converged:
            raise PreconditionError(
                "Perron iteration on a %d-vertex component did not converge "
                "in %d iterations" % (len(comp), iterations))
        yield comp, sub, val, h, g


def pressure_transfer(lmap, potential, depth=12):
    """Log leading eigenvalue of the weighted full shift (x_gap = 0).

    One `_weighted_power` solve brackets the Perron root within 1e-12
    relative to its top. A word graph on which that bracket does not
    close (a reducible graph) is scored per strongly connected
    component that carries a cycle, and the best root is kept; a
    component whose solve does not converge raises PreconditionError, as
    does a depth that is not an integer in [1, MAX_TRANSFER_DEPTH] and a
    potential that is not finite at some word's midpoint.
    """
    depth = check_depth(depth, "transfer", 1, MAX_TRANSFER_DEPTH)
    sft = build_horseshoe(lmap, depth, 0.0)
    lw = _finite(np.asarray(potential.value(sft.midpoints), dtype=float),
                 "potential %r" % (potential,))
    value, _, _, iterations, converged = _weighted_power(sft, lw)
    params = {"depth": depth, "words": sft.n_vertices,
              "iterations": iterations}
    if not converged:
        # reducible (or periodic) word graph: score each strongly
        # connected component that carries a cycle and keep the best
        value = max((val for _, _, val, _, _ in _solve_components(sft, lw)),
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
    decomposition into cyclic components and each component's
    `_PerronPlan` do not depend on t: they are built once per horseshoe
    object (`SFTHorseshoe.cyclic_components`, `SFTHorseshoe.perron`), and
    every measure built on the same horseshoe shares the same restricted
    sub-SFT. A Perron solve that does not converge on either side raises
    PreconditionError, and so do a map of another model (`check_model`)
    and a t*phi not finite at some vertex, before any memo lookup or solve.

    The solve is memoized on the horseshoe (`SFTHorseshoe.equilibria`)
    under the bytes of lw + 0.0, lw = t*phi(midpoints), since it depends
    on nothing else: a hit is bit for bit the cold result, so results do
    not depend on call history. The memo keeps converged solves only, at
    most `symbolic.CACHE_LIMIT` (a new one at the limit evicts the least
    recently used), and is freed with its horseshoe. It keeps the
    `MarkovMeasure` validated once, with read-only arrays and its entropy
    computed; every call returns a shallow copy carrying the caller's map
    and label, so a label set on one result never reaches another. The
    kept measure refers to neither the map nor this horseshoe (see
    `_solve_equilibrium`), so the memo goes with the horseshoe by
    reference counts.
    """
    check_model(lmap, horseshoe)
    phi = np.asarray(potential.value(horseshoe.midpoints), dtype=float)
    # + 0.0 turns -0.0 into +0.0, so 0*phi is one key for every potential;
    # a product that is not finite is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        lw = float(t) * phi + 0.0
    key = _finite(lw, "t*phi at t = %r" % (t,)).tobytes()
    solved = _recall(horseshoe.equilibria, key)
    if solved is None:
        solved = _solve_equilibrium(lmap, horseshoe, lw)
        _remember(horseshoe.equilibria, key, solved)
    measure = copy.copy(solved)
    measure.lmap = lmap
    if solved.horseshoe is None:
        measure.horseshoe = horseshoe
    measure.label = label
    return measure


def _solve_equilibrium(lmap, horseshoe, lw):
    """The validated `MarkovMeasure` of the log weights lw.

    Its arrays are read-only: they are shared by every copy handed out
    from the memo entry that holds it. Once validated it keeps no map,
    and None for its horseshoe where the winner is the whole horseshoe:
    each copy takes its caller's map and the memo's horseshoe back, and
    either one kept here would be a reference cycle through the memo,
    which would keep the model's store alive after its last map.
    """
    best = None
    for comp, sub, val, h, g in _solve_components(horseshoe, lw, left=True):
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
    measure.lmap = None
    if sub is horseshoe:
        measure.horseshoe = None
    return measure
