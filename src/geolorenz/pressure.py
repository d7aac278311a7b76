"""Topological pressure, three ways, and measure-theoretic pressure.

The separated-set estimator follows the growth-rate definition directly
and anchors fidelity; the transfer-operator estimator is the precision
workhorse (leading eigenvalue of the potential-weighted adjacency on
cylinder words); the catalog supremum realizes the variational principle
over whatever measures the caller supplies. Disagreement beyond the
reported slack is surfaced, never hidden.
"""

import math

import numpy as np

from .errors import PreconditionError
from .measures import (MarkovMeasure, SingularDeltaMeasure, entropy_map,
                       integrate_map, suspend)
from .symbolic import (ALPHABET, full_shift_sft, restrict_horseshoe,
                       strongly_connected_components)

MAX_TRANSFER_DEPTH = 14


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
    cur = xs.copy()
    alive = np.ones(xs.size, dtype=bool)
    for j in range(n):
        traj[j] = cur
        if j < n - 1:
            cur = lmap.step_array(cur)
            alive &= np.abs(cur) > 1e-12
    traj = traj[:, alive]

    phi = np.zeros(traj.shape[1])
    for j in range(n):
        phi += np.asarray(potential.value(traj[j], np.zeros_like(traj[j])))

    kept = [0]
    last = traj[:, 0]
    for i in range(1, traj.shape[1]):
        col = traj[:, i]
        if np.max(np.abs(col - last)) >= eps:
            kept.append(i)
            last = col
    weights = phi[kept]
    mshift = float(np.max(weights))
    value = (math.log(float(np.sum(np.exp(weights - mshift)))) + mshift) / n

    slack = math.log(4.0) / n + potential.lipschitz_bound() * eps
    return PressureEstimate(value, "separated",
                            {"n": n, "eps": eps, "pitch": pitch,
                             "separated_points": len(kept)}, slack)


def _weighted_power(succ, log_weights, shift=0.0, tol=1e-12, max_iter=20000):
    """Leading eigenvalue of M + shift*I, M[u][v] = A(u,v) * e^(lw[v]).

    Weights enter max-shifted so arbitrarily large log weights stay
    finite; the returned value is log of the Perron root of M itself.
    Start vector is all ones; sup-norm normalization each step.
    """
    lw = np.asarray(log_weights, dtype=float)
    n = lw.size
    c = float(np.max(lw)) if n else 0.0
    w = np.exp(lw - c)
    gathers = []
    for s in ALPHABET:
        idx = succ[s]
        ok = idx >= 0
        gathers.append((np.nonzero(ok)[0], idx[ok]))
    v = np.ones(n)
    lam = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = shift * v if shift else np.zeros(n)
        for rows, cols in gathers:
            y[rows] += w[cols] * v[cols]
        top = float(np.max(y))
        if top <= 0.0:
            return -math.inf, v, iterations, True
        # Collatz-Wielandt: for positive v the quotients y/v bracket the
        # Perron root, so the gap between their extremes is a stopping
        # rule that cannot fire early (the raw eigenvalue estimate can
        # stall at the maximal out-degree for many iterations)
        positive = v > 0.0
        if np.all(positive):
            quot = y / v
            lo_q = float(np.min(quot))
            hi_q = float(np.max(quot))
            lam = 0.5 * (lo_q + hi_q)
            if hi_q - lo_q <= tol * max(1.0, hi_q):
                converged = True
                v = y / top
                break
        else:
            lam = top
        v = y / top
    lam_m = lam - shift
    if lam_m <= 0.0:
        return -math.inf, v, iterations, converged
    return math.log(lam_m) + c, v, iterations, converged


def pressure_transfer(lmap, potential, depth=12):
    """Log leading eigenvalue of the weighted cylinder-word adjacency."""
    if not 1 <= depth <= MAX_TRANSFER_DEPTH:
        raise PreconditionError(
            "transfer depth must lie in [1, %d], got %r"
            % (MAX_TRANSFER_DEPTH, depth))
    sft = full_shift_sft(lmap, depth)
    mids = sft.midpoints
    lw = np.asarray(potential.value(mids, np.zeros_like(mids)), dtype=float)
    value, _, iterations, converged = _weighted_power(sft.succ, lw)
    params = {"depth": depth, "words": sft.n_vertices,
              "iterations": iterations}
    if not converged:
        # reducible (or periodic) word graph: score each strongly
        # connected component separately and keep the best
        comps = strongly_connected_components(sft)
        best = -math.inf
        for comp in comps:
            sub = restrict_horseshoe(sft, comp)
            if sub.edge_count() == 0:
                continue
            val, _, _, _ = _weighted_power(sub.succ, lw[comp], shift=1.0)
            best = max(best, val)
        value = best
        params["fallback"] = "per-component"
    w_max = float(np.max(sft.cyl_hi - sft.cyl_lo))
    slack = 1.28 * (2.0 ** (-depth / 2.0)) + potential.lipschitz_bound() * w_max
    return PressureEstimate(value, "transfer", params, slack)


def pressure_measure(measure, potential, level="map", roof=None,
                     depth=12):
    """h + integral at the requested level (Abramov quotients for flow)."""
    if level == "map":
        value, _ = integrate_map(potential, measure, depth)
        return entropy_map(measure) + value
    if level == "flow":
        if roof is None:
            raise PreconditionError("flow-level pressure requires a roof function")
        stats = suspend(measure, roof, potential, depth)
        return stats.pressure()
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
    pool = [m for m in catalog
            if not (level == "map" and isinstance(m, SingularDeltaMeasure))]
    if not pool:
        raise PreconditionError("catalog has no usable measures at this level")
    values = [pressure_measure(m, potential, level=level, roof=roof,
                               depth=depth) for m in pool]
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
    the standard way: P(u,v) = M(u,v) h(v) / (lambda h(u)) with
    stationary vector proportional to g*h. The computation restricts to
    the strongly connected component with the largest Perron root, so the
    result is ergodic; rows and the stationary vector are polished to the
    validation tolerances. The decomposition into cyclic components does
    not depend on t: it is computed once per horseshoe object
    (`SFTHorseshoe.cyclic_components`), and every measure built on the
    same horseshoe shares the same restricted sub-SFT. A Perron iteration
    that does not converge raises PreconditionError.
    """
    mids = horseshoe.midpoints
    lw = float(t) * np.asarray(potential.value(mids, np.zeros_like(mids)),
                               dtype=float)
    best = None
    for comp, sub in horseshoe.cyclic_components():
        val, vec, iterations, converged = _weighted_power(
            sub.succ, lw[comp], shift=1.0)
        if not converged:
            raise PreconditionError(
                "Perron iteration on a %d-vertex component did not converge "
                "in %d iterations" % (len(comp), iterations))
        if best is None or val > best[0] + 1e-15:
            best = (val, comp, sub, vec)
    if best is None:
        raise PreconditionError("horseshoe has no cycles; no equilibrium exists")
    log_lam, comp, sub, h = best

    # left eigenvector: transpose gathers under the same shift
    lw_c = lw[comp]
    c = float(np.max(lw_c))
    w = np.exp(lw_c - c)
    n = len(comp)
    rev = []
    for s in ALPHABET:
        idx = sub.succ[s]
        ok = idx >= 0
        rev.append((np.nonzero(ok)[0], idx[ok]))
    g = np.ones(n)
    lam = 0.0
    for _ in range(20000):
        y = g.copy()
        for rows, cols in rev:
            np.add.at(y, cols, w[cols] * g[rows])
        new_lam = float(np.max(y))
        g = y / new_lam
        if abs(new_lam - lam) <= 1e-13 * max(1.0, new_lam):
            break
        lam = new_lam
    lam_scaled = math.exp(log_lam - c)

    probs = np.zeros((n, len(ALPHABET)))
    for k, s in enumerate(ALPHABET):
        idx = sub.succ[s]
        ok = idx >= 0
        probs[ok, k] = w[idx[ok]] * h[idx[ok]] / (lam_scaled * h[ok])
    rows = probs.sum(axis=1)
    probs /= rows[:, None]

    pi = g * h
    pi /= pi.sum()
    for _ in range(5000):
        pushed = np.zeros(n)
        for k, s in enumerate(ALPHABET):
            idx = sub.succ[s]
            ok = idx >= 0
            np.add.at(pushed, idx[ok], pi[ok] * probs[ok, k])
        # lazy step: same fixed point, converges even on periodic chains
        nxt = 0.5 * (pushed + pi)
        nxt /= nxt.sum()
        done = float(np.max(np.abs(nxt - pi))) < 1e-15
        pi = nxt
        if done:
            break
    return MarkovMeasure(lmap, sub, probs, pi, label=label)
