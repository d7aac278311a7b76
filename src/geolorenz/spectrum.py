"""Constructive pressure-spectrum procedures.

Two constructions drive this module. The generic one realizes any
prescribed pressure value strictly between the catalog bounds by an
ergodic Markov measure on a horseshoe, found by bisecting the
equilibrium family t -> mu_t of t*phi. The dense one builds a singular
bump potential whose pressure spectrum has a certified gap: the Dirac
measure at the singularity sits at level L while every measure
satisfying the small-ball hypothesis stays below L/2.

reduce_to_essential_case is the supporting convex-combination driver:
given a measure in the admissible set {mu : integral <= P <= pressure},
it returns one satisfying both inequalities strictly with a quantified
margin, mixing in catalog witnesses as needed.

Every catalog pass here (the scan, the catalog bounds of a realization,
the hypothesis check and the gap table, the witness pool) evaluates each
integrand once for the whole catalog, through `catalog_pressures`,
`suspend_many`, `ball_fractions` and `integrate_many`, and gives each
member the floats of its one-measure call bit for bit.
"""

import math

import numpy as np

from .catalog import (DEFAULT_RECIPE, GAP_CORE_RECIPE, build_catalog)
from .errors import (BracketFailureError, EtaTooLargeError, NoWitnessError,
                     PreconditionError)
from .measures import (SingularDeltaMeasure, ball_fractions, convex_combine,
                       entropy_map, integrate_many, integrate_map,
                       suspend_many)
# unused here, kept since benchmarks/test_benchmark.py checks that the
# tracer wraps this binding
from .measures import suspend
from .model import RoofFunction
from .potentials import SingularBumpPotential
from .pressure import (catalog_pressures, equilibrium_measure,
                       pressure_measure)
from .symbolic import build_horseshoe

HYPOTHESIS_THRESHOLD = 0.25
DEFAULT_GAP_SCHEDULE = (0.05, 0.02, 0.008, 0.002)
# family parameter range; the pressure of mu_t along phi increases up to
# t=1 (where it attains the equilibrium maximum), so bisection brackets
# against the increasing branch only
T_LO = -6.0
T_HI = 1.0


class TargetRequest:
    """A realization request: hit `target` with an ergodic measure.

    Search bounds: one horseshoe depth plus a schedule of shrinking
    x_gap values; the equilibrium family on each horseshoe is bisected
    until its pressure range brackets the target.
    """

    def __init__(self, lmap, potential, target, tolerance, level="map",
                 roof=None, depth=12, gap_schedule=DEFAULT_GAP_SCHEDULE,
                 catalog=None):
        if tolerance <= 0.0:
            raise PreconditionError("tolerance must be positive")
        if level not in ("map", "flow"):
            raise PreconditionError("level must be 'map' or 'flow'")
        if level == "flow" and roof is None:
            raise PreconditionError("flow-level request requires a roof")
        if not math.isfinite(target):
            raise PreconditionError("target must be finite")
        if not gap_schedule:
            raise PreconditionError("gap schedule must be nonempty")
        self.lmap = lmap
        self.potential = potential
        self.target = float(target)
        self.tolerance = float(tolerance)
        self.level = level
        self.roof = roof
        self.depth = int(depth)
        self.gap_schedule = tuple(float(g) for g in gap_schedule)
        self.catalog = catalog


class GapReport:
    """Per-measure hypothesis rows plus the certification verdict."""

    def __init__(self, L, eta, slack, rows, sup_satisfying, delta_pressure,
                 certified):
        self.L = L
        self.eta = eta
        self.slack = slack
        self.rows = rows
        self.sup_satisfying = sup_satisfying
        self.delta_pressure = delta_pressure
        self.certified = certified

    @property
    def gap_size(self):
        if self.sup_satisfying is None:
            return None
        return self.L - self.sup_satisfying

    def flagged_ids(self):
        return [r["measure_id"] for r in self.rows
                if not r["hypothesis_flag"]]

    def as_dict(self):
        return {"L": self.L, "eta": self.eta, "slack": self.slack,
                "sup_satisfying": self.sup_satisfying,
                "delta_pressure": self.delta_pressure,
                "gap_size": self.gap_size, "certified": self.certified,
                "rows": self.rows}


class PressureSpectrumReport:
    """Sorted attained pressures with the largest spectral gap."""

    def __init__(self, level, entries, gap_interval):
        self.level = level
        self.entries = entries
        self.gap_interval = gap_interval

    @property
    def p_inf_est(self):
        return self.entries[0][1]

    @property
    def p_top_est(self):
        return self.entries[-1][1]

    @property
    def gap_size(self):
        lo, hi = self.gap_interval
        return hi - lo

    def measures_above_gap(self):
        return [mid for mid, v in self.entries if v > self.gap_interval[0]]

    def as_dict(self):
        return {"level": self.level,
                "entries": [{"measure_id": mid, "pressure": v}
                            for mid, v in self.entries],
                "p_inf_est": self.p_inf_est, "p_top_est": self.p_top_est,
                "gap_interval": list(self.gap_interval),
                "gap_size": self.gap_size}


def spectrum_scan(potential, catalog, level="map", roof=None, depth=12):
    """Evaluate the catalog's pressures and locate the largest gap.

    The singular Dirac only has flow-level conventions, so it is skipped
    at map level. The pressures come from `catalog_pressures`, one
    evaluation of each integrand for the whole catalog. Entries are
    sorted ascending by value, ties broken by id; the gap interval
    endpoints are attained values.
    """
    if not catalog:
        raise PreconditionError("catalog must be nonempty")
    pool, values = catalog_pressures(catalog, potential, level=level,
                                     roof=roof, depth=depth)
    entries = [(m.id, float(v)) for m, v in zip(pool, values)]
    entries.sort(key=lambda e: (e[1], e[0]))
    gap_interval = (entries[0][1], entries[0][1])
    best = -1.0
    for (ida, va), (idb, vb) in zip(entries, entries[1:]):
        if vb - va > best:
            best = vb - va
            gap_interval = (va, vb)
    return PressureSpectrumReport(level, entries, gap_interval)


def build_gap_potential(h_top_est, margin, eta, lmap=None, roof=None,
                        catalog=None, depth=12):
    """Singular bump at level L = 4 * h_top_est * (1 + margin).

    The small-ball hypothesis is checked for every certification-
    population measure: the flow-time fraction spent within dwell radius
    2*eta of the singularity must be < 1/4. When no catalog is supplied
    the check runs against the curated core population built from the
    model. The Dirac measure is exempt (its ball fraction is 1 by
    convention; it is the isolated point the construction exhibits).
    """
    if h_top_est <= 0.0:
        raise PreconditionError("h_top_est must be positive")
    if margin <= 0.0:
        raise PreconditionError(
            "margin must be strictly positive: the construction needs "
            "L strictly above 4 * h_top")
    L = 4.0 * h_top_est * (1.0 + margin)
    bump = SingularBumpPotential(L, eta)
    if catalog is None:
        if lmap is None:
            raise PreconditionError(
                "hypothesis check needs a catalog or a model to build "
                "the core population from")
        catalog = build_catalog(lmap, bump, GAP_CORE_RECIPE)
    if roof is None:
        roof = RoofFunction(1.0, 1.0, 0.5)
    pool = [m for m in catalog if not isinstance(m, SingularDeltaMeasure)]
    stats = suspend_many(pool, roof, bump, depth)
    for m, bf in zip(pool, ball_fractions(stats, 2.0 * eta)):
        if bf >= HYPOTHESIS_THRESHOLD:
            raise EtaTooLargeError(
                "eta=%g too large: measure %s spends fraction %.4f >= 1/4 "
                "of its flow time within radius 2*eta of the singularity"
                % (eta, m.id, bf), offending_measure=m.id)
    return bump


def verify_gap(lmap, roof, bump, catalog, slack=1e-2, depth=12):
    """Tabulate the gap construction's inequality chain per measure.

    Each measure gets flow-level statistics, its ball fraction at radius
    2*eta, and the hypothesis flag bf < 1/4. The verdict is certified
    iff the hypothesis-satisfying rows all have pressure <= L/2 + slack
    and the Dirac row sits exactly at L. Violating rows are reported and
    excluded from the certification sup; the Dirac is appended when the
    catalog does not already carry one.
    """
    L = bump.value_at_sigma()
    pool = list(catalog)
    if not any(isinstance(m, SingularDeltaMeasure) for m in pool):
        pool.append(SingularDeltaMeasure())
    rows = []
    delta_pressure = None
    all_stats = suspend_many(pool, roof, bump, depth)
    fractions = ball_fractions(all_stats, 2.0 * bump.eta)
    for m, stats, bf in zip(pool, all_stats, fractions):
        if isinstance(m, SingularDeltaMeasure):
            h_map = 0.0
            delta_pressure = stats.pressure()
        else:
            h_map = entropy_map(m)
        rows.append({
            "measure_id": m.id,
            "entropy_map": h_map,
            "mean_roof": stats.mean_roof,
            "h_flow": stats.h_flow,
            "integral": stats.potential_integral,
            "pressure": stats.pressure(),
            "ball_fraction": bf,
            "hypothesis_flag": bool(bf < HYPOTHESIS_THRESHOLD),
        })
    rows.sort(key=lambda r: r["measure_id"])
    satisfying = [r["pressure"] for r in rows if r["hypothesis_flag"]]
    sup_satisfying = max(satisfying) if satisfying else None
    certified = (sup_satisfying is not None
                 and sup_satisfying <= 0.5 * L + slack
                 and delta_pressure == L)
    return GapReport(L, bump.eta, slack, rows, sup_satisfying,
                     delta_pressure, certified)


def _smallest_feasible_theta(feasible, steps=64, iters=48):
    """Smallest theta in (0,1) passing `feasible`, located by bisection.

    Scans a coarse ascending grid for the first feasible point, then
    bisects the bracket around the feasibility boundary, returning the
    feasible upper end.
    """
    prev = 0.0
    first = None
    for k in range(1, steps):
        theta = k / steps
        if feasible(theta):
            first = theta
            break
        prev = theta
    if first is None:
        return None
    lo, hi = prev, first
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _mix_to_margin(mu, I_mu, P_mu, witnesses, P, q):
    """Mix a witness into mu until both strict margins reach q.

    Integral and pressure are affine in the mixture weight, so the
    feasibility predicate uses the component values directly; witnesses
    are tried in the given order and the first feasible one wins.
    """
    for w, I_w, P_w in witnesses:
        def feasible(theta):
            I_nu = theta * I_w + (1.0 - theta) * I_mu
            P_nu = theta * P_w + (1.0 - theta) * P_mu
            return (P - I_nu) >= q and (P_nu - P) >= q

        theta = _smallest_feasible_theta(feasible)
        if theta is not None:
            return convex_combine([(theta, w), (1.0 - theta, mu)])
    return None


def reduce_to_essential_case(mu, potential, P, catalog, tol=1e-2, depth=12):
    """Move mu into strict essential-case position around P.

    Input contract: integral(mu) <= P <= pressure(mu) (the admissible
    set membership). Output: a measure nu with integral(nu) <= P - q and
    pressure(nu) >= P + q for q = tol/4; inputs already in that position
    are returned unchanged. Four regimes arise from which of the two
    inequalities are tight; each mixes in catalog witnesses with the
    weight found by bisection to the smallest feasible value. When both
    are tight, an exact intermediate mixture with integral P and
    positive entropy is built first (low/high integral witnesses, with
    an entropy repair mix when both carry zero entropy), then
    strictified like the tight-integral regime.
    """
    if tol <= 0.0:
        raise PreconditionError("tol must be positive")
    q = tol / 4.0
    I_mu, _ = integrate_map(potential, mu, depth)
    P_mu = entropy_map(mu) + I_mu
    if I_mu > P + 1e-9 or P_mu < P - 1e-9:
        raise PreconditionError(
            "input measure is outside the admissible set: integral "
            "%.6g <= P=%.6g <= pressure %.6g fails" % (I_mu, P, P_mu))
    low_ok = (P - I_mu) >= q
    high_ok = (P_mu - P) >= q
    if low_ok and high_ok:
        return mu

    members = [m for m in catalog if not isinstance(m, SingularDeltaMeasure)]
    if not members:
        raise NoWitnessError("catalog has no section-level measures")
    integrals, _ = integrate_many(potential, members, depth)
    pool = [(m, I_m, entropy_map(m) + I_m)
            for m, I_m in zip(members, integrals)]

    if low_ok and not high_ok:
        # pressure needs lifting: witnesses with pressure above P
        highs = sorted((t for t in pool if t[2] >= P + 2.0 * q),
                       key=lambda t: t[2])
        if not highs:
            raise NoWitnessError(
                "no catalog measure has pressure above the target %.6g; "
                "cannot lift the pressure side" % P)
        nu = _mix_to_margin(mu, I_mu, P_mu, highs, P, q)
        if nu is None:
            raise NoWitnessError(
                "no pressure-above witness admits a mixture with both "
                "margins >= tol/4")
        return nu

    lows = sorted((t for t in pool if t[2] <= P - 2.0 * q),
                  key=lambda t: -t[2])
    if not lows:
        raise NoWitnessError(
            "no catalog measure has pressure below the target %.6g; "
            "cannot free the integral side" % P)

    if not low_ok and high_ok:
        nu = _mix_to_margin(mu, I_mu, P_mu, lows, P, q)
        if nu is None:
            raise NoWitnessError(
                "no pressure-below witness admits a mixture with both "
                "margins >= tol/4")
        return nu

    # both tight: build the exact intermediate mixture first
    low_int = [t for t in pool if t[1] <= P - 2.0 * q]
    high_int = [t for t in pool if t[1] >= P + 2.0 * q]
    if not low_int:
        raise NoWitnessError(
            "no catalog measure has integral below %.6g" % (P - 2.0 * q))
    if not high_int:
        raise NoWitnessError(
            "no catalog measure has integral above %.6g" % (P + 2.0 * q))
    A, I_A, P_A = max(low_int, key=lambda t: t[2] - t[1])
    B, I_B, P_B = max(high_int, key=lambda t: t[2] - t[1])
    h_A = P_A - I_A
    h_B = P_B - I_B
    if max(h_A, h_B) < 4.0 * q:
        repairs = sorted(pool, key=lambda t: -(t[2] - t[1]))
        rep, I_r, P_r = repairs[0]
        h_r = P_r - I_r
        if h_r < 4.0 * q:
            raise NoWitnessError(
                "catalog lacks a positive-entropy witness; the "
                "intermediate mixture cannot reach positive entropy")
        # fold the entropy carrier into the low-integral side, keeping
        # its integral at least q below P
        if I_r <= I_A:
            u = 0.5
        else:
            u = min(0.5, 0.9 * (P - q - I_A) / (I_r - I_A))
        if u <= 0.0:
            raise NoWitnessError(
                "entropy repair would push the low-side integral past P")
        A = convex_combine([(u, rep), (1.0 - u, A)])
        I_A = u * I_r + (1.0 - u) * I_A
        P_A = u * P_r + (1.0 - u) * P_A
        h_A = P_A - I_A
    s = (I_B - P) / (I_B - I_A)
    if not 0.0 < s < 1.0:
        raise NoWitnessError(
            "integral witnesses do not straddle the target")
    mu3 = convex_combine([(s, A), (1.0 - s, B)])
    I_3 = s * I_A + (1.0 - s) * I_B
    P_3 = s * P_A + (1.0 - s) * P_B
    if P_3 - P < 2.0 * q:
        raise NoWitnessError(
            "intermediate mixture's entropy %.3g is too small to carry "
            "the margin" % (P_3 - I_3))
    nu = _mix_to_margin(mu3, I_3, P_3, lows, P, q)
    if nu is None:
        raise NoWitnessError(
            "no pressure-below witness admits a mixture with both "
            "margins >= tol/4")
    return nu



def realize_intermediate(req):
    """Ergodic Markov measure with pressure within tolerance of target.

    Interiority is enforced against the catalog bounds with margin >=
    tolerance. On each horseshoe of the schedule the equilibrium-family
    pressure t -> P(mu_t) is evaluated at the bracket ends; when the
    target is straddled, bisection refines t until the evaluator lands
    within 0.3 * tolerance, and an independent deeper integrator then
    replays the postcondition. Exhausting the schedule without a
    certified bracket raises BracketFailureError carrying the range the
    families achieved.
    """
    catalog = req.catalog
    if catalog is None:
        catalog = build_catalog(req.lmap, req.potential, DEFAULT_RECIPE)
    _, values = catalog_pressures(catalog, req.potential, level=req.level,
                                  roof=req.roof)
    p_inf, p_top = min(values), max(values)
    if not (p_inf + req.tolerance <= req.target <= p_top - req.tolerance):
        raise PreconditionError(
            "target %.6g is not interior to the catalog bounds "
            "(%.6g, %.6g) with margin >= tolerance" %
            (req.target, p_inf, p_top))
    if req.level == "map":
        eval_depth, replay_depth = 16, 20
    else:
        eval_depth, replay_depth = 16, 18

    def family_value(horseshoe, t, depth):
        eq = equilibrium_measure(req.lmap, horseshoe, req.potential, t=t)
        return eq, pressure_measure(eq, req.potential, level=req.level,
                                    roof=req.roof, depth=depth)

    achieved = [math.inf, -math.inf]
    for x_gap in req.gap_schedule:
        horseshoe = build_horseshoe(req.lmap, req.depth, x_gap)
        lo_t, hi_t = T_LO, T_HI
        try:
            eq_lo, v_lo = family_value(horseshoe, lo_t, eval_depth)
            eq_hi, v_hi = family_value(horseshoe, hi_t, eval_depth)
        except PreconditionError:
            continue
        achieved[0] = min(achieved[0], v_lo, v_hi)
        achieved[1] = max(achieved[1], v_lo, v_hi)
        if not min(v_lo, v_hi) <= req.target <= max(v_lo, v_hi):
            continue
        best = None
        f_lo = v_lo - req.target
        for _ in range(60):
            mid_t = 0.5 * (lo_t + hi_t)
            eq_m, v_m = family_value(horseshoe, mid_t, eval_depth)
            resid = abs(v_m - req.target)
            if best is None or resid < best[0]:
                best = (resid, eq_m, mid_t)
            if resid <= 0.3 * req.tolerance:
                break
            if (v_m - req.target) * f_lo <= 0.0:
                hi_t = mid_t
            else:
                lo_t = mid_t
                f_lo = v_m - req.target
        if best is None:
            continue
        _, nu, t_star = best
        replay = pressure_measure(nu, req.potential, level=req.level,
                                  roof=req.roof, depth=replay_depth)
        achieved[0] = min(achieved[0], replay)
        achieved[1] = max(achieved[1], replay)
        if abs(replay - req.target) <= req.tolerance:
            nu.label = "realized:g%g:t%.9g" % (x_gap, t_star)
            return nu
    raise BracketFailureError(
        "equilibrium families achieved pressure range (%.6g, %.6g) and "
        "never certified target %.6g within tolerance %g; target may be "
        "too close to the catalog top" %
        (achieved[0], achieved[1], req.target, req.tolerance),
        achieved_range=tuple(achieved))
