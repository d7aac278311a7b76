"""Constructive pressure-spectrum procedures.

Two constructions drive this module. The generic one realizes any
prescribed pressure value strictly between the catalog bounds by an
ergodic Markov measure on a horseshoe, found by a bracketing secant
(Illinois regula falsi) in t on the equilibrium family t -> mu_t of
t*phi. The dense one builds a singular bump potential whose pressure
spectrum has a certified gap: the Dirac measure at the singularity sits
at level L while every measure satisfying the small-ball hypothesis
stays below L/2. `gap_construction` is that construction end to end,
the one the `gap-demo` command, the gap suite and the demo call.

Every catalog pass here (the scan, the catalog bounds of a realization,
the hypothesis check and the gap table) evaluates each integrand once for
the whole catalog, through `catalog_pressures`, `suspend_many` and
`ball_fractions`, and gives each member the floats of its one-measure
call bit for bit.
"""

import math

from .catalog import (DEFAULT_RECIPE, GAP_CORE_RECIPE,
                      GAP_DEMONSTRATOR_RECIPE, build_catalog)
from .errors import BracketFailureError, EtaTooLargeError, PreconditionError
from .measures import (SingularDeltaMeasure, ball_fractions, entropy_map,
                       suspend_many)
# unused here, kept since benchmarks/test_benchmark.py checks that the
# tracer wraps this binding
from .measures import suspend
from .model import RoofFunction
from .potentials import SingularBumpPotential
from .pressure import (catalog_pressures, equilibrium_measure,
                       estimate_P_bounds, h_top_estimate, pressure_measure)
from .symbolic import MAX_DEPTH, build_horseshoe, check_depth

HYPOTHESIS_THRESHOLD = 0.25
DEFAULT_GAP_SCHEDULE = (0.05, 0.02, 0.008, 0.002)
# family parameter range; the pressure of mu_t along phi increases up to
# t=1 (where it attains the equilibrium maximum), so the refinement in t
# brackets against the increasing branch only
T_LO = -6.0
T_HI = 1.0
# `realize_intermediate`'s family depth, and its replay depth by level
EVAL_DEPTH = 16
REPLAY_DEPTH = {"map": 20, "flow": 18}


class TargetRequest:
    """A realization request: hit `target` with an ergodic measure.

    Search bounds: one horseshoe depth plus a schedule of shrinking
    x_gap values; on each horseshoe whose equilibrium family brackets
    the target, the family is refined in t until it hits the target.
    The inputs are checked here: a finite positive tolerance, a
    horseshoe depth as `build_horseshoe` takes it, and x_gap values in
    [0, 1).
    """

    def __init__(self, lmap, potential, target, tolerance, level="map",
                 roof=None, depth=12, gap_schedule=DEFAULT_GAP_SCHEDULE,
                 catalog=None):
        if not (tolerance > 0.0 and math.isfinite(tolerance)):
            raise PreconditionError(
                "tolerance must be finite and positive, got %r" % (tolerance,))
        if level not in ("map", "flow"):
            raise PreconditionError("level must be 'map' or 'flow'")
        if level == "flow" and roof is None:
            raise PreconditionError("flow-level request requires a roof")
        if not math.isfinite(target):
            raise PreconditionError("target must be finite")
        if not gap_schedule:
            raise PreconditionError("gap schedule must be nonempty")
        gap_schedule = tuple(float(g) for g in gap_schedule)
        for x_gap in gap_schedule:
            if not 0.0 <= x_gap < 1.0:
                raise PreconditionError(
                    "gap schedule entry %r is not in [0, 1)" % (x_gap,))
        self.lmap = lmap
        self.potential = potential
        self.target = float(target)
        self.tolerance = float(tolerance)
        self.level = level
        self.roof = roof
        self.depth = check_depth(depth, "horseshoe", 1, MAX_DEPTH - 1)
        self.gap_schedule = gap_schedule
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


def spectrum_scan(potential, catalog, level="map", roof=None):
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
                                     roof=roof)
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
                        catalog=None):
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
    stats = suspend_many(pool, roof, bump)
    for m, bf in zip(pool, ball_fractions(stats, 2.0 * eta)):
        if bf >= HYPOTHESIS_THRESHOLD:
            raise EtaTooLargeError(
                "eta=%g too large: measure %s spends fraction %.4f >= 1/4 "
                "of its flow time within radius 2*eta of the singularity"
                % (eta, m.id, bf), offending_measure=m.id)
    return bump


def verify_gap(lmap, roof, bump, catalog, slack=1e-2):
    """Tabulate the gap construction's inequality chain per measure.

    Each measure gets flow-level statistics, its ball fraction at radius
    2*eta, and the hypothesis flag bf < 1/4. The verdict is certified
    iff the hypothesis-satisfying rows all have pressure <= L/2 + slack
    and the Dirac row sits exactly at L. Violating rows are reported and
    excluded from the certification sup; the Dirac is appended when the
    catalog does not already carry one.
    """
    L = bump.value_at_sigma()
    pool = _with_dirac(catalog)
    all_stats = suspend_many(pool, roof, bump)
    rows = stats_rows(all_stats, ball_fractions(all_stats, 2.0 * bump.eta))
    # every Dirac carries the same conventions, and the pool has one
    delta_pressure = next(s.pressure() for s in all_stats if s.singular)
    satisfying = [r["pressure"] for r in rows if r["hypothesis_flag"]]
    sup_satisfying = max(satisfying) if satisfying else None
    certified = (sup_satisfying is not None
                 and sup_satisfying <= 0.5 * L + slack
                 and delta_pressure == L)
    return GapReport(L, bump.eta, slack, rows, sup_satisfying,
                     delta_pressure, certified)


def _with_dirac(measures):
    """The gap population: the measures as a new list, with the singular
    Dirac appended unless one is among them already."""
    pool = list(measures)
    if not any(isinstance(m, SingularDeltaMeasure) for m in pool):
        pool.append(SingularDeltaMeasure())
    return pool


def gap_construction(lmap, roof, margin, eta, slack=1e-2, core=None,
                     measures=None):
    """(h_top_est, bump, report, scan) of the dense-case construction:
    `build_gap_potential` checked on `core` (GAP_CORE_RECIPE's catalog if
    None), then `verify_gap` and the flow `spectrum_scan` of `measures`
    (the core and GAP_DEMONSTRATOR_RECIPE catalogs under the bump if
    None), with the Dirac appended if it has none."""
    h_est = h_top_estimate(lmap)
    bump = build_gap_potential(h_est, margin, eta, lmap=lmap, roof=roof,
                               catalog=core)
    if measures is None:
        measures = (build_catalog(lmap, bump, GAP_CORE_RECIPE)
                    + build_catalog(lmap, bump, GAP_DEMONSTRATOR_RECIPE))
    measures = _with_dirac(measures)
    report = verify_gap(lmap, roof, bump, measures, slack=slack)
    scan = spectrum_scan(bump, measures, level="flow", roof=roof)
    return h_est, bump, report, scan


def stats_rows(stats, fractions):
    """One table row per FlowMeasureStats, sorted by measure id: its flow
    statistics, its ball fraction bf and the hypothesis flag bf < 1/4.
    Used by `verify_gap` and the `measure-stats` command."""
    rows = [{"measure_id": s.measure.id,
             "entropy_map": 0.0 if s.singular else entropy_map(s.measure),
             "mean_roof": s.mean_roof, "h_flow": s.h_flow,
             "integral": s.potential_integral, "pressure": s.pressure(),
             "ball_fraction": bf,
             "hypothesis_flag": bool(bf < HYPOTHESIS_THRESHOLD)}
            for s, bf in zip(stats, fractions)]
    rows.sort(key=lambda r: r["measure_id"])
    return rows


def realize_intermediate(req):
    """Ergodic Markov measure with pressure within tolerance of target.

    Interiority is enforced against the catalog bounds with margin >=
    tolerance. On each horseshoe of the schedule the equilibrium-family
    pressure t -> P(mu_t) is evaluated at the bracket ends; when the
    target is straddled, t is refined until the evaluator lands within
    0.3 * tolerance, and an independent deeper integrator then replays
    the postcondition. The refinement opens with the midpoint of
    [T_LO, T_HI], which every request on a horseshoe shares through the
    equilibrium memo, and then takes regula falsi steps with the
    Illinois modification (Dowell and Jarratt, BIT 11, 1971): the next t
    is the secant root of the two bracket ends, an end kept twice in a
    row has its residual halved, and a secant point not strictly inside
    the bracket falls back to the midpoint. The t sequence depends only
    on the request and the family values, so results do not depend on
    call history. The label names the exact t of the measure. Exhausting
    the schedule without a certified bracket raises BracketFailureError
    carrying the range the families achieved.
    """
    catalog = req.catalog
    if catalog is None:
        catalog = build_catalog(req.lmap, req.potential, DEFAULT_RECIPE)
    p_inf, p_top = estimate_P_bounds(catalog, req.potential, level=req.level,
                                     roof=req.roof)
    if not (p_inf + req.tolerance <= req.target <= p_top - req.tolerance):
        raise PreconditionError(
            "target %.6g is not interior to the catalog bounds "
            "(%.6g, %.6g) with margin >= tolerance" %
            (req.target, p_inf, p_top))

    def family_value(horseshoe, t, depth):
        eq = equilibrium_measure(req.lmap, horseshoe, req.potential, t=t)
        return eq, pressure_measure(eq, req.potential, level=req.level,
                                    roof=req.roof, depth=depth)

    achieved = [math.inf, -math.inf]
    for x_gap in req.gap_schedule:
        horseshoe = build_horseshoe(req.lmap, req.depth, x_gap)
        lo_t, hi_t = T_LO, T_HI
        try:
            eq_lo, v_lo = family_value(horseshoe, lo_t, EVAL_DEPTH)
            eq_hi, v_hi = family_value(horseshoe, hi_t, EVAL_DEPTH)
        except PreconditionError:
            continue
        achieved[0] = min(achieved[0], v_lo, v_hi)
        achieved[1] = max(achieved[1], v_lo, v_hi)
        if not min(v_lo, v_hi) <= req.target <= max(v_lo, v_hi):
            continue
        best = None
        f_lo, f_hi = float(v_lo - req.target), float(v_hi - req.target)
        kept = None
        t = 0.5 * (lo_t + hi_t)
        for _ in range(60):
            eq_t, v_t = family_value(horseshoe, t, EVAL_DEPTH)
            f_t = float(v_t - req.target)
            if best is None or abs(f_t) < best[0]:
                best = (abs(f_t), eq_t, t)
            if abs(f_t) <= 0.3 * req.tolerance:
                break
            # Illinois: an end kept twice in a row has its residual halved
            if f_t * f_lo <= 0.0:
                hi_t, f_hi = t, f_t
                if kept == "lo":
                    f_lo *= 0.5
                kept = "lo"
            else:
                lo_t, f_lo = t, f_t
                if kept == "hi":
                    f_hi *= 0.5
                kept = "hi"
            t = 0.5 * (lo_t + hi_t)
            if f_hi != f_lo:
                secant = (lo_t * f_hi - hi_t * f_lo) / (f_hi - f_lo)
                if lo_t < secant < hi_t:
                    t = secant
        _, nu, t_star = best
        replay = pressure_measure(nu, req.potential, level=req.level,
                                  roof=req.roof, depth=REPLAY_DEPTH[req.level])
        achieved[0] = min(achieved[0], replay)
        achieved[1] = max(achieved[1], replay)
        if abs(replay - req.target) <= req.tolerance:
            nu.label = "realized:g%g:t%r" % (x_gap, t_star)
            return nu
    if achieved[0] > achieved[1]:
        side = "no family could be evaluated"
    elif req.target < achieved[0]:
        side = "the target lies below that range"
    elif req.target > achieved[1]:
        side = "the target lies above that range"
    else:
        side = ("the target lies inside that range, but no refinement "
                "replayed within tolerance")
    raise BracketFailureError(
        "equilibrium families achieved pressure range (%.6g, %.6g) and "
        "never certified target %.6g within tolerance %g; %s" %
        (achieved[0], achieved[1], req.target, req.tolerance, side),
        achieved_range=tuple(achieved))
