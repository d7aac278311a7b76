"""Reproduction suites.

Each suite recomputes one acceptance claim from the current
configuration and compares against its committed expectation file. The
expectation files state tolerances and check kinds; reference values
are derived at run time from independent oracles (lap-number counts,
the half-level thresholds of the gap construction), so a perturbed
model re-derives its expectations instead of comparing against stale
constants.

Check kinds: `rel` (relative error vs the oracle), `le`/`ge` (actual
within tol of a derived bound), `exact` (bitwise equality), `true`
(boolean claim).
"""

import json
from importlib import resources

from .catalog import DEFAULT_RECIPE, build_catalog, equilibrium_label
from .errors import PreconditionError
from .potentials import ConstantPotential, CoordinatePotential, \
    SectionGridPotential
from .pressure import (catalog_pressures, estimate_P_bounds, pressure_measure,
                       pressure_separated, pressure_transfer)
from .spectrum import (REPLAY_DEPTH, TargetRequest, gap_construction,
                       realize_intermediate)
from .symbolic import lap_count


def load_expectations(suite):
    path = resources.files("geolorenz").joinpath("repro_data",
                                                 suite + ".json")
    with path.open("r", encoding="ascii") as fh:
        return json.load(fh)


def _evaluate_checks(spec, actuals, references):
    checks = []
    for item in spec["checks"]:
        name = item["name"]
        kind = item["kind"]
        actual = actuals[name]
        reference = references.get(name, item.get("reference"))
        tol = item.get("tol", 0.0)
        if kind == "rel":
            passed = abs(actual - reference) <= tol * abs(reference)
        elif kind == "le":
            passed = actual <= reference + tol
        elif kind == "ge":
            passed = actual >= reference - tol
        elif kind == "exact":
            passed = actual == reference
        elif kind == "true":
            passed = bool(actual)
        else:
            raise PreconditionError("unknown check kind %r" % kind)
        checks.append({"name": name, "kind": kind, "actual": actual,
                       "reference": reference, "tol": tol,
                       "passed": bool(passed)})
    return checks


def _lap_oracle(lmap, lengths):
    """Entropy from the growth of admissible word counts.

    Independent of the transfer machinery: the count of length-n
    admissible words is the lap number of f^n, counted exactly from the
    kneading pair (`lap_count`, the Milnor-Thurston recurrence) without
    building a cylinder level, and the ratio of consecutive counts
    estimates e^h.
    """
    import math

    n_lo, n_hi = lengths
    c_lo = lap_count(lmap, n_lo)
    c_hi = lap_count(lmap, n_hi)
    return math.log(c_hi / c_lo), c_lo, c_hi


def run_entropy(config, lmap):
    spec = load_expectations("entropy")
    zero = ConstantPotential(0.0)
    oracle, c_lo, c_hi = _lap_oracle(lmap, spec["lap_lengths"])
    transfer = pressure_transfer(lmap, zero, depth=spec["transfer_depth"])
    separated = pressure_separated(lmap, zero, n=spec["separated_n"],
                                   eps=spec["separated_eps"])
    actuals = {"transfer_vs_lap_oracle": transfer.value,
               "separated_vs_lap_oracle": separated.value}
    references = {"transfer_vs_lap_oracle": oracle,
                  "separated_vs_lap_oracle": oracle}
    checks = _evaluate_checks(spec, actuals, references)
    payload = {"suite": "entropy",
               "lap_counts": {"lengths": spec["lap_lengths"],
                              "counts": [c_lo, c_hi]},
               "lap_oracle": oracle,
               "transfer": transfer.as_dict(),
               "separated": separated.as_dict(),
               "checks": checks}
    return payload, checks


def _variational_seed(lmap, depth, seed):
    phi = SectionGridPotential.seeded(seed)
    transfer = pressure_transfer(lmap, phi, depth=depth)
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    pool, values = catalog_pressures(catalog, phi, level="map")
    label = equilibrium_label(DEFAULT_RECIPE.horseshoes[0], 1.0)
    equilibrium = next((v for m, v in zip(pool, values) if m.id == label),
                       None)
    return {"seed": seed, "transfer": transfer.value,
            "catalog_sup": max(values), "equilibrium": equilibrium}


def run_variational(config, lmap):
    spec = load_expectations("variational")
    rows = [_variational_seed(lmap, spec["transfer_depth"], s)
            for s in spec["seeds"]]
    worst_sup = max(r["catalog_sup"] - r["transfer"] for r in rows)
    worst_eq = max(r["transfer"] - r["equilibrium"] for r in rows)
    actuals = {"catalog_sup_minus_transfer": worst_sup,
               "transfer_minus_equilibrium": worst_eq}
    checks = _evaluate_checks(spec, actuals, {})
    payload = {"suite": "variational", "rows": rows, "checks": checks}
    return payload, checks


def run_intermediate(config, lmap):
    spec = load_expectations("intermediate")
    roof = config.make_roof()
    phi = CoordinatePotential()
    catalog = build_catalog(lmap, phi, DEFAULT_RECIPE)
    count = spec["target_count"]
    rows = []
    worst = {"map": 0.0, "flow": 0.0}
    for level, tol in (("map", spec["map_tolerance"]),
                       ("flow", spec["flow_tolerance"])):
        roof_arg = roof if level == "flow" else None
        p_inf, p_top = estimate_P_bounds(catalog, phi, level=level,
                                         roof=roof_arg)
        for k in spec["target_indices"]:
            target = p_inf + k * (p_top - p_inf) / count
            req = TargetRequest(lmap, phi, target, tol, level=level,
                                roof=roof_arg, catalog=catalog)
            nu = realize_intermediate(req)
            replay = pressure_measure(nu, phi, level=level, roof=roof_arg,
                                      depth=REPLAY_DEPTH[level])
            err = abs(replay - target)
            worst[level] = max(worst[level], err)
            rows.append({"level": level, "k": k, "target": target,
                         "achieved": replay, "error": err,
                         "measure_id": nu.id})
    actuals = {"map_worst_replay_error": worst["map"],
               "flow_worst_replay_error": worst["flow"]}
    checks = _evaluate_checks(spec, actuals, {})
    payload = {"suite": "intermediate", "rows": rows, "checks": checks}
    return payload, checks


def run_gap(config, lmap):
    spec = load_expectations("gap")
    h_est, bump, report, scan = gap_construction(
        lmap, config.make_roof(), spec["margin"], spec["eta"],
        slack=spec["report_slack"])
    L = bump.value_at_sigma()
    above = scan.measures_above_gap()
    flagged = [mid for mid in report.flagged_ids() if mid != "delta_sigma"]
    actuals = {
        "delta_pressure_minus_L": report.delta_pressure - L,
        "sup_satisfying_minus_half_L": report.sup_satisfying - 0.5 * L,
        "largest_gap_minus_half_L": scan.gap_size - 0.5 * L,
        "delta_sole_above_gap": above == ["delta_sigma"],
        "near_singular_flagged": len(flagged) > 0,
        "certified": report.certified,
    }
    checks = _evaluate_checks(spec, actuals, {})
    payload = {"suite": "gap", "h_top_est": h_est,
               "report": report.as_dict(), "spectrum": scan.as_dict(),
               "flagged": flagged, "checks": checks}
    return payload, checks


_RUNNERS = {"entropy": run_entropy, "variational": run_variational,
            "intermediate": run_intermediate, "gap": run_gap}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(suite, config):
    """Run one suite or `all`; returns (payloads, checks, all_passed, errors).

    The model's map is made once and handed to every suite, so the suites
    of one run share the model's store (see `symbolic.model_store`); a
    model the map rejects raises `PreconditionError` before any suite
    runs. A suite that raises `PreconditionError` contributes no payload
    and no checks; it is listed in `errors` as {"suite", "message"} and
    the remaining suites still run. `all_passed` is False when any suite
    failed that way.
    """
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _RUNNERS:
        names = (suite,)
    else:
        raise PreconditionError(
            "unknown suite %r; choose from %s or 'all'"
            % (suite, ", ".join(SUITE_NAMES)))
    lmap = config.make_model().base
    payloads = {}
    all_checks = []
    errors = []
    for name in names:
        try:
            payload, checks = _RUNNERS[name](config, lmap)
        except PreconditionError as exc:
            errors.append({"suite": name, "message": str(exc)})
            continue
        payloads["repro_" + name] = payload
        all_checks.extend({"suite": name, **c} for c in checks)
    passed = not errors and all(c["passed"] for c in all_checks)
    return payloads, all_checks, passed, errors
