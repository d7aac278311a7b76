"""Command-line interface.

Subcommands: validate, orbits, horseshoe, measure-stats, pressure,
realize, spectrum, gap-demo, repro. Every command reads one RunConfig
(defaults, or --config FILE), writes payload files plus a provenance
envelope into the output directory, and exits 0 on success, 2 when a
computed report fails its own verdict (model axiom failure, uncertified
gap, repro mismatch), 3 on precondition violations, 4 on config errors.
A repro suite that violates a precondition does not discard the others:
their payloads are written, repro_summary lists the failure under
"errors", and the exit code is 3.

The output directory resolves as --out, then $GEOLORENZ_OUT, then the
configured output.dir.
"""

import argparse
import os
import sys

from .catalog import build_catalog
from .config import default_config, load_config
from .errors import ConfigError, GeolorenzError
from .measures import ball_fractions, measure_from_payload, suspend_many
# unused here, kept since benchmarks/test_benchmark.py checks that the
# tracer wraps this binding
from .measures import suspend
from .model import validate_model
from .potentials import parse_potential_spec
from .pressure import pressure_separated, pressure_transfer
from .report import Emitter
from .repro import SUITE_NAMES, run_suite
from .spectrum import (REPLAY_DEPTH, TargetRequest, gap_construction,
                       realize_intermediate, spectrum_scan, stats_rows)
from .symbolic import build_horseshoe, enumerate_periodic, \
    strongly_connected_components

TABLE_COLUMNS = ("measure_id", "entropy_map", "mean_roof", "h_flow",
                 "integral", "pressure", "ball_fraction", "hypothesis_flag")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="geolorenz",
        description="Pressure-spectrum computations for a geometric "
                    "Lorenz semiflow model")
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--out", help="output directory override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the model axioms")
    p.add_argument("--grid-density", type=int, default=1000)

    p = sub.add_parser("orbits", help="enumerate periodic orbits")
    p.add_argument("--max-period", type=int, default=8)

    p = sub.add_parser("horseshoe", help="build one pruned subshift")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--x-gap", type=float, default=0.002)

    p = sub.add_parser("measure-stats",
                       help="flow-level statistics of the catalog")
    p.add_argument("--potential", required=True)
    p.add_argument("--ball-radius", type=float, default=0.2)

    p = sub.add_parser("pressure", help="topological pressure estimate")
    p.add_argument("--method", choices=("transfer", "separated"),
                   default="transfer")
    p.add_argument("--potential", required=True)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--n", type=int, default=18)
    p.add_argument("--eps", type=float, default=1e-3)

    p = sub.add_parser("realize",
                       help="ergodic measure of prescribed pressure")
    p.add_argument("--potential", required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--level", choices=("map", "flow"), default="map")

    p = sub.add_parser("spectrum", help="catalog pressure spectrum")
    p.add_argument("--potential", required=True)
    p.add_argument("--level", choices=("map", "flow"), default="map")

    p = sub.add_parser("gap-demo",
                       help="build and verify the pressure-gap potential")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--catalog", help="JSON file of measure payloads")

    p = sub.add_parser("repro", help="re-run committed expectation suites")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    return parser


def _resolve_outdir(args, config):
    if args.out:
        return args.out
    env = os.environ.get("GEOLORENZ_OUT")
    if env:
        return env
    return config["output.dir"]


def _cmd_validate(args, config, emitter):
    report = validate_model(config.make_model(), args.grid_density)
    emitter.emit_json("validate", report.as_dict())
    emitter.emit_csv("validate",
                     ("name", "passed"),
                     [{"name": c["name"], "passed": c["passed"]}
                      for c in report.checks])
    if not report.all_pass:
        print("model axioms failed: %s" % ", ".join(report.failed_names()),
              file=sys.stderr)
        return 2
    return 0


def _cmd_orbits(args, config, emitter):
    lmap = config.make_model().base
    rows = [{"word": o.word, "period": o.period, "point": o.point,
             "multiplier": o.multiplier}
            for o in enumerate_periodic(lmap, args.max_period)]
    emitter.emit_json("orbits", {"max_period": args.max_period,
                                 "orbits": rows})
    emitter.emit_csv("orbits", ("word", "period", "point", "multiplier"),
                     rows)
    return 0


def _cmd_horseshoe(args, config, emitter):
    lmap = config.make_model().base
    horseshoe = build_horseshoe(lmap, args.depth, args.x_gap)
    comps = strongly_connected_components(horseshoe)
    payload = {"depth": args.depth, "x_gap": args.x_gap,
               "n_vertices": horseshoe.n_vertices,
               "n_edges": horseshoe.edge_count(),
               "n_components": len(comps),
               "largest_component": max(len(c) for c in comps)}
    emitter.emit_json("horseshoe", payload)
    return 0


def _make_catalog(config, potential):
    lmap = config.make_model().base
    return build_catalog(lmap, potential, config.make_recipe())


def _cmd_measure_stats(args, config, emitter):
    potential = parse_potential_spec(args.potential)
    roof = config.make_roof()
    catalog = _make_catalog(config, potential)
    # one pass of the section integrator for the whole catalog; each row
    # gets the floats of its member alone
    stats = suspend_many(catalog, roof, potential)
    rows = stats_rows(stats, ball_fractions(stats, args.ball_radius))
    emitter.emit_json("measure_stats",
                      {"potential": args.potential,
                       "ball_radius": args.ball_radius, "rows": rows})
    emitter.emit_csv("measure_stats", TABLE_COLUMNS, rows)
    return 0


def _cmd_pressure(args, config, emitter):
    lmap = config.make_model().base
    potential = parse_potential_spec(args.potential)
    if args.method == "transfer":
        estimate = pressure_transfer(lmap, potential, depth=args.depth)
    else:
        estimate = pressure_separated(lmap, potential, n=args.n,
                                      eps=args.eps)
    emitter.emit_json("pressure", {"potential": args.potential,
                                   "estimate": estimate.as_dict()})
    return 0


def _cmd_realize(args, config, emitter):
    lmap = config.make_model().base
    potential = parse_potential_spec(args.potential)
    roof = config.make_roof() if args.level == "flow" else None
    catalog = _make_catalog(config, potential)
    req = TargetRequest(lmap, potential, args.target, args.tol,
                        level=args.level, roof=roof, catalog=catalog)
    nu = realize_intermediate(req)
    from .pressure import pressure_measure

    achieved = pressure_measure(nu, potential, level=args.level, roof=roof,
                                depth=REPLAY_DEPTH[args.level])
    emitter.emit_json("realize", {
        "potential": args.potential, "level": args.level,
        "target": args.target, "tolerance": args.tol,
        "achieved": achieved, "error": abs(achieved - args.target),
        "measure_id": nu.id, "measure": nu.to_payload()})
    return 0


def _cmd_spectrum(args, config, emitter):
    potential = parse_potential_spec(args.potential)
    roof = config.make_roof() if args.level == "flow" else None
    catalog = _make_catalog(config, potential)
    scan = spectrum_scan(potential, catalog, level=args.level, roof=roof)
    emitter.emit_json("spectrum", {"potential": args.potential,
                                   **scan.as_dict()})
    emitter.emit_csv("spectrum", ("measure_id", "pressure"),
                     [{"measure_id": mid, "pressure": v}
                      for mid, v in scan.entries])
    return 0


def _load_catalog_file(path, lmap):
    import json

    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read catalog file %s: %s" % (path, exc))
    if not isinstance(doc, dict) or not isinstance(doc.get("measures"), list):
        raise ConfigError(
            "catalog file %s must be {\"measures\": [...]}" % path)
    measures = []
    core = []
    # a malformed entry is a config error; a well-formed one outside its
    # contract (an inadmissible word) stays a PreconditionError
    for index, payload in enumerate(doc["measures"]):
        try:
            m = measure_from_payload(lmap, payload)
        except (LookupError, TypeError, ValueError) as exc:
            raise ConfigError("catalog file %s: malformed entry %d: %s: %s"
                              % (path, index, type(exc).__name__, exc))
        measures.append(m)
        if not payload.get("demonstrator", False):
            core.append(m)
    return measures, core


def _cmd_gap_demo(args, config, emitter):
    lmap = config.make_model().base
    measures = core = None  # gap_construction builds the default catalogs
    if args.catalog:
        measures, core = _load_catalog_file(args.catalog, lmap)
    h_est, _, report, scan = gap_construction(
        lmap, config.make_roof(), args.margin, args.eta, core=core,
        measures=measures)
    emitter.emit_json("gap_report", {"h_top_est": h_est,
                                     **report.as_dict()})
    emitter.emit_csv("gap_report", TABLE_COLUMNS, report.rows)
    emitter.emit_json("gap_spectrum", scan.as_dict())
    emitter.emit_csv("gap_spectrum", ("measure_id", "pressure"),
                     [{"measure_id": mid, "pressure": v}
                      for mid, v in scan.entries])
    if not report.certified:
        print("gap not certified: sup over hypothesis-satisfying measures "
              "is %r against bound %.6g" %
              (report.sup_satisfying, 0.5 * report.L + report.slack),
              file=sys.stderr)
        return 2
    return 0


def _cmd_repro(args, config, emitter):
    payloads, checks, passed, errors = run_suite(args.suite, config)
    for name in sorted(payloads):
        emitter.emit_json(name, payloads[name])
    summary = {"suite": args.suite, "passed": passed, "checks": checks}
    if errors:
        summary["errors"] = errors
    emitter.emit_json("repro_summary", summary)
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print("%s %s/%s actual=%r reference=%r tol=%r" %
              (status, c["suite"], c["name"], c["actual"], c["reference"],
               c["tol"]))
    for e in errors:
        print("precondition violated in suite %s: %s"
              % (e["suite"], e["message"]), file=sys.stderr)
    if errors:
        return 3
    return 0 if passed else 2


_COMMANDS = {"validate": _cmd_validate, "orbits": _cmd_orbits,
             "horseshoe": _cmd_horseshoe,
             "measure-stats": _cmd_measure_stats,
             "pressure": _cmd_pressure, "realize": _cmd_realize,
             "spectrum": _cmd_spectrum, "gap-demo": _cmd_gap_demo,
             "repro": _cmd_repro}


def run(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        emitter = Emitter(_resolve_outdir(args, config),
                          fmt=config["output.format"])
        code = _COMMANDS[args.command](args, config, emitter)
        emitter.finish(config)
        return code
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 4
    except GeolorenzError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
