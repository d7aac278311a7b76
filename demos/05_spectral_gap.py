"""A potential whose flow-level pressure spectrum has a certified gap.

The construction concentrates a tall bump of the potential near the
singular line. Measures that spend little time near the singularity
cannot collect much of the bump, so their flow pressures stay below
half the bump height; the Dirac measure at the singularity collects the
full height L. The verifier checks the near-singular-time hypothesis
for every member of a measure population and certifies the resulting
spectral gap. Two deliberately near-singular interlopers are included
to show the hypothesis check catching them.
"""

from geolorenz import (LorenzMap1D, RoofFunction, build_catalog,
                       gap_construction)
from geolorenz.catalog import GAP_DEMONSTRATOR_RECIPE


def main():
    lmap = LorenzMap1D(alpha=1.0, beta=1.7)
    roof = RoofFunction(c0=1.0, c1=1.0, eta0=0.5)

    # bump, default core and demonstrator population plus the Dirac,
    # certification and flow-level scan, in one call
    _, bump, report, scan = gap_construction(lmap, roof, margin=0.05,
                                             eta=0.1)
    print("bump height L = 4.2 * h_top = %.6f, support |x| < %.2f"
          % (report.L, 2 * bump.eta))

    demo_ids = {m.id for m in
                build_catalog(lmap, bump, GAP_DEMONSTRATOR_RECIPE)}
    print("population: %d core members, %d near-singular demonstrators, "
          "plus the singular Dirac measure\n"
          % (len(report.rows) - len(demo_ids) - 1, len(demo_ids)))

    print("%-26s %-10s %-10s %-12s %s"
          % ("measure", "pressure", "ball_frac", "hypothesis", "role"))
    for row in report.rows:
        role = ""
        if row["measure_id"] in demo_ids:
            role = "demonstrator"
        elif row["measure_id"] == "delta_sigma":
            role = "singular"
        print("%-26s %-10.4f %-10.4f %-12s %s"
              % (row["measure_id"], row["pressure"], row["ball_fraction"],
                 "ok" if row["hypothesis_flag"] else "VIOLATED", role))

    print("\nsup over hypothesis-satisfying members: %.6f (L/2 = %.6f)"
          % (report.sup_satisfying, 0.5 * report.L))
    print("pressure of the singular measure:       %.6f (= L exactly)"
          % report.delta_pressure)
    print("certified gap: %s, size %.6f"
          % (report.certified, report.gap_size))

    lo, hi = scan.gap_interval
    print("\nspectrum scan confirms: largest empty interval "
          "(%.4f, %.4f), above it only %s"
          % (lo, hi, scan.measures_above_gap()))


if __name__ == "__main__":
    main()
