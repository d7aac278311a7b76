"""Realizing every intermediate pressure value with an ergodic measure.

The measure-theoretic pressures h + int(phi) of ergodic measures fill
the whole interval between a floor attained by orbit atoms and the
ceiling attained by the equilibrium state. This script asks for nine
evenly spaced targets inside that interval, at map level and at flow
level, and checks each returned measure by an independent replay at a
deeper cylinder depth.
"""

from geolorenz import (CoordinatePotential, LorenzMap1D, RoofFunction,
                       TargetRequest, build_catalog, estimate_P_bounds,
                       pressure_measure, pressure_transfer,
                       realize_intermediate)


def sweep(lmap, pot, catalog, level, tol, roof=None):
    p_inf, p_top = estimate_P_bounds(catalog, pot, level=level, roof=roof)
    print("%s level: attainable pressures span [%.4f, %.4f], tol %g"
          % (level, p_inf, p_top, tol))
    print("  %-10s %-10s %-9s %s" % ("target", "replayed", "error", "measure"))
    for k in range(1, 10):
        target = p_inf + k * (p_top - p_inf) / 10.0
        req = TargetRequest(lmap, pot, target, tol, level=level, roof=roof,
                            catalog=catalog)
        nu = realize_intermediate(req)
        replay = pressure_measure(nu, pot, level=level, roof=roof, depth=18)
        print("  %-10.4f %-10.4f %-9.1e %s"
              % (target, replay, abs(replay - target), nu.id))
    print()


def main():
    lmap = LorenzMap1D(alpha=1.0, beta=1.7)
    pot = CoordinatePotential()
    roof = RoofFunction(c0=1.0, c1=1.0, eta0=0.5)
    catalog = build_catalog(lmap, pot)

    top = pressure_transfer(lmap, pot, depth=12).value
    print("transfer-operator pressure of phi(x,y) = x: %.6f\n" % top)

    sweep(lmap, pot, catalog, "map", 1e-3)
    sweep(lmap, pot, catalog, "flow", 1e-2, roof=roof)

    print("each row is an equilibrium measure on some pruned horseshoe,")
    print("found by refining the potential weight t (one bisection step,")
    print("then Illinois regula falsi) until the pressure of the")
    print("associated equilibrium state lands on the target.")


if __name__ == "__main__":
    main()
