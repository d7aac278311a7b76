"""Pressure estimators: equivariance, monotonicity, oracles, equilibria."""

import math

import numpy as np
import pytest

from geolorenz import pressure, symbolic
from geolorenz import (
    ConstantPotential,
    CoordinatePotential,
    LorenzMap1D,
    PreconditionError,
    SFTHorseshoe,
    SectionGridPotential,
    build_catalog,
    build_horseshoe,
    entropy_map,
    equilibrium_measure,
    estimate_P_bounds,
    h_top_estimate,
    integrate_map,
    pressure_measure,
    pressure_separated,
    pressure_transfer,
)
from geolorenz.catalog import CatalogRecipe


class Shifted:
    """A potential plus a constant, for equivariance checks."""

    def __init__(self, base, c):
        self.base = base
        self.c = c

    def value(self, x, y=0.0):
        return self.base.value(x, y) + self.c

    def midpoint_error(self, lo, hi):
        return self.base.midpoint_error(lo, hi)

    def abs_bound(self, lo, hi):
        return self.base.abs_bound(lo, hi) + abs(self.c)

    def lipschitz_bound(self):
        return self.base.lipschitz_bound()

    def value_at_sigma(self):
        return self.base.value_at_sigma() + self.c

    def spec_string(self):
        return "shifted"


@pytest.fixture(scope="module")
def grid_pot():
    return SectionGridPotential.seeded(4)


def test_transfer_entropy_at_zero_potential(lmap):
    est = pressure_transfer(lmap, ConstantPotential(0.0), depth=12)
    assert est.value == pytest.approx(math.log(1.7), rel=0.01)
    assert est.method == "transfer"
    assert est.slack > 0.0 and math.isfinite(est.slack)
    assert est.params["depth"] == 12


def test_h_top_closed_form_at_unit_exponent(lmap):
    assert h_top_estimate(lmap) == pytest.approx(math.log(1.7), abs=1e-12)
    lm = LorenzMap1D(alpha=0.9, beta=1.8)
    est = pressure_transfer(lm, ConstantPotential(0.0), depth=12).value
    assert h_top_estimate(lm) == pytest.approx(est, abs=1e-9)


def test_constant_shift_equivariance(lmap, coord, grid_pot):
    c = 0.37
    for pot in (coord, grid_pot):
        shifted = Shifted(pot, c)
        t0 = pressure_transfer(lmap, pot, depth=10).value
        t1 = pressure_transfer(lmap, shifted, depth=10).value
        assert t1 - t0 == pytest.approx(c, abs=1e-9)
        s0 = pressure_separated(lmap, pot, 10, 1e-2).value
        s1 = pressure_separated(lmap, shifted, 10, 1e-2).value
        assert s1 - s0 == pytest.approx(c, abs=1e-9)


def test_constant_shift_exact_for_measures(lmap, horseshoe12, coord):
    c = -0.83
    eq = equilibrium_measure(lmap, horseshoe12, coord, t=1.0)
    p0 = pressure_measure(eq, coord)
    p1 = pressure_measure(eq, Shifted(coord, c))
    assert p1 - p0 == pytest.approx(c, abs=1e-12)


def test_monotonicity_in_the_potential(lmap, grid_pot):
    bigger = Shifted(grid_pot, 0.25)
    assert (pressure_transfer(lmap, grid_pot, depth=10).value
            <= pressure_transfer(lmap, bigger, depth=10).value + 1e-9)
    assert (pressure_separated(lmap, grid_pot, 8, 1e-2).value
            <= pressure_separated(lmap, bigger, 8, 1e-2).value + 1e-9)


def test_separated_estimator_parameters(lmap):
    est = pressure_separated(lmap, ConstantPotential(0.0), 18, 1e-3)
    assert est.value == pytest.approx(math.log(1.7), rel=0.05)
    assert est.method == "separated"
    assert est.params["n"] == 18
    with pytest.raises(PreconditionError):
        pressure_separated(lmap, ConstantPotential(0.0), 0, 1e-3)
    with pytest.raises(PreconditionError):
        pressure_separated(lmap, ConstantPotential(0.0), 10, 0.0)
    # coarser pitch than eps/4 is out of contract
    with pytest.raises(PreconditionError):
        pressure_separated(lmap, ConstantPotential(0.0), 10, 1e-2,
                           pitch_divisor=2)


def test_transfer_depth_guard(lmap):
    with pytest.raises(PreconditionError):
        pressure_transfer(lmap, ConstantPotential(0.0), depth=0)
    with pytest.raises(PreconditionError):
        pressure_transfer(lmap, ConstantPotential(0.0), depth=99)


def test_variational_inequality_on_catalog(lmap, grid_pot):
    catalog = build_catalog(lmap, grid_pot)
    transfer = pressure_transfer(lmap, grid_pot, depth=12).value
    for m in catalog:
        if m.id == "delta_sigma":
            continue
        assert pressure_measure(m, grid_pot) <= transfer + 0.02, m.id


def test_equilibrium_attains_the_supremum(lmap, horseshoe12, coord):
    # among the catalog members, the active-potential equilibrium comes
    # within the pruning deficit of the transfer value
    eq = equilibrium_measure(lmap, horseshoe12, coord, t=1.0)
    p_eq = pressure_measure(eq, coord)
    transfer = pressure_transfer(lmap, coord, depth=12).value
    assert p_eq <= transfer + 0.02
    assert p_eq >= transfer - 0.02


def test_equilibrium_beats_other_members_on_its_horseshoe(
        lmap, horseshoe12, coord):
    eq = equilibrium_measure(lmap, horseshoe12, coord, t=1.0)
    parry = equilibrium_measure(lmap, horseshoe12, ConstantPotential(0.0),
                                t=0.0)
    p_eq = pressure_measure(eq, coord)
    assert p_eq >= pressure_measure(parry, coord) - 1e-9


def test_pressure_function_is_convex_in_t(lmap, horseshoe12, coord):
    def g(t):
        eq = equilibrium_measure(lmap, horseshoe12, coord, t=t)
        h = entropy_map(eq)
        v, _ = integrate_map(coord, eq)
        return h + t * v

    for a, b in ((-2.0, 2.0), (-1.0, 3.0), (0.0, 1.0)):
        assert g(0.5 * (a + b)) <= 0.5 * (g(a) + g(b)) + 1e-9


def test_parry_entropy_matches_dense_eigenvalue(lmap):
    # brute-force spectral radius of the adjacency as an oracle
    hs = build_horseshoe(lmap, 6, 0.002)
    eq = equilibrium_measure(lmap, hs, ConstantPotential(0.0), t=0.0)
    sub = eq.horseshoe
    lam = np.max(np.abs(np.linalg.eigvals(sub.adjacency_matrix())))
    assert entropy_map(eq) == pytest.approx(math.log(lam), abs=1e-9)


def test_estimate_bounds_orders_and_flags(lmap, coord):
    catalog = build_catalog(lmap, coord)
    bounds = estimate_P_bounds(catalog, coord)
    p_inf, p_top = bounds
    assert p_inf < p_top
    assert not bounds.shortfall_flagged
    assert bounds.transfer_value is not None
    # a catalog of a single zero-entropy orbit cannot reach the transfer
    # value, which must be flagged rather than silently accepted
    thin = build_catalog(lmap, coord, CatalogRecipe(periods=(2,)))
    assert estimate_P_bounds(thin, coord).shortfall_flagged


def test_estimate_bounds_level_guard(lmap, coord):
    catalog = build_catalog(lmap, coord,
                            CatalogRecipe(include_delta=True))
    with pytest.raises(PreconditionError):
        estimate_P_bounds(catalog, coord)  # only the Dirac at map level


def test_equilibrium_family_decomposes_once(monkeypatch, lmap, coord):
    hs = build_horseshoe(lmap, 8, 0.002)
    calls = []
    real = symbolic.strongly_connected_components

    def counting(graph):
        if graph is hs:
            calls.append(graph)
        return real(graph)

    monkeypatch.setattr(symbolic, "strongly_connected_components", counting)
    family = [equilibrium_measure(lmap, hs, coord, t=t)
              for t in (-2.0, 0.0, 0.5, 0.75, 2.0)]
    assert len(calls) == 1
    assert all(eq.horseshoe is family[0].horseshoe for eq in family)


def test_equilibrium_scores_self_loop_singleton(lmap, coord):
    # components: {LL} acyclic, {LR, RL} a 2-cycle, {RR} a self-loop;
    # at t = 1 the coordinate potential favours the self-loop at RR
    words = ("LL", "LR", "RL", "RR")
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    assert [len(c) for c, _ in hs.cyclic_components()] == [2, 1]
    eq = equilibrium_measure(lmap, hs, coord, t=1.0)
    assert eq.horseshoe.vertices == ("RR",)
    assert entropy_map(eq) == 0.0


def test_equilibrium_rejects_unconverged_perron(monkeypatch, lmap,
                                                horseshoe6, coord):
    real = pressure._weighted_power

    def stalled(*args, **kwargs):
        value, vec, _, _ = real(*args, **kwargs)
        return value, vec, 20000, False

    monkeypatch.setattr(pressure, "_weighted_power", stalled)
    with pytest.raises(PreconditionError, match="20000 iterations"):
        equilibrium_measure(lmap, horseshoe6, coord, t=1.0)
