"""Pressure estimators: equivariance, monotonicity, oracles, equilibria."""

import functools
import math

import numpy as np
import pytest

from geolorenz import measures, pressure, symbolic
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


def _count_scc_runs(monkeypatch):
    calls = []
    real = symbolic.strongly_connected_components

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(symbolic, "strongly_connected_components", counting)
    monkeypatch.setattr(measures, "strongly_connected_components", counting)
    return calls


def test_equilibrium_family_decomposes_once(monkeypatch, fresh_model_cache,
                                            lmap, coord):
    # one SCC run for the horseshoe and one for the sub-SFT that all
    # measures share; each measure's irreducibility check (its support is
    # the whole sub-SFT) reads the sub-SFT's stored decomposition
    hs = build_horseshoe(lmap, 8, 0.002)
    calls = _count_scc_runs(monkeypatch)
    family = [equilibrium_measure(lmap, hs, coord, t=t)
              for t in (-2.0, 0.0, 0.5, 0.75, 2.0)]
    assert all(eq.horseshoe is family[0].horseshoe for eq in family)
    assert len(calls) == 2
    assert calls[0] is hs and calls[1] is family[0].horseshoe
    # an irreducible horseshoe is its own one cyclic component
    assert family[0].horseshoe.cyclic_components()[0][1] is calls[1]


def test_catalogs_share_the_model_horseshoes(monkeypatch, fresh_model_cache,
                                             lmap, coord):
    # the horseshoe, its sub-SFT and the periodic orbits depend on the
    # model alone: a second potential builds and decomposes nothing anew
    calls = _count_scc_runs(monkeypatch)
    first = build_catalog(lmap, coord)
    runs = len(calls)
    assert runs == len({id(graph) for graph in calls})  # once per graph
    second = build_catalog(lmap, SectionGridPotential.seeded(3))
    assert len(calls) == runs
    markov = [(a, b) for a, b in zip(first, second) if a.variant == "markov"]
    assert markov
    assert all(a.horseshoe is b.horseshoe for a, b in markov)
    assert build_horseshoe(lmap, 12, 0.002).cyclic_components()[0][1] \
        is markov[0][0].horseshoe
    atomic = [(a, b) for a, b in zip(first, second) if a.variant == "atomic"]
    assert all(a.orbit is b.orbit for a, b in atomic)


def test_transfer_fallback_scores_cyclic_components(monkeypatch, lmap):
    # on the hand-built graph of test_equilibrium_scores_self_loop_singleton
    # the 2-cycle {LR, RL} with weights 2, 2 beats the self-loop at RR
    # with weight 1, so the unshifted iteration oscillates and the
    # per-component fallback must find lambda = 2
    words = ("LL", "LR", "RL", "RR")
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    pot = _VertexWeights(hs, [1.0, 2.0, 2.0, 1.0])
    pot.lipschitz_bound = lambda: 0.0
    monkeypatch.setattr(pressure, "full_shift_sft", lambda lm, depth: hs)
    estimate = pressure_transfer(lmap, pot, depth=2)
    assert estimate.params["fallback"] == "per-component"
    assert estimate.value == pytest.approx(math.log(2.0), rel=0.0, abs=1e-12)


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
        value, h, g, _, _ = real(*args, **kwargs)
        return value, h, g, 20000, False

    monkeypatch.setattr(pressure, "_weighted_power", stalled)
    with pytest.raises(PreconditionError, match="20000 iterations"):
        equilibrium_measure(lmap, horseshoe6, coord, t=1.0)


def _weighted(graph, potential, t):
    """Dense M[u][v] = A(u,v) * e^(t*phi(mid v))."""
    phi = potential.value(graph.midpoints)
    return graph.adjacency_matrix() * np.exp(t * phi)[None, :]


def _check_against_dense_eigendata(lmap, hs, potential, t):
    # an oracle sharing no code with the power solver: numpy's dense
    # eigendecomposition of the weighted matrix and of the transition matrix
    eq = equilibrium_measure(lmap, hs, potential, t=t)
    sub = eq.horseshoe
    # the spectral radius of the whole horseshoe's matrix is the largest
    # Perron root over its components; h + t*integral recovers log lambda
    rho = np.max(np.abs(np.linalg.eigvals(_weighted(hs, potential, t))))
    phi = potential.value(sub.midpoints)
    log_lam = entropy_map(eq) + t * float(eq.stationary @ phi)
    assert log_lam == pytest.approx(math.log(rho), abs=1e-10)
    mat = _weighted(sub, potential, t)
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(vals.real))
    lam = vals[k].real
    h = np.abs(vecs[:, k].real)
    assert lam == pytest.approx(rho, rel=1e-12)
    np.testing.assert_allclose(eq.transition_matrix(),
                               mat * h[None, :] / (lam * h[:, None]),
                               rtol=0.0, atol=1e-10)
    vals, vecs = np.linalg.eig(eq.transition_matrix().T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.abs(vecs[:, k].real)
    np.testing.assert_allclose(eq.stationary, pi / pi.sum(),
                               rtol=0.0, atol=1e-10)
    return eq


@pytest.mark.parametrize("t", [-6.0, -2.0, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("depth", [6, 8])
def test_equilibrium_matches_dense_eigendata(lmap, coord, depth, t):
    hs = build_horseshoe(lmap, depth, 0.002)
    _check_against_dense_eigendata(lmap, hs, coord, t)


def test_equilibrium_on_period_two_component_matches_dense(lmap, coord):
    # the hand-built graph of test_equilibrium_scores_self_loop_singleton:
    # at t = -2 the 2-cycle {LR, RL} wins, whose matrix has eigenvalues
    # +lambda and -lambda, so only the shifted iteration converges
    words = ("LL", "LR", "RL", "RR")
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    eq = _check_against_dense_eigendata(lmap, hs, coord, -2.0)
    assert eq.horseshoe.vertices == ("LR", "RL")


class _VertexWeights:
    """Potential whose value at each vertex midpoint is log of a chosen weight."""

    def __init__(self, horseshoe, weights):
        self.table = dict(zip(horseshoe.midpoints.tolist(),
                              np.log(weights).tolist()))

    def value(self, x, y=0.0):
        return np.array([self.table[m] for m in np.asarray(x).tolist()])


def test_equilibrium_rejects_unconverged_left_vector(monkeypatch, lmap):
    # on the full 2-shift of length-2 words, weights 1, 3, 2, 2 give every
    # row of M the sum 4: the right vector is uniform and converges in one
    # step, the left vector is (1, 3, 3, 3) and does not
    words = ("LL", "LR", "RL", "RR")
    adj = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    pot = _VertexWeights(hs, [1.0, 3.0, 2.0, 2.0])
    eq = equilibrium_measure(lmap, hs, pot, t=1.0)
    np.testing.assert_allclose(eq.stationary, [0.1, 0.3, 0.3, 0.3],
                               rtol=0.0, atol=1e-12)
    real = pressure._weighted_power
    lw = pot.value(hs.midpoints)
    assert real(hs.succ, lw, shift=True, max_iter=1)[4]
    assert not real(hs.succ, lw, shift=True, left=True, max_iter=1)[4]
    monkeypatch.setattr(pressure, "_weighted_power",
                        functools.partial(real, max_iter=1))
    with pytest.raises(PreconditionError, match="in 1 iterations"):
        equilibrium_measure(lmap, hs, pot, t=1.0)


def test_shifted_power_on_period_three_cycle():
    # LL -> LR -> RL -> LL is the only cycle, so lambda^3 is the product of
    # the weights e^0, e^-5, e^3 and log lambda is their mean, -2/3. The
    # matrix has period 3, so only a shifted iteration converges; after
    # max-normalization lambda is e^(-11/3), and a fixed shift of 1 took
    # 677 iterations here
    succ = {"L": np.array([-1, 2, 0]), "R": np.array([1, -1, -1])}
    lw = np.array([0.0, -5.0, 3.0])
    value, h, g, iterations, converged = pressure._weighted_power(
        succ, lw, shift=True, left=True)
    assert converged
    assert iterations <= 100
    assert value == pytest.approx(-2.0 / 3.0, rel=0.0, abs=1e-12)
    # lambda h_u = (M h)_u = e^(lw[v]) h_v for the one successor v of u
    lam = math.exp(-2.0 / 3.0)
    want = np.ones(3)
    want[1] = lam * want[0] / math.exp(lw[1])
    want[2] = lam * want[1] / math.exp(lw[2])
    np.testing.assert_allclose(h, want / want.max(), rtol=1e-10, atol=0.0)


def test_perron_root_at_strong_negative_tilt(lmap, horseshoe12, coord):
    # at t = -6 the max-normalized Perron root is about 0.04; against the
    # dense spectral radius of the whole weighted matrix, in few iterations
    t = -6.0
    lw = t * coord.value(horseshoe12.midpoints)
    solves = [pressure._weighted_power(sub.succ, lw[comp], shift=True,
                                       left=True)
              for comp, sub in horseshoe12.cyclic_components()]
    assert all(s[4] for s in solves)
    assert max(s[3] for s in solves) <= 150
    rho = np.max(np.abs(np.linalg.eigvals(_weighted(horseshoe12, coord, t))))
    assert abs(math.exp(max(s[0] for s in solves)) / rho - 1.0) <= 1e-11
