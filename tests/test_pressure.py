"""Pressure estimators: equivariance, monotonicity, oracles, equilibria."""

import functools
import gc
import math
import re
import weakref

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
    SingularDeltaMeasure,
    build_catalog,
    build_horseshoe,
    cylinder_levels,
    entropy_map,
    enumerate_periodic,
    equilibrium_measure,
    estimate_P_bounds,
    h_top_estimate,
    integrate_map,
    pressure_measure,
    pressure_separated,
    pressure_transfer,
)
from geolorenz.catalog import CatalogRecipe
from geolorenz.potentials import parse_potential_spec


class Shifted:
    """A potential plus a constant, for equivariance checks."""

    def __init__(self, base, c):
        self.base = base
        self.c = c

    def value(self, x):
        return self.base.value(x) + self.c

    def midpoint_error(self, lo, hi):
        return self.base.midpoint_error(lo, hi)

    def abs_bound(self, lo, hi):
        return self.base.abs_bound(lo, hi) + abs(self.c)

    def lipschitz_bound(self):
        return self.base.lipschitz_bound()

    def value_at_sigma(self):
        return self.base.value_at_sigma() + self.c


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


def _separated_oracle(lmap, potential, n, eps, pitch_divisor=6):
    """(value, separated points) of the greedy scan as one loop per point.

    This is the scalar estimator that the run/block scan of
    `pressure_separated` replaced: grid, orbits and potential sums as
    there, then one sup-norm distance to the last kept orbit per point.
    """
    pitch = eps / pitch_divisor
    xs = np.linspace(-1.0, 1.0, int(math.floor(2.0 / pitch)) + 1)
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
        phi += np.asarray(potential.value(traj[j]))
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
    return value, len(kept)


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.45), (1.0, 1.7),
                                         (1.0, 1.945), (0.8, 1.985)])
def test_separated_scan_matches_greedy_loop(alpha, beta, grid_pot):
    # many dropped points at divisor 6 but at (18, 1e-3), where none
    # drops; at divisor 24 each stretch of dropped points spans two blocks
    lm = LorenzMap1D(alpha, beta)
    for n, eps, divisor in ((1, 0.1, 6), (2, 1e-3, 6), (5, 0.05, 6),
                            (18, 1e-3, 6), (1, 0.05, 24)):
        est = pressure_separated(lm, grid_pot, n, eps, divisor)
        value, points = _separated_oracle(lm, grid_pot, n, eps, divisor)
        assert est.params["separated_points"] == points
        assert est.value == value


def test_separated_scan_keeps_exact_ties():
    # here some orbit distances equal eps exactly, both between neighbours
    # inside a run and in a block scan; the greedy keeps such a point
    lm = LorenzMap1D(1.0, 1.75)
    coord = CoordinatePotential()
    est = pressure_separated(lm, coord, 2, 1.5, pitch_divisor=11)
    assert (est.value, est.params["separated_points"]) == _separated_oracle(
        lm, coord, 2, 1.5, pitch_divisor=11)
    assert est.params["separated_points"] == 4


def reference_separated(lmap, potential, n, eps, pitch_divisor=6):
    """`pressure_separated` as it was when every scan compressed its
    orbit matrix and summed the potential over one (n, m) matrix; kept
    verbatim as the oracle of the row-by-row sums."""
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
    traj = traj.compress(alive, axis=1)
    m = traj.shape[1]
    # C order: the sum over axis 0 adds the rows in orbit order, from 0.0
    phi = np.ascontiguousarray(potential.value(traj),
                               dtype=float).sum(axis=0, initial=0.0)

    step = np.zeros(m - 1)
    for row in traj:
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
    return pressure.PressureEstimate(value, "separated",
                                     {"n": n, "eps": eps, "pitch": pitch,
                                      "separated_points": int(keep.sum())},
                                     slack)


# beta = 1.5 maps the grid points +-2/3 to 0, so two orbits die on every
# grid there and the scan still compresses its orbit matrix
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.5), (1.0, 1.945),
                                         (0.8, 1.985)])
def test_separated_scan_matches_matrix_sum_reference(alpha, beta):
    lm = LorenzMap1D(alpha, beta)
    for spec in ("const:0.3", "coord:x", "grid:seed:7"):
        pot = parse_potential_spec(spec)
        for n, eps in ((18, 1e-3), (2, 1e-4), (2, 1e-3), (8, 1e-2)):
            got = pressure_separated(lm, pot, n, eps)
            want = reference_separated(lm, pot, n, eps)
            assert got.as_dict() == want.as_dict(), (spec, n, eps)


def test_transfer_depth_guard(lmap):
    # 12.5 used to reach build_horseshoe and be reported as a horseshoe
    # depth in [1, 23]
    for depth in (0, 15, 99, 12.5, 12.0, "12"):
        with pytest.raises(PreconditionError,
                           match=r"^transfer depth %s is not an integer in "
                           r"\[1, 14\]$" % re.escape(repr(depth))):
            pressure_transfer(lmap, ConstantPotential(0.0), depth=depth)


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
    with pytest.raises(PreconditionError):
        pressure_measure(SingularDeltaMeasure(), coord)  # alone, likewise


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
    # with weight 1, whose quotient stays at 1: the whole graph's bracket
    # never closes, and the per-component fallback must find lambda = 2
    words = ("LL", "LR", "RL", "RR")
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    pot = _VertexWeights(hs, [1.0, 2.0, 2.0, 1.0])
    pot.lipschitz_bound = lambda: 0.0
    monkeypatch.setattr(pressure, "build_horseshoe",
                        lambda lm, depth, x_gap: hs)
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


def test_equilibrium_rejects_unconverged_perron(monkeypatch, lmap, coord,
                                                fresh_model_cache):
    # a horseshoe with an empty memo, so the stalled solve really runs
    horseshoe6 = build_horseshoe(lmap, 6, 0.002)
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

    def value(self, x):
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
    # the stalled solve below runs on a copy with an empty memo
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    np.testing.assert_allclose(eq.stationary, [0.1, 0.3, 0.3, 0.3],
                               rtol=0.0, atol=1e-12)
    real = pressure._weighted_power
    lw = pot.value(hs.midpoints)
    assert real(hs.next, lw, max_iter=1)[4]
    assert not real(hs.next, lw, left=True, max_iter=1)[4]
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
    table = np.array([[-1, 1], [2, -1], [0, -1]])
    lw = np.array([0.0, -5.0, 3.0])
    value, h, g, iterations, converged = pressure._weighted_power(
        table, lw, left=True)
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
    solves = [pressure._weighted_power(sub.next, lw[comp], left=True)
              for comp, sub in horseshoe12.cyclic_components()]
    assert all(s[4] for s in solves)
    assert max(s[3] for s in solves) <= 150
    rho = np.max(np.abs(np.linalg.eigvals(_weighted(horseshoe12, coord, t))))
    assert abs(math.exp(max(s[0] for s in solves)) / rho - 1.0) <= 1e-11


# depth per model keeps each dense matrix at 450 to 600 vertices
IDENTITY_MODELS = [(1.0, 1.7, 11), (1.0, 1.95, 9), (0.8, 1.99, 9)]


@pytest.mark.parametrize("alpha, beta, depth", IDENTITY_MODELS)
def test_thermodynamic_identities_against_dense_radius(
        fresh_model_cache, coord, alpha, beta, depth):
    # Ruelle's formula for the finite weighted matrix M(t): the log
    # spectral radius has derivative sum pi_v phi(mid v), and
    # h(mu_t) = log rho(t) - t * sum pi_v phi(mid v). The oracle is
    # numpy's dense eigvals, which shares no code with the power solver.
    # Measured worst errors over these models and t: 4.8e-12 for the
    # entropy identity and 2.4e-10 for the central difference with step
    # 1e-5 (rounding in eigvals over 2e-5); the tolerances keep a margin
    # of four.
    lm = LorenzMap1D(alpha, beta)
    hs = build_horseshoe(lm, depth, 0.002)

    def log_rho(t):
        return math.log(np.max(np.abs(np.linalg.eigvals(
            _weighted(hs, coord, t)))))

    step = 1e-5
    for t in (-6.0, -2.0, 0.5, 1.0):
        cold = equilibrium_measure(lm, hs, coord, t=t)
        mean = float(cold.stationary @ coord.value(cold.horseshoe.midpoints))
        assert abs(entropy_map(cold) + t * mean - log_rho(t)) <= 2e-11
        # the second call is served by the horseshoe's memo
        warm = equilibrium_measure(lm, hs, coord, t=t)
        mean = float(warm.stationary @ coord.value(warm.horseshoe.midpoints))
        slope = (log_rho(t + step) - log_rho(t - step)) / (2.0 * step)
        assert abs(slope - mean) <= 1e-9
    assert len(hs.equilibria) == 4


def _count_solves(monkeypatch):
    calls = []
    real = pressure._weighted_power

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pressure, "_weighted_power", counting)
    return calls


def test_memo_hit_equals_cold_solve(fresh_model_cache, lmap, coord):
    hs = build_horseshoe(lmap, 8, 0.002)
    cold = [equilibrium_measure(lmap, hs, coord, t=t) for t in (-2.0, 0.7)]
    assert len(hs.equilibria) == 2
    for t, first in zip((-2.0, 0.7), cold):
        warm = equilibrium_measure(lmap, hs, coord, t=t)
        assert warm is not first
        assert warm.horseshoe is first.horseshoe
        assert warm.probs.tobytes() == first.probs.tobytes()
        assert warm.stationary.tobytes() == first.stationary.tobytes()
    # and equal to a solve on a horseshoe whose memo has never seen t,
    # built from a fresh store
    fresh_model_cache(lmap)
    other = build_horseshoe(lmap, 8, 0.002)
    assert other is not hs and not other.equilibria
    again = equilibrium_measure(lmap, other, coord, t=0.7)
    assert again.probs.tobytes() == cold[1].probs.tobytes()
    assert again.stationary.tobytes() == cold[1].stationary.tobytes()


def test_zero_tilt_is_one_solve_for_every_potential(monkeypatch,
                                                    fresh_model_cache,
                                                    lmap, coord):
    # 0 * phi is -0.0 where phi < 0 and +0.0 elsewhere: the key folds the
    # signs, so the coordinate and a positive constant share one state
    hs = build_horseshoe(lmap, 8, 0.002)
    assert (coord.value(hs.midpoints) < 0.0).any()
    calls = _count_solves(monkeypatch)
    first = equilibrium_measure(lmap, hs, coord, t=0.0)
    solves = len(calls)
    assert solves == len(hs.cyclic_components())
    second = equilibrium_measure(lmap, hs, ConstantPotential(2.5), t=0.0)
    third = equilibrium_measure(lmap, hs, SectionGridPotential.seeded(4),
                                t=-0.0)
    assert len(calls) == solves
    assert len(hs.equilibria) == 1
    for eq in (second, third):
        assert eq.probs.tobytes() == first.probs.tobytes()
        assert eq.stationary.tobytes() == first.stationary.tobytes()


def test_memo_hands_out_fresh_measures(fresh_model_cache, lmap, coord):
    hs = build_horseshoe(lmap, 6, 0.002)
    first = equilibrium_measure(lmap, hs, coord, t=0.5, label="eq:first")
    first.label = "eq:renamed"
    second = equilibrium_measure(lmap, hs, coord, t=0.5)
    assert second is not first
    assert second.label is None
    assert second.id.startswith("markov:")
    assert equilibrium_measure(lmap, hs, coord, t=0.5,
                               label="eq:third").label == "eq:third"
    assert first.label == "eq:renamed"
    # the shared arrays are read-only, so no caller can change the memo
    with pytest.raises(ValueError):
        second.probs[0, 0] = 0.5


def test_unconverged_solve_is_not_memoized(monkeypatch, fresh_model_cache,
                                           lmap, coord):
    hs = build_horseshoe(lmap, 6, 0.002)
    real = pressure._weighted_power
    monkeypatch.setattr(pressure, "_weighted_power",
                        functools.partial(real, max_iter=1))
    for _ in range(2):
        with pytest.raises(PreconditionError, match="in 1 iterations"):
            equilibrium_measure(lmap, hs, coord, t=1.0)
    assert not hs.equilibria
    monkeypatch.setattr(pressure, "_weighted_power", real)
    equilibrium_measure(lmap, hs, coord, t=1.0)
    assert len(hs.equilibria) == 1


def test_memo_is_bounded(fresh_model_cache, lmap, coord):
    # the memo holds at most CACHE_LIMIT keys: an insert at the limit
    # evicts exactly the least recently used key, and a hit makes its key
    # the most recently used, so a key recalled just before that insert
    # survives it
    limit = symbolic.CACHE_LIMIT
    hs = build_horseshoe(lmap, 4, 0.002)
    sizes = []
    for k in range(limit):
        equilibrium_measure(lmap, hs, coord, t=0.01 * k)
        sizes.append(len(hs.equilibria))
    keys = list(hs.equilibria)
    assert len(keys) == limit
    equilibrium_measure(lmap, hs, coord, t=0.0)
    assert list(hs.equilibria) == keys[1:] + keys[:1]
    for k in range(limit, limit + 6):
        before = list(hs.equilibria)
        equilibrium_measure(lmap, hs, coord, t=0.01 * k)
        after = list(hs.equilibria)
        sizes.append(len(after))
        assert after[:-1] == before[1:] and after[-1] not in before
        if k == limit:
            assert keys[0] in after and keys[1] not in after
    assert max(sizes) == limit


def test_realize_solves_no_state_twice(monkeypatch, fresh_model_cache, lmap,
                                       coord):
    # eight requests on one catalog insert more states than the memo
    # holds, yet the states every request shares (T_LO, T_HI and the
    # opening midpoint) are recalled first by each request and so stay
    from geolorenz.spectrum import TargetRequest, realize_intermediate

    solved = []
    real = pressure._solve_equilibrium

    def counted(lm, horseshoe, lw):
        solved.append((id(horseshoe), lw.tobytes()))
        return real(lm, horseshoe, lw)

    monkeypatch.setattr(pressure, "_solve_equilibrium", counted)
    catalog = build_catalog(lmap, coord)
    p_inf, p_top = estimate_P_bounds(catalog, coord)
    for fraction in np.linspace(0.1, 0.9, 8):
        realize_intermediate(TargetRequest(
            lmap, coord, p_inf + fraction * (p_top - p_inf), 1e-3,
            catalog=catalog))
    assert len(solved) > symbolic.CACHE_LIMIT
    assert len(set(solved)) == len(solved)


def test_last_map_frees_its_model_without_the_cycle_collector(coord):
    # the store holds no map and no horseshoe holds itself, so dropping
    # the last map and every result that holds one frees the model's
    # levels, orbits, horseshoes, schemes and memo by reference counts
    gc.collect()
    gc.disable()
    try:
        lm = LorenzMap1D(1.0, 1.66)
        hs = build_horseshoe(lm, 6, 0.0)
        assert [sub for _, sub in hs.cyclic_components()] == [hs]
        eq = equilibrium_measure(lm, hs, coord, t=0.5)
        assert eq.horseshoe is hs and len(hs.equilibria) == 1
        integrate_map(coord, eq, depth=9)
        assert 9 in hs.schemes
        refs = [weakref.ref(obj) for obj in (
            lm.store, cylinder_levels(lm, 9)[9], hs,
            enumerate_periodic(lm, 5)[-1], hs.schemes[9])]
        del lm, hs, eq
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the Perron step against the loop it replaced

def _reference_weighted_power(table, log_weights, shift=False, left=False,
                              tol=1e-12, max_iter=20000):
    """The power loop as first written, with ndarray reductions on the
    (sides,) brackets, a check on every step and the absolute stop
    hi - lo <= tol*max(1, hi) on the quotients of M + s*I."""
    lw = np.asarray(log_weights, dtype=float)
    n = lw.size
    c = float(np.max(lw)) if n else 0.0
    w = np.exp(lw - c)
    nxt = table.T
    idx = [np.where(nxt >= 0, nxt, 0)]
    coef = [np.where(nxt >= 0, w[nxt], 0.0)]
    if left:
        prev = pressure._predecessors(table, n)
        idx.append(np.where(prev >= 0, prev + n, 0))
        coef.append(np.where(prev >= 0, w, 0.0))
    idx = np.concatenate(idx, axis=1)
    coef = np.concatenate(coef, axis=1)
    sides = 2 if left else 1
    v = np.ones((sides, n))
    s = 1.0 if shift else 0.0
    lam = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        flat = v.reshape(-1)
        y = s * flat
        for coef_k, gathered in zip(coef, flat.take(idx)):
            y += coef_k * gathered
        y = y.reshape(sides, n)
        top = y.max(axis=1)
        if top[0] <= 0.0:
            return -math.inf, v[0], None, iterations, True
        if (v > 0.0).all():
            quot = y / v
            lo_q = quot.min(axis=1)
            hi_q = quot.max(axis=1)
            lam = 0.5 * (lo_q[0] + hi_q[0]) - s
            if (hi_q - lo_q <= tol * np.maximum(1.0, hi_q)).all():
                converged = True
                v = y / top[:, None]
                break
        else:
            lam = top[0] - s
        v = y / top[:, None]
        if shift and lam > 0.0:
            s = 0.5 * lam
    g = v[1] if left else None
    if lam <= 0.0:
        return -math.inf, v[0], g, iterations, converged
    return math.log(lam) + c, v[0], g, iterations, converged


def _oracle_cases():
    """(table, log weights, keyword arguments) of the solves to compare."""
    coord = CoordinatePotential()
    cases = []
    # transfer solves: one side, on the full shift of each model
    for alpha, beta in ((1.0, 1.7), (1.0, 1.95), (0.8, 1.99)):
        sft = build_horseshoe(LorenzMap1D(alpha, beta), 10, 0.0)
        cases.append((sft.next, coord.value(sft.midpoints), {}))
    # equilibrium components: both sides
    hs = build_horseshoe(LorenzMap1D(1.0, 1.7), 12, 0.002)
    for t in (-6.0, -3.7, 0.0, 1.0, 2.0):
        lw = t * coord.value(hs.midpoints) + 0.0
        for comp, sub in hs.cyclic_components():
            cases.append((sub.next, lw[comp], {"left": True}))
    # the 2-cycle LR -> RL -> LR (eigenvalues +lambda and -lambda)
    two = np.array([[1, -1], [-1, 0]])
    cases.append((two, np.array([0.3, -0.8]), {"left": True}))
    # a run stopped by max_iter, unconverged, on a component where the
    # solve would converge
    comp, sub = hs.cyclic_components()[0]
    lw = coord.value(hs.midpoints)[comp]
    cases.append((sub.next, lw, {"max_iter": 3}))
    cases.append((sub.next, lw, {"left": True, "max_iter": 5}))
    # no edges: the bracket of the first step is [0, 0]
    none = np.full((2, 2), -1)
    cases.append((none, np.zeros(2), {}))
    cases.append((none, np.zeros(2), {"left": True}))
    return cases


def _dense_log_root(table, lw):
    """log of numpy's dense spectral radius of M[u][v] = A(u,v) e^(lw[v])."""
    n = lw.size
    c = float(np.max(lw))
    mat = np.zeros((n, n))
    src, bit = np.nonzero(table >= 0)
    dst = table[src, bit]
    mat[src, dst] = np.exp(lw[dst] - c)
    rho = float(np.max(np.abs(np.linalg.eigvals(mat))))
    return math.log(rho) + c if rho > 0.0 else -math.inf


def test_weighted_power_matches_reference_loop(monkeypatch):
    # the reference iterates M + s*I too, checked on every step, with its
    # absolute stop. Measured worst differences: 4.4e-12 in log lambda
    # (the reference's own error) and 3.4e-12 relative in h and g. Against
    # numpy's dense root the solver is within 3.6e-13 on these cases
    # (4.5e-13 at block length 1), the reference within 4.4e-12
    unconverged = early = 0
    for table, lw, kwargs in _oracle_cases():
        want = _reference_weighted_power(table, lw, shift=True, **kwargs)
        got = pressure._weighted_power(table, lw, **kwargs)
        assert got[4] == want[4]
        if not want[4]:
            # stopped by max_iter, exactly
            assert got[3] == want[3] == kwargs["max_iter"]
            unconverged += 1
            continue
        if want[0] == -math.inf:
            # no edges: the first step is certified, so the solve ends there
            assert got[0] == -math.inf and got[3] == 1
            early += 1
            continue
        assert abs(got[0] - want[0]) <= 1e-10
        np.testing.assert_allclose(got[1], want[1], rtol=1e-9, atol=0.0)
        if want[2] is not None:
            np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=0.0)
        root = _dense_log_root(table, lw)
        assert abs(got[0] - root) <= 1e-12
        with monkeypatch.context() as patch:
            patch.setattr(pressure, "CERTIFY_EVERY", 1)
            one = pressure._weighted_power(table, lw, **kwargs)
        assert one[4] and abs(one[0] - root) <= 1e-12
    assert unconverged == 2 and early == 2
    # the whole pruned horseshoe has words with no successor and words with
    # no predecessor, zero rows of M on each side: no bracket can close,
    # and the solve stops at its first certified step, not at max_iter
    hs = build_horseshoe(LorenzMap1D(1.0, 1.7), 12, 0.002)
    lw = CoordinatePotential().value(hs.midpoints)
    assert (hs.next < 0).all(axis=1).any()
    for left in (False, True):
        _, _, _, iterations, converged = pressure._weighted_power(
            hs.next, lw, left=left)
        assert not converged and iterations == 1


class _LogWeights:
    """Potential whose values at the vertex midpoints are given log weights."""

    def __init__(self, log_weights):
        self.log_weights = np.asarray(log_weights, dtype=float)

    def value(self, x):
        return self.log_weights


@pytest.mark.parametrize("x_gap", [0.002, 0.05])
def test_perron_root_relative_at_strong_tilt(fresh_model_cache, x_gap):
    # a strong tilt makes lambda of the max-normalized weights tiny: the
    # relative stop on M's own quotients keeps log lambda at the dense
    # root and the stationary vector stationary. The earlier absolute stop
    # was off by up to 22 nats at t = -384, and the measure was rejected
    # as not stationary at x_gap 0.05 from t = -96
    pot = SectionGridPotential.seeded(7)
    lm = LorenzMap1D(1.0, 1.7)
    hs = build_horseshoe(lm, 10, x_gap)
    phi = pot.value(hs.midpoints)
    for t in (-48.0, -96.0, -192.0, -384.0):
        lw = t * phi
        solves = [pressure._weighted_power(sub.next, lw[comp], left=True)
                  for comp, sub in hs.cyclic_components()]
        assert all(s[4] for s in solves)
        best = max(s[0] for s in solves)
        assert abs(best - _dense_log_root(hs.next, lw)) <= 1e-12
        equilibrium_measure(lm, hs, pot, t=t)


def test_perron_root_of_two_cycle_at_tiny_lambda(lmap):
    # LR -> RL -> LR with log weights 0 and -700: lambda^2 = e^-700. The
    # absolute stop reported -28.77, converged
    two = np.array([[1, -1], [-1, 0]])
    value, _, _, _, converged = pressure._weighted_power(
        two, np.array([0.0, -700.0]), left=True)
    assert converged
    assert value == pytest.approx(-350.0, rel=0.0, abs=1e-12)
    # e^-1395 underflows: the max-normalized matrix has one zero entry and
    # no cycle, so the solve reports no convergence and no measure exists.
    # Each side has a zero row, so it stops within its first blocks
    # instead of running all max_iter steps
    lw = np.array([-5.0, -1400.0])
    _, _, _, iterations, converged = pressure._weighted_power(two, lw,
                                                              left=True)
    assert not converged
    assert iterations <= 3 * pressure.CERTIFY_EVERY + 1
    hs = SFTHorseshoe.from_adjacency(2, ("LR", "RL"), [[0, 1], [1, 0]], lmap)
    with pytest.raises(PreconditionError, match="did not converge"):
        equilibrium_measure(lmap, hs, _LogWeights(lw), t=1.0)


def test_perron_solve_stops_on_a_closed_zero_set():
    # vertex 0 loops and feeds vertex 1, which loops with weight e^-10: a
    # reducible graph whose bracket [e^-10, 1] never closes. The entry of
    # vertex 1 in h underflows after some 450 steps and, having no edge
    # out of the zero set, stays zero: the solve stops there, unconverged,
    # instead of running all max_iter steps
    graph = np.array([[0, 1], [1, -1]])
    value, h, _, iterations, converged = pressure._weighted_power(
        graph, np.array([0.0, -10.0]))
    assert not converged
    assert iterations < 1000
    assert h.tolist() == [1.0, 0.0] and value == 0.0


# ---------------------------------------------------------------------------
# the right side on successor classes against the vertex loop

def _vertex_weighted_power(table, log_weights, left=False, tol=1e-12,
                           max_iter=20000):
    """`pressure._weighted_power` as it was before the right side was
    iterated on classes: one entry per vertex on both sides."""
    lw = np.asarray(log_weights, dtype=float)
    n = lw.size
    c = float(np.max(lw)) if n else 0.0
    w = np.exp(lw - c)
    # one row per symbol slot: the right side gathers the successors with
    # their weights, the left side the predecessors with its own weight;
    # an absent edge reads entry 0 with coefficient 0. The rows are made
    # C-ordered: np.where on the transposed view would give F-ordered
    # tables, and every step gathers with them
    nxt = np.ascontiguousarray(table.T)
    idx = [np.where(nxt >= 0, nxt, 0)]
    coef = [np.where(nxt >= 0, w[nxt], 0.0)]
    if left:
        prev = pressure._predecessors(table, n)
        idx.append(np.where(prev >= 0, prev + n, 0))
        coef.append(np.where(prev >= 0, w, 0.0))
    sides = 2 if left else 1
    # plain steps gather a third row, each entry itself, for s*v
    idx = np.vstack([np.concatenate(idx, axis=1), np.arange(sides * n)])
    coef = np.concatenate(coef, axis=1)
    # a side with a zero row of M next to a nonzero one, which cannot
    # converge
    live = coef.any(axis=0).reshape(sides, n)
    stuck = bool((live.any(axis=1) & ~live.all(axis=1)).any())
    step = np.empty((3, sides, n))
    v = np.ones((sides, n))
    s = np.ones((sides, 1))
    est = np.zeros(sides)
    converged = False
    iterations = 0
    last_zeros = None
    maximum, minimum = np.maximum.reduce, np.minimum.reduce
    while iterations < max_iter:
        # the certified step
        iterations += 1
        v /= maximum(v, axis=1, keepdims=True)
        flat = v.reshape(-1)
        gathered = flat.take(idx[:2])
        gathered *= coef
        gathered[0] += gathered[1]
        mv = gathered[0].reshape(sides, n)
        run = 0
        # v >= 0 always, so its least entry decides positivity (a NaN
        # fails the test)
        if minimum(flat) > 0.0:
            quot = mv / v
            lo, hi = minimum(quot, axis=1), maximum(quot, axis=1)
            est = 0.5 * (lo + hi)
            if (hi - lo <= tol * hi).all():
                converged = True
                break
            if stuck:
                break
            run = min(pressure.CERTIFY_EVERY - 1, max_iter - iterations)
            last_zeros = None
        else:
            zeros = flat == 0.0
            if zeros.any() and np.array_equal(zeros, last_zeros):
                break
            last_zeros = zeros
            est = maximum(mv, axis=1)
        s = np.where(est[:, None] > 0.0, 0.5 * est[:, None], s)
        scale = est[:, None] + s
        v = (mv + s * v) / scale
        np.divide(coef.reshape(2, sides, n), scale, out=step[:2])
        step[2] = s / scale
        table = step.reshape(3, -1)
        flat = v.reshape(-1)
        for _ in range(run):
            gathered = flat.take(idx)
            gathered *= table
            flat = gathered[0]
            flat += gathered[1]
            flat += gathered[2]
        v = flat.reshape(sides, n)
        iterations += run
    v = v / maximum(v, axis=1, keepdims=True)
    g = v[1] if left else None
    lam = float(est[0])
    if not lam > 0.0:
        return -math.inf, v[0], g, iterations, converged
    return math.log(lam) + c, v[0], g, iterations, converged


def _class_cases():
    """(name, table, log weights, keyword arguments) of the solves that
    compare the class iteration with the vertex iteration."""
    coord = CoordinatePotential()
    cases = []
    for alpha, beta in ((1.0, 1.7), (1.0, 1.95), (0.8, 1.99)):
        for depth in (12, 14):
            sft = build_horseshoe(LorenzMap1D(alpha, beta), depth, 0.0)
            cases.append(("transfer", sft.next, coord.value(sft.midpoints),
                          {}))
    lm = LorenzMap1D(1.0, 1.7)
    hs = build_horseshoe(lm, 12, 0.002)
    for t in (-6.0, -3.7, 0.0, 1.0):
        lw = t * coord.value(hs.midpoints) + 0.0
        for comp, sub in hs.cyclic_components():
            cases.append(("component", sub.next, lw[comp], {"left": True}))
    grid = build_horseshoe(lm, 10, 0.002)
    lw = -384.0 * SectionGridPotential.seeded(7).value(grid.midpoints)
    for comp, sub in grid.cyclic_components():
        cases.append(("strong tilt", sub.next, lw[comp], {"left": True}))
    two = np.array([[1, -1], [-1, 0]])
    cases.append(("tiny root", two, np.array([0.0, -700.0]), {"left": True}))
    cases.append(("underflow", two, np.array([-5.0, -1400.0]),
                  {"left": True}))
    none = np.full((3, 2), -1)
    cases.append(("edgeless", none, np.zeros(3), {}))
    cases.append(("edgeless", none, np.zeros(3), {"left": True}))
    # one edge, into a weight that underflows: M = 0, though D*A is not
    zero = np.array([[1, -1], [-1, -1]])
    cases.append(("zero matrix", zero, np.array([0.0, -1000.0]),
                  {"left": True}))
    lw = coord.value(hs.midpoints)
    cases.append(("stuck", hs.next, lw, {}))
    cases.append(("stuck", hs.next, lw, {"left": True}))
    cases.append(("zero set", np.array([[0, 1], [1, -1]]),
                  np.array([0.0, -10.0]), {}))
    comp, sub = hs.cyclic_components()[0]
    cases.append(("max_iter", sub.next, lw[comp], {"max_iter": 21}))
    cases.append(("max_iter", sub.next, lw[comp],
                  {"left": True, "max_iter": 37}))
    return cases


def _predecessor_classes(table):
    """The class of each vertex among the classes of vertices with the
    same set of predecessors, from a loop over the edges."""
    preds = [[] for _ in range(len(table))]
    for u, row in enumerate(np.asarray(table).tolist()):
        for v in row:
            if v >= 0:
                preds[v].append(u)
    keys = {}
    return np.array([keys.setdefault(tuple(sorted(p)), len(keys))
                     for p in preds])


def _constant_on(values, cls):
    """Whether values are equal within each class, up to a few ulps."""
    first = np.unique(cls, return_index=True)[1]
    return np.allclose(values, values[first][cls], rtol=1e-14, atol=0.0)


def test_class_iteration_matches_vertex_iteration():
    # the right side iterates one entry per class of equal successor rows,
    # the left side g/w one entry per class of equal predecessor pairs, and
    # certified steps go where the bracket should close. The vertex loop,
    # with both sides on vertices and a certified step every CERTIFY_EVERY
    # steps, is the oracle: every solve stops the same way, and converged
    # ones agree to the solver's tolerance
    seen = set()
    for name, table, lw, kwargs in _class_cases():
        got = pressure._weighted_power(table, lw, **kwargs)
        want = _vertex_weighted_power(table, lw, **kwargs)
        assert got[4] == want[4], name
        _, cls = np.unique(table, axis=0, return_inverse=True)
        cls = cls.reshape(-1)
        assert (got[1] == got[1][np.unique(cls, return_index=True)[1]]
                [cls]).all(), name
        # the classes are fewer than the vertices on horseshoes
        if name == "transfer":
            assert len(np.unique(cls)) < 0.7 * len(cls)
        seen.add((name, got[4]))
        if "max_iter" in kwargs:
            assert got[3] == want[3] == kwargs["max_iter"], name
        if name == "stuck":
            assert got[3] == want[3] == 1
        if not got[4]:
            continue
        if want[0] == -math.inf:
            # M = 0: the first bracket is [0, 0], and no vector is an
            # eigenvector of a positive root
            assert got[0] == -math.inf and got[3] == 1, name
            continue
        assert abs(got[0] - want[0]) <= 1e-12, name
        if lw.size <= 2000:
            assert abs(got[0] - _dense_log_root(table, lw)) <= 1e-12, name
        np.testing.assert_allclose(got[1], want[1], rtol=1e-9, atol=0.0,
                                   err_msg=name)
        if not kwargs.get("left"):
            assert got[2] is None and want[2] is None
            continue
        np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=0.0,
                                   err_msg=name)
        w = np.exp(lw - lw.max())
        assert _constant_on(got[2] / w, _predecessor_classes(table)), name
    assert seen >= {("transfer", True), ("component", True),
                    ("strong tilt", True), ("tiny root", True),
                    ("underflow", False), ("edgeless", True),
                    ("zero matrix", True), ("stuck", False),
                    ("zero set", False), ("max_iter", False)}


def _products(table, lw, h, g):
    """(Mh, gM) for M[u][v] = A(u,v) e^(lw[v] - max lw): from the dense
    matrix up to 2,000 vertices, from its edge list past that."""
    n = lw.size
    w = np.exp(lw - lw.max())
    src, bit = np.nonzero(np.asarray(table) >= 0)
    dst = np.asarray(table)[src, bit]
    if n <= 2000:
        mat = np.zeros((n, n))
        mat[src, dst] = w[dst]
        return mat @ h, None if g is None else g @ mat
    mh = np.bincount(src, weights=w[dst] * h[dst], minlength=n)
    gm = None if g is None else np.bincount(dst, weights=g[src] * w[dst],
                                            minlength=n)
    return mh, gm


def test_converged_solves_close_their_brackets_on_m():
    # the stop rule read back from M itself, for every schedule: the h and
    # g of each converged solve close their Collatz-Wielandt brackets
    # (Mh)/h and (gM)/g within 1e-12 relative, computed here from M, up to
    # the rounding of the products and of the final normalization. So no
    # certified step is skipped past and no solve stops early. Measured
    # worst: 9.2e-13 on h and 2.4e-14 on g
    checked = 0
    for name, table, lw, kwargs in _class_cases():
        value, h, g, _, converged = pressure._weighted_power(
            table, lw, **kwargs)
        if not converged or value == -math.inf:
            continue
        for vec, prod in zip((h, g), _products(table, lw, h, g)):
            if vec is None:
                continue
            quot = prod / vec
            assert quot.max() - quot.min() <= 1.001e-12 * quot.max(), name
            checked += 1
    assert checked == 18


def test_perron_layouts_are_c_contiguous(lmap):
    # each solve step takes through `gather` and each set-up through
    # `source`; both are read one row at a time
    plan = pressure._PerronPlan(build_horseshoe(lmap, 10, 0.0).next)
    for left in (False, True):
        gather, source, _, sizes = plan.layout(left)
        assert gather.shape == source.shape == (2, sum(sizes))
        assert gather.flags.c_contiguous and source.flags.c_contiguous


def test_equilibrium_family_builds_its_plan_once(monkeypatch,
                                                 fresh_model_cache,
                                                 lmap, coord):
    # the classes and gather tables depend on the graph alone: five t
    # values on one horseshoe build the plan of each of its cyclic
    # components once, on the first solve, and keep it on the sub-SFT
    hs = build_horseshoe(lmap, 8, 0.002)
    built = []
    real = pressure._PerronPlan.__init__

    def counting(self, table):
        built.append(self)
        real(self, table)

    monkeypatch.setattr(pressure._PerronPlan, "__init__", counting)
    family = [equilibrium_measure(lmap, hs, coord, t=t)
              for t in (-2.0, 0.0, 0.5, 0.75, 2.0)]
    subs = [sub for _, sub in hs.cyclic_components()]
    assert len(subs) == 2 and hs.perron is None
    assert [sub.perron for sub in subs] == built
    sub = family[0].horseshoe
    assert sub in subs
    gather, source, starts, sizes = sub.perron.layout(True)
    for arr in (gather, source, starts, sub.perron.succ, sub.perron.pred):
        assert not arr.flags.writeable
    # both sides on classes: fewer entries than vertices on each side
    assert len(sizes) == 2 and max(sizes) < sub.n_vertices
    # a raw successor table gets a plan of its own, and the same solve
    lw = coord.value(sub.midpoints)
    raw = pressure._weighted_power(sub.next, lw, left=True)
    kept = pressure._weighted_power(sub, lw, left=True)
    assert len(built) == 3
    assert raw[0] == kept[0] and raw[3:] == kept[3:]
    assert raw[1].tobytes() == kept[1].tobytes()
    assert raw[2].tobytes() == kept[2].tobytes()


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_equilibrium_rejects_non_finite_log_weights(monkeypatch,
                                                    fresh_model_cache,
                                                    lmap, coord, t):
    # checked once, before the memo and the solve: a NaN tilt ran all
    # 20,000 steps and an infinite one stopped after one, both reported
    # as unconverged Perron iterations
    hs = build_horseshoe(lmap, 6, 0.002)
    calls = _count_solves(monkeypatch)
    with pytest.raises(PreconditionError,
                       match=r"t\*phi at t = %r is -?%r at vertex 0 of"
                       % (t, t)):
        equilibrium_measure(lmap, hs, coord, t=t)
    assert not calls and not hs.equilibria


def test_transfer_rejects_non_finite_potential(monkeypatch, lmap):
    calls = _count_solves(monkeypatch)
    lw = CoordinatePotential().value(build_horseshoe(lmap, 6, 0.0).midpoints)
    lw[17] = math.nan
    with pytest.raises(PreconditionError,
                       match="potential .* is nan at vertex 17 of"):
        pressure_transfer(lmap, _LogWeights(lw), depth=6)
    assert not calls


def test_transfer_fallback_rejects_unconverged_component(monkeypatch, lmap):
    # the graph of test_transfer_fallback_scores_cyclic_components, whose
    # whole-graph bracket never closes: a component solve that does not
    # converge raises, instead of its last midpoint becoming the pressure
    words = ("LL", "LR", "RL", "RR")
    adj = [[0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 1]]
    hs = SFTHorseshoe.from_adjacency(2, words, adj, lmap)
    pot = _VertexWeights(hs, [1.0, 2.0, 2.0, 1.0])
    pot.lipschitz_bound = lambda: 0.0
    monkeypatch.setattr(pressure, "build_horseshoe",
                        lambda lm, depth, x_gap: hs)
    real = pressure._weighted_power

    def stalled(*args, **kwargs):
        value, h, g, _, _ = real(*args, **kwargs)
        return value, h, g, 20000, False

    monkeypatch.setattr(pressure, "_weighted_power", stalled)
    with pytest.raises(PreconditionError,
                       match="2-vertex component did not converge in 20000"):
        pressure_transfer(lmap, pot, depth=2)
