"""Potential classes: profiles, certified bounds, passage integrals, parsing."""

import json
import math
import re

import mpmath
import numpy as np
import pytest

from geolorenz import (
    ConfigError,
    ConstantPotential,
    CoordinatePotential,
    PreconditionError,
    RoofFunction,
    SectionGridPotential,
    SingularBumpPotential,
    parse_potential_spec,
)
from geolorenz.measures import (_DwellIntegrand, _PassageIntegrand,
                                _RoofIntegrand)


def test_constant_and_coordinate_values():
    c = ConstantPotential(0.75)
    assert c.value(0.3) == 0.75
    assert c.value_at_sigma() == 0.75
    assert c.midpoint_error(-0.5, 0.5) == 0.0
    x = CoordinatePotential()
    assert x.value(-0.42) == -0.42
    assert x.value_at_sigma() == 0.0
    assert x.lipschitz_bound() == 1.0


def test_bump_profile_shape():
    bump = SingularBumpPotential(2.0, 0.1)
    assert bump.value(0.05) == 2.0
    assert bump.value(-0.05) == 2.0
    assert bump.value(0.25) == 0.0
    assert bump.value_at_sigma() == 2.0
    # ramp is linear in log distance, halfway in log scale gives half level
    half = 0.1 * math.sqrt(2.0)
    assert bump.value(half) == pytest.approx(1.0, rel=1e-12)
    # continuity at both radii
    assert bump.value(0.1 * (1 + 1e-12)) == pytest.approx(2.0, abs=1e-9)
    assert bump.value(0.2 * (1 - 1e-12)) == pytest.approx(0.0, abs=1e-9)
    # 0 <= phi <= L everywhere
    xs = np.linspace(-1.0, 1.0, 10001)
    vals = bump.value(xs, np.zeros_like(xs))
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)


def test_bump_guards():
    with pytest.raises(PreconditionError):
        SingularBumpPotential(0.0, 0.1)
    with pytest.raises(PreconditionError):
        SingularBumpPotential(1.0, 0.6)


def test_bump_passage_integral_against_quadrature():
    # dwell model: c1 units of time per unit log-distance; the passage
    # integral is the profile integrated dt = c1 * db / b from the
    # closest approach out to where the profile dies
    bump = SingularBumpPotential(2.2, 0.1)
    roof = RoofFunction(c0=1.0, c1=1.3, eta0=0.5)

    def oracle(x):
        a = abs(x)
        if a >= 2 * bump.eta:
            return 0.0
        return float(mpmath.quad(
            lambda b: bump.value(float(b)) * 1.3 / float(b),
            [a, bump.eta, 2 * bump.eta]))

    for x in (0.003, 0.05, 0.1, 0.13, 0.199, 0.3, -0.08):
        assert bump.passage_integral(x, roof) == pytest.approx(
            oracle(x), rel=1e-9, abs=1e-12)


def test_bump_passage_requires_resolving_roof():
    bump = SingularBumpPotential(1.0, 0.3)  # 2*eta = 0.6 > eta0 = 0.5
    roof = RoofFunction(c0=1.0, c1=1.0, eta0=0.5)
    with pytest.raises(PreconditionError):
        bump.passage_integral(0.1, roof)


def test_midpoint_error_honesty():
    pots = [SingularBumpPotential(2.0, 0.1), CoordinatePotential(),
            SectionGridPotential.seeded(7)]
    rng = np.random.default_rng(0)
    for pot in pots:
        for _ in range(200):
            lo = rng.uniform(-1.0, 0.99)
            hi = lo + rng.uniform(1e-4, 0.2)
            hi = min(hi, 1.0)
            mid = 0.5 * (lo + hi)
            err = pot.midpoint_error(lo, hi)
            for t in np.linspace(lo, hi, 21):
                assert abs(pot.value(float(t)) - pot.value(mid)) <= err + 1e-12


# cylinders that straddle 0, touch +-eta = 0.1 and +-2*eta = 0.2 of the
# bump and the roof radius eta0 = 0.5, lie on one side, or are degenerate
PROTOCOL_INTERVALS = [
    (-0.3, 0.2), (-0.1, 0.1), (-0.25, 0.0), (0.0, 0.3), (-0.2, -0.1),
    (0.1, 0.2), (0.05, 0.1), (0.2, 0.5), (-0.5, -0.2), (-0.9, -0.6),
    (0.3, 0.9), (0.1, 0.1), (-0.2, -0.2), (0.15, 0.15), (0.7, 0.7),
]


def _protocol_cases():
    roof = RoofFunction(c0=1.0, c1=1.0, eta0=0.5)
    pots = [ConstantPotential(0.75), CoordinatePotential(),
            SectionGridPotential.seeded(7), SingularBumpPotential(2.0, 0.1)]
    cases = []
    for pot in pots:
        name = type(pot).__name__
        cases += [(name + ".value", lambda lo, hi, pot=pot: pot.value(lo)),
                  (name + ".passage_integral",
                   lambda lo, hi, pot=pot: pot.passage_integral(hi, roof)),
                  (name + ".midpoint_error", pot.midpoint_error),
                  (name + ".abs_bound", pot.abs_bound),
                  (name + ".passage_error",
                   lambda lo, hi, pot=pot: pot.passage_error(lo, hi, roof))]
    for integrand in (_RoofIntegrand(roof), _DwellIntegrand(roof, 0.2),
                      _PassageIntegrand(SingularBumpPotential(2.0, 0.1),
                                        roof)):
        name = type(integrand).__name__
        cases += [(name + ".value",
                   lambda lo, hi, f=integrand: f.value(hi)),
                  (name + ".midpoint_error", integrand.midpoint_error)]
    return cases


@pytest.mark.parametrize("name, method", _protocol_cases(),
                         ids=[name for name, _ in _protocol_cases()])
def test_array_call_equals_scalar_calls(name, method):
    lo, hi = np.array(PROTOCOL_INTERVALS).T
    scalar = [method(a, b) for a, b in PROTOCOL_INTERVALS]
    assert all(type(v) is float for v in scalar)
    out = method(lo, hi)
    assert isinstance(out, np.ndarray) and out.shape == lo.shape
    # bit for bit, infinities included
    assert out.tolist() == scalar


def test_seeded_grid_is_deterministic_and_bounded():
    a = SectionGridPotential.seeded(11)
    b = SectionGridPotential.seeded(11)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, SectionGridPotential.seeded(12).values)
    assert np.max(np.abs(a.values)) <= 0.3 + 1e-12
    # declared Lipschitz constant is honest on samples
    dx = a.xs[1] - a.xs[0]
    slopes = np.abs(np.diff(a.values, axis=0)) / dx
    assert np.max(slopes) <= a.lipschitz + 1e-9


def test_grid_validation():
    with pytest.raises(PreconditionError):
        SectionGridPotential([0.0, 1.0], [0.0], [[1.0], [2.0], [3.0]], 1.0)
    with pytest.raises(PreconditionError):
        SectionGridPotential([1.0, 0.0], [0.0, 1.0],
                             [[1.0, 1.0], [2.0, 2.0]], 1.0)
    with pytest.raises(PreconditionError):
        SectionGridPotential([0.0, 1.0], [0.0, 1.0],
                             [[1.0, 1.0], [2.0, 2.0]], -1.0)
    # a one-point axis has no cell to interpolate in
    with pytest.raises(PreconditionError, match="two points"):
        SectionGridPotential([0.0, 1.0], [0.5], [[1.0], [2.0]], 1.0)


def _grid_value_oracle(grid, x, y=0.0):
    """`SectionGridPotential.value` as four 2-D fancy indexings, verbatim."""
    xa = np.minimum(np.maximum(np.asarray(x, dtype=float), grid.xs[0]),
                    grid.xs[-1])
    ya = np.minimum(np.maximum(np.asarray(y, dtype=float), grid.ys[0]),
                    grid.ys[-1])
    xa, ya = np.broadcast_arrays(xa, ya)
    i = np.minimum(np.maximum(grid.xs.searchsorted(xa, side="right") - 1,
                              0), grid.xs.size - 2)
    j = np.minimum(np.maximum(grid.ys.searchsorted(ya, side="right") - 1,
                              0), grid.ys.size - 2)
    tx = (xa - grid.xs[i]) / (grid.xs[i + 1] - grid.xs[i])
    ty = (ya - grid.ys[j]) / (grid.ys[j + 1] - grid.ys[j])
    v00 = grid.values[i, j]
    v10 = grid.values[i + 1, j]
    v01 = grid.values[i, j + 1]
    v11 = grid.values[i + 1, j + 1]
    out = ((1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10
           + (1 - tx) * ty * v01 + tx * ty * v11)
    return float(out) if np.ndim(out) == 0 else out


def test_grid_value_matches_fancy_index_oracle():
    rng = np.random.default_rng(5)
    grids = [SectionGridPotential.seeded(3)]
    for nx, ny in ((2, 2), (3, 7), (17, 2), (40, 9)):
        xs = np.sort(rng.uniform(-1.0, 1.0, nx))
        ys = np.sort(rng.uniform(-1.5, 1.5, ny))
        grids.append(SectionGridPotential(xs, ys, rng.normal(size=(nx, ny)),
                                          1.0))
    for grid in grids:
        # inside and off the grid, breakpoints and the ends included
        x = np.concatenate([rng.uniform(-1.3, 1.3, 200), grid.xs])
        y = rng.uniform(-2.0, 2.0, x.size)
        y[:grid.ys.size] = grid.ys
        cases = [(x, y), (x, 0.0), (x, np.zeros_like(x)), (0.25, y),
                 (x[:200].reshape(10, -1), y[:200].reshape(10, -1)),
                 (x[:, None], grid.ys[None, :])]
        cases += [(float(a), float(b)) for a, b in zip(x[::23], y[::23])]
        for xa, ya in cases:
            got = grid.value(xa, ya)
            want = _grid_value_oracle(grid, xa, ya)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            # bit for bit, as hex strings
            assert [v.hex() for v in np.ravel(got).tolist()] == \
                [v.hex() for v in np.ravel(want).tolist()]


def test_parse_potential_specs_round_trip(tmp_path):
    assert isinstance(parse_potential_spec("const:0.5"), ConstantPotential)
    assert isinstance(parse_potential_spec("coord:x"), CoordinatePotential)
    assert isinstance(parse_potential_spec("coord"), CoordinatePotential)
    bump = parse_potential_spec("bump:2.23,0.1")
    assert isinstance(bump, SingularBumpPotential)
    assert bump.level == 2.23 and bump.eta == 0.1
    grid = parse_potential_spec("grid:seed:5")
    assert isinstance(grid, SectionGridPotential)
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(grid.to_payload()))
    loaded = parse_potential_spec("grid:%s" % path)
    assert np.array_equal(loaded.values, grid.values)


@pytest.mark.parametrize("field, index", [
    ("xs", (3,)), ("ys", (0,)), ("values", (2, 3))])
def test_grid_payload_rejects_non_finite_samples(tmp_path, field, index):
    # json writes and reads NaN: such a grid used to load, and the transfer
    # pressure of a NaN sample came out as -inf after 1.2 s
    payload = SectionGridPotential.seeded(5).to_payload()
    if field == "values":
        payload["values"][index[0]][index[1]] = float("nan")
    else:
        payload[field][index[0]] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(PreconditionError,
                       match=r"grid %s must be finite, got nan at index %s"
                       % (field, re.escape(repr(index)))):
        parse_potential_spec("grid:%s" % path)
    # an infinite sample likewise
    grid = SectionGridPotential.seeded(5)
    values = np.array(grid.values)
    values[1, 1] = -math.inf
    with pytest.raises(PreconditionError,
                       match=r"grid values must be finite, got -inf"):
        SectionGridPotential(grid.xs, grid.ys, values, grid.lipschitz)


@pytest.mark.parametrize("bad", [
    "", "const", "const:x", "coord:y", "bump:1.0", "bump:a,b",
    "bump:1.0,0.9", "grid:", "grid:seed:abc", "grid:/nonexistent.json",
    "mystery:1",
])
def test_parse_potential_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_potential_spec(bad)
