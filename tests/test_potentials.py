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
from geolorenz.measures import _PassageIntegrand, _RoofIntegrand
from geolorenz.model import dwell_array, roof_array


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
    vals = bump.value(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 2.0)


def test_bump_guards():
    with pytest.raises(PreconditionError):
        SingularBumpPotential(0.0, 0.1)
    with pytest.raises(PreconditionError):
        SingularBumpPotential(1.0, 0.6)
    for level in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match="positive and finite"):
            SingularBumpPotential(level, 0.1)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_constant_potential_rejects_non_finite(c):
    with pytest.raises(PreconditionError, match="must be finite"):
        ConstantPotential(c)


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
# zero where the roof diverges: the zero factor makes the passage bound 0
ZERO_POTENTIALS = [
    ("ConstantPotential(0)", ConstantPotential(0.0)),
    ("SectionGridPotential(0)",
     SectionGridPotential([-1.0, 1.0], [0.0, 0.0], 0.0)),
]


def _protocol_cases():
    roof = RoofFunction(c0=1.0, c1=1.0, eta0=0.5)
    pots = [ConstantPotential(0.75), CoordinatePotential(),
            SectionGridPotential.seeded(7), SingularBumpPotential(2.0, 0.1)]
    cases = []
    for name, pot in [(type(p).__name__, p) for p in pots] + ZERO_POTENTIALS:
        cases += [(name + ".value", lambda lo, hi, pot=pot: pot.value(lo)),
                  (name + ".passage_integral",
                   lambda lo, hi, pot=pot: pot.passage_integral(hi, roof)),
                  (name + ".midpoint_error", pot.midpoint_error),
                  (name + ".abs_bound", pot.abs_bound),
                  (name + ".passage_error",
                   lambda lo, hi, pot=pot: pot.passage_error(lo, hi, roof))]
    for name, integrand in (
            ("_RoofIntegrand", _RoofIntegrand("roof", roof_array, roof)),
            ("_RoofIntegrand(dwell)",
             _RoofIntegrand("dwell", dwell_array, roof, 0.2))):
        cases += [(name + ".value",
                   lambda lo, hi, f=integrand: f.value(hi)),
                  (name + ".width",
                   lambda lo, hi, f=integrand: f.ends(lo, hi)[0])]
    passage = _PassageIntegrand(SingularBumpPotential(2.0, 0.1), roof)
    cases += [("_PassageIntegrand.value", lambda lo, hi: passage.value(hi)),
              ("_PassageIntegrand.midpoint_error", passage.midpoint_error)]
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


@pytest.mark.parametrize("name, pot", ZERO_POTENTIALS,
                         ids=[name for name, _ in ZERO_POTENTIALS])
def test_zero_potential_passage_bound_is_exactly_zero(name, pot):
    # the roof is unbounded on the cylinders that reach 0, and 0 * inf
    # counts as 0, with no NaN and no RuntimeWarning
    roof = RoofFunction(c0=1.0, c1=1.0, eta0=0.5)
    lo, hi = np.array(PROTOCOL_INTERVALS).T
    zeros = [0.0] * len(PROTOCOL_INTERVALS)
    assert [pot.passage_error(a, b, roof)
            for a, b in PROTOCOL_INTERVALS] == zeros
    assert pot.passage_error(lo, hi, roof).tolist() == zeros


def test_constant_roof_bounds_are_exact_on_cylinders_reaching_zero():
    # with c1 = 0 the roof and every dwell time are constant, so their
    # range is 0 even where |x| reaches 0; with c1 > 0 it is unbounded
    reach = [(a, b) for a, b in PROTOCOL_INTERVALS if a <= 0.0 <= b]
    lo, hi = np.array(reach).T
    for c1, want in ((0.0, 0.0), (1.0, math.inf)):
        roof = RoofFunction(1.0, c1, 0.5)
        for integrand in (_RoofIntegrand("roof", roof_array, roof),
                          _RoofIntegrand("dwell", dwell_array, roof, 0.2)):
            assert [integrand.ends(a, b)[0]
                    for a, b in reach] == [want] * len(reach)
            assert integrand.ends(lo, hi)[0].tolist() == \
                [want] * len(reach)


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
    # one sample per point of one x axis
    with pytest.raises(PreconditionError, match=r"shape \(len\(xs\),\)"):
        SectionGridPotential([0.0, 1.0], [1.0, 2.0, 3.0], 1.0)
    with pytest.raises(PreconditionError, match=r"shape \(len\(xs\),\)"):
        SectionGridPotential([0.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], 1.0)
    with pytest.raises(PreconditionError, match="one-dimensional"):
        SectionGridPotential([[0.0, 1.0]], [[1.0, 2.0]], 1.0)
    with pytest.raises(PreconditionError, match="strictly increasing"):
        SectionGridPotential([1.0, 0.0], [1.0, 2.0], 1.0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        SectionGridPotential([0.0, 1.0], [1.0, 2.0], -1.0)
    # a one-point axis has no cell to interpolate in
    with pytest.raises(PreconditionError, match="two points"):
        SectionGridPotential([0.5], [1.0], 1.0)


def test_grid_value_matches_np_interp():
    # np.interp shares no code with `value`; it also holds the end samples
    # beyond the axis, and rounds its own weights, so the two agree to a
    # few units in the last place of the largest sample
    rng = np.random.default_rng(5)
    grids = [SectionGridPotential.seeded(3)]
    for nx in rng.integers(2, 60, 200):
        xs = np.sort(rng.uniform(-1.0, 1.0, nx))
        grids.append(SectionGridPotential(xs, rng.normal(size=nx), 1.0))
    for grid in grids:
        # inside and off the grid, breakpoints and the ends included
        x = np.concatenate([rng.uniform(-1.3, 1.3, 200), grid.xs])
        tol = 4 * 2.0 ** -52 * np.max(np.abs(grid.values))
        got = grid.value(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert np.max(np.abs(got - np.interp(x, grid.xs, grid.values))) <= tol
        # a breakpoint reads its sample exactly
        assert np.array_equal(got[200:], grid.values)
        # a block of points keeps its shape, and a scalar gives a float
        assert np.array_equal(grid.value(x[:200].reshape(10, -1)),
                              got[:200].reshape(10, -1))
        for a, want in zip(x[::23].tolist(), got[::23].tolist()):
            assert type(grid.value(a)) is float
            assert grid.value(a) == want


# float.hex of SectionGridPotential.seeded(seed).value(x): a seed names
# one function for good, so a grid:seed:N spec keeps its numbers
SEEDED_VALUES = {
    0: ["-0x1.14afc0a4f2e39p-3", "0x1.15e9cb349f49ap-3",
        "-0x1.5c8921bd31141p-5", "-0x1.2811187a8c62ep-4",
        "0x1.474502ddb21d5p-4", "0x1.38502bc238e0dp-4",
        "0x1.38502bc238e0dp-4"],
    7: ["-0x1.d7662094b8cefp-5", "0x1.6a10a3cac9911p-7",
        "-0x1.3c8a8a041bf61p-4", "-0x1.4c73bdc69cc92p-3",
        "0x1.2ada2f8903832p-6", "0x1.9b67323999039p-7",
        "0x1.9b67323999039p-7"],
    11: ["0x1.3411db85c46bfp-3", "0x1.ca31f16a52809p-5",
         "-0x1.4b7c91d56c28bp-4", "-0x1.97f59efd6e403p-6",
         "-0x1.88ceb44f4e508p-6", "-0x1.3802f875008b2p-6",
         "-0x1.3802f875008b2p-6"],
}
SEEDED_POINTS = (-1.0, -0.6180339887, 0.0, 0.123456789, 0.99, 1.0, 1.5)
# (sup of the samples, declared Lipschitz constant) at the same time
SEEDED_BOUNDS = {
    0: ("0x1.4d1e33701647ep-3", "0x1.0000000000000p+0"),
    7: ("0x1.6fa859239c1bap-3", "0x1.0000000000000p+0"),
    11: ("0x1.3d198c53ff843p-3", "0x1.fffffffffffffp-1"),
}


@pytest.mark.parametrize("seed", sorted(SEEDED_VALUES))
def test_seeded_grid_values_are_pinned(seed):
    grid = SectionGridPotential.seeded(seed)
    got = [grid.value(x).hex() for x in SEEDED_POINTS]
    assert got == SEEDED_VALUES[seed]
    assert grid.value(np.array(SEEDED_POINTS)).tolist() == \
        [float.fromhex(v) for v in SEEDED_VALUES[seed]]
    assert grid.value_at_sigma().hex() == SEEDED_VALUES[seed][2]
    sup, lip = SEEDED_BOUNDS[seed]
    assert grid.abs_bound(-1.0, 1.0).hex() == sup
    assert grid.lipschitz.hex() == lip


def test_parse_potential_specs_round_trip(tmp_path):
    assert isinstance(parse_potential_spec("const:0.5"), ConstantPotential)
    assert isinstance(parse_potential_spec("coord:x"), CoordinatePotential)
    assert isinstance(parse_potential_spec("coord"), CoordinatePotential)
    bump = parse_potential_spec("bump:2.23,0.1")
    assert isinstance(bump, SingularBumpPotential)
    assert bump.level == 2.23 and bump.eta == 0.1
    grid = parse_potential_spec("grid:seed:5")
    assert isinstance(grid, SectionGridPotential)
    payload = grid.to_payload()
    assert sorted(payload) == ["lipschitz", "values", "xs"]
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(payload))
    loaded = parse_potential_spec("grid:%s" % path)
    assert np.array_equal(loaded.xs, grid.xs)
    assert np.array_equal(loaded.values, grid.values)
    assert loaded.lipschitz == grid.lipschitz


def test_keys_name_the_value_identity(tmp_path):
    # equal parameters give equal keys, whatever the spec's spelling or
    # source; a parameter apart gives another key, and so does a roof
    # apart for the passage integrand. A grid file read back is the
    # seeded grid it was written from
    spec_pairs = [("grid:seed:3", "grid:seed:4"),
                  ("const:0.3", "const:0.31"),
                  ("bump:2.0,0.1", "bump:2.0,0.11"),
                  ("bump:2.0,0.1", "bump:2.5,0.1"),
                  ("const:0", "coord:x")]
    for a, b in spec_pairs:
        assert parse_potential_spec(a).key == parse_potential_spec(a).key
        assert parse_potential_spec(a).key != parse_potential_spec(b).key
    assert parse_potential_spec("const:0.3").key == \
        ConstantPotential(0.3).key
    grid = SectionGridPotential.seeded(3)
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(grid.to_payload()))
    assert parse_potential_spec("grid:%s" % path).key == grid.key
    assert SectionGridPotential(grid.xs, grid.values, 2.0).key != grid.key
    roof = RoofFunction(1.0, 1.0, 0.5)
    for pot in (CoordinatePotential(), grid, SingularBumpPotential(2.0, 0.1)):
        passage = _PassageIntegrand(pot, roof).key
        assert passage == _PassageIntegrand(
            pot, RoofFunction(1.0, 1.0, 0.5)).key
        for other in (roof.scaled(2.0), RoofFunction(1.0, 2.0, 0.5),
                      RoofFunction(1.0, 1.0, 0.25)):
            assert _PassageIntegrand(pot, other).key != passage
    # a potential without a key has an unkeyed passage
    keyless = type("Keyless", (), {"value": CoordinatePotential.value})()
    assert _PassageIntegrand(keyless, roof).key is None


def test_two_axis_grid_payload_is_a_config_error(tmp_path):
    # the former (x, y) form: a potential is a function of x alone, and
    # the error names the one-axis form
    payload = {"xs": [-1.0, 0.0, 1.0], "ys": [-1.0, 1.0],
               "values": [[0.1, 0.2], [0.0, 0.1], [-0.1, 0.3]],
               "lipschitz": 1.0}
    path = tmp_path / "two_axis.json"
    path.write_text(json.dumps(payload))
    one_axis = re.escape('{"xs": [...], "values": [...], "lipschitz": L}')
    with pytest.raises(ConfigError, match="y axis.*" + one_axis):
        parse_potential_spec("grid:%s" % path)
    with pytest.raises(ConfigError, match="y axis"):
        SectionGridPotential.from_payload(payload)


@pytest.mark.parametrize("field, index", [
    ("xs", (3,)), ("values", (0,)), ("values", (2,))])
def test_grid_payload_rejects_non_finite_samples(tmp_path, field, index):
    # json writes and reads NaN: such a grid used to load, and the transfer
    # pressure of a NaN sample came out as -inf after 1.2 s
    payload = SectionGridPotential.seeded(5).to_payload()
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
    values[1] = -math.inf
    with pytest.raises(PreconditionError,
                       match=r"grid values must be finite, got -inf"):
        SectionGridPotential(grid.xs, values, grid.lipschitz)


@pytest.mark.parametrize("bad", [
    "", "const", "const:x", "coord:y", "bump:1.0", "bump:a,b",
    "bump:1.0,0.9", "grid:", "grid:seed:abc", "grid:/nonexistent.json",
    "mystery:1", "const:nan", "const:inf", "const:-inf", "bump:inf,0.1",
    "bump:nan,0.1", "bump:1.0,nan",
])
def test_parse_potential_spec_rejects(bad):
    with pytest.raises(ConfigError):
        parse_potential_spec(bad)
