"""Base map, skew product, roof function, and the model validator."""

import math
import pickle

import numpy as np
import pytest

from geolorenz import (
    CoordinatePotential,
    DomainError,
    LorenzMap1D,
    PreconditionError,
    RoofFunction,
    SectionGridPotential,
    SingularBumpPotential,
    SingularDeltaMeasure,
    SkewProductReturnMap,
    TargetRequest,
    cylinder_levels,
    validate_model,
)
from geolorenz.measures import ball_fractions, suspend_many

SQRT2 = math.sqrt(2.0)


def test_branch_formulas_constant_slope(lmap):
    assert lmap(0.5) == pytest.approx(-1.0 + 1.7 * 0.5, abs=1e-15)
    assert lmap(-0.5) == pytest.approx(1.0 - 1.7 * 0.5, abs=1e-15)
    assert lmap(1.0) == pytest.approx(0.7, abs=1e-15)
    assert lmap(-1.0) == pytest.approx(-0.7, abs=1e-15)


def test_branch_formulas_general_exponent():
    lm = LorenzMap1D(alpha=0.8, beta=1.6)
    x = 0.37
    assert lm(x) == pytest.approx(-1.0 + 1.6 * x ** 0.8, rel=1e-14)
    assert lm(-x) == pytest.approx(1.0 - 1.6 * x ** 0.8, rel=1e-14)


def test_odd_symmetry(lmap):
    xs = np.linspace(1e-6, 1.0, 1000)
    fx = np.array([lmap(float(x)) for x in xs])
    fmx = np.array([lmap(float(-x)) for x in xs])
    assert np.max(np.abs(fx + fmx)) < 1e-14


def test_domain_rejections(lmap):
    with pytest.raises(DomainError):
        lmap(0.0)
    with pytest.raises(DomainError):
        lmap(1.2)
    with pytest.raises(DomainError):
        lmap(-1.0001)


def test_parameter_guards():
    with pytest.raises(PreconditionError):
        LorenzMap1D(alpha=0.0, beta=1.7)
    with pytest.raises(PreconditionError):
        LorenzMap1D(alpha=1.0, beta=-1.0)


def test_a_map_is_a_value():
    # the store is bound at construction, so a map whose beta changed
    # would read the old model's levels
    lm = LorenzMap1D(alpha=0.9, beta=1.8)
    for name in ("alpha", "beta"):
        with pytest.raises(AttributeError):
            setattr(lm, name, 1.95)
    assert (lm.alpha, lm.beta) == (0.9, 1.8)


def test_a_pickled_map_shares_the_registered_store():
    lm = LorenzMap1D(alpha=0.9, beta=1.8)
    levels = cylinder_levels(lm, 14)
    data = pickle.dumps(lm)
    # the map travels as its (alpha, beta); the depth-14 level alone
    # holds thousands of words
    assert len(data) < 200 < len(levels[14])
    twin = pickle.loads(data)
    assert twin is not lm
    assert (twin.alpha, twin.beta) == (0.9, 1.8)
    assert twin.store is lm.store
    assert cylinder_levels(twin, 14) is levels


def test_derivative_and_min_slope(lmap):
    assert lmap.min_slope() == pytest.approx(1.7, abs=1e-15)
    assert lmap.min_slope() > SQRT2
    lm = LorenzMap1D(alpha=0.9, beta=1.8)
    # minimal stretching sits at |x| = 1 when alpha < 1: the slope
    # alpha * beta * |x|**(alpha - 1) grows as |x| falls to 0, as the
    # secant of the R branch on [0.01, 0.02] shows
    assert lm.min_slope() == pytest.approx(0.9 * 1.8, rel=1e-14)
    secant = (lm(0.02) - lm(0.01)) / 0.01
    assert secant > 0.9 * 1.8 * 0.02 ** -0.1 > lm.min_slope()


def test_branch_monotonicity_sampled(lmap):
    # strict increase on each branch, 10^4 points per branch
    for lo, hi in ((-1.0, -1e-9), (1e-9, 1.0)):
        xs = np.linspace(lo, hi, 10000)
        vals = np.array([lmap(float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0.0)


def test_inverse_branch_composes(lmap):
    for symbol in "LR":
        lo, hi = lmap.branch_range(symbol)
        for t in np.linspace(lo + 1e-9, hi - 1e-9, 100):
            x = lmap.inverse_branch(symbol, float(t))
            assert lmap(x) == pytest.approx(float(t), abs=1e-12)


def test_inverse_branch_contracts(lmap):
    lo, hi = lmap.branch_range("R")
    t1, t2 = lo + 0.01, hi - 0.01
    x1 = lmap.inverse_branch("R", t1)
    x2 = lmap.inverse_branch("R", t2)
    assert abs(x1 - x2) <= abs(t1 - t2) / SQRT2


def test_iterate_matches_manual(lmap):
    x = 0.3
    segment = lmap.iterate(x, 6)
    y = x
    for k in range(6):
        assert segment[k] == pytest.approx(y, abs=1e-15)
        y = lmap(y)


def test_fiber_contraction_exact(skew):
    # affine in y: the y-Lipschitz constant at x is exactly rho*|x|^alpha
    for x in (0.3, -0.7, 0.05):
        for y1, y2 in ((0.2, -0.9), (1.0, -1.0), (0.11, 0.13)):
            d = abs(skew.fiber(x, y1) - skew.fiber(x, y2))
            assert d == pytest.approx(0.3 * abs(x) * abs(y1 - y2), abs=1e-15)
            assert d <= 0.3 * abs(y1 - y2) + 1e-15


def test_fiber_sign(skew):
    for x in (1e-6, 0.4, 1.0):
        for y in (-1.0, 0.0, 1.0):
            assert skew.fiber(x, y) < 0.0
            assert skew.fiber(-x, y) > 0.0


def _fiber_scalar(skew, x, y):
    """H(x, y) at one point, in Python floats (the scalar oracle)."""
    mag = skew.c_H + skew.rho * y * abs(x) ** skew.base.alpha
    return -mag if x > 0 else mag


@pytest.mark.parametrize("alpha, beta, rtol", [(1.0, 1.7, 0.0),
                                               (0.8, 1.985, 1e-14)])
def test_fiber_arrays_match_scalar_oracle(alpha, beta, rtol):
    # numpy's power may differ from libm pow in the last bit at alpha != 1
    skew = SkewProductReturnMap(LorenzMap1D(alpha, beta))
    xs = np.array([-1.0, -0.37, -1e-9, 2e-7, 0.013, 0.5, 1.0])
    ys = np.linspace(-1.0, 1.0, 9)
    grid = skew.fiber(xs[:, None], ys)
    assert grid.shape == (xs.size, ys.size)
    oracle = [[_fiber_scalar(skew, float(x), float(y)) for y in ys]
              for x in xs]
    np.testing.assert_allclose(grid, oracle, rtol=rtol, atol=0.0)
    one = skew.fiber(0.3, -0.2)
    assert type(one) is float
    assert one == pytest.approx(_fiber_scalar(skew, 0.3, -0.2), rel=rtol,
                                abs=0.0)
    with pytest.raises(DomainError):
        skew.fiber(0.0, 0.5)
    with pytest.raises(DomainError):
        skew.fiber(np.array([0.3, 0.0, -0.2]), 0.5)


def _fiber_rows_oracle(skew, grid_density):
    """measured max |H| and max |dH| of the validator, by scalar loops."""
    g = grid_density
    xs_half = [(k + 0.5) / g for k in range(g)]
    ys = np.linspace(-1.0, 1.0, 21).tolist()
    hx = [_fiber_scalar(skew, x, y) for x in xs_half for y in ys]
    h = 1e-6
    max_dh = 0.0
    for x in np.linspace(1e-2, 1.0 - h, 50).tolist():
        for y in np.linspace(-1.0 + h, 1.0 - h, 21).tolist():
            dx = (_fiber_scalar(skew, x + h, y)
                  - _fiber_scalar(skew, x - h, y)) / (2 * h)
            dy = (_fiber_scalar(skew, x, y + h)
                  - _fiber_scalar(skew, x, y - h)) / (2 * h)
            max_dh = max(max_dh, abs(dx), abs(dy))
    return {"fiber-sign": all(v < 0.0 for v in hx) and skew.c_H > skew.rho,
            "max_abs_H": max(abs(v) for v in hx), "max_dH": max_dh}


@pytest.mark.parametrize("alpha, beta, rho, c_H", [
    (1.0, 1.7, 0.3, 0.5),
    (0.8, 1.985, 0.3, 0.5),
    (1.0, 1.7, 0.45, 0.3),    # fiber sign lost
    (0.8, 1.985, 0.9, 0.95),  # contraction and derivative lost
])
@pytest.mark.parametrize("grid_density", [100, 10000])
def test_validator_fiber_grids_match_scalar_oracle(alpha, beta, rho, c_H,
                                                   grid_density):
    skew = SkewProductReturnMap(LorenzMap1D(alpha, beta), rho=rho, c_H=c_H)
    report = validate_model(skew, grid_density=grid_density)
    oracle = _fiber_rows_oracle(skew, grid_density)
    # at alpha != 1 a last-bit difference of numpy's power from libm pow
    # may move |H| by an ulp, and a finite difference by ulp / (2h)
    rel, dh_abs = (0.0, 0.0) if alpha == 1.0 else (1e-14, 1e-9)
    assert report.measured["max_abs_H"] == pytest.approx(
        oracle["max_abs_H"], rel=rel, abs=0.0)
    assert report.measured["max_dH"] == pytest.approx(
        oracle["max_dH"], rel=rel, abs=dh_abs)
    rows = {row["name"]: row["passed"] for row in report.checks}
    assert rows["fiber-sign"] == oracle["fiber-sign"]
    assert rows["fiber-contraction"] == (c_H + rho < 1.0
                                         and oracle["max_abs_H"] < 1.0)
    assert rows["fiber-derivative"] == (oracle["max_dH"] < 1.0)


def test_skew_product_guards(lmap):
    with pytest.raises(PreconditionError):
        SkewProductReturnMap(lmap, rho=1.2, c_H=0.5)
    with pytest.raises(PreconditionError):
        SkewProductReturnMap(lmap, rho=0.3, c_H=-0.1)


def test_validator_all_pass_defaults(skew):
    report = validate_model(skew)
    assert report.all_pass
    assert report.failed_names() == []
    d = report.as_dict()
    assert d["all_pass"] is True
    assert d["params"]["beta"] == 1.7


def test_validator_grid_refinement_stable(skew):
    # all-pass verdict agrees between coarse and fine sampling grids
    coarse = validate_model(skew, grid_density=100)
    fine = validate_model(skew, grid_density=10000)
    assert coarse.all_pass == fine.all_pass


@pytest.mark.parametrize(
    "alpha,beta,rho,c_H",
    [
        (1.0, 1.3, 0.3, 0.5),   # alpha*beta <= sqrt2
        (1.0, 2.0, 0.3, 0.5),   # beta at the open upper bound
        (1.0, 1.7, 0.55, 0.5),  # c_H + rho >= 1
    ],
)
def test_validator_catches_each_axiom(alpha, beta, rho, c_H):
    skew = SkewProductReturnMap(LorenzMap1D(alpha=alpha, beta=beta),
                                rho=rho, c_H=c_H)
    report = validate_model(skew)
    assert not report.all_pass
    assert report.failed_names()


def test_validator_catches_fiber_sign_loss():
    # rho >= c_H lets H(x, y) cross zero for x > 0
    skew = SkewProductReturnMap(LorenzMap1D(), rho=0.45, c_H=0.3)
    report = validate_model(skew)
    assert not report.all_pass


def test_roof_profile(roof):
    assert roof(0.5) == pytest.approx(1.0, abs=1e-15)
    assert roof(0.9) == pytest.approx(1.0, abs=1e-15)
    assert roof(0.25) == pytest.approx(1.0 + math.log(2.0), rel=1e-14)
    assert roof(-0.25) == roof(0.25)
    # diverges like the log of the distance
    assert roof(1e-9) > 20.0


def test_roof_guards():
    with pytest.raises(PreconditionError):
        RoofFunction(c0=0.0)
    with pytest.raises(PreconditionError):
        RoofFunction(eta0=0.0)
    with pytest.raises(PreconditionError):
        RoofFunction(c1=-1.0)


def test_dwell_bounds_and_monotonicity(roof):
    x = 0.01
    total = roof(x)
    prev = 0.0
    for b in (0.001, 0.02, 0.1, 0.4, 0.8):
        d = roof.dwell(x, b)
        assert 0.0 <= d <= total - roof.c0 + 1e-15
        assert d >= prev - 1e-15
        prev = d
    # no time is spent closer than the closest approach
    assert roof.dwell(0.3, 0.05) == 0.0


def test_roof_and_dwell_undefined_at_the_singularity(roof):
    with pytest.raises(DomainError):
        roof(0.0)
    with pytest.raises(DomainError):
        roof.dwell(0.0, 0.1)
    with pytest.raises(PreconditionError):
        roof.dwell(0.1, 0.0)


def test_roof_scaled(roof):
    double = roof.scaled(2.0)
    for x in (0.01, 0.2, 0.7):
        assert double(x) == pytest.approx(2.0 * roof(x), rel=1e-15)
        assert double.dwell(x, 0.1) == pytest.approx(
            2.0 * roof.dwell(x, 0.1), rel=1e-15)


def test_a_roof_is_a_value():
    # the key is taken once, when the roof is built, so a roof whose
    # parameters changed would read the memo entries of the old ones
    roof = RoofFunction(1.5, 0.75, 0.25)
    for name in ("c0", "c1", "eta0"):
        with pytest.raises(AttributeError):
            setattr(roof, name, 0.5)
    assert (roof.c0, roof.c1, roof.eta0) == (1.5, 0.75, 0.25)
    assert roof.key == np.array([1.5, 0.75, 0.25]).tobytes()
    assert roof.key is roof.key
    double = roof.scaled(2.0)
    assert double is not roof
    assert double.key == np.array([3.0, 1.5, 0.25]).tobytes()
    assert roof.key == np.array([1.5, 0.75, 0.25]).tobytes()


def test_integrand_keys_are_taken_once(roof):
    # the keys of the roof, dwell and passage integrands are the tuples
    # that every memo entry is filed under, read without being rebuilt
    from geolorenz.measures import _PassageIntegrand, _RoofIntegrand
    from geolorenz.model import dwell_array, roof_array

    params = np.array([roof.c0, roof.c1, roof.eta0]).tobytes()
    grid = SectionGridPotential.seeded(7)
    keyless = type("Keyless", (), {"value": CoordinatePotential.value})()
    cases = [(_RoofIntegrand("roof", roof_array, roof),
              ("roof", params, np.array([]).tobytes())),
             (_RoofIntegrand("dwell", dwell_array, roof, 0.2),
              ("dwell", params, np.array([0.2]).tobytes())),
             (_PassageIntegrand(grid, roof), (grid.key, params)),
             (_PassageIntegrand(keyless, roof), None)]
    for integrand, want in cases:
        assert integrand.key == want
        assert integrand.key is integrand.key


def _all_singular_stats(b):
    # only the Dirac: no dwell integral is taken, so only the top-level
    # check of ball_fractions can see b
    stats = suspend_many([SingularDeltaMeasure()], RoofFunction(),
                         CoordinatePotential())
    return ball_fractions(stats, b)


NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: LorenzMap1D(1.0, NAN),
    lambda: RoofFunction(NAN, 1.0, 0.5),
    lambda: RoofFunction(1.0, NAN, 0.5),
    lambda: RoofFunction().dwell(0.5, NAN),
    lambda: RoofFunction().scaled(NAN),
    lambda: SkewProductReturnMap(LorenzMap1D(), 0.3, NAN),
    lambda: SingularBumpPotential(NAN, 0.1),
    lambda: SectionGridPotential([-1.0, 1.0], [0.0, 0.0], NAN),
    lambda: TargetRequest(LorenzMap1D(), CoordinatePotential(), 0.3, NAN),
    lambda: _all_singular_stats(NAN),
    lambda: _all_singular_stats(-1.0),
], ids=["beta", "c0", "c1", "dwell_radius", "roof_scale", "c_H",
        "bump_level", "grid_lipschitz", "tolerance", "ball_radius_nan",
        "ball_radius_negative"])
def test_nan_and_negative_parameters_are_rejected(make):
    # a NaN passes every `x <= 0.0` guard, so each guard is written as
    # `not x > 0.0` (or `not x >= 0.0`), which NaN fails
    with pytest.raises(PreconditionError):
        make()
