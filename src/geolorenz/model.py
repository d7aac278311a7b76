"""Geometric Lorenz model pieces: the one-dimensional quotient map family,
the contracting skew product over it, the log-singular roof function, and a
validator that checks every model axiom and reports per-axiom results.
"""

import math

import numpy as np

from .errors import DomainError, PreconditionError

SQRT2 = math.sqrt(2.0)

# the domain of each constructor parameter of the model, as (test,
# phrase); NaN fails every test
_DOMAINS = {
    "alpha": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "beta": (lambda v: v > 0.0, "be positive"),
    "rho": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "c_H": (lambda v: v > 0.0, "be positive"),
    "c0": (lambda v: v > 0.0, "be positive"),
    "c1": (lambda v: v >= 0.0, "be nonnegative"),
    "eta0": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
}


def check_parameter(name, value):
    """`value` as a float, if it lies in the domain of the model parameter
    `name` (a key of `_DOMAINS`); else a PreconditionError naming it."""
    value = float(value)
    test, phrase = _DOMAINS[name]
    if not test(value):
        raise PreconditionError("%s must %s, got %r" % (name, phrase, value))
    return value


class LorenzMap1D:
    """Quotient map f on [-1, 1] minus the origin.

    Branches
    --------
    f(x) = 1 - beta * (-x)**alpha   for x < 0
    f(x) = -1 + beta * x**alpha     for x > 0

    Both branches are increasing, f(0-) = 1 and f(0+) = -1, and the
    family is odd: f(-x) = -f(x).

    Parameters
    ----------
    alpha : float in (0, 1]
        Branch exponent. alpha = 1 gives constant slope beta.
    beta : float > 0
        Slope scale. The expansion axiom needs alpha*beta > sqrt(2),
        the range axiom needs beta < 2; the validator checks both.

    A map is a value: `alpha` and `beta` are read-only, and a pickled map
    is rebuilt from them alone. `store` is the model's symbolic store
    (`symbolic.model_store`), taken when the map is built and shared by
    every live map of the same (alpha, beta); the last of them frees it.
    """

    def __init__(self, alpha=1.0, beta=1.7):
        # symbolic imports this module, so it is imported here
        from .symbolic import model_store

        alpha = check_parameter("alpha", alpha)
        beta = check_parameter("beta", beta)
        self._alpha = alpha
        self._beta = beta
        self.store = model_store(alpha, beta)

    @property
    def alpha(self):
        return self._alpha

    @property
    def beta(self):
        return self._beta

    def __reduce__(self):
        return (LorenzMap1D, (self._alpha, self._beta))

    def __call__(self, x):
        return evaluate_base(self, x)

    def __repr__(self):
        return "LorenzMap1D(alpha=%r, beta=%r)" % (self.alpha, self.beta)

    def min_slope(self):
        """Infimum of f'(x) = alpha*beta*|x|**(alpha-1) over the domain,
        attained at |x| = 1."""
        return self.alpha * self.beta

    def step_array(self, xs):
        """Vectorized branch evaluation; xs must avoid 0 (not checked)."""
        xs = np.asarray(xs, dtype=float)
        pw = np.abs(xs) ** self.alpha
        return np.where(xs < 0, 1.0 - self.beta * pw, -1.0 + self.beta * pw)

    def branch_range(self, symbol):
        """Closed image interval of a branch: L -> [1-beta, 1], R -> [-1, beta-1]."""
        if symbol == "L":
            return (1.0 - self.beta, 1.0)
        if symbol == "R":
            return (-1.0, self.beta - 1.0)
        raise PreconditionError("unknown branch symbol %r" % symbol)

    def inverse_branch(self, symbol, t, clip=False):
        """Preimage of t under one branch.

        L branch: t in [1-beta, 1] -> -((1-t)/beta)**(1/alpha) in [-1, 0]
        R branch: t in [-1, beta-1] -> ((1+t)/beta)**(1/alpha) in [0, 1]

        With clip=True, t outside the branch range is clamped to it first
        (used by cylinder pullbacks, where clamping encodes an empty or
        partial intersection with the branch domain).
        """
        lo, hi = self.branch_range(symbol)
        if clip:
            t = min(max(t, lo), hi)
        elif not lo <= t <= hi:
            raise DomainError(
                "t=%r outside range of branch %s = [%r, %r]" % (t, symbol, lo, hi))
        if symbol == "L":
            return -(((1.0 - t) / self.beta) ** (1.0 / self.alpha))
        return ((1.0 + t) / self.beta) ** (1.0 / self.alpha)

    def iterate(self, x, n):
        """Orbit segment [x, f(x), ..., f^(n-1)(x)]; raises if it hits 0."""
        out = []
        for _ in range(n):
            out.append(x)
            x = evaluate_base(self, x)
        return out


def evaluate_base(lmap, x):
    """Evaluate the quotient map at one point.

    Raises DomainError at x = 0 and for |x| > 1. The result lies strictly
    inside (-1, 1) whenever beta < 2.
    """
    if x == 0.0:
        raise DomainError("quotient map undefined at x = 0")
    if abs(x) > 1.0:
        raise DomainError("|x| > 1 is outside the trapping interval, got %r" % x)
    if x < 0.0:
        return 1.0 - lmap.beta * (-x) ** lmap.alpha
    return -1.0 + lmap.beta * x ** lmap.alpha


class SkewProductReturnMap:
    """Return map (x, y) -> (f(x), H(x, y)) on the section square.

    The fiber map is affine in y:

        H(x, y) = -sign(x) * (c_H + rho * y * |x|**alpha)

    so |H| <= c_H + rho and the y-contraction rate is exactly rho.
    Sign convention: H < 0 for x > 0 and H > 0 for x < 0 (this needs
    c_H > rho, which the validator checks as the fiber-sign axiom).
    """

    def __init__(self, base, rho=0.3, c_H=0.5):
        if not isinstance(base, LorenzMap1D):
            raise PreconditionError("base must be a LorenzMap1D")
        self.base = base
        self.rho = check_parameter("rho", rho)
        self.c_H = check_parameter("c_H", c_H)

    def __repr__(self):
        return "SkewProductReturnMap(%r, rho=%r, c_H=%r)" % (
            self.base, self.rho, self.c_H)

    def fiber(self, x, y):
        """H(x, y) elementwise: a float for scalar x and y, else an array
        of their broadcast shape. DomainError if any x is 0.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise DomainError("fiber map undefined on the singular line x = 0")
        mag = self.c_H + self.rho * y * np.abs(x) ** self.base.alpha
        out = np.where(x > 0, -mag, mag)
        return float(out) if out.ndim == 0 else out

    def __call__(self, x, y):
        return evaluate_base(self.base, x), self.fiber(x, y)


class RoofFunction:
    """Return-time model r(x) = c0 + c1 * max(0, log(eta0 / |x|)).

    Near the singular line the passage time diverges logarithmically,
    mimicking the linearized transit past a hyperbolic equilibrium; away
    from it (|x| >= eta0) the return takes the base time c0. The dwell
    time d_b(x) is the part of one passage spent within distance b of
    the singularity; the model assigns c1 units of time per unit of
    log-distance, capped by the singular part of the roof.

    Parameters
    ----------
    c0 : float > 0, base return time
    c1 : float >= 0, dwell coefficient (c1 = 0 gives a constant roof)
    eta0 : float in (0, 1), calibration radius where the log term vanishes

    A roof is a value: `c0`, `c1` and `eta0` are read-only, so its `key`
    is taken once, when it is built. `integrands` keeps the roof and
    dwell integrands of `measures` built on the roof, each once per
    function and radius (`measures._roof_integrand`).
    """

    def __init__(self, c0=1.0, c1=1.0, eta0=0.5):
        self._c0 = check_parameter("c0", c0)
        self._c1 = check_parameter("c1", c1)
        self._eta0 = check_parameter("eta0", eta0)
        self._key = np.array([self._c0, self._c1, self._eta0]).tobytes()
        self.integrands = {}

    @property
    def c0(self):
        return self._c0

    @property
    def c1(self):
        return self._c1

    @property
    def eta0(self):
        return self._eta0

    def __repr__(self):
        return "RoofFunction(c0=%r, c1=%r, eta0=%r)" % (self.c0, self.c1, self.eta0)

    @property
    def key(self):
        """The bytes of (c0, c1, eta0), taken when the roof is built: the
        value identity under which roof-model integrals are memoized."""
        return self._key

    def __call__(self, x):
        """r(x) at one point (see `roof_array`); DomainError at x = 0."""
        if x == 0.0:
            raise DomainError("roof undefined at x = 0")
        return float(roof_array(self, x))

    def dwell(self, x, b):
        """Time within distance b of the singularity during one passage,
        at one point (see `dwell_array`); DomainError at x = 0."""
        if x == 0.0:
            raise DomainError("dwell undefined at x = 0")
        if not b > 0.0:
            raise PreconditionError("dwell radius must be positive, got %r" % b)
        return float(dwell_array(self, x, b))

    def scaled(self, k):
        """Roof multiplied by constant k > 0 (time-rescaled flow)."""
        if not k > 0.0:
            raise PreconditionError("scale factor must be positive")
        return RoofFunction(self.c0 * k, self.c1 * k, self.eta0)


def roof_array(roof, x):
    """r(x) at an array of points, with |x| floored at 1e-300 (no DomainError)."""
    a = np.abs(np.asarray(x, dtype=float))
    return roof.c0 + roof.c1 * np.maximum(
        0.0, np.log(roof.eta0 / np.maximum(a, 1e-300)))


def dwell_array(roof, x, b):
    """d_b(x) = c1 * max(0, log(b/|x|)) at an array of points, capped by the
    singular part of the roof (which binds only for b > eta0); |x| is
    floored at 1e-300 as in `roof_array`."""
    a = np.maximum(np.abs(np.asarray(x, dtype=float)), 1e-300)
    raw = roof.c1 * np.maximum(0.0, np.log(b / a))
    cap = roof.c1 * np.maximum(0.0, np.log(roof.eta0 / a))
    return np.minimum(raw, cap)


def abs_range(lo, hi):
    """Range of |x| over each closed interval [lo, hi]: (nearest, farthest)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    nearest = np.where((lo <= 0.0) & (hi >= 0.0), 0.0,
                       np.minimum(np.abs(lo), np.abs(hi)))
    return nearest, np.maximum(np.abs(lo), np.abs(hi))


def monotone_ends(fn, lo, hi, diverges=False):
    """(min, max) over each closed interval [lo, hi] of a function of the
    distance |x| that does not increase with it: fn at the farthest and at
    the nearest distance (`abs_range`). The max is +inf on an interval
    that reaches 0 only when the function `diverges` there, as the roof,
    its dwell times and the bump's passage integral do when c1 > 0."""
    near, far = abs_range(lo, hi)
    top = fn(near)
    if diverges:
        top = np.where(near <= 0.0, np.inf, top)
    return fn(far), top


class ModelValidationReport:
    """Per-axiom pass/fail rows plus measured extremes and a parameter echo."""

    def __init__(self, params, grid_density):
        self.params = dict(params)
        self.grid_density = int(grid_density)
        self.checks = []
        self.measured = {}

    def add(self, name, passed, detail):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_pass(self):
        return all(row["passed"] for row in self.checks)

    def failed_names(self):
        return [row["name"] for row in self.checks if not row["passed"]]

    def as_dict(self):
        return {
            "all_pass": self.all_pass,
            "checks": self.checks,
            "measured": self.measured,
            "params": self.params,
            "grid_density": self.grid_density,
        }


# floor for the x-grid of the fiber-derivative scan: for alpha < 1 the
# x-derivative of H is unbounded as x -> 0, so the axiom is checked on
# sampled points bounded away from the singular line (see report detail)
_DERIV_X_FLOOR = 1e-2
# the largest sign grid `validate_model` builds: 2 x 100,000 points on
# the base and 100,000 x 21 fiber values
MAX_GRID_DENSITY = 100_000


def validate_model(skew, grid_density=1000):
    """Check every model axiom, analytically where a closed form exists and
    on grids as confirmation. Failures are report rows, never exceptions.
    The fiber grids are broadcast calls of `skew.fiber`: one on the
    grid_density x 21 sign grid, four on the 50 x 21 derivative grid.
    A grid_density outside [100, MAX_GRID_DENSITY] raises
    PreconditionError before any grid is built.
    """
    if grid_density < 100:
        raise PreconditionError("grid_density must be >= 100, got %r" % grid_density)
    if grid_density > MAX_GRID_DENSITY:
        raise PreconditionError("grid_density must be <= %d, got %r"
                                % (MAX_GRID_DENSITY, grid_density))
    lmap = skew.base
    alpha, beta, rho, c_H = lmap.alpha, lmap.beta, skew.rho, skew.c_H
    rep = ModelValidationReport(
        {"alpha": alpha, "beta": beta, "rho": rho, "c_H": c_H}, grid_density)

    g = int(grid_density)
    xs_half = (np.arange(g) + 0.5) / g          # (0, 1) open grid
    xs = np.concatenate([-xs_half[::-1], xs_half])

    # one-sided limits at the singular line
    f_left = evaluate_base(lmap, -1e-12)
    f_right = evaluate_base(lmap, 1e-12)
    ok = abs(f_left - 1.0) <= 1e-6 and abs(f_right + 1.0) <= 1e-6
    rep.add("limits-at-origin", ok,
            "f(0-)=%.3e-close to 1, f(0+)=%.3e-close to -1"
            % (abs(f_left - 1.0), abs(f_right + 1.0)))

    # range axiom: -1 < f(x) < 1 needs beta < 2
    fx = lmap.step_array(xs)
    fx_end = max(abs(evaluate_base(lmap, 1.0)), abs(evaluate_base(lmap, -1.0)))
    max_abs_f = max(float(np.max(np.abs(fx))), fx_end)
    rep.measured["max_abs_f"] = max_abs_f
    rep.add("range", beta < 2.0 and max_abs_f < 1.0,
            "beta=%g (needs < 2); grid max |f| = %.12g" % (beta, max_abs_f))

    # expansion axiom: f' > sqrt(2); closed-form minimum alpha*beta at |x| = 1
    min_fp_analytic = alpha * beta
    min_fp_grid = float(np.min(alpha * beta * np.abs(xs) ** (alpha - 1.0)))
    min_fp = min(min_fp_analytic, min_fp_grid)
    rep.measured["min_fprime"] = min_fp
    rep.add("expansion", min_fp_analytic > SQRT2 and min_fp_grid > SQRT2,
            "min f' = %.12g (needs > sqrt(2) = %.12g)" % (min_fp, SQRT2))

    # fiber sign: H < 0 right of the singular line, > 0 left of it; the
    # worst case over y in [-1, 1] is c_H - rho at |x| = 1
    hx = skew.fiber(xs_half[:, None], np.linspace(-1.0, 1.0, 21))
    sign_ok = bool(np.all(hx < 0.0)) and c_H > rho
    rep.add("fiber-sign", sign_ok,
            "sign(H) fixed by sign(x); needs c_H > rho (%g > %g)" % (c_H, rho))

    # fiber contraction: |H| <= c_H + rho < 1
    max_abs_h = float(np.max(np.abs(hx)))
    rep.measured["max_abs_H"] = max_abs_h
    rep.add("fiber-contraction", c_H + rho < 1.0 and max_abs_h < 1.0,
            "c_H + rho = %g (needs < 1); grid max |H| = %.12g" % (c_H + rho, max_abs_h))

    # fiber derivative: finite differences of H on a grid with |x| >= 1e-2;
    # for alpha < 1 the x-derivative grows like |x|**(alpha-1) toward the
    # singular line, so the check is meaningful only on the sampled region
    h = 1e-6
    xg = np.linspace(_DERIV_X_FLOOR, 1.0 - h, 50)[:, None]
    yg = np.linspace(-1.0 + h, 1.0 - h, 21)
    dx = (skew.fiber(xg + h, yg) - skew.fiber(xg - h, yg)) / (2 * h)
    dy = (skew.fiber(xg, yg + h) - skew.fiber(xg, yg - h)) / (2 * h)
    max_dh = float(max(np.max(np.abs(dx)), np.max(np.abs(dy))))
    rep.measured["max_dH"] = max_dh
    rep.add("fiber-derivative", max_dh < 1.0,
            "grid sup max(|dH/dx|, |dH/dy|) = %.12g on |x| >= %g" %
            (max_dh, _DERIV_X_FLOOR))

    return rep
