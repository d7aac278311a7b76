"""Observables on the cross-section and their per-passage weights.

A potential is a bounded continuous function of x on the section,
evaluated as phi(x). It does not depend on the fiber coordinate y, so its
integrals against measures of the quotient map f are exactly those of the
2-D return map. Measure integrals sample it at cylinder midpoints, so
every variant also reports a rigorous bound on how far it can move across
a cylinder (`midpoint_error`). Flow-level quantities never simulate the
flow: each variant supplies the closed-form integral of the potential
over one passage of the suspension (`passage_integral`), which for a
plain section observable is just phi(x) * r(x) and for the singular bump
is the exact dwell-model integral.

Every method is array-native: `value(x)` and `passage_integral(x, roof)`
take arrays of points, and the bounds `midpoint_error(lo, hi)`,
`abs_bound(lo, hi)` and `passage_error(lo, hi, roof)` take arrays of
cylinder endpoints and return one bound per cylinder. Scalar inputs
return Python floats. There is one formula per bound, so the array
result equals the elementwise scalar results bit for bit: the plain
observables (`PLAIN_POTENTIALS`) share one passage integral and one
passage bound, and every range of a function of |x| over a cylinder
(the roof's, the bump's) is `model.monotone_ends`. The plain passage
methods also take the roof's values and range from a caller that holds
them: a cylinder scheme keeps them for each roof, so a flow integral of
a plain potential on a scheme evaluates the potential and not the roof.

Every variant also carries a `key`, its value identity: its class and
the bytes of the parameters that `value` and the bounds read, derived
from them on each read (a grid's once, from its frozen samples) so that
it cannot go stale. Equal keys mean equal floats, so
`measures.integrate_many` caches the integrals of a keyed potential; a
potential without a `key` is integrated afresh every time. The roof's
key is taken once, when it is built: its parameters are read-only.

The mini-language used by configuration files and the command line:

    const:c        constant potential c
    coord:x        phi(x) = x
    bump:L,eta     singular bump of level L, inner radius eta
    grid:seed:N    seeded cosine series sampled on an x grid (deterministic)
    grid:<path>    linear interpolation of a saved grid file
                   {"xs": [...], "values": [...], "lipschitz": L}
"""

import functools
import json
import math

import numpy as np

from .errors import ConfigError, PreconditionError
from .model import abs_range, monotone_ends, roof_array

LOG2 = math.log(2.0)


def _as_array(x):
    return np.asarray(x, dtype=float)


def _scalar_or_array(out, x):
    # mirror the shape of the input: scalars in, floats out
    if np.ndim(x) == 0:
        return float(out)
    return out


def _plain_passage_integral(self, x, roof, r=None):
    """phi(x) * r(x), the passage integral of a section observable with no
    singular part. `r` is the roof at the points, r(x), from a caller
    that holds it (a cylinder scheme keeps it at its midpoints, see
    `measures._scheme_integrals`); without it the roof is evaluated here.
    The constant, coordinate and grid potentials each bind it in their
    own class body, where the benchmark tracer (`benchmarks/tracer.py`)
    finds and wraps every traced method."""
    xs = _as_array(x)
    if r is None:
        r = roof_array(roof, xs)
    out = self.value(xs) * r
    return _scalar_or_array(out, x)


def _plain_passage_error(self, lo, hi, roof, roof_range=None):
    """Bound on phi * r over each cylinder [lo, hi] for a section observable
    with no singular part: sup |phi| times the roof's range plus the roof's
    sup times L * width / 2. A zero factor is exact (0 * inf = 0).
    `roof_range` is the roof's range on each cylinder as its width and
    its top, (r_max - r_min, r_max) of `model.monotone_ends`, from a
    caller that holds it (a cylinder scheme, like `r`); without it, it is
    computed here. Bound in each class body like
    `_plain_passage_integral`."""
    if roof_range is None:
        r_min, r_max = monotone_ends(functools.partial(roof_array, roof),
                                     lo, hi, diverges=roof.c1 > 0.0)
        roof_range = (r_max - r_min, r_max)
    r_width, r_max = roof_range
    sup = self.abs_bound(lo, hi)
    lip = self.lipschitz_bound()
    width = _as_array(hi) - _as_array(lo)
    with np.errstate(invalid="ignore"):
        # every factor is >= 0, so a NaN can only be 0 * inf: fmax makes it 0
        spread = np.fmax(sup * r_width, 0.0)
        drift = np.fmax(r_max * lip * 0.5 * width, 0.0)
    return _scalar_or_array(spread + drift, lo)


class ConstantPotential:
    """phi == c. The degenerate baseline every estimator must shift exactly."""

    def __init__(self, c=0.0):
        self.c = float(c)
        if not math.isfinite(self.c):
            raise PreconditionError("constant potential must be finite, "
                                    "got %r" % c)

    def __repr__(self):
        return "ConstantPotential(%r)" % self.c

    @property
    def key(self):
        return (type(self), np.float64(self.c).tobytes())

    def value(self, x):
        out = np.full(np.shape(x), self.c)
        return _scalar_or_array(out, x)

    def midpoint_error(self, lo, hi):
        return _scalar_or_array(np.zeros(np.shape(lo)), lo)

    def abs_bound(self, lo, hi):
        return _scalar_or_array(np.full(np.shape(lo), abs(self.c)), lo)

    def lipschitz_bound(self):
        return 0.0

    def value_at_sigma(self):
        return self.c

    passage_integral = _plain_passage_integral
    passage_error = _plain_passage_error


class CoordinatePotential:
    """phi(x) = x, the standard non-constant test observable."""

    def value(self, x):
        out = _as_array(x).copy()
        return _scalar_or_array(out, x)

    def __repr__(self):
        return "CoordinatePotential()"

    @property
    def key(self):
        return (type(self),)

    def midpoint_error(self, lo, hi):
        return _scalar_or_array(0.5 * (_as_array(hi) - _as_array(lo)), lo)

    def abs_bound(self, lo, hi):
        return _scalar_or_array(abs_range(lo, hi)[1], lo)

    def lipschitz_bound(self):
        return 1.0

    def value_at_sigma(self):
        return 0.0

    passage_integral = _plain_passage_integral
    passage_error = _plain_passage_error


class SectionGridPotential:
    """Linear interpolation of samples on one x axis, constant beyond its
    ends.

    Carries a declared Lipschitz constant used for the rigorous midpoint
    bounds; linear interpolation of samples of an M-Lipschitz function
    never exceeds slope M, so the declared constant is honest for the
    interpolant as well.
    """

    def __init__(self, xs, values, lipschitz):
        self.xs = np.array(xs, dtype=float)
        self.values = np.array(values, dtype=float)
        if self.xs.ndim != 1:
            raise PreconditionError("grid axis must be one-dimensional")
        if self.values.shape != self.xs.shape:
            raise PreconditionError(
                "grid values must have shape (len(xs),) = %r, got %r"
                % (self.xs.shape, self.values.shape))
        for name, arr in (("xs", self.xs), ("values", self.values)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                where = tuple(bad[0].tolist())
                raise PreconditionError(
                    "grid %s must be finite, got %r at index %s"
                    % (name, float(arr[where]), where))
        if np.any(np.diff(self.xs) <= 0):
            raise PreconditionError("grid axis must be strictly increasing")
        if self.xs.size < 2:
            raise PreconditionError("grid axis needs at least two points")
        self.lipschitz = float(lipschitz)
        if not self.lipschitz >= 0.0:
            raise PreconditionError("Lipschitz constant must be nonnegative")
        # the grid is frozen, so the cell widths, the sup and the key cannot
        # go stale; one key object serves every memo entry of the grid
        for arr in (self.xs, self.values):
            arr.flags.writeable = False
        self._dx = np.diff(self.xs)
        self._sup = np.max(np.abs(self.values))
        self.key = (type(self), self.xs.tobytes(), self.values.tobytes(),
                    np.float64(self.lipschitz).tobytes())

    def __repr__(self):
        return "SectionGridPotential(%d points, lipschitz=%.4g)" % (
            self.xs.size, self.lipschitz)

    def value(self, x):
        # minimum(maximum()) is np.clip's arithmetic without its wrapper
        xa = np.minimum(np.maximum(_as_array(x), self.xs[0]), self.xs[-1])
        # the cell of a clipped point: the count of interior breakpoints at
        # or below it, which puts the last breakpoint in the last cell
        i = self.xs[1:-1].searchsorted(xa, side="right")
        tx = (xa - self.xs.take(i)) / self._dx.take(i)
        out = (1 - tx) * self.values.take(i) + tx * self.values.take(i + 1)
        return _scalar_or_array(out, x)

    def midpoint_error(self, lo, hi):
        out = self.lipschitz * 0.5 * (_as_array(hi) - _as_array(lo))
        return _scalar_or_array(out, lo)

    def abs_bound(self, lo, hi):
        # coarse but safe: global sup of the samples
        out = np.full(np.shape(lo), self._sup)
        return _scalar_or_array(out, lo)

    def lipschitz_bound(self):
        return self.lipschitz

    def value_at_sigma(self):
        return self.value(0.0)

    passage_integral = _plain_passage_integral
    passage_error = _plain_passage_error

    @classmethod
    def seeded(cls, seed):
        """Deterministic pseudo-random potential with certified bounds.

        A four-mode cosine series in x with a gain 1 + ymod/4, ymod drawn
        from the seed, rescaled so that its sup-norm stays within 0.3 and
        its Lipschitz constant within 1, and sampled at 241 points of
        [-1, 1]. Same seed, same function, bit for bit; the gain and its
        draw are part of what a seed names, so neither can go without
        changing every seed's samples.
        """
        amplitude, lipschitz, n_modes, nx = 0.3, 1.0, 4, 241
        rng = np.random.default_rng(int(seed))
        amps = rng.normal(size=n_modes)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
        ymod = rng.uniform(0.3, 0.8)
        # sup and slope bounds of the unscaled series, gain included
        yfac = 1.0 + 0.25 * ymod
        sup_raw = float(np.sum(np.abs(amps))) * yfac
        ks = np.arange(1, n_modes + 1)
        lip_raw = float(np.sum(np.abs(amps) * ks)) * (np.pi / 2.0) * yfac
        scale = min(amplitude / sup_raw, lipschitz / lip_raw)

        xs = np.linspace(-1.0, 1.0, nx)
        gx = ((ks[None, :] * np.pi / 2.0) * (xs[:, None] + 1.0)
              + phases[None, :])
        # einsum, not a BLAS matmul, so that the samples do not depend on
        # the BLAS kernel or its thread count
        series = np.einsum("ij,j->i", np.cos(gx), amps)
        return cls(xs, scale * series * yfac, scale * lip_raw)

    def to_payload(self):
        return {
            "xs": [float(v) for v in self.xs],
            "values": [float(v) for v in self.values],
            "lipschitz": self.lipschitz,
        }

    @classmethod
    def from_payload(cls, payload):
        """The grid of {"xs": [...], "values": [...], "lipschitz": L}, one
        sample per x. ConfigError if a key is missing, a value is not a
        number, or a y axis ("ys") is present; the constructor's
        PreconditionError if the samples do not make a grid."""
        try:
            if "ys" in payload:
                raise ConfigError(
                    "grid potential payload has a y axis; a potential is a "
                    "function of x alone, written {\"xs\": [...], "
                    "\"values\": [...], \"lipschitz\": L} with one value "
                    "per x")
            return cls(payload["xs"], payload["values"], payload["lipschitz"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("malformed grid potential payload: %s" % exc)


class SingularBumpPotential:
    """Bump of height L centered on the singular orbit.

    On the section the profile depends on the distance a = |x| alone:
    full level L for a <= eta, zero for a >= 2*eta, and linear in
    log-distance on the ramp in between, so the potential is continuous
    and satisfies 0 <= phi <= L everywhere.

    The passage integral is exact under the dwell model (c1 units of time
    per unit log-distance between |x| and eta0):

        a <= eta:        L*c1*(log(eta/a) + log(2)/2)
        eta < a < 2eta:  L*c1*log(2*eta/a)^2 / (2*log 2)
        a >= 2eta:       0

    which requires 2*eta <= eta0 so the ramp is fully resolved by the
    roof; the constructor cannot check that (no roof in scope), so the
    passage methods do.
    """

    def __init__(self, level, eta):
        self.level = float(level)
        self.eta = float(eta)
        if not 0.0 < self.level < math.inf:
            raise PreconditionError("bump level must be positive and "
                                    "finite, got %r" % level)
        if not 0.0 < self.eta < 0.5:
            raise PreconditionError(
                "bump inner radius must lie in (0, 0.5), got %r" % eta)

    def __repr__(self):
        return "SingularBumpPotential(level=%r, eta=%r)" % (self.level, self.eta)

    @property
    def key(self):
        return (type(self), np.array([self.level, self.eta]).tobytes())

    def _profile(self, a):
        ramp = self.level * np.log(2.0 * self.eta / np.maximum(a, 1e-300)) / LOG2
        out = np.where(a <= self.eta, self.level,
                       np.where(a >= 2.0 * self.eta, 0.0, ramp))
        return out

    def value(self, x):
        a = np.abs(_as_array(x))
        return _scalar_or_array(self._profile(a), x)

    def midpoint_error(self, lo, hi):
        low, high = monotone_ends(self._profile, lo, hi)
        return _scalar_or_array(high - low, lo)

    def abs_bound(self, lo, hi):
        return _scalar_or_array(self._profile(abs_range(lo, hi)[0]), lo)

    def lipschitz_bound(self):
        return self.level / (LOG2 * self.eta)

    def value_at_sigma(self):
        return self.level

    def _check_roof(self, roof):
        if 2.0 * self.eta > roof.eta0 + 1e-15:
            raise PreconditionError(
                "bump outer radius 2*eta = %g exceeds the roof calibration "
                "radius eta0 = %g; the dwell model cannot resolve the ramp"
                % (2.0 * self.eta, roof.eta0))

    def _passage(self, a, roof):
        L, eta, c1 = self.level, self.eta, roof.c1
        a = np.maximum(a, 1e-300)
        inner = L * c1 * (np.log(eta / a) + 0.5 * LOG2)
        ramp = L * c1 * np.log(2.0 * eta / a) ** 2 / (2.0 * LOG2)
        return np.where(a <= eta, inner,
                        np.where(a >= 2.0 * eta, 0.0, ramp))

    def passage_integral(self, x, roof):
        self._check_roof(roof)
        a = np.abs(_as_array(x))
        return _scalar_or_array(self._passage(a, roof), x)

    def passage_error(self, lo, hi, roof):
        self._check_roof(roof)
        low, high = monotone_ends(lambda a: self._passage(a, roof), lo, hi,
                                  diverges=roof.c1 > 0.0)
        return _scalar_or_array(high - low, lo)


# the potentials whose passage integral is phi(x) * r(x)
# (`_plain_passage_integral`): their passage methods take the roof's
# values and range from a caller that holds them
PLAIN_POTENTIALS = (ConstantPotential, CoordinatePotential,
                    SectionGridPotential)


def midpoint_error_many(potential, lo, hi):
    """Alias of `potential.midpoint_error` on endpoint arrays."""
    return potential.midpoint_error(lo, hi)


def passage_error_many(potential, roof, lo, hi, *roof_range):
    """Alias of `potential.passage_error` on endpoint arrays; the roof's
    range, if given, goes to a plain potential's (`_plain_passage_error`)."""
    return potential.passage_error(lo, hi, roof, *roof_range)


def parse_potential_spec(spec, base_dir=None):
    """Parse the potential mini-language; ConfigError on anything malformed."""
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigError("empty potential spec")
    spec = spec.strip()
    head, sep, rest = spec.partition(":")
    if head == "const":
        if not sep:
            raise ConfigError("const potential needs a value, e.g. const:0.5")
        try:
            return ConstantPotential(float(rest))
        except (ValueError, PreconditionError):
            raise ConfigError("bad constant in potential spec %r" % spec)
    if head == "coord":
        if rest not in ("", "x"):
            raise ConfigError("coordinate potential is written coord:x, got %r" % spec)
        return CoordinatePotential()
    if head == "bump":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ConfigError("bump potential is written bump:L,eta, got %r" % spec)
        try:
            level, eta = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError("bad numbers in potential spec %r" % spec)
        try:
            return SingularBumpPotential(level, eta)
        except PreconditionError as exc:
            raise ConfigError("bad bump parameters in %r: %s" % (spec, exc))
    if head == "grid":
        if rest.startswith("seed:"):
            seed_text = rest[len("seed:"):]
            try:
                seed = int(seed_text)
                if seed < 0:
                    raise ValueError(seed)
            except ValueError:
                raise ConfigError("bad seed in potential spec %r (needs an "
                                  "integer >= 0)" % spec)
            return SectionGridPotential.seeded(seed)
        if not rest:
            raise ConfigError("grid potential needs a path or seed, got %r" % spec)
        import os

        path = rest
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read grid potential file %r: %s" % (rest, exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("grid potential file %r is not valid JSON: %s" % (rest, exc))
        return SectionGridPotential.from_payload(payload)
    raise ConfigError(
        "unknown potential spec %r (expected const:, coord:, bump:, or grid:)" % spec)
