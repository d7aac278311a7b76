"""Observables on the cross-section and their per-passage weights.

A potential is a bounded continuous function on the section, evaluated as
phi(x, y). Measure integrals sample it at cylinder midpoints, so every
variant also reports a rigorous bound on how far it can move across a
cylinder (`midpoint_error`). Flow-level quantities never simulate the
flow: each variant supplies the closed-form integral of the potential
over one passage of the suspension (`passage_integral`), which for a
plain section observable is just phi(x, 0) * r(x) and for the singular
bump is the exact dwell-model integral.

Every method is array-native: `value(x, y)` and `passage_integral(x,
roof)` take arrays of points, and the bounds `midpoint_error(lo, hi)`,
`abs_bound(lo, hi)` and `passage_error(lo, hi, roof)` take arrays of
cylinder endpoints and return one bound per cylinder. Scalar inputs
return Python floats. There is one formula per bound, so the array
result equals the elementwise scalar results bit for bit.

The mini-language used by configuration files and the command line:

    const:c        constant potential c
    coord:x        phi(x, y) = x
    bump:L,eta     singular bump of level L, inner radius eta
    grid:seed:N    seeded trigonometric sample on a grid (deterministic)
    grid:<path>    bilinear interpolation of a saved grid file
"""

import json
import math

import numpy as np

from .errors import ConfigError, PreconditionError
from .model import abs_range, roof_array

LOG2 = math.log(2.0)


def _as_array(x):
    return np.asarray(x, dtype=float)


def _scalar_or_array(out, x):
    # mirror the shape of the input: scalars in, floats out
    if np.ndim(x) == 0:
        return float(out)
    return out


def _roof_range(roof, lo, hi):
    """(min, max) of the roof over each closed interval [lo, hi]."""
    d0, d1 = abs_range(lo, hi)
    r_max = roof_array(roof, d0)
    if roof.c1 > 0.0:
        r_max = np.where(d0 <= 0.0, np.inf, r_max)
    return roof_array(roof, d1), r_max


class ConstantPotential:
    """phi == c. The degenerate baseline every estimator must shift exactly."""

    def __init__(self, c=0.0):
        self.c = float(c)

    def __repr__(self):
        return "ConstantPotential(%r)" % self.c

    def value(self, x, y=0.0):
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

    def passage_integral(self, x, roof):
        xs = _as_array(x)
        out = self.c * roof_array(roof, xs)
        return _scalar_or_array(out, x)

    def passage_error(self, lo, hi, roof):
        r_min, r_max = _roof_range(roof, lo, hi)
        return _scalar_or_array(abs(self.c) * (r_max - r_min), lo)


class CoordinatePotential:
    """phi(x, y) = x, the standard non-constant test observable."""

    def value(self, x, y=0.0):
        out = _as_array(x).copy()
        return _scalar_or_array(out, x)

    def __repr__(self):
        return "CoordinatePotential()"

    def midpoint_error(self, lo, hi):
        return _scalar_or_array(0.5 * (_as_array(hi) - _as_array(lo)), lo)

    def abs_bound(self, lo, hi):
        return _scalar_or_array(abs_range(lo, hi)[1], lo)

    def lipschitz_bound(self):
        return 1.0

    def value_at_sigma(self):
        return 0.0

    def passage_integral(self, x, roof):
        xs = _as_array(x)
        out = xs * roof_array(roof, xs)
        return _scalar_or_array(out, x)

    def passage_error(self, lo, hi, roof):
        r_min, r_max = _roof_range(roof, lo, hi)
        width = _as_array(hi) - _as_array(lo)
        out = self.abs_bound(lo, hi) * (r_max - r_min) + r_max * 0.5 * width
        return _scalar_or_array(out, lo)


class SectionGridPotential:
    """Bilinear interpolation of samples on an (x, y) grid.

    Carries a declared Lipschitz constant (in each coordinate) used for
    the rigorous midpoint bounds; linear interpolation of samples of an
    M-Lipschitz function never exceeds slope M along a grid axis, so the
    declared constant is honest for the interpolant as well.
    """

    def __init__(self, xs, ys, values, lipschitz):
        self.xs = np.array(xs, dtype=float)
        self.ys = np.array(ys, dtype=float)
        self.values = np.array(values, dtype=float)
        if self.xs.ndim != 1 or self.ys.ndim != 1:
            raise PreconditionError("grid axes must be one-dimensional")
        if self.values.shape != (self.xs.size, self.ys.size):
            raise PreconditionError(
                "grid values must have shape (len(xs), len(ys)), got %r"
                % (self.values.shape,))
        if np.any(np.diff(self.xs) <= 0) or np.any(np.diff(self.ys) <= 0):
            raise PreconditionError("grid axes must be strictly increasing")
        if self.xs.size < 2 or self.ys.size < 2:
            raise PreconditionError("grid axes need at least two points each")
        self.lipschitz = float(lipschitz)
        if self.lipschitz < 0:
            raise PreconditionError("Lipschitz constant must be nonnegative")
        # for `value`: the cell widths and the four corner samples of cell
        # (i, j), flattened to row i*(ny - 1) + j, so one `take` reads them.
        # The grid is frozen, so they cannot go stale
        for arr in (self.xs, self.ys, self.values):
            arr.flags.writeable = False
        self._dx = np.diff(self.xs)
        self._dy = np.diff(self.ys)
        v = self.values
        self._corners = np.stack([v[:-1, :-1], v[1:, :-1], v[:-1, 1:],
                                  v[1:, 1:]], axis=-1).reshape(-1, 4)
        self._sup = np.max(np.abs(v))

    def __repr__(self):
        return "SectionGridPotential(%dx%d, lipschitz=%.4g)" % (
            self.xs.size, self.ys.size, self.lipschitz)

    def value(self, x, y=0.0):
        # minimum(maximum()) is np.clip's arithmetic without its wrapper
        xa = np.minimum(np.maximum(_as_array(x), self.xs[0]), self.xs[-1])
        ya = np.minimum(np.maximum(_as_array(y), self.ys[0]), self.ys[-1])
        if xa.shape != ya.shape:
            xa, ya = np.broadcast_arrays(xa, ya)
        # the cell of a clipped point: the count of interior breakpoints at
        # or below it, which puts the last breakpoint in the last cell
        i = self.xs[1:-1].searchsorted(xa, side="right")
        j = self.ys[1:-1].searchsorted(ya, side="right")
        tx = (xa - self.xs.take(i)) / self._dx.take(i)
        ty = (ya - self.ys.take(j)) / self._dy.take(j)
        v = self._corners.take(i * self._dy.size + j, axis=0)
        sx = 1 - tx
        sy = 1 - ty
        out = (sx * sy * v[..., 0] + tx * sy * v[..., 1]
               + sx * ty * v[..., 2] + tx * ty * v[..., 3])
        return _scalar_or_array(out, out)

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
        return float(self.value(0.0, 0.0))

    def passage_integral(self, x, roof):
        xs = _as_array(x)
        out = self.value(xs, np.zeros_like(xs)) * roof_array(roof, xs)
        return _scalar_or_array(out, x)

    def passage_error(self, lo, hi, roof):
        r_min, r_max = _roof_range(roof, lo, hi)
        width = _as_array(hi) - _as_array(lo)
        out = (self.abs_bound(lo, hi) * (r_max - r_min)
               + r_max * self.lipschitz * 0.5 * width)
        return _scalar_or_array(out, lo)

    @classmethod
    def seeded(cls, seed, amplitude=0.3, lipschitz=1.0, n_modes=4,
               nx=241, ny=9):
        """Deterministic pseudo-random potential with certified bounds.

        A short cosine series in x with a mild y modulation, rescaled so
        that both the sup-norm and the Lipschitz constant stay within the
        requested budgets. Same seed, same function, bit for bit.
        """
        rng = np.random.default_rng(int(seed))
        amps = rng.normal(size=n_modes)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
        ymod = rng.uniform(0.3, 0.8)
        # sup and slope bounds of the unscaled series, y factor included
        yfac = 1.0 + 0.25 * ymod
        sup_raw = float(np.sum(np.abs(amps))) * yfac
        ks = np.arange(1, n_modes + 1)
        lip_raw = float(np.sum(np.abs(amps) * ks)) * (np.pi / 2.0) * yfac
        scale = min(amplitude / sup_raw, lipschitz / lip_raw)

        xs = np.linspace(-1.0, 1.0, nx)
        ys = np.linspace(-1.0, 1.0, ny)
        gx = ((ks[None, :] * np.pi / 2.0) * (xs[:, None] + 1.0)
              + phases[None, :])
        series = np.cos(gx) @ amps
        vals = (scale * series)[:, None] * (1.0 + 0.25 * ymod
                                            * np.cos(np.pi * ys)[None, :])
        return cls(xs, ys, vals, scale * lip_raw)

    def to_payload(self):
        return {
            "xs": [float(v) for v in self.xs],
            "ys": [float(v) for v in self.ys],
            "values": [[float(v) for v in row] for row in self.values],
            "lipschitz": self.lipschitz,
        }

    @classmethod
    def from_payload(cls, payload):
        try:
            return cls(payload["xs"], payload["ys"], payload["values"],
                       payload["lipschitz"])
        except (KeyError, TypeError) as exc:
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
        if self.level <= 0.0:
            raise PreconditionError("bump level must be positive")
        if not 0.0 < self.eta < 0.5:
            raise PreconditionError(
                "bump inner radius must lie in (0, 0.5), got %r" % eta)

    def __repr__(self):
        return "SingularBumpPotential(level=%r, eta=%r)" % (self.level, self.eta)

    def _profile(self, a):
        ramp = self.level * np.log(2.0 * self.eta / np.maximum(a, 1e-300)) / LOG2
        out = np.where(a <= self.eta, self.level,
                       np.where(a >= 2.0 * self.eta, 0.0, ramp))
        return out

    def value(self, x, y=0.0):
        a = np.abs(_as_array(x))
        return _scalar_or_array(self._profile(a), x)

    def midpoint_error(self, lo, hi):
        # profile is monotone in |x|, so the exact range is endpoint-to-endpoint
        d0, d1 = abs_range(lo, hi)
        return _scalar_or_array(self._profile(d0) - self._profile(d1), lo)

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
        d0, d1 = abs_range(lo, hi)
        out = self._passage(d0, roof) - self._passage(d1, roof)
        if roof.c1 > 0.0:
            out = np.where(d0 <= 0.0, np.inf, out)
        return _scalar_or_array(out, lo)


def midpoint_error_many(potential, lo, hi):
    """Alias of `potential.midpoint_error` on endpoint arrays."""
    return potential.midpoint_error(lo, hi)


def passage_error_many(potential, roof, lo, hi):
    """Alias of `potential.passage_error` on endpoint arrays."""
    return potential.passage_error(lo, hi, roof)


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
        except ValueError:
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
            except ValueError:
                raise ConfigError("bad seed in potential spec %r" % spec)
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
