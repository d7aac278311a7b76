"""Run configuration.

A config file is plain `key = value` lines (blank lines and full-line
comments starting with # allowed). Keys are dotted and typed; unknown or
duplicate keys, and values that fail their type, are rejected with a
line-precise diagnostic. Every run can echo its configuration in a
canonical form whose SHA-256 identifies the run.

Keys, types and defaults:

  model.alpha            float   1.0
  model.beta             float   1.7
  model.rho              float   0.3
  model.c_h              float   0.5
  roof.c0                float   1.0
  roof.c1                float   1.0
  roof.eta0              float   0.5
  catalog.periods        ints    2,3,4,5,6,7,8
  catalog.extra_words    words   LRRLLRLRRRLL
  catalog.horseshoes     specs   12:0.002:0,1
  catalog.include_delta  bool    true
  output.dir             str     reports
  output.format          enum    both        (both | json | csv)

The catalog.* defaults are read from `catalog.DEFAULT_RECIPE`, so a run
from the default config and `repro` build the same catalog. A horseshoe
spec is depth:x_gap:t1,t2,...; several specs are separated by
semicolons. catalog.periods and catalog.extra_words may be empty.
Periods lie in [1, 16]; a horseshoe's depth in [1, 23], its x_gap in
[0, 1) and its t values are finite; an extra word has at most 96
symbols. Each model.* and roof.* value lies in the domain its
constructor checks, NaN in none: alpha in (0, 1], beta > 0, rho in
(0, 1), c_h > 0, c0 > 0, c1 >= 0 and eta0 in (0, 1).
"""

import functools
import hashlib

from .catalog import DEFAULT_RECIPE, CatalogRecipe, HorseshoeSpec
from .errors import ConfigError, PreconditionError
from .model import (LorenzMap1D, RoofFunction, SkewProductReturnMap,
                    check_parameter)
from .symbolic import MAX_PERIOD, MAX_WORD


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError("expected a boolean (true/false), got %r" % text)


def _parse_ints(text):
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        n = int(part)
        if not 1 <= n <= MAX_PERIOD:
            raise ValueError("periods must lie in [1, %d], got %d"
                             % (MAX_PERIOD, n))
        out.append(n)
    return tuple(out)


def _parse_words(text):
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        w = part.strip()
        if not w or any(ch not in "LR" for ch in w):
            raise ValueError("words must be nonempty strings over {L, R}, "
                             "got %r" % part)
        if len(w) > MAX_WORD:
            raise ValueError("words must have at most %d symbols, got %d"
                             % (MAX_WORD, len(w)))
        out.append(w)
    return tuple(out)


def _parse_horseshoes(text):
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ValueError("horseshoe spec must be depth:x_gap:t1,t2,..., "
                             "got %r" % part)
        depth = int(fields[0])
        x_gap = float(fields[1])
        ts = tuple(float(t) for t in fields[2].split(","))
        out.append(HorseshoeSpec(depth, x_gap, ts))
    return tuple(out)


def _parse_format(text):
    t = text.strip()
    if t not in ("both", "json", "csv"):
        raise ValueError("output.format must be both, json or csv, got %r" % t)
    return t


_SCHEMA = {
    "model.alpha": (functools.partial(check_parameter, "alpha"), 1.0),
    "model.beta": (functools.partial(check_parameter, "beta"), 1.7),
    "model.rho": (functools.partial(check_parameter, "rho"), 0.3),
    "model.c_h": (functools.partial(check_parameter, "c_H"), 0.5),
    "roof.c0": (functools.partial(check_parameter, "c0"), 1.0),
    "roof.c1": (functools.partial(check_parameter, "c1"), 1.0),
    "roof.eta0": (functools.partial(check_parameter, "eta0"), 0.5),
    "catalog.periods": (_parse_ints, DEFAULT_RECIPE.periods),
    "catalog.extra_words": (_parse_words, DEFAULT_RECIPE.extra_words),
    "catalog.horseshoes": (_parse_horseshoes, DEFAULT_RECIPE.horseshoes),
    "catalog.include_delta": (_parse_bool, DEFAULT_RECIPE.include_delta),
    "output.dir": (str, "reports"),
    "output.format": (_parse_format, "both"),
}


def _render_value(key, value):
    if key == "catalog.periods":
        return ",".join(str(n) for n in value)
    if key == "catalog.extra_words":
        return ",".join(value)
    if key == "catalog.horseshoes":
        return ";".join("%d:%s:%s" % (s.depth, repr(s.x_gap),
                                      ",".join(repr(t) for t in s.t_values))
                        for s in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RunConfig:
    def __init__(self, values):
        self.values = dict(values)

    def __getitem__(self, key):
        return self.values[key]

    def make_model(self):
        base = LorenzMap1D(self.values["model.alpha"],
                           self.values["model.beta"])
        return SkewProductReturnMap(base, self.values["model.rho"],
                                    self.values["model.c_h"])

    def make_roof(self):
        return RoofFunction(self.values["roof.c0"], self.values["roof.c1"],
                            self.values["roof.eta0"])

    def make_recipe(self):
        return CatalogRecipe(
            periods=self.values["catalog.periods"],
            extra_words=self.values["catalog.extra_words"],
            horseshoes=self.values["catalog.horseshoes"],
            include_delta=self.values["catalog.include_delta"])

    def render(self):
        """Canonical echo: sorted `key = value` lines; reparses to self."""
        lines = ["%s = %s" % (key, _render_value(key, self.values[key]))
                 for key in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.render().encode("ascii")).hexdigest()


def default_config():
    return RunConfig({key: default for key, (_, default) in _SCHEMA.items()})


def parse_config_text(text, origin="<config>"):
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value', got %r"
                              % (origin, lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError("%s:%d: unknown key %r" % (origin, lineno, key))
        if key in seen:
            raise ConfigError("%s:%d: duplicate key %r (first set on line %d)"
                              % (origin, lineno, key, seen[key]))
        seen[key] = lineno
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(value)
        except (ValueError, PreconditionError, ConfigError) as exc:
            raise ConfigError("%s:%d: bad value for %s: %s"
                              % (origin, lineno, key, exc)) from None
    return RunConfig(values)


def load_config(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    return parse_config_text(text, origin=str(path))
