"""Measure catalogs.

Every report-producing operation ranges over a finite population of
reference measures. A CatalogRecipe describes that population abstractly
(periodic words by period, extra words, horseshoe equilibrium families,
the singular Dirac), and build_catalog instantiates it against a model
and an active potential.

Three recipes ship:

* DEFAULT_RECIPE: a rich population for pressure surveys. All primitive
  orbits through period 8, one deliberately long word whose orbit passes
  close to the section singularity, and the equilibrium family t in
  {0, 1} on the standard depth-12 horseshoe.
* GAP_CORE_RECIPE: the certification population for the pressure-gap
  construction. Members are curated to spend little flow time near the
  singularity (periods 2, 4, 5 only; the period-3 pair and several
  longer words dwell too close), plus the maximal-entropy measure on the
  standard horseshoe and the equilibrium on the far x_gap=0.2 horseshoe.
* GAP_DEMONSTRATOR_RECIPE: measures built deliberately close to the
  singular line. They are expected to fail the small-ball hypothesis and
  appear in gap reports as flagged rows, excluded from certification.
"""

import math

from .errors import PreconditionError
from .measures import AtomicMeasure, SingularDeltaMeasure
from .symbolic import (MAX_DEPTH, build_horseshoe, check_depth,
                       enumerate_periodic, find_periodic_point)


class HorseshoeSpec:
    """One horseshoe equilibrium family: depth, x_gap, and the t values."""

    def __init__(self, depth, x_gap, t_values):
        self.depth = check_depth(depth, "horseshoe", 1, MAX_DEPTH - 1)
        self.x_gap = float(x_gap)
        self.t_values = tuple(float(t) for t in t_values)
        if not 0.0 <= self.x_gap < 1.0:
            raise PreconditionError("x_gap must lie in [0, 1), got %r"
                                    % self.x_gap)
        if not all(math.isfinite(t) for t in self.t_values):
            raise PreconditionError("t values must be finite, got %r"
                                    % (self.t_values,))

    def __repr__(self):
        return "HorseshoeSpec(%d, %g, %r)" % (self.depth, self.x_gap,
                                              self.t_values)


class CatalogRecipe:
    def __init__(self, periods=(), extra_words=(), horseshoes=(),
                 include_delta=False):
        self.periods = tuple(int(p) for p in periods)
        self.extra_words = tuple(extra_words)
        self.horseshoes = tuple(horseshoes)
        self.include_delta = bool(include_delta)

    def __repr__(self):
        return ("CatalogRecipe(periods=%r, extra_words=%r, horseshoes=%r, "
                "include_delta=%r)" % (self.periods, self.extra_words,
                                       self.horseshoes, self.include_delta))


DEFAULT_RECIPE = CatalogRecipe(
    periods=(2, 3, 4, 5, 6, 7, 8),
    extra_words=("LRRLLRLRRRLL",),
    horseshoes=(HorseshoeSpec(12, 0.002, (0.0, 1.0)),),
    include_delta=True,
)

# curated so that every member keeps its dwell fraction within radius 0.2
# of the singularity below 1/4 (the demonstration scale of the gap build)
GAP_CORE_RECIPE = CatalogRecipe(
    periods=(2, 4, 5),
    extra_words=(),
    horseshoes=(HorseshoeSpec(12, 0.002, (0.0,)),
                HorseshoeSpec(10, 0.2, (0.0,))),
    include_delta=False,
)

GAP_DEMONSTRATOR_RECIPE = CatalogRecipe(
    periods=(),
    extra_words=("LLLRRR", "LRRLLRLRRRLL"),
    horseshoes=(HorseshoeSpec(12, 1e-6, (2.0,)),),
    include_delta=False,
)


def equilibrium_label(spec, t):
    return "markov:d%d:g%g:t%g" % (spec.depth, spec.x_gap, t)


def build_catalog(lmap, potential, recipe=DEFAULT_RECIPE):
    """Instantiate a recipe: atomic orbits, equilibria, optional Dirac.

    Equilibria weight the active potential, so the catalog is a function
    of (model, potential, recipe); t=0 members do not depend on the
    potential. The periodic orbits, the horseshoes and their SCC
    decompositions depend on the model alone: they come from the model's
    store in `symbolic`, so catalogs for many potentials on one model
    build and decompose them once. Ordering is deterministic: atomics
    sorted by (period, word), then horseshoe families in recipe order,
    then the Dirac.

    Every atom of the catalog gets the same `AtomicMeasure.batch`, the
    tuple of the catalog's periodic orbit records: a keyed integral that
    misses on one atom is computed for all of them in one evaluation, so
    a caller who walks the catalog member by member, under a new
    potential, evaluates it on the orbit points once.
    """
    from .pressure import equilibrium_measure

    measures = []
    if recipe.periods:
        pool = enumerate_periodic(lmap, max(recipe.periods))
        wanted = set(recipe.periods)
        for orbit in pool:
            if orbit.period in wanted:
                measures.append(AtomicMeasure(lmap, orbit))
    for word in recipe.extra_words:
        measures.append(AtomicMeasure(lmap, find_periodic_point(lmap, word)))
    batch = tuple(m.orbit for m in measures)
    for m in measures:
        m.batch = batch
    for spec in recipe.horseshoes:
        horseshoe = build_horseshoe(lmap, spec.depth, spec.x_gap)
        for t in spec.t_values:
            measures.append(equilibrium_measure(
                lmap, horseshoe, potential, t=t,
                label=equilibrium_label(spec, t)))
    if recipe.include_delta:
        measures.append(SingularDeltaMeasure())
    seen = set()
    for m in measures:
        if m.id in seen:
            raise PreconditionError("duplicate catalog measure id %r" % m.id)
        seen.add(m.id)
    return measures
