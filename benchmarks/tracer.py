"""Outside-in tracer: per-layer call counts and span times for geolorenz.

The tracer never edits the library. It replaces each target function at
every module binding that refers to it (``geolorenz.spectrum`` holds its
own ``equilibrium_measure`` name, ``geolorenz.cli`` its own ``suspend``,
and so on), and each target method on its defining class, with a wrapper
that records a span. ``restore()`` puts every original object back.

A span's self time is its duration minus the time covered by the wrapped
spans it directly encloses. ``time_s`` counts a span only when no
enclosing span has the same name, so nested calls are not counted twice.
``LorenzMap1D.inverse_branch`` runs millions of times per workload; it
gets a bare counter and no span, so it adds no child time to its caller.
"""

import functools
import hashlib
import importlib
import pkgutil
import sys
import time

# (module, function, metric name); every binding of the function in any
# loaded geolorenz module is wrapped
FUNCTION_SPANS = (
    ("model", "validate_model", "model.validate_model"),
    ("symbolic", "kneading", "symbolic.kneading"),
    ("symbolic", "cylinder_levels", "symbolic.cylinder_levels"),
    ("symbolic", "build_horseshoe", "symbolic.build_horseshoe"),
    ("symbolic", "strongly_connected_components",
     "symbolic.strongly_connected_components"),
    ("symbolic", "restrict_horseshoe", "symbolic.restrict_horseshoe"),
    ("symbolic", "enumerate_periodic", "symbolic.enumerate_periodic"),
    ("potentials", "midpoint_error_many", "potentials.bounds"),
    ("potentials", "passage_error_many", "potentials.bounds"),
    ("measures", "integrate_map", "measures.integrate_map"),
    ("measures", "suspend", "measures.suspend"),
    ("pressure", "equilibrium_measure", "pressure.equilibrium_measure"),
    ("pressure", "pressure_transfer", "pressure.pressure_transfer"),
    ("pressure", "pressure_separated", "pressure.pressure_separated"),
    ("pressure", "pressure_measure", "pressure.pressure_measure"),
    ("spectrum", "realize_intermediate", "spectrum.realize_intermediate"),
    ("spectrum", "verify_gap", "spectrum.verify_gap"),
    ("spectrum", "spectrum_scan", "spectrum.spectrum_scan"),
    ("catalog", "build_catalog", "catalog.build_catalog"),
)

POTENTIAL_CLASSES = ("ConstantPotential", "CoordinatePotential",
                     "SectionGridPotential", "SingularBumpPotential")

# (module, class, method, metric name)
METHOD_SPANS = tuple(
    ("potentials", cls, method, name)
    for cls in POTENTIAL_CLASSES
    for method, name in (("value", "potentials.value"),
                         ("midpoint_error", "potentials.bounds"),
                         ("passage_error", "potentials.bounds"),
                         ("passage_integral", "potentials.passage_integral"))
) + (("measures", "MarkovMeasure", "__init__", "measures.MarkovMeasure"),)

METHOD_COUNTS = (
    ("model", "LorenzMap1D", "inverse_branch", "model.inverse_branch"),
)


def _geolorenz_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == "geolorenz" or name.startswith("geolorenz."))]


def import_all_modules():
    """Import every geolorenz submodule, so that all bindings exist."""
    import geolorenz

    for info in pkgutil.iter_modules(geolorenz.__path__):
        importlib.import_module("geolorenz." + info.name)


class Tracer:
    """Span and counter collector; `install()` wraps, `restore()` unwraps."""

    def __init__(self):
        self.stats = {}      # name -> [calls, time_s, self_s]
        self.counts = {}     # name -> [calls]
        self.extra = {"pressure.pressure_transfer.iterations": 0,
                      "symbolic.cylinder_levels.words": 0,
                      "spectrum.realize_intermediate.solves": 0}
        self._stack = []     # child time of each open span
        self._open = {}      # name -> number of open spans of that name
        self._patches = []   # (owner, attribute, original)
        self._levels_seen = {}
        self._integrations = {}  # (id(horseshoe), depth) -> horseshoe
        self._structures = set()
        self._fingerprints = {}  # id(horseshoe) -> structure digest

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        open_count = self._open
        open_count.setdefault(name, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            child = [0.0]
            stack.append(child)
            open_count[name] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                open_count[name] -= 1
                stat[0] += 1
                stat[2] += duration - child[0]
                if not open_count[name]:
                    stat[1] += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(out)
            return out

        return wrapper

    def _counter(self, name, fn):
        box = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the derived per-layer metrics ---------------------------

    def _after_transfer(self, estimate):
        self.extra["pressure.pressure_transfer.iterations"] += int(
            estimate.params["iterations"])

    def _after_levels(self, levels):
        # the cache hands back the same list on a hit; count words only for
        # level lists not seen before. The lists are not held (sweep's take
        # about 1 GB), so the mark also records the last level, which a
        # list built later at a reused address would not share
        key = id(levels)
        mark = (len(levels), id(levels[-1]), len(levels[-1]))
        if self._levels_seen.get(key) != mark:
            self._levels_seen[key] = mark
            self.extra["symbolic.cylinder_levels.words"] += sum(
                len(level) for level in levels)

    def _before_equilibrium(self, args, kwargs):
        if self._open.get("spectrum.realize_intermediate"):
            self.extra["spectrum.realize_intermediate.solves"] += 1

    def _before_integrate(self, args, kwargs):
        import geolorenz.measures as measures

        measure = args[1] if len(args) > 1 else kwargs["measure"]
        depth = args[2] if len(args) > 2 else kwargs.get(
            "depth", measures.DEFAULT_DEPTH)
        if not isinstance(measure, measures.MarkovMeasure):
            return
        horseshoe = measure.horseshoe
        if depth < horseshoe.depth:
            return
        # holding the horseshoe keeps its id from being reused
        self._integrations[(id(horseshoe), int(depth))] = horseshoe
        digest = self._fingerprints.get(id(horseshoe))
        if digest is None:
            lmap = measure.lmap
            h = hashlib.sha256(repr(
                (lmap.alpha, lmap.beta, horseshoe.depth, horseshoe.x_gap,
                 horseshoe.vertices)).encode())
            for symbol in sorted(horseshoe.succ):
                h.update(horseshoe.succ[symbol].tobytes())
            digest = self._fingerprints[id(horseshoe)] = h.hexdigest()
        self._structures.add((digest, int(depth)))

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        import_all_modules()
        modules = _geolorenz_modules()
        hooks = {"pressure.pressure_transfer": (None, self._after_transfer),
                 "symbolic.cylinder_levels": (None, self._after_levels),
                 "pressure.equilibrium_measure":
                     (self._before_equilibrium, None),
                 "measures.integrate_map": (self._before_integrate, None)}
        for mod_name, fn_name, name in FUNCTION_SPANS:
            original = getattr(sys.modules["geolorenz." + mod_name], fn_name)
            before, after = hooks.get(name, (None, None))
            wrapper = self._span(name, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, method, name in METHOD_SPANS:
            cls = getattr(sys.modules["geolorenz." + mod_name], cls_name)
            self._patch(cls, method, self._span(name, cls.__dict__[method]))
        for mod_name, cls_name, method, name in METHOD_COUNTS:
            cls = getattr(sys.modules["geolorenz." + mod_name], cls_name)
            self._patch(cls, method, self._counter(name, cls.__dict__[method]))
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Flat {metric name: value} of everything recorded."""
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".time_s"] = total
            out[name + ".self_s"] = self_time
        for name, (calls,) in self.counts.items():
            out[name + ".calls"] = calls
        out.update(self.extra)
        solves = out.pop("spectrum.realize_intermediate.solves")
        realizations = out["spectrum.realize_intermediate.calls"]
        out["spectrum.realize_intermediate.solves_per_call"] = (
            solves / realizations if realizations else 0.0)
        objects = len(self._integrations)
        structures = len(self._structures)
        out["measures.integrate_map.distinct_objects"] = objects
        out["measures.integrate_map.distinct_structures"] = structures
        out["measures.integrate_map.distinct_frac"] = (
            structures / objects if objects else 0.0)
        return out


def snapshot():
    """Identity map of every binding the tracer may replace.

    Two snapshots taken before `install()` and after `restore()` must
    compare equal element by element under `is`.
    """
    import_all_modules()
    taken = {}
    for mod in _geolorenz_modules():
        for attr, value in vars(mod).items():
            taken[(mod.__name__, attr)] = value
    for mod_name, cls_name, method, _ in METHOD_SPANS + METHOD_COUNTS:
        cls = getattr(sys.modules["geolorenz." + mod_name], cls_name)
        taken[(cls.__qualname__, method)] = cls.__dict__[method]
    return taken
