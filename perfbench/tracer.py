"""Outside-in tracing of permgen: wraps the package's public functions and the
scipy/numpy calls they make, without changing a line of the package.

Every binding of a wrapped object is patched: the attribute in each permgen
module that imported the name, tuples inside module-level registries
(``props.SUITES``), and methods on their class. ``Tracer.restore`` puts every
original object back, so untraced runs measure unwrapped code.

A span's self time is its duration minus the time covered by the spans it
opened. Counters are recorded at the same boundaries.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

from permgen import cli, experiments, generators, geometry, permissibility, props, sampling

MODULES = ("sampling", "geometry", "generators", "permissibility", "experiments", "props", "cli")

# (owner, attribute, span name)
FUNCTIONS = [
    (sampling, "sample_points", "sampling.sample_points"),
    (sampling, "sample_corpus", "sampling.sample_corpus"),
    (sampling, "parse_distribution", "sampling.parse_distribution"),
    (sampling, "tail_diagnostic", "sampling.tail_diagnostic"),
    (geometry, "convex_hull", "geometry.convex_hull"),
    (geometry, "halfspace_intersection", "geometry.halfspace_intersection"),
    (geometry, "volume", "geometry.volume"),
    (geometry, "mc_volume", "geometry.mc_volume"),
    (geometry, "radon_partition", "geometry.radon_partition"),
    (geometry, "support", "geometry.support"),
    (geometry, "membership", "geometry.membership"),
    (generators, "generate", "generators.generate"),
    (generators, "is_member", "generators.is_member"),
    (generators, "parse_generator", "generators.parse_generator"),
    (generators, "check_closure_axioms", "generators.check_closure_axioms"),
    (generators, "check_convex_valued", "generators.check_convex_valued"),
    (generators, "check_homogeneity", "generators.check_homogeneity"),
    (generators, "scale_corpus", "generators.scale_corpus"),
    (permissibility, "permissible_set", "permissibility.permissible_set"),
    (permissibility, "classify", "permissibility.classify"),
    (permissibility, "conv_permissible_polytope", "permissibility.conv_permissible_polytope"),
    (permissibility, "box_permissible_polytope", "permissibility.box_permissible_polytope"),
    (permissibility, "add_creation_effect", "permissibility.add_creation_effect"),
    (permissibility, "groupwise_permissible", "permissibility.groupwise_permissible"),
    (permissibility, "superadditivity_check", "permissibility.superadditivity_check"),
    (permissibility, "radon_nonemptiness_witness", "permissibility.radon_nonemptiness_witness"),
    (permissibility, "generable_set_included", "permissibility.generable_set_included"),
    (permissibility, "generable_sets_equal", "permissibility.generable_sets_equal"),
    (permissibility, "richness_compare", "permissibility.richness_compare"),
    (experiments, "run_growth", "experiments.run_growth"),
    (experiments, "heavy_tail_bound", "experiments.heavy_tail_bound"),
    (experiments, "summarize", "experiments.summarize"),
    (experiments, "write_trajectories", "experiments.write"),
    (experiments, "write_stats", "experiments.write"),
    (experiments, "permissible_ratio", "experiments.permissible_ratio"),
    (props, "run_axioms_suite", "props.axioms"),
    (props, "run_permissibility_suite", "props.permissibility"),
    (props, "run_radon_suite", "props.radon"),
    (props, "run_groupwise_suite", "props.groupwise"),
    (props, "run_convexity_suite", "props.appendixA"),
    (props, "run_scope", "props.run_scope"),
    (cli, "main", "cli.main"),
    (cli, "cmd_analyze", "cli.cmd_analyze"),
    (cli, "cmd_simulate", "cli.cmd_simulate"),
    (cli, "cmd_props", "cli.cmd_props"),
    (cli, "read_corpus_file", "cli.read_corpus_file"),
]

# (class, attribute, span name); patched on the class
METHODS = [
    (geometry.Corpus, "__init__", "geometry.corpus"),
    (geometry.Corpus, "to_array", "geometry.corpus"),
    (geometry.Polytope, "from_points", "geometry.from_points"),
    (geometry.Polytope, "contains_batch", "geometry.contains_batch"),
    (geometry.Polytope, "membership", "geometry.membership"),
    (geometry.Polytope, "equals", "geometry.equals"),
    (generators.FiniteGrid, "points", "generators.grid"),
    (generators.FiniteGrid, "contains", "generators.contains"),
    (generators.ConvexRegion, "contains", "generators.contains"),
]

# Qhull as geometry binds it; HiGHS and numpy's SVD are patched on their
# own modules because permgen looks them up there at call time.
QHULL = ("_QhullConvexHull", "_QhullHalfspaceIntersection")

# contains_batch computes one float64 residual per point and facet
RESIDUAL_BYTES = 8


def _permgen_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "permgen" or name.startswith("permgen.")]


def _permgen_classes():
    found = []
    for mod in _permgen_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("permgen") and value not in found:
                found.append(value)
    return found


def bindings_snapshot() -> dict:
    """Identity of every binding the tracer may patch."""
    snap = {}
    for mod in _permgen_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = id(value)
            if isinstance(value, dict):
                for k, v in value.items():
                    snap[(mod.__name__, key, repr(k))] = id(v)
    for cls in _permgen_classes():
        for key, value in vars(cls).items():
            snap[(cls.__module__, cls.__qualname__, key)] = id(value)
    snap[("numpy.linalg", "svd")] = id(np.linalg.svd)
    snap[("scipy.optimize", "linprog")] = id(scipy.optimize.linprog)
    return snap


class _LooContext:
    """An open leave-one-out computation over a corpus of n items."""

    __slots__ = ("n", "vertices")

    def __init__(self, n: int, vertices: int | None):
        self.n = n
        self.vertices = vertices


class Tracer:
    """Per-layer self times and counters, recorded while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._open: dict[str, int] = defaultdict(int)
        self._loo: list[_LooContext] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        """Run fn as a span: (args, kwargs) -> result."""
        stack, opened, self_s, counts = self._stack, self._open, self.self_s, self.counts
        calls_key = name + ".calls"

        def run(args, kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            opened[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                opened[name] -= 1
                stack.pop()
                dur = time.perf_counter() - frame[0]
                self_s[name] += dur - frame[1]
                counts[calls_key] += 1
                if stack:
                    stack[-1][1] += dur

        return run

    def _wrap(self, name: str, fn, around=None):
        """A drop-in for fn that records a span while the tracer is enabled.

        ``around(run, args, kwargs)`` may take counters before and after
        calling ``run(args, kwargs)``.
        """
        tracer = self
        run = self._span(name, fn)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if around is None:
                return run(args, kwargs)
            return around(run, args, kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = value
        else:
            original = vars(owner)[key]
            setattr(owner, key, value)
        self._patches.append((owner, key, original))

    def _patch_everywhere(self, original, wrapper):
        """Replace every permgen binding of ``original``, registries included."""
        for mod in _permgen_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(f is original for f in v):
                            self._set(value, k, tuple(wrapper if f is original else f for f in v))

    def install(self) -> None:
        """Wrap every target; ``restore`` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        arounds = self._arounds()
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            self._patch_everywhere(original, self._wrap(name, original, arounds.get(name)))
        for cls, attr, name in METHODS:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, arounds.get(name)))
            else:
                wrapped = self._wrap(name, raw, arounds.get(name))
            self._set(cls, attr, wrapped)
        for attr in QHULL:
            self._set(geometry, attr, self._wrap("geometry.qhull", getattr(geometry, attr), arounds["geometry.qhull"]))
        linprog = scipy.optimize.linprog
        traced_lp = self._wrap("geometry.linprog", linprog)
        self._set(scipy.optimize, "linprog", traced_lp)
        self._patch_everywhere(linprog, traced_lp)
        self._set(np.linalg, "svd", self._from_geometry("geometry.svd", np.linalg.svd))
        self._set(geometry.Creation, "__post_init__", self._counter("geometry.corpus.items", geometry.Creation.__post_init__))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _from_geometry(self, name: str, fn):
        """Trace fn only when permgen.geometry calls it."""
        traced = self._wrap(name, fn)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "permgen.geometry":
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _counter(self, key: str, fn):
        tracer = self

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters taken at span boundaries ----------------------------------

    def _arounds(self) -> dict:
        c, opened, loo = self.counts, self._open, self._loo

        def from_points(run, args, kwargs):
            # bound classmethod: args[0] is the class
            pts = args[1] if len(args) > 1 else kwargs["points"]
            rows = int(np.shape(pts)[0]) if np.ndim(pts) > 1 else int(np.size(pts))
            c["geometry.from_points.rows_in"] += rows
            if opened["permissibility.classify"]:
                c["permissibility.classify.hulls"] += 1
            # A hull built inside a leave-one-out span (and not as part of a
            # halfspace intersection or another hull) is the corpus's own
            # hull when it gets all n rows, and a leave-one-out hull
            # otherwise, whatever subset of the corpus it is built from.
            direct = loo and not opened["geometry.halfspace_intersection"] and not opened["geometry.from_points"]
            ctx = loo[-1] if direct else None
            if ctx is not None and rows != ctx.n:
                c["permissibility.loo_hulls"] += 1
            result = run(args, kwargs)
            if ctx is not None and rows == ctx.n and ctx.vertices is None:
                ctx.vertices = len(result.vertex_array)
            return result

        def contains_batch(run, args, kwargs):
            poly = args[0]
            pts = args[1] if len(args) > 1 else kwargs["points"]
            m = len(np.atleast_2d(pts))
            facets = len(poly.normals)
            c["geometry.contains_batch.points"] += m
            c["geometry.contains_batch.ops"] += m * facets * poly.dim
            c["geometry.contains_batch.bytes"] += m * facets * RESIDUAL_BYTES
            result = run(args, kwargs)
            c["geometry.contains_batch.hits"] += int(np.count_nonzero(result))
            return result

        def halfspace_intersection(run, args, kwargs):
            polys = list(args[0] if args else kwargs.pop("polytopes"))
            c["geometry.halfspace_intersection.rows_in"] += sum(len(p.normals) for p in polys)
            result = run((polys,) + tuple(args[1:]), kwargs)
            c["geometry.halfspace_intersection.rows_out"] += len(result.normals)
            return result

        def grid_points(run, args, kwargs):
            result = run(args, kwargs)
            c["generators.grid.rows"] += len(result)
            return result

        def qhull(run, args, kwargs):
            if "QJ" in str(kwargs.get("qhull_options") or ""):
                c["geometry.qhull.joggles"] += 1
            return run(args, kwargs)

        def enter_loo(run, args, kwargs, corpus, full):
            # permissible_set(conv) calls conv_permissible_polytope on the same
            # corpus; only the outermost context counts hull vertices
            n = len(corpus)
            outer = not loo or loo[-1].n != n
            ctx = _LooContext(n, None if full is None else len(full.vertex_array))
            loo.append(ctx)
            try:
                return run(args, kwargs)
            finally:
                loo.pop()
                if outer:
                    c["permissibility.hull_vertices"] += ctx.vertices or 0

        def permissible_set(run, args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            corpus = args[1] if len(args) > 1 else kwargs["corpus"]
            if spec.kind != generators.CONV:
                return run(args, kwargs)
            return enter_loo(run, args, kwargs, corpus, None)

        def conv_permissible_polytope(run, args, kwargs):
            corpus = args[0] if args else kwargs["corpus"]
            full = args[1] if len(args) > 1 else kwargs.get("full")
            return enter_loo(run, args, kwargs, corpus, full)

        return {
            "geometry.from_points": from_points,
            "geometry.contains_batch": contains_batch,
            "geometry.halfspace_intersection": halfspace_intersection,
            "geometry.qhull": qhull,
            "generators.grid": grid_points,
            "permissibility.permissible_set": permissible_set,
            "permissibility.conv_permissible_polytope": conv_permissible_polytope,
        }

    # -- results -------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out
