"""Closure-style generators over finite corpora and their generable sets.

Three base generators are provided: the convex hull, per-coordinate
recombination (every point whose coordinates are each borrowed from some
corpus item), and the axis-aligned bounding box, which coincides with the
hull of the recombination grid. Generators compose right-to-left with the
restriction that recombination cannot be applied to an infinite region.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    GridExplosion,
    SpliceOnContinuum,
)
from .geometry import (
    TOL_GEOM,
    Corpus,
    Creation,
    Polytope,
    _point_array,
    convex_hull,
    tol_buckets,
)

GRID_LIMIT = 10**6

CONV = "conv"
SPLICE = "splice"
BOX = "box"
_BASE_KINDS = (CONV, SPLICE, BOX)


@dataclass(frozen=True)
class GeneratorSpec:
    """A base generator or a right-to-left composition of generators.

    ``stages`` is empty for base kinds. For composed specs it lists the
    stages in notation order, so ``parse_generator("conv|splice")`` applies
    the recombination grid first and the hull second.
    """

    kind: str
    stages: tuple["GeneratorSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "composed":
            if len(self.stages) < 2:
                raise ValueError("a composition needs at least two stages")
        elif self.kind not in _BASE_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        elif self.stages:
            raise ValueError("base generators have no stages")

    @property
    def label(self) -> str:
        if self.kind == "composed":
            return "|".join(s.label for s in self.stages)
        return self.kind

    def __str__(self) -> str:
        return self.label


def conv_spec() -> GeneratorSpec:
    return GeneratorSpec(CONV)


def splice_spec() -> GeneratorSpec:
    return GeneratorSpec(SPLICE)


def box_spec() -> GeneratorSpec:
    return GeneratorSpec(BOX)


def parse_generator(text: str) -> GeneratorSpec:
    """Parse ``"conv"``, ``"splice"``, ``"box"`` or a composition ``"a|b"``."""
    parts = [p.strip() for p in text.split("|")]
    if any(not p for p in parts):
        raise ValueError(f"malformed generator string {text!r}")
    specs = []
    for p in parts:
        if p not in _BASE_KINDS:
            raise ValueError(f"unknown generator {p!r}")
        specs.append(GeneratorSpec(p))
    if len(specs) == 1:
        return specs[0]
    return GeneratorSpec("composed", tuple(specs))


def convex_valued(spec: GeneratorSpec) -> bool:
    """Whether every image of the generator is a convex set.

    For compositions the outermost stage decides: a hull or box applied
    last yields convex images regardless of the inner stages.
    """
    if spec.kind == "composed":
        return convex_valued(spec.stages[0])
    return spec.kind in (CONV, BOX)


# -- generable sets ----------------------------------------------------------


@dataclass(frozen=True)
class ConvexRegion:
    """Generable set that is a convex polytope."""

    polytope: Polytope

    @property
    def dim(self) -> int:
        return self.polytope.dim

    @property
    def is_empty(self) -> bool:
        return self.polytope.is_empty

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        return self.polytope.contains(point, tol)

    def contains_batch(self, points: np.ndarray, tol: float = TOL_GEOM) -> np.ndarray:
        return self.polytope.contains_batch(points, tol)

    def equals(self, other, tol: float = 1e-7) -> bool:
        return isinstance(other, ConvexRegion) and self.polytope.equals(other.polytope, tol)


@dataclass(frozen=True)
class FiniteGrid:
    """Generable set that is a finite product grid.

    ``value_sets[k]`` holds the sorted distinct values available in
    coordinate k; the set is the full cartesian product. An empty value set
    in any coordinate makes the grid empty.
    """

    dim: int
    value_sets: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.value_sets) != self.dim:
            raise DimensionMismatch("one value set per coordinate required")

    @property
    def is_empty(self) -> bool:
        return any(len(vs) == 0 for vs in self.value_sets)

    @property
    def cardinality(self) -> int:
        if self.is_empty:
            return 0
        return math.prod(len(vs) for vs in self.value_sets)

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        return bool(self.contains_batch(_point_array(point, self.dim)[None, :], tol)[0])

    def contains_batch(self, points: np.ndarray, tol: float = TOL_GEOM) -> np.ndarray:
        """Vectorized membership test for an (m, d) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {self.dim}")
        out = np.ones(len(pts), dtype=bool)
        for k, vs in enumerate(self.value_sets):
            out &= _near_values(pts[:, k], vs, tol)
        return out

    def points(self) -> np.ndarray:
        """Materialize the grid as an (m, d) array, guarded by GRID_LIMIT."""
        if self.is_empty:
            return np.empty((0, self.dim))
        if self.cardinality > GRID_LIMIT:
            raise GridExplosion(f"grid holds {self.cardinality} points, limit is {GRID_LIMIT}")
        mesh = np.meshgrid(*[np.asarray(vs) for vs in self.value_sets], indexing="ij")
        return np.column_stack([m.reshape(-1) for m in mesh])

    def equals(self, other, tol: float = TOL_GEOM) -> bool:
        if not isinstance(other, FiniteGrid) or self.dim != other.dim:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        for a, b in zip(self.value_sets, other.value_sets):
            if len(a) != len(b):
                return False
            if np.abs(np.asarray(a) - np.asarray(b)).max() > tol:
                return False
        return True


def _near_values(x: np.ndarray, values, tol: float) -> np.ndarray:
    """Whether each entry of ``x`` lies within ``tol`` of one of ``values``.

    A rounded difference x - v is monotone in v, so the nearest values below
    and above x, found by binary search, decide as a test against every value
    would; memory grows with the number of probes only. NaN reads as outside.
    """
    ref = np.sort(np.asarray(values, dtype=float))
    if ref.size == 0:
        return np.zeros(np.shape(x), dtype=bool)
    i = np.searchsorted(ref, x)
    below = np.abs(x - ref[np.maximum(i - 1, 0)])
    above = np.abs(x - ref[np.minimum(i, len(ref) - 1)])
    return np.minimum(below, above) <= tol


GenerableSet = ConvexRegion | FiniteGrid


def empty_generable_set(spec: GeneratorSpec, dim: int) -> GenerableSet:
    """The image of the empty corpus: empty, with the generator's output kind."""
    if convex_valued(spec):
        return ConvexRegion(Polytope.empty(dim))
    return FiniteGrid(dim, tuple(() for _ in range(dim)))


def _coordinate_value_sets(arr: np.ndarray, min_count: int = 1) -> tuple[tuple[float, ...], ...]:
    """Per column of ``arr``, the first value of each TOL_GEOM bucket (as
    tol_buckets keeps it) that holds at least ``min_count`` rows, in value
    order: buckets come out in key order, which is value order."""
    sets = []
    for col in arr.T:
        _, first, counts = np.unique(np.round(col / TOL_GEOM), return_index=True, return_counts=True)
        sets.append(tuple(col[first[counts >= min_count]].tolist()))
    return tuple(sets)


def _splice_grid(corpus_array: np.ndarray, dim: int) -> FiniteGrid:
    grid = FiniteGrid(dim, _coordinate_value_sets(corpus_array))
    if grid.cardinality > GRID_LIMIT:
        raise GridExplosion(
            f"recombination grid holds {grid.cardinality} points, limit is {GRID_LIMIT}"
        )
    return grid


def generate(spec: GeneratorSpec, corpus: Corpus) -> GenerableSet:
    """Apply a generator to a corpus.

    Returns a ConvexRegion for hull/box-valued specs and a FiniteGrid for
    recombination-valued specs. Compositions materialize intermediate grids
    (subject to GRID_LIMIT) and pass intermediate regions on through their
    extreme points, which is exact because hull and box are determined by
    extreme points. Recombination applied to a non-degenerate region is
    rejected with SpliceOnContinuum.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("generators are applied to nonempty corpora")
    if spec.kind == CONV:
        return ConvexRegion(convex_hull(corpus))
    if spec.kind == SPLICE:
        return _splice_grid(corpus.to_array(), corpus.dim)
    if spec.kind == BOX:
        arr = corpus.to_array()
        return ConvexRegion(Polytope.box(arr.min(axis=0), arr.max(axis=0)))
    # composed: apply stages right to left
    operand: Corpus | GenerableSet = corpus
    for stage in reversed(spec.stages):
        operand = _apply_stage(stage, operand, corpus.dim)
    return operand  # type: ignore[return-value]


def _apply_stage(stage: GeneratorSpec, operand, dim: int) -> GenerableSet:
    if isinstance(operand, Corpus):
        return generate(stage, operand)
    if isinstance(operand, FiniteGrid):
        if operand.is_empty:
            return empty_generable_set(stage, dim)
        pts = operand.points()
        return generate(stage, Corpus.from_array(pts, dim=dim))
    # ConvexRegion: only extreme-point-determined stages may consume it
    region: ConvexRegion = operand
    if stage.kind == SPLICE or (stage.kind == "composed" and stage.stages[-1].kind == SPLICE):
        if not region.is_empty and region.polytope.affine_dim > 0:
            raise SpliceOnContinuum(
                "coordinate recombination is undefined on an infinite convex region"
            )
    if region.is_empty:
        return empty_generable_set(stage, dim)
    verts = Corpus.from_array(region.polytope.vertex_array, dim=dim)
    return generate(stage, verts)


def is_member(spec: GeneratorSpec, corpus: Corpus, point, tol: float = TOL_GEOM) -> bool:
    """Closed membership of a point in generate(spec, corpus).

    Avoids building the full generable set where possible: box and
    recombination answer from per-coordinate statistics, and the hull above
    dimension 3 from LP feasibility.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("membership in the image of an empty corpus")
    x = _point_array(point, corpus.dim)
    if spec.kind == CONV and corpus.dim > 3:
        return _in_hull_lp(corpus.to_array(), x, tol)
    if spec.kind == SPLICE:
        arr = corpus.to_array()
        return bool(all(np.abs(arr[:, k] - x[k]).min() <= tol for k in range(corpus.dim)))
    if spec.kind == BOX:
        arr = corpus.to_array()
        return bool(
            np.all(x >= arr.min(axis=0) - tol) and np.all(x <= arr.max(axis=0) + tol)
        )
    return generate(spec, corpus).contains(x, tol)


def _in_hull_lp(points: np.ndarray, x: np.ndarray, tol: float) -> bool:
    # min L1 deviation of a convex combination from x; membership iff ~0
    from scipy.optimize import linprog

    n, d = points.shape
    c = np.concatenate([np.zeros(n), np.ones(2 * d)])
    A_eq = np.block(
        [
            [points.T, np.eye(d), -np.eye(d)],
            [np.ones((1, n)), np.zeros((1, 2 * d))],
        ]
    )
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return bool(res.success and res.fun <= max(tol, 1e-9) * d)


# -- law checking ------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the three closure-law checks on one corpus."""

    preservation: bool
    monotonicity: bool
    idempotence: bool

    @property
    def all_hold(self) -> bool:
        return self.preservation and self.monotonicity and self.idempotence


def check_closure_axioms(
    spec: GeneratorSpec,
    corpus: Corpus,
    superset: Corpus,
    probe_points,
    tol: float = TOL_GEOM,
) -> AxiomReport:
    """Check preservation, monotonicity and idempotence on concrete data.

    ``superset`` must contain ``corpus``; ``probe_points`` is a sequence of
    candidate points used for the monotonicity check (membership under the
    corpus must imply membership under the superset). Each image is built
    once and all of its points are tested in one batch, so a superset whose
    recombination grid exceeds GRID_LIMIT raises GridExplosion.
    """
    for c in corpus:
        if c not in superset:
            raise ValueError("corpus must be contained in superset")
    image = generate(spec, corpus)
    probes = np.array([_point_array(p, corpus.dim) for p in probe_points]).reshape(-1, corpus.dim)
    inside = probes[image.contains_batch(probes, tol)]
    return AxiomReport(
        bool(image.contains_batch(corpus.to_array(), tol).all()),
        bool(generate(spec, superset).contains_batch(inside, tol).all()),
        _regenerates(spec, image, tol),
    )


def _regenerates(spec: GeneratorSpec, result: GenerableSet, tol: float = TOL_GEOM) -> bool:
    """Whether applying ``spec`` to the points of ``result`` gives ``result`` back.

    A region is regenerated from its vertices and compared at tolerance at
    least 1e-7; a grid from its points, at tolerance at least 1e-9. The
    empty set regenerates trivially.
    """
    if result.is_empty:
        return True
    if isinstance(result, ConvexRegion):
        rows, tol = result.polytope.vertex_array, max(tol, 1e-7)
    else:
        rows, tol = result.points(), max(tol, 1e-9)
    again = generate(spec, Corpus.from_array(rows, dim=result.dim))
    return again.equals(result, tol)


@dataclass(frozen=True)
class ConvexValuedReport:
    """Diagnostics for the three equivalent characterizations of convex images.

    ``image_convex``: the image itself is convex. ``hull_of_image_equal``:
    taking the hull after generating changes nothing.
    ``image_of_hull_equal``: generating from a finite stand-in for the hull
    (extreme points plus sampled interior points) changes nothing.
    ``hull_contained``: the plain hull sits inside the image (minimality).
    ``witness`` is a point of hull(image) \\ image when the image is not convex.
    """

    image_convex: bool
    hull_of_image_equal: bool
    image_of_hull_equal: bool
    hull_contained: bool
    witness: Creation | None


def check_convex_valued(
    spec: GeneratorSpec, corpus: Corpus, samples: int = 8, tol: float = TOL_GEOM
) -> ConvexValuedReport:
    """Probe whether a generator behaves as a convex-valued map on a corpus.

    The hull-composition laws are exercised on finite probe corpora: the
    hull's extreme points plus deterministically sampled convex
    combinations. That is exact for hull- and box-valued generators (both
    are determined by extreme points) and correctly exposes recombination,
    whose grids gain new coordinate values from interior points.
    """
    result = generate(spec, corpus)
    witness = None
    if isinstance(result, ConvexRegion):
        image_convex = True
        hull_of_image = True
    else:
        image_convex = result.cardinality <= 1
        hull_of_image = image_convex
        if not image_convex:
            witness = _off_grid_witness(result)

    hull_poly = convex_hull(corpus)
    probe = _hull_probe_corpus(corpus, hull_poly, samples)
    # regions compare at tolerance 1e-7 and grids at 1e-9, their defaults
    image_of_hull = generate(spec, probe).equals(result)

    # the probe corpus holds every corpus row and every hull vertex
    hull_contained = bool(result.contains_batch(probe.to_array(), tol).all())
    return ConvexValuedReport(image_convex, hull_of_image, image_of_hull, hull_contained, witness)


def _hull_probe_corpus(corpus: Corpus, hull_poly: Polytope, samples: int) -> Corpus:
    arr = corpus.to_array()
    pts = [row for row in arr]
    pts.extend(row for row in hull_poly.vertex_array)
    seed = int.from_bytes(hashlib.sha256(arr.tobytes()).digest()[:8], "little")
    rng = np.random.Generator(np.random.Philox(seed))
    V = hull_poly.vertex_array
    for _ in range(samples):
        w = rng.random(len(V))
        w /= w.sum()
        pts.append(w @ V)
    P = np.array(pts)
    return Corpus.from_array(P[list(tol_buckets(P))], dim=corpus.dim)


def _off_grid_witness(grid: FiniteGrid) -> Creation:
    # midpoint of the first adjacent value pair in every multi-valued
    # coordinate: inside the hull of the grid, never on the grid itself
    coords = []
    for vs in grid.value_sets:
        if len(vs) >= 2:
            coords.append((vs[0] + vs[1]) / 2.0)
        else:
            coords.append(vs[0])
    return Creation(tuple(coords))


# -- scaling -----------------------------------------------------------------


def scale_corpus(corpus: Corpus, alpha: float) -> Corpus:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return Corpus.from_array(corpus.to_array() * float(alpha), dim=corpus.dim)


def scale_generable_set(result: GenerableSet, alpha: float) -> GenerableSet:
    if isinstance(result, ConvexRegion):
        if result.is_empty:
            return result
        return ConvexRegion(
            Polytope.from_points(result.polytope.vertex_array * float(alpha), dim=result.dim)
        )
    return FiniteGrid(result.dim, tuple(tuple(v * float(alpha) for v in vs) for vs in result.value_sets))


def check_homogeneity(
    spec: GeneratorSpec, corpus: Corpus, alpha: float, tol: float | None = None
) -> bool:
    """Test generate(spec, alpha * C) == alpha * generate(spec, C)."""
    if tol is None:
        scale = float(np.abs(corpus.to_array()).max()) if len(corpus) else 1.0
        tol = 1e-8 * max(1.0, alpha, alpha * scale)
    scaled = generate(spec, scale_corpus(corpus, alpha))
    direct = scale_generable_set(generate(spec, corpus), alpha)
    return scaled.equals(direct, tol)
