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
        x = np.atleast_1d(np.asarray(point if not isinstance(point, Creation) else point.coords, dtype=float))
        if x.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dimension {x.shape[0]}, expected {self.dim}")
        return bool(self.contains_batch(x[None, :], tol)[0])

    def contains_batch(self, points: np.ndarray, tol: float = TOL_GEOM) -> np.ndarray:
        """Vectorized membership test for an (m, d) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {self.dim}")
        if self.is_empty:
            return np.zeros(len(pts), dtype=bool)
        out = np.ones(len(pts), dtype=bool)
        for k, vs in enumerate(self.value_sets):
            out &= np.abs(pts[:, [k]] - np.asarray(vs)).min(axis=1) <= tol
        return out

    def points(self, limit: int = GRID_LIMIT) -> np.ndarray:
        """Materialize the grid as an (m, d) array, guarded by ``limit``."""
        if self.is_empty:
            return np.empty((0, self.dim))
        if self.cardinality > limit:
            raise GridExplosion(f"grid holds {self.cardinality} points, limit is {limit}")
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


GenerableSet = ConvexRegion | FiniteGrid


def empty_generable_set(spec: GeneratorSpec, dim: int) -> GenerableSet:
    """The image of the empty corpus: empty, with the generator's output kind."""
    if convex_valued(spec):
        return ConvexRegion(Polytope.empty(dim))
    return FiniteGrid(dim, tuple(() for _ in range(dim)))


def _coordinate_value_sets(arr: np.ndarray) -> tuple[tuple[float, ...], ...]:
    # distinct after rounding at TOL_GEOM, per coordinate
    sets = []
    for k in range(arr.shape[1]):
        firsts = tol_buckets(arr[:, [k]])
        sets.append(tuple(sorted(float(arr[i, k]) for i in firsts)))
    return tuple(sets)


def _splice_grid(corpus_array: np.ndarray, dim: int) -> FiniteGrid:
    grid = FiniteGrid(dim, _coordinate_value_sets(corpus_array))
    if grid.cardinality > GRID_LIMIT:
        raise GridExplosion(
            f"recombination grid holds {grid.cardinality} points, limit is {GRID_LIMIT}"
        )
    return grid


def _box_polytope(corpus_array: np.ndarray) -> Polytope:
    return Polytope.box(corpus_array.min(axis=0), corpus_array.max(axis=0))


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
        return ConvexRegion(_box_polytope(corpus.to_array()))
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
    recombination answer from per-coordinate statistics; the hull answers
    from its halfspaces in low dimension and from LP feasibility above
    dimension 3.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("membership in the image of an empty corpus")
    x = np.atleast_1d(np.asarray(point if not isinstance(point, Creation) else point.coords, dtype=float))
    if x.shape[0] != corpus.dim:
        raise DimensionMismatch(f"point has dimension {x.shape[0]}, expected {corpus.dim}")
    if spec.kind == CONV:
        if corpus.dim <= 3:
            return convex_hull(corpus).contains(x, tol)
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
    corpus must imply membership under the superset).
    """
    for c in corpus:
        if c not in superset:
            raise ValueError("corpus must be contained in superset")
    preservation = all(is_member(spec, corpus, c, tol) for c in corpus)
    monotone = True
    for p in probe_points:
        if is_member(spec, corpus, p, tol) and not is_member(spec, superset, p, tol):
            monotone = False
            break
    idem = _check_idempotence(spec, corpus, tol)
    return AxiomReport(preservation, monotone, idem)


def _check_idempotence(spec: GeneratorSpec, corpus: Corpus, tol: float) -> bool:
    return _regenerates(spec, generate(spec, corpus), tol)


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

    probe = _hull_probe_corpus(corpus, samples)
    regen = generate(spec, probe)
    if isinstance(result, ConvexRegion):
        image_of_hull = isinstance(regen, ConvexRegion) and regen.polytope.equals(
            result.polytope, 1e-7
        )
    else:
        image_of_hull = isinstance(regen, FiniteGrid) and regen.equals(result, 1e-9)

    hull_poly = convex_hull(corpus)
    probe_arr = probe.to_array()
    hull_contained = all(is_member(spec, corpus, row, tol) for row in hull_poly.vertex_array)
    if hull_contained:
        hull_contained = all(is_member(spec, corpus, row, tol) for row in probe_arr)
    return ConvexValuedReport(image_convex, hull_of_image, image_of_hull, hull_contained, witness)


def _hull_probe_corpus(corpus: Corpus, samples: int) -> Corpus:
    hull_poly = convex_hull(corpus)
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
    if isinstance(scaled, ConvexRegion) and isinstance(direct, ConvexRegion):
        return scaled.polytope.equals(direct.polytope, tol)
    if isinstance(scaled, FiniteGrid) and isinstance(direct, FiniteGrid):
        return scaled.equals(direct, tol)
    return False
