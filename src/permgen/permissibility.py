"""Counterfactual permissibility: which generable points survive the removal
of any single corpus item (or any protected set of items).

The permissible set is the intersection of the leave-one-out images
g(C \\ {c}) over all items c; a generable point outside some leave-one-out
image is a violation and the items whose removal excludes it are the works
it infringes. For hull-valued generators only the removal of extreme points
can shrink the image, which keeps the intersection cheap on large corpora.
Each leave-one-out hull is built from the convex layers: with V the hull
vertices and L2 the vertices of the hull of the other rows,
hull(C \\ {v}) = hull((V \\ {v}) | L2) exactly, for every v in V.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateCreation,
    EmptyCorpus,
    InsufficientPoints,
    NotConvexValued,
    ProtectedSetNotInCorpus,
)
from .generators import (
    BOX,
    CONV,
    SPLICE,
    ConvexRegion,
    FiniteGrid,
    GenerableSet,
    GeneratorSpec,
    _coordinate_value_sets,
    _in_hull_lp,
    _near_values,
    convex_valued,
    empty_generable_set,
    generate,
    is_member,
)
from .geometry import (
    TOL_GEOM,
    Corpus,
    Creation,
    Polytope,
    RadonSplit,
    _as_creation,
    convex_hull,
    halfspace_intersection,
    radon_partition,
)

PERMISSIBLE = "permissible"
VIOLATION = "violation"
NOT_GENERABLE = "not_generable"


@dataclass(frozen=True)
class Classification:
    """Status of a candidate point against a corpus.

    ``infringed`` lists, in corpus order, every item whose removal would
    exclude the point; it is empty unless status is ``violation``.
    """

    status: str
    infringed: tuple[Creation, ...] = ()


@dataclass(frozen=True)
class PermissibleResult:
    generable: GenerableSet
    permissible: GenerableSet


def _check_nonempty(corpus: Corpus) -> None:
    if len(corpus) == 0:
        raise EmptyCorpus("permissibility is defined over nonempty corpora")


def _leave_one_out(spec: GeneratorSpec, corpus: Corpus, c: Creation) -> GenerableSet:
    rest = corpus.without(c)
    if len(rest) == 0:
        return empty_generable_set(spec, corpus.dim)
    return generate(spec, rest)


def _conv_loo_rows(arr: np.ndarray, full: Polytope) -> tuple[list[int], np.ndarray]:
    """Rows of the vertices of ``full`` (the hull of an (n, d) corpus array),
    in vertex order, and the sorted rows of V | L2.

    Only removing an extreme row can shrink the hull. With V those vertices
    and L2 the vertices of the hull of the other rows (the second convex
    layer), hull(C \\ {v}) = hull((V \\ {v}) | L2) exactly, since every row
    outside V lies in hull(L2); so each leave-one-out hull, or LP, needs
    |V| - 1 + |L2| rows, not n - 1. Nothing is kept between calls.
    """
    rows = _vertex_rows(arr, full)
    inner = np.ones(len(arr), dtype=bool)
    inner[rows] = False
    layer2 = Polytope.from_points(arr.compress(inner, axis=0), dim=arr.shape[1])
    # rows in corpus order, as in arr without the row, so Qhull sees them the same way
    return rows, np.sort(rows + _vertex_rows(arr, layer2))


def _conv_loo_hulls(arr: np.ndarray, full: Polytope) -> dict[int, Polytope]:
    """Leave-one-out hulls of an (n, d) corpus array, one per vertex row of ``full``."""
    rows, keep = _conv_loo_rows(arr, full)
    return {i: Polytope.from_points(arr[keep[keep != i]], dim=arr.shape[1]) for i in rows}


def _vertex_rows(arr: np.ndarray, hull: Polytope) -> list[int]:
    """Row of ``arr`` holding each vertex of ``hull`` (a hull of its rows), in vertex order."""
    # corpus rows are distinct and every vertex is one of them
    return (arr == hull.vertex_array[:, None, :]).all(axis=2).argmax(axis=1).tolist()


def conv_permissible_polytope(corpus: Corpus, full: Polytope | None = None) -> Polytope:
    """Intersection of leave-one-out hulls, touching only extreme points.

    On the line conv and box are the same closure operator, so in d = 1 the
    set is box's [x(2), x(n-1)], with no hull built.
    """
    if len(corpus) <= 1 or corpus.dim == 1:
        return box_permissible_polytope(corpus)
    if full is None:
        full = convex_hull(corpus)
    return halfspace_intersection(list(_conv_loo_hulls(corpus.to_array(), full).values()))


def box_permissible_polytope(corpus: Corpus) -> Polytope:
    """Componentwise second-order statistics; equals the generic intersection."""
    if len(corpus) <= 1:
        return Polytope.empty(corpus.dim)
    arr = np.sort(corpus.to_array(), axis=0)
    return _box_or_empty(arr[1], arr[-2])


def _box_or_empty(lo: np.ndarray, hi: np.ndarray) -> Polytope:
    if np.any(lo > hi + TOL_GEOM):
        return Polytope.empty(len(lo))
    return Polytope.box(lo, np.maximum(lo, hi))


def _splice_permissible_grid(corpus: Corpus) -> FiniteGrid:
    """Grid of coordinate values supplied by at least two corpus items."""
    return FiniteGrid(corpus.dim, _coordinate_value_sets(corpus.to_array(), 2))


def _intersect_generable(sets: list[GenerableSet], spec: GeneratorSpec, dim: int) -> GenerableSet:
    if any(s.is_empty for s in sets):
        return empty_generable_set(spec, dim)
    if spec.kind == BOX:  # axis-aligned boxes intersect coordinatewise
        corners = np.array([s.polytope.bounding_box() for s in sets])  # type: ignore[union-attr]
        return ConvexRegion(_box_or_empty(corners[:, 0].max(axis=0), corners[:, 1].min(axis=0)))
    if all(isinstance(s, ConvexRegion) for s in sets):
        return ConvexRegion(halfspace_intersection([s.polytope for s in sets]))
    # product grids intersect coordinatewise
    value_sets = []
    for k in range(dim):
        current = np.asarray(sets[0].value_sets[k])  # type: ignore[union-attr]
        for g in sets[1:]:
            current = current[_near_values(current, g.value_sets[k], TOL_GEOM)]  # type: ignore[union-attr]
        value_sets.append(tuple(current.tolist()))
    return FiniteGrid(dim, tuple(value_sets))


def _permissible(spec: GeneratorSpec, corpus: Corpus, generable: GenerableSet) -> GenerableSet:
    """Intersection of the leave-one-out images; ``generable`` is generate(spec, corpus).

    The one place that picks a permissible-set routine per generator kind.
    Every routine returns the empty set for a singleton corpus.
    """
    if spec.kind == CONV:
        return ConvexRegion(conv_permissible_polytope(corpus, generable.polytope))  # type: ignore[union-attr]
    if spec.kind == BOX:
        return ConvexRegion(box_permissible_polytope(corpus))
    if spec.kind == SPLICE:
        return _splice_permissible_grid(corpus)
    return _intersect_generable([_leave_one_out(spec, corpus, c) for c in corpus], spec, corpus.dim)


def permissible_set(spec: GeneratorSpec, corpus: Corpus) -> PermissibleResult:
    """Generable set and the intersection of its leave-one-out images.

    A singleton corpus has an empty permissible set: removing its only item
    leaves nothing to generate from.
    """
    _check_nonempty(corpus)
    generable = generate(spec, corpus)
    return PermissibleResult(generable, _permissible(spec, corpus, generable))


def classify(spec: GeneratorSpec, corpus: Corpus, point, tol: float = TOL_GEOM) -> Classification:
    """Permissible / violation / not-generable trichotomy for one point.

    For hull-valued generators only extreme items can be infringed, so the
    scan is restricted to them; the reported tuple still follows corpus
    order and lists every infringed item.
    """
    _check_nonempty(corpus)
    if spec.kind == CONV:
        rows = _conv_infringed_rows(corpus, point, tol)
        if rows is None:
            return Classification(NOT_GENERABLE)
        infringed = tuple(corpus.items[i] for i in rows)
    else:
        if not is_member(spec, corpus, point, tol):
            return Classification(NOT_GENERABLE)
        infringed = tuple(
            c for c in corpus if len(corpus) == 1 or not is_member(spec, corpus.without(c), point, tol)
        )
    if infringed:
        return Classification(VIOLATION, infringed)
    return Classification(PERMISSIBLE)


def _conv_infringed_rows(corpus: Corpus, point, tol: float) -> list[int] | None:
    """Rows, in corpus order, whose removal takes ``point`` out of the hull.

    None when the point is outside the hull itself. The full hull is built
    once: its vertices are the only rows whose removal can shrink it. Up to
    dimension 3 membership is tested on the hulls; above, by LP feasibility
    on the rows, as ``is_member`` does.
    """
    arr = corpus.to_array()
    x = _as_creation(point, corpus.dim).array
    full = convex_hull(corpus)
    if corpus.dim <= 3:
        if not full.contains(x, tol):
            return None
        loo = _conv_loo_hulls(arr, full)
        return sorted(i for i, hull in loo.items() if not hull.contains(x, tol))
    if not _in_hull_lp(arr, x, tol):
        return None
    rows, keep = _conv_loo_rows(arr, full)
    return sorted(i for i in rows if len(arr) == 1 or not _in_hull_lp(arr[keep[keep != i]], x, tol))


def generable_sets_equal(a: GenerableSet, b: GenerableSet, tol: float = 1e-7) -> bool:
    return a.equals(b, tol) or (a.is_empty and b.is_empty)


def generable_set_included(a: GenerableSet, b: GenerableSet, tol: float = 1e-7) -> bool:
    """Whether a is a subset of b (exact for regions via extreme points)."""
    if a.is_empty:
        return True
    if b.is_empty:
        return False
    if isinstance(a, FiniteGrid) and isinstance(b, FiniteGrid):
        return all(_near_values(np.asarray(va), vb, tol).all() for va, vb in zip(a.value_sets, b.value_sets))
    if isinstance(b, FiniteGrid):
        return False
    rows = a.polytope.vertex_array if isinstance(a, ConvexRegion) else a.points()
    return bool(b.contains_batch(rows, tol).all())


@dataclass(frozen=True)
class AddEffect:
    """Comparative statics of inserting one new creation."""

    case: str
    before: PermissibleResult
    after: PermissibleResult
    strictly_expanded: bool
    inclusion_holds: bool
    witness: Creation | None


def add_creation_effect(spec: GeneratorSpec, corpus: Corpus, creation) -> AddEffect:
    """Classify a new point and report how the permissible set reacts.

    A permissible insertion leaves the permissible set unchanged; a
    violating insertion strictly expands it and the inserted point itself
    is a witness (it is permissible afterwards but was not before); a
    non-generable insertion can only grow the set. These consequences are
    verified on the computed sets and a failure raises, since it would mean
    the geometry kernel broke an exact law.
    """
    _check_nonempty(corpus)
    c = _as_creation(creation, corpus.dim)
    if c in corpus:
        raise DuplicateCreation(f"{c!r} is already in the corpus")
    before = permissible_set(spec, corpus)
    verdict = classify(spec, corpus, c)
    after = permissible_set(spec, corpus.add(c))
    included = generable_set_included(before.permissible, after.permissible)
    equal = generable_sets_equal(before.permissible, after.permissible)
    if not included:
        raise AssertionError("permissible set lost points after an insertion")
    witness = None
    if verdict.status == PERMISSIBLE:
        if not equal:
            raise AssertionError("permissible insertion changed the permissible set")
    elif verdict.status == VIOLATION:
        if not after.permissible.contains(c.coords):
            raise AssertionError("violating insertion did not become permissible")
        if before.permissible.contains(c.coords):
            raise AssertionError("violating insertion was already permissible")
        if equal:
            raise AssertionError("violating insertion did not expand the permissible set")
        witness = c
    return AddEffect(verdict.status, before, after, not equal, included, witness)


def radon_nonemptiness_witness(spec: GeneratorSpec, corpus: Corpus) -> tuple[Creation, RadonSplit]:
    """A concrete permissible point for convex-valued generators, |C| >= d + 2.

    The witness is the common point of a Radon split of the first d + 2
    items: whichever single item is removed, one side of the split survives
    intact, so the point stays inside every leave-one-out image.
    """
    if not convex_valued(spec):
        raise NotConvexValued(f"generator {spec} is not convex-valued")
    if len(corpus) < corpus.dim + 2:
        raise InsufficientPoints(
            f"need at least {corpus.dim + 2} items in dimension {corpus.dim}"
        )
    split = radon_partition(corpus)
    verdict = classify(spec, corpus, split.witness)
    if verdict.status != PERMISSIBLE:
        raise AssertionError(
            f"Radon witness classified as {verdict.status}; expected permissible"
        )
    return split.witness, split


# -- protected collections ---------------------------------------------------


@dataclass(frozen=True)
class Collection:
    """A family of protected sets, each a nonempty sub-corpus."""

    protected: tuple[Corpus, ...]

    @classmethod
    def from_indices(cls, corpus: Corpus, groups) -> "Collection":
        sets = []
        for group in groups:
            idx = sorted(set(int(i) for i in group))
            if any(i < 0 or i >= len(corpus) for i in idx):
                raise ProtectedSetNotInCorpus(f"index out of range in {group!r}")
            sets.append(Corpus((corpus.items[i] for i in idx), dim=corpus.dim))
        return cls(tuple(sets))

    def __iter__(self):
        return iter(self.protected)

    def __len__(self) -> int:
        return len(self.protected)


def _validate_collection(corpus: Corpus, collection: Collection) -> None:
    for group in collection:
        if len(group) == 0:
            raise ProtectedSetNotInCorpus("protected sets must be nonempty")
        if group.dim != corpus.dim:
            raise ProtectedSetNotInCorpus("protected set dimension mismatch")
        for item in group:
            if item not in corpus:
                raise ProtectedSetNotInCorpus(f"{item!r} is not a corpus member")


def groupwise_permissible(
    spec: GeneratorSpec, corpus: Corpus, collection: Collection
) -> GenerableSet:
    """Points generable without any single protected set.

    The empty collection imposes no constraint and returns the full
    generable set; a protected set covering the whole corpus contributes
    the empty image and empties the intersection.
    """
    _check_nonempty(corpus)
    _validate_collection(corpus, collection)
    if len(collection) == 0:
        return generate(spec, corpus)
    parts: list[GenerableSet] = []
    for group in collection:
        rest = corpus.without_many(group.items)
        parts.append(
            empty_generable_set(spec, corpus.dim) if len(rest) == 0 else generate(spec, rest)
        )
    return _intersect_generable(parts, spec, corpus.dim)


def richness_compare(finer: Collection, coarser: Collection) -> bool:
    """True when every protected set of ``coarser`` sits inside one of ``finer``.

    In that case protecting ``finer`` is at least as restrictive: its
    groupwise permissible set is contained in the one for ``coarser``.
    """
    for b in coarser:
        b_key = frozenset(b.items)
        if not any(b_key <= frozenset(a.items) for a in finer):
            return False
    return True


@dataclass(frozen=True)
class SuperadditivityReport:
    inclusion_holds: bool
    strict_witness: Creation | None
    points_checked: int


def superadditivity_check(
    spec: GeneratorSpec,
    corpus: Corpus,
    set_a: Corpus,
    set_b: Corpus,
    samples: int = 512,
    seed: int = 0,
) -> SuperadditivityReport:
    """Violations against {A, B} are violations against {A union B}.

    Verified contrapositively: every point permissible under the merged
    protection must be permissible under the pairwise protection, which is
    decided exactly by ``generable_set_included``. Strictness is hunted on
    the vertices of the pairwise set plus ``samples`` random convex
    combinations of them (or its first ``samples`` grid points); the first
    candidate permissible pairwise but not merged is the witness, and
    ``points_checked`` is its 1-based index, or the number of candidates
    when there is none.
    """
    _check_nonempty(corpus)
    for item in set_a:
        if item in set_b:
            raise ValueError("protected sets must be disjoint")
    pair = groupwise_permissible(spec, corpus, Collection((set_a, set_b)))
    union_corpus = Corpus(set_a.items + set_b.items, dim=corpus.dim)
    merged = groupwise_permissible(spec, corpus, Collection((union_corpus,)))
    inclusion = generable_set_included(merged, pair)

    # hunt for strictness: in the pairwise set but not in the merged one
    P = np.empty((0, corpus.dim))
    if isinstance(pair, ConvexRegion) and not pair.is_empty:
        P = pair.polytope.vertex_array
        if len(P) >= 2:
            w = np.random.Generator(np.random.Philox(seed)).random((samples, len(P)))
            w /= w.sum(axis=1, keepdims=True)
            P = np.vstack([P, w @ P])
    elif isinstance(pair, FiniteGrid):
        P = pair.points()[:samples]
    strict = np.flatnonzero(pair.contains_batch(P) & ~merged.contains_batch(P))
    if not len(strict):
        return SuperadditivityReport(bool(inclusion), None, len(P))
    return SuperadditivityReport(bool(inclusion), Creation(tuple(P[strict[0]])), int(strict[0]) + 1)
