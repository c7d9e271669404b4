"""Convex-geometry kernel: points, corpora, polytopes, and the operations
the rest of the package is built on (hulls, halfspace intersections,
membership, volumes, support functions, Radon partitions). Hulls, vertex
enumeration and volumes are Qhull's; feasibility questions are HiGHS LPs.
scipy, which provides both, is imported at the first Qhull or HiGHS call, so
code that never makes one (the one-dimensional paths) never loads it.

Every polytope carries both a minimal vertex representation and a halfspace
representation with unit-length normals, so a halfspace residual is a signed
distance and one absolute tolerance (TOL_GEOM) drives membership,
deduplication and degeneracy decisions. All values are immutable after
construction and all operations are pure, which makes concurrent use safe.
"""
from __future__ import annotations

import enum
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSystem,
    DimensionMismatch,
    DuplicateCreation,
    EmptyCorpus,
    EmptyPolytope,
    InsufficientPoints,
    ZeroVolumeBounding,
)

# Absolute tolerance on halfspace residuals and width of the dedupe buckets
# (tol_buckets). It does not scale with the data: coordinates are assumed to
# stay within |x| <= 1e6, where doubles keep ~1e-10 of headroom below this
# value. Bucket keys cannot overflow, but above |x| ~ 1e7 adjacent doubles
# are more than TOL_GEOM apart, so a bucket holds only equal values there.
TOL_GEOM = 1e-9

# Chebyshev inradius above which an intersection is treated as full-dimensional.
_FULL_DIM_RADIUS = 1e-7

# Slack threshold for detecting constraints that hold with equality on the
# whole feasible set (implicit equalities). Looser than TOL_GEOM to absorb
# LP solver noise.
_EQ_SLACK = 1e-7


class Location(enum.Enum):
    """Trichotomy returned by membership tests."""

    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class Creation:
    """A single work, embedded as a point of R^d.

    Coordinates are stored as a tuple of finite floats; equality and hashing
    are exact on coordinates, so creations can key dictionaries.
    """

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(v) for v in self.coords)
        if not coords:
            raise DimensionMismatch("a creation needs at least one coordinate")
        if not all(math.isfinite(v) for v in coords):
            raise ValueError(f"non-finite coordinate in {coords!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def __repr__(self) -> str:
        return f"Creation({', '.join(repr(v) for v in self.coords)})"


def _point_array(value, dim: int) -> np.ndarray:
    """A point, given as a Creation or an array-like of coordinates, as a float vector of length dim."""
    x = np.atleast_1d(np.asarray(value.coords if isinstance(value, Creation) else value, dtype=float))
    if x.shape[0] != dim:
        raise DimensionMismatch(f"point has dimension {x.shape[0]}, expected {dim}")
    return x


def _as_creation(value, dim: int | None = None) -> Creation:
    c = value if isinstance(value, Creation) else Creation(tuple(np.atleast_1d(value)))
    if dim is not None and c.dim != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {c.dim}")
    return c


class Corpus:
    """An ordered collection of pairwise-distinct creations in a common R^d.

    The rows of one read-only (n, d) float array are the creations, in
    insertion order. ``items`` and the set used for equality, hashing and
    membership are built from those rows on first use; a corpus built from
    Creation objects keeps them as its items. Equality is set-like (order
    does not matter) but iteration preserves insertion order, so derived
    computations stay deterministic.

    ``Corpus(items, dim)`` takes creations (or coordinate sequences) or a
    2-d array of rows; ``from_array`` takes any array-like of rows.
    """

    __slots__ = ("dim", "_arr", "_items", "_key")

    def __init__(self, items=(), dim: int | None = None):
        if isinstance(items, np.ndarray) and items.ndim == 2:
            members = None
            arr = np.array(items, dtype=float)
            if dim is None:
                dim = arr.shape[1]
        else:
            members = tuple(_as_creation(it) for it in items)
            if dim is None:
                if not members:
                    raise EmptyCorpus("an empty corpus needs an explicit dimension")
                dim = members[0].dim
            for c in members:
                if c.dim != dim:
                    raise DimensionMismatch(
                        f"corpus dimension is {dim} but item {c!r} has dimension {c.dim}"
                    )
            arr = np.array([c.coords for c in members], dtype=float).reshape(len(members), dim)
        self.dim = int(dim)
        self._arr = _checked_rows(arr, self.dim)
        self._items = members
        self._key = None

    @classmethod
    def from_array(cls, arr, dim: int | None = None) -> "Corpus":
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        return cls(arr, dim=dim or arr.shape[1])

    def to_array(self) -> np.ndarray:
        """The (n, d) rows themselves, read-only; not a copy."""
        return self._arr

    @property
    def items(self) -> tuple[Creation, ...]:
        if self._items is None:
            self._items = tuple(Creation(row) for row in map(tuple, self._arr.tolist()))
        return self._items

    def _members(self) -> frozenset:
        if self._key is None:
            self._key = frozenset(self.items)
        return self._key

    def without(self, creation) -> "Corpus":
        return self.without_many((creation,))

    def without_many(self, creations) -> "Corpus":
        keep = np.ones(len(self), dtype=bool)
        for c in creations:
            keep &= (self._arr != _as_creation(c, self.dim).array).any(axis=1)
        return Corpus(self._arr[keep], dim=self.dim)

    def add(self, creation) -> "Corpus":
        c = _as_creation(creation, self.dim)
        if c in self._members():
            raise DuplicateCreation(f"{c!r} is already in the corpus")
        return Corpus(self.items + (c,), dim=self.dim)

    def __len__(self) -> int:
        return len(self._arr)

    def __iter__(self):
        return iter(self.items)

    def __contains__(self, creation) -> bool:
        try:
            return _as_creation(creation, self.dim) in self._members()
        except DimensionMismatch:
            return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.dim == other.dim and len(self) == len(other) and self._members() == other._members()

    def __hash__(self) -> int:
        return hash((self.dim, self._members()))

    def __repr__(self) -> str:
        return f"Corpus(n={len(self)}, dim={self.dim})"


def _checked_rows(arr: np.ndarray, dim: int) -> np.ndarray:
    """``arr``, made read-only, after checking it holds distinct finite rows of length dim.

    Rows are compared as Creation compares coordinates, so -0.0 and 0.0 are
    equal; duplicates are found by sorting, without a Python loop over rows.
    """
    if arr.shape[1] != dim:
        raise DimensionMismatch(f"corpus dimension is {dim} but rows have dimension {arr.shape[1]}")
    if dim == 0 and len(arr):
        raise DimensionMismatch("a creation needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite coordinate in corpus")
    if len(arr) > 1:
        if dim == 1:
            srt = np.sort(arr[:, 0])
            dup = srt[1:] == srt[:-1]
        else:
            srt = arr[np.lexsort(arr.T)]
            dup = (srt[1:] == srt[:-1]).all(axis=1)
        if dup.any():
            row = srt[int(np.argmax(dup))]
            raise DuplicateCreation(f"duplicate item {Creation(tuple(np.atleast_1d(row)))!r}")
    arr.setflags(write=False)
    return arr


def tol_buckets(A: np.ndarray) -> dict[int, int]:
    """Group the rows of a 2-d array into buckets of width TOL_GEOM.

    Returns the index of each bucket's first row, in row order, mapped to
    the number of rows in the bucket. Keys are rounded floats, never cast to
    integers, so no coordinate is too large to key.
    """
    first: dict = {}
    counts: dict[int, int] = {}
    for i, key in enumerate(map(tuple, np.round(A / TOL_GEOM).tolist())):
        j = first.setdefault(key, i)
        counts[j] = counts.get(j, 0) + 1
    return counts


def _affine_rank(P: np.ndarray):
    """Origin, orthonormal basis of the affine hull, its orthogonal complement."""
    o = P[0]
    if len(P) == 1:
        return o, np.zeros((P.shape[1], 0)), np.eye(P.shape[1])
    Q = P - o
    # the complement needs all d rows of Vt, which the thin SVD omits only when n < d
    _, s, Vt = np.linalg.svd(Q, full_matrices=Q.shape[0] < Q.shape[1])
    thresh = TOL_GEOM * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > thresh))
    return o, Vt[:rank].T, Vt[rank:].T


# Qhull's two entry points, importing scipy on first use. Every Qhull call in
# this module goes through these names, which perfbench/tracer.py patches.
def _QhullConvexHull(points, **options):
    from scipy.spatial import ConvexHull

    return ConvexHull(points, **options)


def _QhullHalfspaceIntersection(halfspaces, interior, **options):
    from scipy.spatial import HalfspaceIntersection

    return HalfspaceIntersection(halfspaces, interior, **options)


def _qhull(points: np.ndarray):
    from scipy.spatial import QhullError

    try:
        return _QhullConvexHull(points)
    except QhullError:
        # joggle as a last resort; callers re-derive clean vertices afterwards
        return _QhullConvexHull(points, qhull_options="QJ")


class Polytope:
    """A (possibly empty, possibly lower-dimensional) convex polytope.

    ``vertex_array`` is the minimal set of extreme points. ``normals`` /
    ``offsets`` describe the same set as ``{x : normals @ x <= offsets}`` with
    unit-length rows; lower-dimensional polytopes carry their affine hull as
    pairs of opposing halfspaces. ``affine_dim`` is -1 for the empty polytope.
    """

    __slots__ = ("dim", "vertex_array", "normals", "offsets", "affine_dim")

    def __init__(self, dim, vertex_array, normals, offsets, affine_dim):
        self.dim = int(dim)
        self.vertex_array = np.asarray(vertex_array, dtype=float).reshape(-1, self.dim)
        self.normals = np.asarray(normals, dtype=float).reshape(-1, self.dim)
        self.offsets = np.asarray(offsets, dtype=float).reshape(-1)
        self.affine_dim = int(affine_dim)
        for a in (self.vertex_array, self.normals, self.offsets):
            a.setflags(write=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, dim: int) -> "Polytope":
        return cls(dim, np.empty((0, dim)), np.empty((0, dim)), np.empty(0), -1)

    @classmethod
    def from_points(cls, points, dim: int | None = None) -> "Polytope":
        P = np.asarray(points, dtype=float)
        if P.ndim == 1:
            P = P.reshape(-1, 1) if dim in (None, 1) else P.reshape(1, -1)
        if dim is None:
            if P.size == 0:
                raise DimensionMismatch("cannot infer dimension from no points")
            dim = P.shape[1]
        if P.size == 0:
            return cls.empty(dim)
        if P.shape[1] != dim:
            raise DimensionMismatch(f"points have dimension {P.shape[1]}, expected {dim}")
        if not np.all(np.isfinite(P)):
            raise ValueError("non-finite coordinates")
        if dim == 1:
            return cls._interval(P)
        P = P[list(tol_buckets(P))]
        o, B, N = _affine_rank(P)
        k = B.shape[1]
        if k == 0:
            return cls.box(P[0], P[0])
        if k == dim:
            hull = _qhull(P)
            verts = P[hull.vertices]
            A = hull.equations[:, :dim]
            b = -hull.equations[:, dim]
            return cls._normalized(dim, verts, A, b, affine_dim=dim)
        # lower-dimensional: build the hull inside the affine hull and lift
        Y = (P - o) @ B
        if k == 1:
            y = Y[:, 0]
            i_lo, i_hi = int(np.argmin(y)), int(np.argmax(y))
            verts = P[[i_lo, i_hi]]
            A_sub = np.array([[1.0], [-1.0]])
            b_sub = np.array([y[i_hi], -y[i_lo]])
        else:
            hull = _qhull(Y)
            verts = P[hull.vertices]
            A_sub = hull.equations[:, :k]
            b_sub = -hull.equations[:, k]
        A_in = A_sub @ B.T
        b_in = b_sub + A_in @ o
        flat = N.T
        bf = flat @ o
        A = np.vstack([A_in, flat, -flat])
        b = np.concatenate([b_in, bf, -bf])
        return cls._normalized(dim, verts, A, b, affine_dim=k)

    @classmethod
    def box(cls, lo, hi) -> "Polytope":
        """Axis-aligned product of intervals [lo_k, hi_k], built in closed form.

        A side no wider than TOL_GEOM collapses onto lo_k, in the vertices and
        in its pair of halfspaces alike, and does not count in ``affine_dim``.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("lo and hi must have the same length")
        if (hi < lo).any():
            raise ValueError("box needs lo <= hi componentwise")
        if not np.isfinite([lo, hi]).all():
            raise ValueError("non-finite coordinates")
        wide = hi - lo > TOL_GEOM
        hi = np.where(wide, hi, lo)
        sides = ((l, h) if w else (l,) for l, h, w in zip(lo, hi, wide))
        eye = np.eye(len(lo))
        A, b = np.concatenate([eye, -eye]), np.concatenate([hi, -lo])
        return cls(len(lo), list(itertools.product(*sides)), A, b, np.count_nonzero(wide))

    @classmethod
    def _interval(cls, P: np.ndarray) -> "Polytope":
        lo, hi = float(P.min()), float(P.max())
        if hi - lo <= TOL_GEOM:
            return cls.box([lo], [lo])
        verts = np.array([[lo], [hi]])
        return cls(1, verts, np.array([[1.0], [-1.0]]), np.array([hi, -lo]), 1)

    @classmethod
    def _normalized(cls, dim, verts, A, b, affine_dim) -> "Polytope":
        norms = np.linalg.norm(A, axis=1)
        keep = norms > TOL_GEOM
        A = A[keep] / norms[keep, None]
        b = b[keep] / norms[keep]
        rows = list(tol_buckets(np.column_stack([A, b])))
        return cls(dim, verts, A[rows], b[rows], affine_dim)

    # -- queries -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.affine_dim < 0

    @property
    def has_zero_volume(self) -> bool:
        return self.affine_dim < self.dim

    @property
    def vertices(self) -> tuple[Creation, ...]:
        return tuple(Creation(tuple(row)) for row in self.vertex_array)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_empty:
            raise EmptyPolytope("the empty polytope has no bounding box")
        return self.vertex_array.min(axis=0), self.vertex_array.max(axis=0)

    def membership(self, point, tol: float = TOL_GEOM) -> Location:
        x = _point_array(point, self.dim)
        if not np.isfinite(x).all():
            raise ValueError(f"non-finite coordinate in {x.tolist()!r}")
        if self.is_empty:
            return Location.OUTSIDE
        res = self.normals @ x - self.offsets
        worst = float(res.max()) if res.size else -np.inf
        if worst > tol:
            return Location.OUTSIDE
        if worst >= -tol:
            return Location.BOUNDARY
        return Location.INSIDE

    def contains(self, point, tol: float = TOL_GEOM) -> bool:
        return self.membership(point, tol) is not Location.OUTSIDE

    def contains_batch(self, points: np.ndarray, tol: float = TOL_GEOM) -> np.ndarray:
        """Vectorized closed-membership test for an (m, d) array of points: the largest
        residual ``normals @ x - offsets`` is at most ``tol`` (NaN reads as outside).
        Rows go in blocks of about 2**18 residuals, bounding memory at any facet count."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {self.dim}")
        if self.is_empty:
            return np.zeros(len(pts), dtype=bool)
        out = np.ones(len(pts), dtype=bool)
        if len(self.offsets) == 0:
            return out
        step = max(1, 2**18 // len(self.offsets))
        for start in range(0, len(pts), step):
            res = pts[start : start + step] @ self.normals.T
            res -= self.offsets
            out[start : start + step] = res.max(axis=1) <= tol
        return out

    def equals(self, other: "Polytope", tol: float = 1e-7) -> bool:
        """Same point set, decided by matching the minimal vertex sets."""
        if not isinstance(other, Polytope) or self.dim != other.dim:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return _vertex_sets_match(self.vertex_array, other.vertex_array, tol)

    def __repr__(self) -> str:
        if self.is_empty:
            return f"Polytope(empty, dim={self.dim})"
        return (
            f"Polytope(dim={self.dim}, vertices={len(self.vertex_array)}, "
            f"affine_dim={self.affine_dim})"
        )


def _vertex_sets_match(V: np.ndarray, W: np.ndarray, tol: float) -> bool:
    if len(V) != len(W):
        return False
    used = np.zeros(len(W), dtype=bool)
    for v in V:
        dist = np.abs(W - v).max(axis=1)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        used[j] = True
    return True


# -- spec operations ---------------------------------------------------------


def convex_hull(corpus: Corpus) -> Polytope:
    """Convex hull of a corpus as a polytope.

    Lower-dimensional inputs (collinear points, a single point) produce a
    degenerate polytope whose halfspaces pin down the affine hull, so
    membership and intersection behave uniformly.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("hull of an empty corpus")
    return Polytope.from_points(corpus.to_array(), dim=corpus.dim)


def membership(polytope: Polytope, point, tol: float = TOL_GEOM) -> Location:
    return polytope.membership(point, tol)


def halfspace_intersection(polytopes) -> Polytope:
    """Intersection of finitely many polytopes in the same R^d.

    The result keeps minimal vertices even when the intersection drops
    dimension (a face, a segment, a single point) or is empty. Feasibility
    and dimensionality are decided by a Chebyshev-center LP; implicit
    equalities are detected by per-constraint LPs and the problem is reduced
    into the affine hull before vertex enumeration.
    """
    polys = list(polytopes)
    if not polys:
        raise ValueError("halfspace_intersection needs at least one polytope")
    dim = polys[0].dim
    for p in polys:
        if p.dim != dim:
            raise DimensionMismatch("mixed dimensions in intersection")
    if any(p.is_empty for p in polys):
        return Polytope.empty(dim)
    A = np.vstack([p.normals for p in polys])
    b = np.concatenate([p.offsets for p in polys])
    rows = list(tol_buckets(np.column_stack([A, b])))
    A, b = A[rows], b[rows]
    verts = _hsi_vertices(A, b, dim)
    if verts is None:
        return Polytope.empty(dim)
    return Polytope.from_points(verts, dim=dim)


def _chebyshev_center(A: np.ndarray, b: np.ndarray, dim: int):
    from scipy.optimize import linprog

    c = np.zeros(dim + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A, np.ones((len(A), 1))])
    bounds = [(None, None)] * dim + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b, bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise DegenerateSystem(f"Chebyshev LP failed: {res.message}")
    return res.x[:dim], float(res.x[dim])


def _hsi_vertices(A: np.ndarray, b: np.ndarray, dim: int):
    """Vertex array of {x : A x <= b}, or None when infeasible."""
    if dim == 1:
        a = A[:, 0]
        pos = a > 0.5
        neg = a < -0.5
        if not pos.any() or not neg.any():
            raise DegenerateSystem("unbounded one-dimensional intersection")
        hi = float(np.min(b[pos] / a[pos]))
        lo = float(np.max(b[neg] / a[neg]))
        if lo > hi + TOL_GEOM:
            return None
        return np.array([[lo], [hi]])
    found = _chebyshev_center(A, b, dim)
    if found is None:
        return None
    center, radius = found
    if radius > _FULL_DIM_RADIUS:
        return _hsi_full_dim(A, b, center)
    # flat (or nearly flat) feasible set: peel off implicit equalities
    from scipy.optimize import linprog

    # a row with slack above _EQ_SLACK at a feasible point (the centre, or an
    # earlier LP's optimum) is no implicit equality and needs no LP of its own
    eq_rows = []
    settled = b - A @ center > _EQ_SLACK
    for i in range(len(A)):
        if settled[i]:
            continue
        res = linprog(A[i], A_ub=A, b_ub=b, bounds=[(None, None)] * dim, method="highs")
        if res.status == 3:
            continue
        if not res.success:
            continue
        if res.fun >= b[i] - _EQ_SLACK:
            eq_rows.append(i)
        settled |= b - A @ res.x > _EQ_SLACK
    if not eq_rows:
        # thin but genuinely full-dimensional
        return _hsi_full_dim(A, b, center)
    E = A[eq_rows]
    e = b[eq_rows]
    x0, *_ = np.linalg.lstsq(E, e, rcond=None)
    _, s, Vt = np.linalg.svd(E, full_matrices=True)
    rank = int(np.sum(s > TOL_GEOM * max(1.0, float(s[0]))))
    if rank >= dim:
        return x0.reshape(1, dim)
    B = Vt[rank:].T  # dim x k null basis
    k = B.shape[1]
    A_sub = A @ B
    b_sub = b - A @ x0
    norms = np.linalg.norm(A_sub, axis=1)
    flatrows = norms <= TOL_GEOM
    if np.any(b_sub[flatrows] < -_EQ_SLACK):
        return None
    A_sub = A_sub[~flatrows] / norms[~flatrows, None]
    b_sub = b_sub[~flatrows] / norms[~flatrows]
    if len(A_sub) == 0:
        raise DegenerateSystem("unbounded flat in intersection")
    sub = _hsi_vertices(A_sub, b_sub, k)
    if sub is None:
        return None
    return x0 + sub @ B.T


def _hsi_full_dim(A: np.ndarray, b: np.ndarray, interior: np.ndarray):
    from scipy.spatial import QhullError

    hs = np.hstack([A, -b[:, None]])
    try:
        hsi = _QhullHalfspaceIntersection(hs, interior)
    except QhullError:
        try:
            hsi = _QhullHalfspaceIntersection(hs, interior, qhull_options="QJ")
        except QhullError as exc:
            # typically an interior point the Chebyshev LP placed within
            # solver tolerance of a halfspace of an (almost) empty set
            raise DegenerateSystem(f"halfspace intersection failed: {str(exc).splitlines()[0]}") from exc
    pts = hsi.intersections
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    if len(pts) == 0:
        return None
    return pts


def volume(polytope: Polytope) -> float:
    """Volume of a polytope: Qhull's, from a hull of its vertices.

    Empty and lower-dimensional polytopes have volume 0; in dimension 1 the
    volume is the interval length.
    """
    if polytope.is_empty or polytope.has_zero_volume:
        return 0.0
    V = polytope.vertex_array
    if polytope.dim == 1:
        return float(V.max() - V.min())
    return float(_qhull(V).volume)


def mc_volume(region_membership, bounding: Polytope, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo volume of a region known only through a membership oracle.

    Parameters
    ----------
    region_membership : callable
        Maps an (m, d) array to a boolean array; must describe a subset of
        ``bounding``.
    bounding : Polytope
        Region of positive volume containing the target. Sampling is uniform
        over its axis-aligned bounding box (equal to ``bounding`` when the
        bounding region is itself a box).
    samples, seed : int
        Sample count and deterministic stream seed.

    Returns
    -------
    (estimate, stderr)
        ``hit_rate * envelope_volume`` and the binomial standard error
        ``envelope_volume * sqrt(p (1 - p) / samples)``.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if bounding.is_empty or bounding.has_zero_volume:
        raise ZeroVolumeBounding("bounding region must have positive volume")
    lo, hi = bounding.bounding_box()
    widths = hi - lo
    vol_env = float(np.prod(widths))
    if vol_env <= 0.0:
        raise ZeroVolumeBounding("bounding region must have positive volume")
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    step = 262_144
    remaining = samples
    while remaining > 0:
        m = min(step, remaining)
        pts = lo + rng.random((m, len(lo))) * widths
        hits += int(np.count_nonzero(region_membership(pts)))
        remaining -= m
    p = hits / samples
    return vol_env * p, vol_env * math.sqrt(p * (1.0 - p) / samples)


def support(polytope: Polytope, direction) -> float:
    """Support value max{<u, x> : x in polytope} for a unit direction u."""
    if polytope.is_empty:
        raise EmptyPolytope("support of the empty polytope")
    u = np.asarray(direction, dtype=float).reshape(-1)
    if u.shape[0] != polytope.dim:
        raise DimensionMismatch("direction has the wrong dimension")
    return float((polytope.vertex_array @ u).max())


@dataclass(frozen=True)
class RadonSplit:
    """Two disjoint sub-corpora whose hulls share ``witness``."""

    side_a: Corpus
    side_b: Corpus
    witness: Creation


def radon_partition(corpus: Corpus) -> RadonSplit:
    """Split d + 2 points into two parts with intersecting hulls.

    Uses the first d + 2 corpus items: a nonzero affine dependence is read
    off the SVD null space, its sign pattern gives the two sides and the
    normalized positive part gives the common point. If validation fails on
    degenerate input, the system is re-solved under a deterministic 1e-12
    perturbation (seeded from a hash of the coordinates) and the witness is
    recomputed from the unperturbed points and re-validated.

    The smaller side is reported first; ties go to the side holding the
    earliest corpus item.
    """
    d = corpus.dim
    if len(corpus) < d + 2:
        raise InsufficientPoints(f"need at least {d + 2} points in dimension {d}")
    pts = corpus.to_array()[: d + 2]

    def attempt(solve_pts: np.ndarray):
        M = np.vstack([solve_pts.T, np.ones(len(solve_pts))])
        _, _, Vt = np.linalg.svd(M)
        lam = Vt[-1]
        nz = np.abs(lam) > 1e-12 * np.abs(lam).max()
        if lam[nz][0] < 0:
            lam = -lam
        pos = lam > 1e-12
        neg = lam < -1e-12
        if not pos.any() or not neg.any():
            return None
        w = (lam[pos] @ pts[pos]) / lam[pos].sum()
        hull_pos = Polytope.from_points(pts[pos], dim=d)
        hull_neg = Polytope.from_points(pts[neg], dim=d)
        if hull_pos.membership(w, tol=_EQ_SLACK) is Location.OUTSIDE:
            return None
        if hull_neg.membership(w, tol=_EQ_SLACK) is Location.OUTSIDE:
            return None
        return np.flatnonzero(pos), np.flatnonzero(neg), Creation(tuple(w))

    result = attempt(pts)
    if result is None:
        digest = hashlib.sha256(pts.tobytes()).digest()
        base_seed = int.from_bytes(digest[:8], "little")
        for salt in range(4):
            rng = np.random.Generator(np.random.Philox(base_seed + salt))
            noise = (rng.random(pts.shape) - 0.5) * 2e-12
            result = attempt(pts + noise)
            if result is not None:
                break
    if result is None:
        raise DegenerateSystem("no valid Radon split after perturbation retries")
    rows_pos, rows_neg, witness = result
    if (len(rows_neg), rows_neg[0]) < (len(rows_pos), rows_pos[0]):
        rows_pos, rows_neg = rows_neg, rows_pos
    return RadonSplit(Corpus(pts[rows_pos], dim=d), Corpus(pts[rows_neg], dim=d), witness)
