"""Reference answers the benchmark checks permgen's outputs against.

Nothing here calls permgen's geometry. Hull membership is a barycentric
LP, as in ``tests/conftest.py``; exact volumes come from Qhull through
scipy directly; the one-dimensional ratio has a closed form.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

# Ratios from two exact computations (permgen's kernel and Qhull here) agree
# to about 1e-13 on these inputs; this leaves a wide margin below any
# geometric error, which moves a ratio by far more.
EXACT_RTOL = 1e-9
# Monte Carlo ratios must lie within this many binomial standard errors of
# the exact ratio.
MC_SIGMAS = 4.0
# Barycentric LP optimum (L1 distance) below which a point counts as inside,
# per coordinate; the same value as permgen's TOL_GEOM and the test oracle.
LP_TOL = 1e-9


def in_hull(points: np.ndarray, x: np.ndarray) -> bool:
    """Whether x is a convex combination of the rows of ``points``.

    min sum(s) subject to -s <= P^T w - x <= s, sum(w) = 1, w >= 0; the
    point is inside when the optimum is within tolerance.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = P.shape
    c = np.concatenate([np.zeros(n), np.ones(d)])
    A_ub = np.block([[P.T, -np.eye(d)], [-P.T, -np.eye(d)]])
    b_ub = np.concatenate([x, -x])
    A_eq = np.concatenate([np.ones(n), np.zeros(d)]).reshape(1, -1)
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)] * d,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"oracle LP ended with status {res.status}")
    return float(res.fun) <= LP_TOL * max(1, d)


class HullOracle:
    """Leave-one-out classification of query points against a fixed corpus.

    Only a hull vertex v can be infringed, and for it
    hull(C minus v) = hull((V minus v) union L2), where V are the hull
    vertices of C and L2 those of C minus V. Each LP therefore runs over a
    few dozen points instead of the whole corpus.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        self.vertices = np.sort(ConvexHull(self.points).vertices)
        inner = np.setdiff1d(np.arange(len(self.points)), self.vertices)
        self.second_layer = inner[ConvexHull(self.points[inner]).vertices]

    def classify(self, x) -> tuple[str, tuple[tuple[float, ...], ...]]:
        """(status, infringed items in corpus order) as permgen reports them."""
        x = np.asarray(x, dtype=float)
        if not in_hull(self.points[self.vertices], x):
            return "not_generable", ()
        infringed = []
        for v in self.vertices:
            rest = np.concatenate([self.vertices[self.vertices != v], self.second_layer])
            if not in_hull(self.points[rest], x):
                infringed.append(tuple(float(t) for t in self.points[v]))
        if infringed:
            return "violation", tuple(infringed)
        return "permissible", ()


def _qhull(kind, *args):
    try:
        return kind(*args)
    except QhullError:
        # nearly coincident facets or vertices; a joggle of ~1e-11 moves a
        # volume far less than the tolerances above
        return kind(*args, qhull_options="QJ")


def exact_ratio(points: np.ndarray) -> tuple[float, float]:
    """(generable volume, permissible/generable ratio) of a conv corpus.

    The permissible set is the intersection of the leave-one-out hulls,
    built from the hull vertices and the second convex layer and
    intersected by Qhull around a Chebyshev centre.
    """
    P = np.asarray(points, dtype=float)
    d = P.shape[1]
    full = ConvexHull(P)
    V = full.vertices
    inner = np.setdiff1d(np.arange(len(P)), V)
    L2 = inner[ConvexHull(P[inner]).vertices] if len(inner) > d else inner
    equations = [full.equations]
    for v in V:
        equations.append(ConvexHull(P[np.concatenate([V[V != v], L2])]).equations)
    # the same facet comes back from many hulls, equal up to rounding
    H = np.vstack(equations)
    H = H[np.unique(np.round(H, 9), axis=0, return_index=True)[1]]
    A, b = H[:, :d], -H[:, d]
    c = np.zeros(d + 1)
    c[-1] = -1.0
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    res = linprog(
        c,
        A_ub=np.hstack([A, norms]),
        b_ub=b,
        bounds=[(None, None)] * d + [(0.0, None)],
        method="highs",
    )
    vol_g = float(full.volume)
    if res.status != 0 or res.x[-1] <= 1e-9:
        return vol_g, 0.0
    X = _qhull(HalfspaceIntersection, H, res.x[:d]).intersections
    X = X[np.unique(np.round(X, 9), axis=0, return_index=True)[1]]
    return vol_g, min(1.0, _qhull(ConvexHull, X).volume / vol_g)


def mc_sigma(ratio: float, vol_g: float, box_vol: float, samples: int) -> float:
    """Binomial standard error of a hit-count ratio over the generable hits."""
    hits = max(1.0, samples * vol_g / box_vol)
    return max(math.sqrt(ratio * (1.0 - ratio) / hits), 1.0 / hits)


def interval_ratio(values: np.ndarray) -> tuple[float, float]:
    """(length, ratio) of a 1-D corpus: (x(n-1) - x(2)) / (x(n) - x(1))."""
    s = np.sort(np.asarray(values, dtype=float).reshape(-1))
    length = float(s[-1] - s[0])
    return length, max(0.0, float(s[-2] - s[1])) / length


def prefix_interval_ratios(values: np.ndarray) -> list[float]:
    """Closed-form ratio of every prefix of length 2..n, in one pass."""
    lo1 = lo2 = math.inf
    hi1 = hi2 = -math.inf
    out = []
    for i, v in enumerate(np.asarray(values, dtype=float).reshape(-1).tolist()):
        if v < lo1:
            lo1, lo2 = v, lo1
        elif v < lo2:
            lo2 = v
        if v > hi1:
            hi1, hi2 = v, hi1
        elif v > hi2:
            hi2 = v
        if i >= 1:
            length = hi1 - lo1
            out.append(max(0.0, hi2 - lo2) / length if length > 0 else 0.0)
    return out


def close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-3)
