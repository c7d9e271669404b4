import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull as ScipyConvexHull
from scipy.spatial import QhullError

from permgen import (
    TOL_GEOM,
    Collection,
    ConvexRegion,
    Corpus,
    Creation,
    DegenerateSystem,
    DuplicateCreation,
    FiniteGrid,
    InsufficientPoints,
    NotConvexValued,
    Polytope,
    ProtectedSetNotInCorpus,
    add_creation_effect,
    box_spec,
    classify,
    conv_spec,
    convex_hull,
    generable_set_included,
    generable_sets_equal,
    generate,
    groupwise_permissible,
    halfspace_intersection,
    parse_distribution,
    parse_generator,
    permissible_set,
    radon_nonemptiness_witness,
    richness_compare,
    sample_points,
    splice_spec,
    superadditivity_check,
    volume,
)
from permgen import geometry, permissibility
from permgen.generators import _in_hull_lp
from permgen.permissibility import NOT_GENERABLE, PERMISSIBLE, VIOLATION

from conftest import corpus_of, oracle_in_hull, oracle_permissible, regular_polygon


# -- exact fixed-corpus results --------------------------------------------------


def test_interval_pair_has_empty_permissible():
    res = permissible_set(conv_spec(), corpus_of([[0.0], [1.0]]))
    assert res.permissible.is_empty
    assert not res.generable.is_empty


def test_collinear_triple_pins_middle():
    res = permissible_set(conv_spec(), corpus_of([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    perm = res.permissible
    assert isinstance(perm, ConvexRegion)
    assert np.allclose(perm.polytope.vertex_array, [[0.0, 0.0]], atol=1e-9)


def test_right_triangle_empty_then_square_center():
    tri = corpus_of([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert permissible_set(conv_spec(), tri).permissible.is_empty
    square = tri.add(Creation((1.0, 1.0)))
    perm = permissible_set(conv_spec(), square).permissible
    assert np.allclose(perm.polytope.vertex_array, [[0.5, 0.5]], atol=1e-9)


def test_box_three_points_pins_middle():
    res = permissible_set(box_spec(), corpus_of([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]))
    assert np.allclose(res.permissible.polytope.vertex_array, [[1.0, 1.0]], atol=1e-9)


def test_singleton_corpus_permissible_empty():
    for spec in (conv_spec(), splice_spec(), box_spec()):
        res = permissible_set(spec, corpus_of([[3.0, 4.0]]))
        assert res.permissible.is_empty
        assert not res.generable.is_empty


@pytest.mark.parametrize("spec", [box_spec(), splice_spec()])
def test_permissible_set_generates_once(monkeypatch, rng, spec):
    # box and splice read their permissible sets off order statistics and
    # repeated values; no leave-one-out image is generated
    sizes = []
    real = permissibility.generate
    monkeypatch.setattr(permissibility, "generate", lambda s, c: sizes.append(len(c)) or real(s, c))
    corpus = corpus_of(rng.uniform(-1, 1, size=(7, 2)))
    permissible_set(spec, corpus)
    assert sizes == [7]


@pytest.mark.parametrize("text", ["conv|splice", "box|splice"])
def test_composed_permissible_is_intersection_of_leave_one_out_images(rng, text):
    spec = parse_generator(text)
    assert permissible_set(spec, corpus_of([[0.5, -0.5]])).permissible.is_empty
    for _ in range(8):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        corpus = corpus_of(rng.uniform(-1, 1, size=(n, d)))
        perm = permissible_set(spec, corpus).permissible
        images = [generate(spec, corpus.without(c)) for c in corpus]
        assert isinstance(perm, ConvexRegion)
        assert perm.polytope.equals(halfspace_intersection([im.polytope for im in images]))
        for v in perm.polytope.vertex_array:
            assert all(im.contains(v, 1e-7) for im in images)
        for q in rng.uniform(-1.1, 1.1, size=(30, d)):
            if perm.contains(q) != all(im.contains(q) for im in images):
                assert _near_region_boundary(perm, q)


def test_hexagon_permissible_is_inner_hexagon():
    # leave-one-out hulls of a regular hexagon are cut by the six short
    # diagonals, whose distance from the center is cos(60 deg) = 1/2
    corpus = corpus_of(regular_polygon(6))
    res = permissible_set(conv_spec(), corpus)
    perm = res.permissible
    assert volume(perm.polytope) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-9)
    assert volume(res.generable.polytope) == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-9)
    radii = np.linalg.norm(perm.polytope.vertex_array, axis=1)
    assert np.allclose(radii, 1.0 / np.sqrt(3.0), atol=1e-9)


def test_splice_permissible_keeps_repeated_values():
    corpus = corpus_of([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    res = permissible_set(splice_spec(), corpus)
    perm = res.permissible
    assert isinstance(perm, FiniteGrid)
    # x-values {0} repeat, y-values {0} repeat; all others appear once
    assert {tuple(p) for p in perm.points()} == {(0.0, 0.0)}


def test_splice_permissible_empty_when_all_values_unique():
    corpus = corpus_of([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0]])
    res = permissible_set(splice_spec(), corpus)
    assert res.permissible.is_empty


def test_splice_grids_keep_distinct_values_at_large_coordinates():
    res = permissible_set(splice_spec(), corpus_of([[1e10], [2e10]]))
    assert res.generable.value_sets == ((1e10, 2e10),)
    assert res.permissible.is_empty


def test_near_empty_intersection_raises_typed_error():
    # the Chebyshev LP finds a 5.75e-8 inradius for an intersection that is
    # empty up to solver tolerance, and Qhull rejects that centre even when
    # joggled: a typed error, not a raw QhullError
    corpus = corpus_of([[0.0, 0.0], [0.0, 1.15e-7], [1.0, 0.0]])
    with pytest.raises(DegenerateSystem):
        permissible_set(conv_spec(), corpus)


def test_permissible_point_where_the_default_chebyshev_lp_stalls(rng):
    # a generic five-point corpus whose leave-one-out hulls meet in one point:
    # HiGHS's default solver stops on its Chebyshev LP with an unknown model
    # status, and the interior-point retry finds the point (radius 0)
    pts = np.array(
        [
            [-0.09131702851652568, -0.9439227874374472, -0.6799481757989358],
            [0.27214626137871023, 0.6922512086266499, -0.5451379384218062],
            [0.06180503648959501, 0.6223580024147006, 0.014764051898667363],
            [-0.08833859713775594, -0.2093816673204114, 0.6091813443068244],
            [0.8084111952555308, 0.5842513306852546, 0.8149730264386343],
        ]
    )
    perm = permissible_set(conv_spec(), corpus_of(pts)).permissible
    assert perm.polytope.affine_dim == 0
    assert oracle_permissible("conv", pts, perm.polytope.vertex_array[0])
    centre = perm.polytope.vertex_array[0]
    probes = np.vstack([rng.uniform(-1, 1, size=(200, 3)), centre + rng.normal(scale=1e-3, size=(100, 3))])
    for q in probes:
        if perm.contains(q) != oracle_permissible("conv", pts, q):
            assert _near_region_boundary(perm, q)


def test_chebyshev_lp_retries_with_interior_point_once(monkeypatch):
    calls = []
    real = scipy.optimize.linprog

    def stalling(*args, method, **kwargs):
        # the default solver always stalls; the retry solves the first box, then stalls too
        calls.append(method)
        if method == "highs" or len(calls) > 2:
            return scipy.optimize.OptimizeResult(status=4, success=False, message="stalled")
        return real(*args, method=method, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", stalling)
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    centre, radius = geometry._chebyshev_center(A, np.ones(4), 2)
    assert calls == ["highs", "highs-ipm"]
    assert np.allclose(centre, 0.0) and radius == pytest.approx(1.0)
    with pytest.raises(DegenerateSystem, match="stalled"):
        geometry._chebyshev_center(A, np.ones(4), 2)
    assert calls[2:] == ["highs", "highs-ipm"]


def _record_qhull(monkeypatch, attr):
    """Wrap one of geometry's Qhull entry points; returns (options, outcome) per call."""
    calls = []
    real = getattr(geometry, attr)

    def spy(*args, **options):
        try:
            out = real(*args, **options)
        except QhullError:
            calls.append((options.get("qhull_options"), "raised"))
            raise
        calls.append((options.get("qhull_options"), "ok"))
        return out

    monkeypatch.setattr(geometry, attr, spy)
    return calls


def test_joggled_retries_give_the_permissible_polytope(monkeypatch):
    # The leave-one-out intersection of these 800 Gaussian points in d = 4
    # makes plain Qhull fail twice: on the halfspace intersection, then on
    # the hull of its vertices. Both retry with QJ and the result still
    # classifies clear probes as the leave-one-out hulls do.
    arr = sample_points(parse_distribution("gauss:d=4"), 800, seed=9)
    hull_calls = _record_qhull(monkeypatch, "_QhullConvexHull")
    hsi_calls = _record_qhull(monkeypatch, "_QhullHalfspaceIntersection")
    perm = permissibility.conv_permissible_polytope(Corpus.from_array(arr))
    for calls in (hull_calls, hsi_calls):
        i = calls.index((None, "raised"))
        assert calls[i + 1] == ("QJ", "ok")
    assert not perm.is_empty and not perm.has_zero_volume
    # reference: Qhull's hull of the corpus without each of its vertices
    eqs = np.vstack([ScipyConvexHull(np.delete(arr, i, 0)).equations for i in ScipyConvexHull(arr).vertices])
    probes = np.random.default_rng(0).normal(scale=1.3, size=(400, 4))
    residual = (probes @ eqs[:, :-1].T + eqs[:, -1]).max(axis=1)
    clear = np.abs(residual) > 1e-6
    assert clear.sum() > 300
    expected = residual[clear] < 0
    assert 0 < expected.sum() < clear.sum()
    assert np.array_equal(perm.contains_batch(probes[clear]), expected)


# -- leave-one-out hulls from the convex layers ----------------------------------


def _loo_hulls_by_deletion(arr, full):
    # the reference construction: each hull from all n - 1 other rows
    rows = permissibility._vertex_rows(arr, full)
    return {i: Polytope.from_points(np.delete(arr, i, 0), dim=arr.shape[1]) for i in rows}


def _layered_corpora():
    rng = np.random.default_rng(11)

    def simplex(d):
        return np.vstack([np.zeros(d), np.eye(d)])

    def with_centroid(pts):
        return np.vstack([pts, pts.mean(axis=0)])

    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    sphere = rng.normal(size=(12, 3))
    plane = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]])  # a tilted plane through the origin
    return {
        "1d pair": np.array([[0.0], [1.0]]),
        "1d one inner": np.array([[0.0], [1.0], [0.25]]),
        "1d gauss": rng.normal(size=(30, 1)),
        "2d polygon, no inner rows": regular_polygon(7),
        "3d sphere, no inner rows": sphere / np.linalg.norm(sphere, axis=1, keepdims=True),
        "4d simplex, no inner rows": simplex(4),
        "2d one inner": with_centroid(simplex(2)),
        "3d one inner": with_centroid(simplex(3)),
        "4d one inner": with_centroid(simplex(4)),
        "2d collinear inner": np.vstack([square, [[0.2, 0.5], [0.4, 0.5], [0.7, 0.5]]]),
        "3d collinear inner": np.vstack([cube, [[t, 0.3, 0.6] for t in (0.2, 0.5, 0.8)]]),
        "3d coplanar inner": np.vstack([cube, np.column_stack([rng.uniform(0.1, 0.9, (5, 2)), np.full(5, 0.5)])]),
        "2d two inner": np.vstack([square, [[0.3, 0.4], [0.6, 0.7]]]),
        "3d two inner": np.vstack([cube, [[0.3, 0.3, 0.3], [0.6, 0.5, 0.4]]]),
        "4d three inner": np.vstack([simplex(4), [[0.1, 0.1, 0.1, 0.1], [0.2, 0.1, 0.1, 0.3], [0.1, 0.3, 0.2, 0.1]]]),
        "2d integer grid": np.array(list(itertools.product(range(4), repeat=2)), dtype=float),
        "3d integer grid": np.array(list(itertools.product(range(3), repeat=3)), dtype=float),
        "4d integer grid": np.array(list(itertools.product(range(3), repeat=4)), dtype=float),
        "2d flat (segment)": np.outer(rng.uniform(-1, 1, 9), [2.0, 1.0]),
        "3d flat (plane)": rng.uniform(-1, 1, (15, 2)) @ plane,
        "4d flat (plane)": rng.uniform(-1, 1, (12, 2)) @ np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]),
        "2d gauss": rng.normal(size=(40, 2)),
        "3d gauss": rng.normal(size=(40, 3)),
        "4d gauss": rng.normal(size=(30, 4)),
        "2d scale 1e10": 1e10 * rng.normal(size=(30, 2)),
        "3d scale 1e10": 1e10 * rng.normal(size=(30, 3)),
    }


_LAYERED = _layered_corpora()


def _probes(pts):
    # outside the hull, near a vertex (a thousandth of the way from the
    # lexicographically largest row to the centroid) and deep inside
    centroid = pts.mean(axis=0)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    vertex = pts[np.lexsort(pts.T[::-1])[-1]]
    near = vertex + 1e-3 * (centroid - vertex)
    return np.array([hi + 0.5 * (hi - lo), near, centroid])


@pytest.mark.parametrize("name", list(_LAYERED))
def test_conv_loo_hulls_match_deletion_hulls(name):
    arr = corpus_of(_LAYERED[name]).to_array()
    full = Polytope.from_points(arr, dim=arr.shape[1])
    got = permissibility._conv_loo_hulls(arr, full)
    expected = _loo_hulls_by_deletion(arr, full)
    assert list(got) == list(expected)
    for i, hull in expected.items():
        assert got[i].equals(hull), (name, i)


@pytest.mark.parametrize("name", list(_LAYERED))
def test_conv_permissible_and_classify_on_layered_corpora(name):
    pts = _LAYERED[name]
    corpus = corpus_of(pts)
    scale = float(np.abs(pts).max())
    res = permissible_set(conv_spec(), corpus)
    hulls = _loo_hulls_by_deletion(corpus.to_array(), res.generable.polytope)
    assert res.permissible.polytope.equals(halfspace_intersection(list(hulls.values())), 1e-7 * scale)
    # the oracles' LPs use absolute tolerances: ask them about the corpus scaled to unit size
    unit = pts / scale
    for q in _probes(pts):
        expected = oracle_permissible("conv", unit, q / scale)
        if res.permissible.contains(q) != expected:
            assert _near_region_boundary(res.permissible, q, 1e-7 * scale)
        verdict = classify(conv_spec(), corpus, q)
        if not oracle_in_hull(unit, q / scale):
            assert verdict.status == NOT_GENERABLE
            continue
        infringed = [
            tuple(p) for i, p in enumerate(pts) if not oracle_in_hull(np.delete(unit, i, 0), q / scale)
        ]
        assert [c.coords for c in verdict.infringed] == infringed
        assert verdict.status == (VIOLATION if infringed else PERMISSIBLE)


def test_loo_hulls_get_the_other_vertices_and_the_second_layer(monkeypatch, rng):
    corpus = corpus_of(rng.normal(size=(2000, 3)))
    arr = corpus.to_array()
    full = convex_hull(corpus)
    rows = permissibility._vertex_rows(arr, full)
    layer2 = Polytope.from_points(np.delete(arr, rows, 0), dim=3)
    sizes = []
    real = Polytope.from_points
    monkeypatch.setattr(
        Polytope, "from_points", lambda points, dim=None: sizes.append(len(points)) or real(points, dim=dim)
    )
    permissibility.conv_permissible_polytope(corpus, full)
    # the second layer, one hull per vertex, then the intersection's vertices
    assert sizes[: len(rows) + 1] == [2000 - len(rows)] + [len(rows) - 1 + len(layer2.vertex_array)] * len(rows)
    assert len(sizes) == len(rows) + 2


# -- the d = 1 permissible interval ------------------------------------------------


def _loo_intersection_by_deletion(arr):
    # the reference construction: every row's leave-one-out hull, intersected
    hulls = [Polytope.from_points(np.delete(arr, i, 0), dim=1) for i in range(len(arr))]
    return halfspace_intersection(hulls) if hulls else Polytope.empty(1)


def _bits(poly):
    return poly.affine_dim, [(a.shape, a.tobytes()) for a in (poly.vertex_array, poly.normals, poly.offsets)]


def _line_corpora():
    cases = {}
    for alpha, seeds in ((0.3, (0, 1, 3)), (1.0, (0, 1, 2))):
        dist = parse_distribution(f"pareto:d=1,alpha={alpha}")
        for seed in seeds:
            cases[f"pareto {alpha} seed {seed}"] = sample_points(dist, 2000, seed=seed)
    cases["gauss"] = np.random.default_rng(3).normal(size=(200, 1))
    for n in (1, 2, 3):
        cases[f"n = {n}"] = np.array([[2.0], [-1.0], [0.5]])[:n]
    cases["signed zero inside"] = np.array([[-0.0], [1.0], [-2.0], [3.0]])
    cases["signed zero at x(2)"] = np.array([[0.0], [1.0], [-2.0], [-3.0]])
    cases["x(2), x(n-1) within tol"] = np.array([[0.0], [1.0 + 5e-10], [1.0], [5.0]])
    return cases


_LINE = _line_corpora()


@pytest.mark.parametrize("name", list(_LINE))
def test_line_permissible_matches_deletion_hulls_bitwise(name):
    arr = _LINE[name]
    if name.startswith("pareto 0.3"):
        assert arr.max() >= 1e10  # where adjacent doubles are further apart than TOL_GEOM
    corpus = Corpus.from_array(arr, dim=1)
    expected = _bits(_loo_intersection_by_deletion(arr))
    assert _bits(permissibility.conv_permissible_polytope(corpus)) == expected
    assert _bits(permissible_set(conv_spec(), corpus).permissible.polytope) == expected


@pytest.mark.parametrize(
    "rows", [[1.0, 1.0 + 9e-10], [1.0 + 9e-10, 1.0, 1.0 + 5e-10], [1.0, 1.0 + 5e-10, 4.25]]
)
def test_line_permissible_within_tol_is_the_second_smallest_row(rows):
    # x(n-1) <= x(2) + TOL_GEOM: the set is the point x(2), as box's is. The
    # deletion hulls collapse each onto its own smallest row and their
    # intersection here onto x(1), within TOL_GEOM of it (on other rows,
    # or in another order, the bucketing of their halfspaces picks x(2)).
    arr = np.array(rows).reshape(-1, 1)
    x2 = np.sort(arr[:, 0])[1]
    corpus = Corpus.from_array(arr, dim=1)
    got = [permissibility.conv_permissible_polytope(corpus), permissible_set(conv_spec(), corpus).permissible.polytope]
    for perm in got:
        assert _bits(perm) == _bits(Polytope.box([x2], [x2]))
        assert _bits(perm) == _bits(permissibility.box_permissible_polytope(corpus))
    reference = _loo_intersection_by_deletion(arr)
    assert reference.vertex_array.tolist() == [[arr.min()]]
    assert reference.equals(perm, TOL_GEOM)


def test_line_permissible_builds_no_hull(monkeypatch):
    corpus = Corpus.from_array(sample_points(parse_distribution("pareto:d=1,alpha=1.0"), 500, seed=0), dim=1)
    full = convex_hull(corpus)
    calls = []
    real = Polytope.from_points
    monkeypatch.setattr(Polytope, "from_points", lambda points, dim=None: calls.append(len(points)) or real(points, dim=dim))
    monkeypatch.setattr(permissibility, "halfspace_intersection", lambda polys: calls.append("intersection"))
    assert not permissibility.conv_permissible_polytope(corpus, full).is_empty
    assert not permissible_set(conv_spec(), corpus).permissible.is_empty
    assert calls == [500]  # the generable hull of permissible_set only


# -- cross-validation against the definitional oracle ----------------------------


def test_conv_permissible_matches_definition(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        pts = rng.uniform(-1, 1, size=(n, d))
        res = permissible_set(conv_spec(), corpus_of(pts))
        probes = rng.uniform(-1.1, 1.1, size=(30, d))
        for q in probes:
            expected = oracle_permissible("conv", pts, q, 1e-9)
            got = res.permissible.contains(q, 1e-9)
            if got != expected:
                # tolerate disagreement only within a hair of the boundary
                assert _near_region_boundary(res.permissible, q)


def test_box_permissible_matches_definition(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(n, d))
        res = permissible_set(box_spec(), corpus_of(pts))
        probes = rng.uniform(-1.1, 1.1, size=(30, d))
        for q in probes:
            expected = oracle_permissible("box", pts, q, 1e-9)
            got = res.permissible.contains(q, 1e-9)
            if got != expected:
                assert _near_region_boundary(res.permissible, q)


def test_splice_permissible_matches_definition(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        # duplicate coordinate values on purpose
        pts = rng.integers(0, 4, size=(n, d)).astype(float)
        try:
            corpus = corpus_of(pts)
        except DuplicateCreation:
            continue
        res = permissible_set(splice_spec(), corpus)
        grid = generate(splice_spec(), corpus)
        for q in grid.points():
            assert res.permissible.contains(q, 1e-9) == oracle_permissible(
                "splice", pts, q, 1e-9
            )


def _near_region_boundary(region, q, slack: float = 1e-7) -> bool:
    if region.is_empty:
        return False
    poly = region.polytope
    return bool(np.abs(poly.normals @ np.asarray(q) - poly.offsets).min() <= slack)


# -- classification ---------------------------------------------------------------


def test_classify_interval_interior_infringes_both():
    corpus = corpus_of([[0.0], [1.0]])
    verdict = classify(conv_spec(), corpus, [0.5])
    assert verdict.status == VIOLATION
    assert [c.coords for c in verdict.infringed] == [(0.0,), (1.0,)]


def test_classify_endpoint_infringes_itself_only():
    corpus = corpus_of([[0.0], [1.0]])
    verdict = classify(conv_spec(), corpus, [0.0])
    assert verdict.status == VIOLATION
    assert [c.coords for c in verdict.infringed] == [(0.0,)]


def test_classify_center_of_collinear_triple_permissible():
    corpus = corpus_of([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert classify(conv_spec(), corpus, [0.0, 0.0]).status == PERMISSIBLE


def test_classify_far_point_not_generable():
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0]])
    for spec in (conv_spec(), splice_spec(), box_spec()):
        assert classify(spec, corpus, [50.0, -50.0]).status == NOT_GENERABLE


def test_classify_violation_at_large_coordinates():
    corpus = corpus_of([[0.0], [1.0], [1e11], [2e11], [3e11]])
    verdict = classify(conv_spec(), corpus, [2.5e11])
    assert verdict.status == VIOLATION
    assert [c.coords for c in verdict.infringed] == [(3e11,)]


@pytest.mark.parametrize("dim", [2, 4])
def test_classify_infringed_matches_leave_one_out_oracle(rng, dim):
    # dim 2 tests membership on the hulls, dim 4 by LP on the rows
    pts = rng.normal(size=(dim + 5, dim))
    corpus = corpus_of(pts)
    queries = np.vstack([rng.dirichlet(np.ones(len(pts)), size=8) @ pts, 1.5 * rng.normal(size=(8, dim))])
    for q in queries:
        verdict = classify(conv_spec(), corpus, q)
        if not oracle_in_hull(pts, q):
            assert verdict.status == NOT_GENERABLE
            continue
        expected = [tuple(p) for i, p in enumerate(pts) if not oracle_in_hull(np.delete(pts, i, 0), q)]
        assert [c.coords for c in verdict.infringed] == expected
        assert verdict.status == (VIOLATION if expected else PERMISSIBLE)


def test_classify_agrees_with_oracle(rng):
    for _ in range(10):
        pts = rng.uniform(-1, 1, size=(6, 2))
        corpus = corpus_of(pts)
        res = permissible_set(conv_spec(), corpus)
        for q in rng.uniform(-1, 1, size=(20, 2)):
            verdict = classify(conv_spec(), corpus, q)
            if verdict.status == PERMISSIBLE:
                assert res.permissible.contains(q, 1e-7)
            elif verdict.status == VIOLATION:
                assert res.generable.contains(q, 1e-7)
                assert len(verdict.infringed) >= 1
            else:
                assert not res.generable.contains(q, 1e-6) or _near_region_boundary(
                    res.generable, q
                )


# -- insertion effects -------------------------------------------------------------


def test_add_outside_point_collinear_case():
    corpus = corpus_of([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    effect = add_creation_effect(conv_spec(), corpus, Creation((0.0, 1.0)))
    assert effect.case == NOT_GENERABLE
    assert not effect.strictly_expanded
    assert effect.inclusion_holds
    assert generable_sets_equal(effect.before.permissible, effect.after.permissible)


def test_add_outside_point_strictly_expands():
    corpus = corpus_of([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    effect = add_creation_effect(conv_spec(), corpus, Creation((1.0, 1.0)))
    assert effect.case == NOT_GENERABLE
    assert effect.strictly_expanded
    assert effect.before.permissible.is_empty
    assert np.allclose(effect.after.permissible.polytope.vertex_array, [[0.5, 0.5]], atol=1e-9)


def test_add_violating_point_witnesses_itself():
    corpus = corpus_of([[0.0], [2.0]])
    effect = add_creation_effect(conv_spec(), corpus, Creation((1.0,)))
    assert effect.case == VIOLATION
    assert effect.strictly_expanded
    assert effect.witness == Creation((1.0,))
    assert effect.after.permissible.contains([1.0])


def test_add_permissible_point_changes_nothing():
    corpus = corpus_of(regular_polygon(6))
    effect = add_creation_effect(conv_spec(), corpus, Creation((0.0, 0.0)))
    assert effect.case == PERMISSIBLE
    assert not effect.strictly_expanded
    assert generable_sets_equal(effect.before.permissible, effect.after.permissible, 1e-7)


def test_add_duplicate_rejected():
    corpus = corpus_of([[0.0], [1.0]])
    with pytest.raises(DuplicateCreation):
        add_creation_effect(conv_spec(), corpus, Creation((1.0,)))


# -- nonemptiness witnesses ---------------------------------------------------------


def test_witness_on_square_corners():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    witness, split = radon_nonemptiness_witness(conv_spec(), corpus)
    assert classify(conv_spec(), corpus, witness).status == PERMISSIBLE
    assert np.allclose(witness.array, [0.5, 0.5], atol=1e-9)


def test_witness_requires_enough_points():
    with pytest.raises(InsufficientPoints):
        radon_nonemptiness_witness(conv_spec(), corpus_of([[0.0, 0.0], [1.0, 1.0]]))


def test_witness_rejects_non_convex_valued():
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.5, 2.0]])
    with pytest.raises(NotConvexValued):
        radon_nonemptiness_witness(splice_spec(), corpus)


def test_witness_random_corpora(rng):
    for d in (1, 2, 3):
        for _ in range(25):
            corpus = corpus_of(rng.normal(size=(d + 2, d)))
            for spec in (conv_spec(), box_spec()):
                witness, _ = radon_nonemptiness_witness(spec, corpus)
                assert classify(spec, corpus, witness).status == PERMISSIBLE


# -- groupwise protection ------------------------------------------------------------


def test_empty_collection_gives_full_image():
    corpus = corpus_of(regular_polygon(5))
    out = groupwise_permissible(conv_spec(), corpus, Collection(()))
    assert generable_sets_equal(out, generate(conv_spec(), corpus), 1e-9)


def test_whole_corpus_protected_gives_empty():
    corpus = corpus_of(regular_polygon(5))
    out = groupwise_permissible(conv_spec(), corpus, Collection((corpus,)))
    assert out.is_empty


def test_groupwise_tighter_than_singletons(rng):
    # protecting {a, b} jointly keeps less than protecting a and b alone
    pts = rng.normal(size=(7, 2))
    corpus = corpus_of(pts)
    singles = Collection.from_indices(corpus, [[0], [1]])
    joint = Collection.from_indices(corpus, [[0, 1]])
    p_singles = groupwise_permissible(conv_spec(), corpus, singles)
    p_joint = groupwise_permissible(conv_spec(), corpus, joint)
    assert generable_set_included(p_joint, p_joint)
    assert generable_set_included(p_joint, p_singles) or p_joint.is_empty


def test_groupwise_matches_leave_set_out_definition(rng):
    pts = rng.uniform(-1, 1, size=(6, 2))
    corpus = corpus_of(pts)
    collection = Collection.from_indices(corpus, [[0, 1], [3]])
    out = groupwise_permissible(conv_spec(), corpus, collection)
    for q in rng.uniform(-1, 1, size=(40, 2)):
        expected = True
        for idx in ([0, 1], [3]):
            rest = np.delete(pts, idx, axis=0)
            if not oracle_in_hull(rest, q, 1e-9):
                expected = False
                break
        got = out.contains(q, 1e-9)
        if got != expected:
            assert _near_region_boundary(out, q)


def _box_groupwise_by_lp(corpus, collection):
    images = [generate(box_spec(), corpus.without_many(g.items)) for g in collection]
    return halfspace_intersection([im.polytope for im in images])


def test_box_groupwise_matches_halfspace_intersection(rng, monkeypatch):
    # box images intersect coordinatewise, without the intersection's LPs
    def no_lp(polytopes):
        raise AssertionError("halfspace_intersection called for box images")

    monkeypatch.setattr(permissibility, "halfspace_intersection", no_lp)
    for _ in range(12):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 4))
        corpus = corpus_of(rng.uniform(-1, 1, size=(n, d)))
        groups = [rng.choice(n, size=int(rng.integers(1, n)), replace=False) for _ in range(3)]
        collection = Collection.from_indices(corpus, groups)
        out = groupwise_permissible(box_spec(), corpus, collection)
        assert isinstance(out, ConvexRegion)
        assert out.polytope.equals(_box_groupwise_by_lp(corpus, collection))
    # the two images touch along the edge x = 1: a segment
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    collection = Collection.from_indices(corpus, [[0], [2]])
    out = groupwise_permissible(box_spec(), corpus, collection)
    assert out.polytope.affine_dim == 1
    assert out.polytope.equals(_box_groupwise_by_lp(corpus, collection))
    # the two images are disjoint
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    collection = Collection.from_indices(corpus, [[0, 1], [2, 3]])
    assert groupwise_permissible(box_spec(), corpus, collection).is_empty
    assert _box_groupwise_by_lp(corpus, collection).is_empty


def _half_step_corpora(rng, count):
    """Corpora on a half-step lattice in d = 1-3, each coordinate offset by 0,
    1e-10 (the same TOL_GEOM bucket) or 3e-9 (a value of its own)."""
    for k in range(count):
        d = 1 + k % 3
        pts = rng.integers(0, 3, size=(int(rng.integers(3, 8)), d)) * 0.5
        pts += rng.choice([0.0, 1e-10, 3e-9], size=pts.shape)
        pts = np.unique(pts, axis=0)
        if len(pts) >= 2:
            yield corpus_of(pts)


def _near_point(p, Q, tol):
    return len(Q) > 0 and np.abs(Q - p).max(axis=1).min() <= tol


def _intersection_as_point_set(images):
    """Points of the first grid within TOL_GEOM of a point of every other grid."""
    if any(im.is_empty for im in images):
        return set()
    others = [im.points() for im in images[1:]]
    return {tuple(p) for p in images[0].points() if all(_near_point(p, Q, TOL_GEOM) for Q in others)}


def test_splice_intersections_match_point_sets(rng):
    splice_twice = parse_generator("splice|splice")
    shrunk = 0
    for corpus in _half_step_corpora(rng, 60):
        n = len(corpus)
        sizes = rng.integers(1, n, size=int(rng.integers(1, 4)))
        groups = [rng.choice(n, size=int(size), replace=False) for size in sizes]
        collection = Collection.from_indices(corpus, groups)
        images = [generate(splice_spec(), corpus.without_many(g.items)) for g in collection]
        got = groupwise_permissible(splice_spec(), corpus, collection)
        assert isinstance(got, FiniteGrid)
        assert set(map(tuple, got.points())) == _intersection_as_point_set(images)
        shrunk += 0 < got.cardinality < images[0].cardinality
        loo = [generate(splice_twice, corpus.without(c)) for c in corpus]
        perm = permissible_set(splice_twice, corpus).permissible
        assert set(map(tuple, perm.points())) == _intersection_as_point_set(loo)
    assert shrunk > 0


def test_grid_inclusion_matches_point_sets(rng):
    answers = set()
    for corpus in _half_step_corpora(rng, 60):
        arr = corpus.to_array()
        subsets = [arr[rng.random(len(arr)) < 0.6] for _ in range(2)]
        if not all(len(sub) for sub in subsets):
            continue
        a, b = (generate(splice_spec(), corpus_of(sub)) for sub in subsets)
        for tol in (TOL_GEOM, 1e-7):
            want = all(_near_point(p, b.points(), tol) for p in a.points())
            assert generable_set_included(a, b, tol) == want
            answers.add(want)
        # a region of positive dimension holds infinitely many points, a grid finitely many
        region = generate(box_spec(), corpus)
        assert region.polytope.affine_dim > 0
        x = rng.dirichlet(np.ones(len(region.polytope.vertex_array))) @ region.polytope.vertex_array
        assert region.contains(x) and not b.contains(x)
        assert not generable_set_included(region, b)
    assert answers == {True, False}


def test_collection_validation():
    corpus = corpus_of([[0.0], [1.0]])
    with pytest.raises(ProtectedSetNotInCorpus):
        Collection.from_indices(corpus, [[5]])
    stranger = Collection((corpus_of([[9.0]]),))
    with pytest.raises(ProtectedSetNotInCorpus):
        groupwise_permissible(conv_spec(), corpus, stranger)


def test_richness_comparison():
    corpus = corpus_of([[0.0], [1.0], [2.0], [3.0]])
    coarse = Collection.from_indices(corpus, [[0], [2, 3]])
    fine = Collection.from_indices(corpus, [[0, 1], [2, 3]])
    assert richness_compare(fine, coarse)
    assert not richness_compare(coarse, fine)
    p_fine = groupwise_permissible(conv_spec(), corpus, fine)
    p_coarse = groupwise_permissible(conv_spec(), corpus, coarse)
    assert generable_set_included(p_fine, p_coarse)


def test_superadditivity_strict_on_square():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    a = corpus_of([[0.0, 0.0]])
    b = corpus_of([[1.0, 0.0]])
    report = superadditivity_check(conv_spec(), corpus, a, b, samples=256, seed=1)
    assert report.inclusion_holds
    assert report.strict_witness is not None


def test_superadditivity_random(rng):
    for _ in range(10):
        pts = rng.normal(size=(6, 2))
        corpus = corpus_of(pts)
        a = corpus_of(pts[:2])
        b = corpus_of(pts[2:3])
        report = superadditivity_check(conv_spec(), corpus, a, b, samples=128, seed=0)
        assert report.inclusion_holds


# -- randomized laws ------------------------------------------------------------------

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=2, max_size=7, unique=True))
def test_permissible_subset_of_generable(points):
    corpus = corpus_of(points)
    for spec in (conv_spec(), box_spec(), splice_spec()):
        res = permissible_set(spec, corpus)
        assert generable_set_included(res.permissible, res.generable)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=2, max_size=6, unique=True),
    st.tuples(coord, coord),
)
def test_growth_never_shrinks_permissible(points, extra):
    corpus = corpus_of(points)
    c = Creation(tuple(map(float, extra)))
    if c in corpus:
        return
    for spec in (conv_spec(), box_spec()):
        before = permissible_set(spec, corpus).permissible
        after = permissible_set(spec, corpus.add(c)).permissible
        assert generable_set_included(before, after, 1e-7)


# -- batched checks against their per-point loops ----------------------------------------


def _included_by_point(a, b, tol=1e-7):
    """generable_set_included with one contains call per point, kept as the oracle."""
    if a.is_empty:
        return True
    if b.is_empty:
        return False
    if isinstance(a, FiniteGrid) and isinstance(b, FiniteGrid):
        return all(
            np.abs(np.asarray(b.value_sets[k]) - v).min() <= tol for k in range(a.dim) for v in a.value_sets[k]
        )
    if isinstance(b, FiniteGrid):
        return False
    rows = a.polytope.vertex_array if isinstance(a, ConvexRegion) else a.points()
    return all(b.contains(p, tol) for p in rows)


def _strict_witness_by_point(spec, corpus, set_a, set_b, samples, seed):
    """superadditivity_check's hunt for a strict witness, one candidate at a time."""
    pair = groupwise_permissible(spec, corpus, Collection((set_a, set_b)))
    union = Corpus(set_a.items + set_b.items, dim=corpus.dim)
    merged = groupwise_permissible(spec, corpus, Collection((union,)))
    rng = np.random.Generator(np.random.Philox(seed))
    candidates = []
    if isinstance(pair, ConvexRegion) and not pair.is_empty:
        V = pair.polytope.vertex_array
        candidates.extend(V)
        if len(V) >= 2:
            w = rng.random((samples, len(V)))
            w /= w.sum(axis=1, keepdims=True)
            candidates.extend(w @ V)
    elif isinstance(pair, FiniteGrid) and not pair.is_empty:
        candidates.extend(pair.points()[:samples])
    for checked, x in enumerate(candidates, 1):
        if pair.contains(x) and not merged.contains(x):
            return Creation(tuple(x)), checked, pair, merged
    return None, len(candidates), pair, merged


def test_superadditivity_matches_the_per_candidate_loop(rng):
    square = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cases = [(conv_spec(), square, [0], [1])]
    for k in range(45):
        d = 1 + k % 3
        n = int(rng.integers(4, 9))
        pts = np.round(rng.uniform(-1, 1, size=(n, d)), 1 if k % 2 else 6)
        corpus = corpus_of(np.unique(pts, axis=0))
        picks = rng.permutation(len(corpus))
        half = int(rng.integers(1, len(corpus) // 2 + 1))
        spec = (conv_spec(), box_spec(), splice_spec())[k % 3 if d < 3 else k % 2]
        cases.append((spec, corpus, picks[:half], picks[half : half + int(rng.integers(1, 3))]))
    for corpus in _half_step_corpora(rng, 15):
        picks = rng.permutation(len(corpus))
        half = int(rng.integers(1, len(corpus) // 2 + 1))
        cases.append((splice_spec(), corpus, picks[:half], picks[half : half + 1]))
    witnesses = 0
    grid_witnesses = 0
    for spec, corpus, ia, ib in cases:
        set_a = Corpus(corpus.to_array()[np.sort(ia)], dim=corpus.dim)
        set_b = Corpus(corpus.to_array()[np.sort(ib)], dim=corpus.dim)
        report = superadditivity_check(spec, corpus, set_a, set_b, samples=64, seed=3)
        witness, checked, pair, merged = _strict_witness_by_point(spec, corpus, set_a, set_b, 64, 3)
        assert report.strict_witness == witness, (spec, corpus.to_array(), ia, ib)
        assert report.points_checked == checked
        assert report.inclusion_holds == _included_by_point(merged, pair) is True
        assert generable_set_included(pair, merged) == _included_by_point(pair, merged)
        witnesses += witness is not None
        grid_witnesses += witness is not None and isinstance(pair, FiniteGrid)
    assert 0 < witnesses < len(cases)
    assert grid_witnesses > 0


def _infringed_by_deletion(corpus, x, tol=1e-9):
    """Above d = 3: one LP on the n - 1 rows left by each hull vertex, kept as the oracle."""
    arr = corpus.to_array()
    if not _in_hull_lp(arr, x, tol):
        return None
    rows = permissibility._vertex_rows(arr, convex_hull(corpus))
    return sorted(i for i in rows if len(arr) == 1 or not _in_hull_lp(np.delete(arr, i, 0), x, tol))


def _high_dim_corpora(rng):
    grid4 = np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=4)))
    cube5 = np.array(list(itertools.product((0.0, 1.0), repeat=5)))
    return {
        "4d gauss": rng.normal(size=(60, 4)),
        "5d gauss": rng.normal(size=(40, 5)),
        "4d flat (3-space)": np.column_stack([rng.normal(size=(25, 3)), np.zeros(25)]) @ _rotation(rng, 4),
        "5d flat (plane)": rng.uniform(-1, 1, (14, 2)) @ rng.normal(size=(2, 5)),
        "4d integer grid": grid4,
        "5d cube and inner points": np.vstack([cube5, 0.25 + 0.5 * rng.random((10, 5))]),
    }


def _rotation(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q


def test_conv_classify_above_three_dims_matches_deletion_lps(monkeypatch, rng):
    rows_per_lp = []
    real = permissibility._in_hull_lp
    monkeypatch.setattr(permissibility, "_in_hull_lp", lambda P, x, tol: rows_per_lp.append(len(P)) or real(P, x, tol))
    infringements = 0
    for name, pts in _high_dim_corpora(rng).items():
        corpus = corpus_of(pts)
        V = convex_hull(corpus).vertex_array
        centroid = pts.mean(axis=0)
        probes = [v + 1e-3 * (centroid - v) for v in V[:2]]
        probes += [(V[0] + V[1]) / 2, centroid, pts.max(axis=0) + 1.0, 0.6 * V[2] + 0.4 * centroid]
        for q in probes:
            rows_per_lp.clear()
            got = permissibility._conv_infringed_rows(corpus, q, 1e-9)
            assert got == _infringed_by_deletion(corpus, q), (name, q)
            infringements += bool(got)
            if got is not None and name == "4d gauss":
                # the membership LP gets all n rows, each leave-one-out LP |V| - 1 + |L2|
                assert rows_per_lp[0] == len(pts) and max(rows_per_lp[1:]) < len(pts) - 1
    assert infringements >= 6
