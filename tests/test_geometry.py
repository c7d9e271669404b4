import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull as ScipyConvexHull

from permgen import (
    TOL_GEOM,
    Corpus,
    Creation,
    DimensionMismatch,
    DuplicateCreation,
    EmptyCorpus,
    FiniteGrid,
    Location,
    Polytope,
    conv_spec,
    convex_hull,
    generate,
    halfspace_intersection,
    mc_volume,
    membership,
    radon_partition,
    splice_spec,
    support,
    volume,
)
from permgen import geometry, permissibility
from permgen.errors import DegenerateSystem, InsufficientPoints

from conftest import corpus_of, oracle_in_hull, oracle_in_splice, regular_polygon


# -- creations and corpora -----------------------------------------------------


def test_creation_rejects_non_finite():
    with pytest.raises(ValueError):
        Creation((0.0, float("nan")))
    with pytest.raises(ValueError):
        Creation((float("inf"),))


def test_creation_dim_and_array():
    c = Creation((1.0, 2.0, 3.0))
    assert c.dim == 3
    assert np.array_equal(c.array, [1.0, 2.0, 3.0])


def test_corpus_keeps_order_and_rejects_duplicates():
    a, b = Creation((0.0,)), Creation((1.0,))
    corpus = Corpus([a, b], dim=1)
    assert list(corpus) == [a, b]
    with pytest.raises(DuplicateCreation):
        Corpus([a, a], dim=1)


def test_corpus_dimension_check():
    with pytest.raises(DimensionMismatch):
        Corpus([Creation((0.0,)), Creation((0.0, 1.0))], dim=1)


def test_corpus_set_equality_ignores_order():
    a = corpus_of([[0.0], [1.0]])
    b = corpus_of([[1.0], [0.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert corpus_of([[0.0]]) == corpus_of([[-0.0]])
    assert a != corpus_of([[0.0], [2.0]])
    assert a != corpus_of([[0.0], [1.0], [2.0]])


@pytest.mark.parametrize("rows", [[[0.0], [-0.0]], [[1.0, 0.0], [2.0, 3.0], [1.0, -0.0]]])
def test_corpus_signed_zeros_are_duplicates(rows):
    with pytest.raises(DuplicateCreation):
        Corpus.from_array(rows)
    with pytest.raises(DuplicateCreation):
        Corpus([Creation(tuple(r)) for r in rows])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_corpus_from_array_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        Corpus.from_array([[0.0, 1.0], [bad, 2.0]])


def test_corpus_from_array_dimension_check():
    with pytest.raises(DimensionMismatch):
        Corpus.from_array([[0.0, 1.0], [2.0, 3.0]], dim=3)
    with pytest.raises(DimensionMismatch):
        Corpus(np.zeros((1, 2)), dim=1)


def test_corpus_array_is_read_only_and_not_copied():
    rows = np.array([[0.0, 1.0], [2.0, -0.0]])
    corpus = Corpus.from_array(rows)
    arr = corpus.to_array()
    assert arr is corpus.to_array()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 5.0
    # the caller's array stays writable and is not shared
    rows[0, 0] = 7.0
    assert arr[0, 0] == 0.0
    assert np.signbit(arr[1, 1])


def test_corpus_from_array_matches_creation_corpus():
    rows = [[0.5, -0.0], [1.0, 2.0], [-3.0, 4.0]]
    made = [Creation(tuple(r)) for r in rows]
    from_items = Corpus(made)
    from_rows = Corpus.from_array(rows)
    assert from_rows == from_items
    assert hash(from_rows) == hash(from_items) == hash((2, frozenset(made)))
    assert all(a is b for a, b in zip(from_items.items, made))
    assert from_rows.items == from_items.items
    assert all(type(v) is float for c in from_rows.items for v in c.coords)
    assert np.signbit(from_rows.items[0].coords[1])
    assert made[1] in from_rows and [1.0, 2.0] in from_rows
    assert [1.0] not in from_rows and [2.0, 1.0] not in from_rows
    assert np.array_equal(from_items.to_array(), from_rows.to_array())


def test_corpus_without():
    corpus = corpus_of([[0.0], [1.0], [2.0]])
    rest = corpus.without(Creation((1.0,)))
    assert len(rest) == 2
    assert Creation((1.0,)) not in rest
    assert list(rest) == [Creation((0.0,)), Creation((2.0,))]
    assert corpus.without([-0.0]) == corpus_of([[1.0], [2.0]])
    assert corpus.without([5.0]) == corpus
    assert corpus.without_many([[0.0], [2.0]]) == corpus_of([[1.0]])
    with pytest.raises(DimensionMismatch):
        corpus.without([1.0, 2.0])


def test_corpus_add():
    corpus = Corpus.from_array([[0.0], [2.0]])
    grown = corpus.add([1.0])
    assert grown.to_array()[:, 0].tolist() == [0.0, 2.0, 1.0]
    assert grown == corpus_of([[2.0], [1.0], [0.0]])
    assert len(corpus) == 2
    with pytest.raises(DuplicateCreation):
        grown.add(Creation((-0.0,)))
    with pytest.raises(DimensionMismatch):
        grown.add([3.0, 4.0])


# -- convex hull ---------------------------------------------------------------


def test_hull_of_two_points_is_segment():
    poly = convex_hull(corpus_of([[0.0], [1.0]]))
    assert sorted(v[0] for v in poly.vertex_array) == [0.0, 1.0]
    assert poly.contains([0.5])
    assert not poly.contains([1.5])


def test_hull_collinear_points_drops_midpoint():
    poly = convex_hull(corpus_of([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    got = {tuple(v) for v in np.round(poly.vertex_array, 12)}
    assert got == {(-1.0, 0.0), (1.0, 0.0)}
    assert poly.has_zero_volume
    assert poly.affine_dim == 1


def test_hull_keeps_extremes_at_large_coordinates():
    # above |x| ~ 9.2e9, x / TOL_GEOM leaves the int64 range; each of these
    # rows must still get its own dedupe bucket
    poly = convex_hull(corpus_of([[0.0], [1.0], [1e11], [2e11], [3e11]]))
    assert sorted(poly.vertex_array[:, 0]) == [0.0, 3e11]


def test_interval_endpoints_are_exact_row_extremes():
    # a near-duplicate within TOL_GEOM of each extreme comes first; the hull
    # must still end at the exact minimum and maximum row
    rows = [[0.5 * TOL_GEOM], [0.25], [1.0 - 0.5 * TOL_GEOM], [0.0], [1.0]]
    poly = convex_hull(corpus_of(rows))
    assert sorted(poly.vertex_array[:, 0]) == [0.0, 1.0]
    assert list(poly.offsets) == [1.0, 0.0]


def test_hull_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        convex_hull(Corpus([], dim=2))


def test_hull_random_points_against_lp_oracle(rng):
    pts = rng.uniform(size=(100, 2))
    poly = convex_hull(corpus_of(pts))
    # every input point is inside, every reported vertex is an input row
    assert all(poly.contains(p) for p in pts)
    for v in poly.vertex_array:
        assert np.abs(pts - v).sum(axis=1).min() < 1e-12
    probes = rng.uniform(-0.3, 1.3, size=(60, 2))
    for q in probes:
        assert poly.contains(q, 1e-9) == oracle_in_hull(pts, q, 1e-9)


def test_membership_trichotomy():
    square = convex_hull(corpus_of([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert membership(square, [0.5, 0.5]) is Location.INSIDE
    assert membership(square, [1.0, 0.5]) is Location.BOUNDARY
    assert membership(square, [1.5, 0.5]) is Location.OUTSIDE


def test_contains_batch_matches_scalar(rng):
    pts = rng.normal(size=(12, 3))
    poly = convex_hull(corpus_of(pts))
    probes = rng.normal(size=(200, 3))
    single = np.array([poly.contains(q) for q in probes])
    for region in (poly, generate(conv_spec(), corpus_of(pts))):
        assert np.array_equal(region.contains_batch(probes), single)
    # grids: probes on the grid, off it by less and by more than TOL_GEOM
    base = np.round(pts[:4], 1)
    grid = generate(splice_spec(), corpus_of(base))
    on_grid = grid.points()[rng.integers(0, grid.cardinality, 120)]
    grid_probes = on_grid + rng.choice([0.0, 0.5 * TOL_GEOM, 3 * TOL_GEOM], size=on_grid.shape)
    expected = np.array([oracle_in_splice(base, q, TOL_GEOM) for q in grid_probes])
    assert 0 < np.count_nonzero(expected) < len(expected)
    assert np.array_equal(grid.contains_batch(grid_probes), expected)
    assert not FiniteGrid(3, ((0.0,), (), (1.0,))).contains_batch(grid_probes).any()


def _halfspaces(rng, n_facets: int) -> Polytope:
    # unit normals with offsets near 1: points of norm below about 1 are inside
    normals = rng.normal(size=(n_facets, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return Polytope(3, np.zeros((1, 3)), normals, rng.uniform(0.9, 1.1, n_facets), 3)


# blocks hold 2**18 // facets rows: 1 row from 2**17 + 1 facets on
@pytest.mark.parametrize("n_facets", [1, 6, 173, 2**17, 2**17 + 1, 2**18 + 1])
def test_contains_batch_matches_residual_test_across_block_boundaries(rng, n_facets):
    poly = _halfspaces(rng, n_facets)
    step = max(1, 2**18 // n_facets)
    for m in sorted({0, 1, step - 1, step, step + 1, 2 * step + 1}):
        pts = rng.normal(scale=0.7, size=(m, 3))
        expected = (pts @ poly.normals.T - poly.offsets <= TOL_GEOM).all(axis=1)
        got = poly.contains_batch(pts)
        assert got.shape == (m,) and got.dtype == bool
        assert np.array_equal(got, expected)
        if m > 100:
            assert 0 < np.count_nonzero(got) < m


def test_contains_batch_edge_cases(rng):
    pts = rng.normal(size=(5, 3))
    whole_space = Polytope(3, np.zeros((1, 3)), np.empty((0, 3)), np.empty(0), 3)
    assert whole_space.contains_batch(pts).all()
    assert not Polytope.empty(3).contains_batch(pts).any()
    cube = Polytope.box([0.0] * 3, [1.0] * 3)
    assert cube.contains_batch(np.empty((0, 3))).shape == (0,)
    assert cube.contains_batch([0.5, 0.5, 0.5]).tolist() == [True]
    near_faces = [[0.5, np.nan, 0.5], [1.0, 1.0, 1.0 + 0.5 * TOL_GEOM], [1.0, 1.0, 1.0 + 2 * TOL_GEOM]]
    assert cube.contains_batch(near_faces).tolist() == [False, True, False]


def test_contains_batch_memory_is_bounded(rng):
    sphere = rng.normal(size=(150, 3))
    poly = convex_hull(corpus_of(sphere / np.linalg.norm(sphere, axis=1, keepdims=True)))
    assert len(poly.offsets) > 200
    pts = rng.uniform(-1.0, 1.0, size=(100_000, 3))
    tracemalloc.start()
    try:
        inside = poly.contains_batch(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < np.count_nonzero(inside) < len(pts)
    # one residual per point and facet would be 100,000 x facets x 8 B > 160 MB
    assert peak < 8 * 2**20


# -- halfspace intersection ----------------------------------------------------


def test_intersection_of_overlapping_squares():
    a = Polytope.box([0.0, 0.0], [2.0, 2.0])
    b = Polytope.box([1.0, 1.0], [3.0, 3.0])
    inter = halfspace_intersection([a, b])
    got = {tuple(v) for v in np.round(inter.vertex_array, 9)}
    assert got == {(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0)}


def test_intersection_disjoint_is_empty():
    a = Polytope.box([0.0, 0.0], [1.0, 1.0])
    b = Polytope.box([2.0, 2.0], [3.0, 3.0])
    assert halfspace_intersection([a, b]).is_empty


def test_intersection_single_shared_corner():
    a = Polytope.box([0.0, 0.0], [1.0, 1.0])
    b = Polytope.box([1.0, 1.0], [2.0, 2.0])
    inter = halfspace_intersection([a, b])
    assert not inter.is_empty
    assert inter.affine_dim == 0
    assert np.allclose(inter.vertex_array, [[1.0, 1.0]], atol=1e-9)


def test_intersection_shared_edge_is_segment():
    a = Polytope.box([0.0, 0.0], [1.0, 1.0])
    b = Polytope.box([1.0, 0.0], [2.0, 1.0])
    inter = halfspace_intersection([a, b])
    assert inter.affine_dim == 1
    got = {tuple(v) for v in np.round(inter.vertex_array, 9)}
    assert got == {(1.0, 0.0), (1.0, 1.0)}


def test_intersection_keeps_halfspaces_at_large_offsets():
    a = convex_hull(corpus_of([[0.0], [3e11]]))
    b = convex_hull(corpus_of([[0.0], [2e11]]))
    inter = halfspace_intersection([a, b])
    assert sorted(inter.vertex_array[:, 0]) == [0.0, 2e11]


def test_intersection_of_triangles_matches_oracle(rng):
    for _ in range(20):
        t1 = rng.uniform(-1, 1, size=(5, 2))
        t2 = rng.uniform(-1, 1, size=(5, 2))
        inter = halfspace_intersection([convex_hull(corpus_of(t1)), convex_hull(corpus_of(t2))])
        probes = rng.uniform(-1.2, 1.2, size=(40, 2))
        for q in probes:
            expected = oracle_in_hull(t1, q, 1e-9) and oracle_in_hull(t2, q, 1e-9)
            # skip points within 1e-7 of a boundary, where the two routes
            # may disagree by tolerance alone
            d1 = abs(inter.normals @ q - inter.offsets).min() if not inter.is_empty else 1.0
            if d1 < 1e-7:
                continue
            assert inter.contains(q, 1e-9) == expected


# -- volume --------------------------------------------------------------------


def test_volume_in_one_and_two_and_three_dims():
    assert volume(convex_hull(corpus_of([[0.0], [3.0]]))) == pytest.approx(3.0)
    tri = convex_hull(corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert volume(tri) == pytest.approx(0.5, abs=1e-12)
    cube = convex_hull(
        corpus_of([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    )
    assert volume(cube) == pytest.approx(1.0, abs=1e-9)


def test_volume_zero_for_degenerate():
    seg = convex_hull(corpus_of([[0.0, 0.0], [1.0, 1.0]]))
    assert volume(seg) == 0.0
    pt = convex_hull(corpus_of([[2.0, 2.0]]))
    assert volume(pt) == 0.0


def test_volume_empty_is_zero():
    assert volume(Polytope.empty(2)) == 0.0


def test_volume_of_unit_simplex_in_four_dims():
    simplex = convex_hull(corpus_of(np.vstack([np.zeros(4), np.eye(4)])))
    assert volume(simplex) == pytest.approx(1.0 / 24.0, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_volume_matches_qhull_hull_of_the_points(rng, dim):
    for _ in range(5):
        pts = rng.normal(size=(40, dim))
        expected = ScipyConvexHull(pts).volume
        assert volume(convex_hull(corpus_of(pts))) == pytest.approx(expected, rel=1e-12)


def test_shoelace_matches_triangulation(rng):
    # area of a random polygon two ways: package volume vs fan triangulation
    pts = rng.normal(size=(30, 2))
    poly = convex_hull(corpus_of(pts))
    v = poly.vertex_array
    center = v.mean(axis=0)
    order = np.argsort(np.arctan2(v[:, 1] - center[1], v[:, 0] - center[0]))
    v = v[order]
    fan = 0.0
    for i in range(len(v)):
        a, b = v[i], v[(i + 1) % len(v)]
        fan += 0.5 * abs((a[0] - center[0]) * (b[1] - center[1]) - (b[0] - center[0]) * (a[1] - center[1]))
    assert volume(poly) == pytest.approx(fan, rel=1e-10)


def test_mc_volume_triangle_in_unit_box():
    tri = convex_hull(corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    est, se = mc_volume(tri.contains_batch, tri, samples=200_000, seed=7)
    assert se > 0
    assert abs(est - 0.5) <= 4 * se


def test_mc_volume_deterministic():
    tri = convex_hull(corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    a = mc_volume(tri.contains_batch, tri, samples=50_000, seed=3)
    b = mc_volume(tri.contains_batch, tri, samples=50_000, seed=3)
    assert a == b


# -- support function ----------------------------------------------------------


def test_support_of_square():
    square = convex_hull(corpus_of([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert support(square, [1.0, 0.0]) == pytest.approx(1.0)
    assert support(square, [-1.0, 0.0]) == pytest.approx(0.0)
    assert support(square, [1.0, 1.0]) == pytest.approx(2.0)


# -- Radon partitions ----------------------------------------------------------


def test_radon_square_diagonals():
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    split = radon_partition(corpus)
    sides = {frozenset(c.coords for c in split.side_a), frozenset(c.coords for c in split.side_b)}
    assert sides == {
        frozenset({(0.0, 0.0), (1.0, 1.0)}),
        frozenset({(1.0, 0.0), (0.0, 1.0)}),
    }
    assert np.allclose(split.witness.array, [0.5, 0.5], atol=1e-9)


def test_radon_needs_enough_points():
    with pytest.raises(InsufficientPoints):
        radon_partition(corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_radon_singleton_inside_triangle():
    split = radon_partition(corpus_of([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [1.0, 0.5]]))
    assert {tuple(c.coords) for c in split.side_a} == {(1.0, 0.5)}
    assert np.allclose(split.witness.array, [1.0, 0.5], atol=1e-9)


def test_radon_middle_point_d1():
    split = radon_partition(corpus_of([[0.0], [1.0], [2.0]]))
    assert {tuple(c.coords) for c in split.side_a} == {(1.0,)}
    assert {tuple(c.coords) for c in split.side_b} == {(0.0,), (2.0,)}
    assert np.allclose(split.witness.array, [1.0], atol=1e-9)


def test_radon_witness_in_both_hulls(rng):
    for d in (1, 2, 3):
        for _ in range(40):
            pts = rng.normal(size=(d + 2, d))
            split = radon_partition(corpus_of(pts))
            a = np.array([c.array for c in split.side_a])
            b = np.array([c.array for c in split.side_b])
            w = split.witness.array
            assert oracle_in_hull(a, w, 1e-7)
            assert oracle_in_hull(b, w, 1e-7)
            got = {tuple(c.coords) for c in (*split.side_a, *split.side_b)}
            assert got == {tuple(p) for p in pts}


def test_radon_degenerate_duplicate_direction():
    # four points with three collinear still split consistently
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    split = radon_partition(corpus)
    a = np.array([c.array for c in split.side_a])
    b = np.array([c.array for c in split.side_b])
    w = split.witness.array
    assert oracle_in_hull(a, w, 1e-7)
    assert oracle_in_hull(b, w, 1e-7)


def test_radon_deterministic():
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    s1 = radon_partition(corpus)
    s2 = radon_partition(corpus)
    assert s1.witness == s2.witness
    assert [c.coords for c in s1.side_a] == [c.coords for c in s2.side_a]


# -- randomized laws -----------------------------------------------------------

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=9, unique=True))
def test_hull_contains_all_inputs(points):
    corpus = corpus_of(points)
    poly = convex_hull(corpus)
    for p in points:
        assert poly.contains(p, 1e-7)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=4, max_size=4, unique=True),
)
def test_radon_partition_sides_disjoint_within_corpus(points):
    corpus = corpus_of(points)
    split = radon_partition(corpus)
    a = {tuple(c.coords) for c in split.side_a}
    b = {tuple(c.coords) for c in split.side_b}
    assert a and b
    assert not a & b
    assert (a | b) <= {tuple(map(float, p)) for p in points}


def test_membership_takes_creations_and_array_likes_alike(monkeypatch):
    square = Polytope.box([0.0, 0.0], [1.0, 1.0])
    cases = {(0.5, 0.5): Location.INSIDE, (1.0, 0.5): Location.BOUNDARY, (1.5, 0.5): Location.OUTSIDE}
    made = []
    real_init = Creation.__post_init__
    monkeypatch.setattr(Creation, "__post_init__", lambda self: made.append(1) or real_init(self))
    for point, where in cases.items():
        for form in (list(point), point, np.array(point)):
            assert square.membership(form) is where
    assert made == []  # array-likes build no Creation
    for point, where in cases.items():
        assert square.membership(Creation(point)) is where
    assert Polytope.empty(2).membership([0.5, 0.5]) is Location.OUTSIDE
    for bad_dim in ([0.5], [0.5, 0.5, 0.5], Creation((0.5,)), 0.5):
        with pytest.raises(DimensionMismatch):
            square.membership(bad_dim)
    for bad in ([0.5, np.nan], (np.inf, 0.5), np.array([-np.inf, 0.0])):
        with pytest.raises(ValueError):
            square.membership(bad)
        with pytest.raises(ValueError):
            Polytope.empty(2).membership(bad)


# -- the flat branch of halfspace_intersection against the per-row LP loop -------


def _flat_oracle(flat_entries):
    """``geometry._hsi_vertices`` with one implicit-equality LP per row in its
    flat branch, kept as the oracle; each entry into that branch appends to
    ``flat_entries``."""
    from scipy.optimize import linprog

    one_dim = geometry._hsi_vertices

    def hsi_vertices(A, b, dim):
        if dim == 1:
            return one_dim(A, b, dim)
        found = geometry._chebyshev_center(A, b, dim)
        if found is None:
            return None
        center, radius = found
        if radius > geometry._FULL_DIM_RADIUS:
            return geometry._hsi_full_dim(A, b, center)
        flat_entries.append(len(A))
        eq_rows = []
        for i in range(len(A)):
            res = linprog(A[i], A_ub=A, b_ub=b, bounds=[(None, None)] * dim, method="highs")
            if res.success and res.fun >= b[i] - geometry._EQ_SLACK:
                eq_rows.append(i)
        if not eq_rows:
            return geometry._hsi_full_dim(A, b, center)
        E, e = A[eq_rows], b[eq_rows]
        x0, *_ = np.linalg.lstsq(E, e, rcond=None)
        _, s, Vt = np.linalg.svd(E, full_matrices=True)
        rank = int(np.sum(s > TOL_GEOM * max(1.0, float(s[0]))))
        if rank >= dim:
            return x0.reshape(1, dim)
        B = Vt[rank:].T
        A_sub, b_sub = A @ B, b - A @ x0
        norms = np.linalg.norm(A_sub, axis=1)
        flatrows = norms <= TOL_GEOM
        if np.any(b_sub[flatrows] < -geometry._EQ_SLACK):
            return None
        A_sub = A_sub[~flatrows] / norms[~flatrows, None]
        b_sub = b_sub[~flatrows] / norms[~flatrows]
        if len(A_sub) == 0:
            raise DegenerateSystem("unbounded flat in intersection")
        sub = hsi_vertices(A_sub, b_sub, B.shape[1])
        return None if sub is None else x0 + sub @ B.T

    return hsi_vertices


def _outcome(polys, oracle=None):
    """The intersection's vertex array, None when empty, or the error type raised."""
    with pytest.MonkeyPatch.context() as mp:
        if oracle is not None:
            mp.setattr(geometry, "_hsi_vertices", oracle)
        try:
            inter = halfspace_intersection(polys)
        except DegenerateSystem as exc:
            return type(exc)
    return None if inter.is_empty else inter


def _flat_cases(rng):
    """Intersections that are mostly flat: leave-one-out hulls of 2-8 points,
    on integer grids or in general position, and integer boxes sharing a face,
    an edge or a corner."""
    cases = []
    for k in range(120):
        d = 2 + k % 2
        n = int(rng.integers(2, 9))
        pts = rng.integers(0, 3, size=(n, d)).astype(float) if k % 4 < 3 else rng.normal(size=(n, d))
        pts = np.unique(pts, axis=0)
        if len(pts) >= 2:
            cases.append([Polytope.from_points(np.delete(pts, i, 0), dim=d) for i in range(len(pts))])
    for k in range(200):
        d = 2 + k % 2
        lo = rng.integers(0, 3, size=d).astype(float)
        hi = lo + rng.integers(1, 3, size=d)
        touch = rng.random(d) < 0.5
        touch[rng.integers(d)] = True
        lo2 = np.where(touch, hi, lo + rng.integers(0, 2, size=d))
        hi2 = lo2 + rng.integers(1, 3, size=d)
        cases.append([Polytope.box(lo, hi), Polytope.box(lo2, hi2)])
    # the near-flat inputs of ROADMAP D4, as permissible_set intersects them
    for rows in ([[0.0, 0.0], [0.0, 5.96e-8], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 1.15e-7], [1.0, 0.0]]):
        pts = np.array(rows)
        cases.append(list(permissibility._conv_loo_hulls(pts, Polytope.from_points(pts)).values()))
    return cases


def test_flat_intersections_match_the_per_row_lp_loop(rng):
    flat_entries = []
    oracle = _flat_oracle(flat_entries)
    cases = _flat_cases(rng)
    for polys in cases:
        got, want = _outcome(polys), _outcome(polys, oracle=oracle)
        if isinstance(want, Polytope):
            assert isinstance(got, Polytope), (polys, got)
            assert got.affine_dim == want.affine_dim
            assert np.array_equal(got.vertex_array, want.vertex_array)
        else:
            assert got == want
    assert len(flat_entries) >= 200


def test_flat_branch_skips_rows_a_feasible_point_settles(monkeypatch):
    # two unit cubes sharing the face x = 1: eight distinct rows, of which
    # x <= 1 and -x <= -1 are the only implicit equalities
    import scipy.optimize

    cubes = [Polytope.box([0.0] * 3, [1.0] * 3), Polytope.box([1.0, 0.0, 0.0], [2.0, 1.0, 1.0])]
    calls = []
    real = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    face = halfspace_intersection(cubes)
    assert face.affine_dim == 2
    assert {tuple(v) for v in np.round(face.vertex_array, 9)} == {
        (1.0, y, z) for y in (0.0, 1.0) for z in (0.0, 1.0)
    }
    top = len(calls)
    calls.clear()
    oracle = _flat_oracle([])
    monkeypatch.setattr(geometry, "_hsi_vertices", oracle)
    halfspace_intersection(cubes)
    # a Chebyshev LP for the cubes and one for the face, plus one LP per row:
    # for all 8 rows in the old loop, for the 3 no feasible point settled now
    assert (top, len(calls)) == (5, 10)
