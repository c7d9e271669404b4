import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permgen import (
    TOL_GEOM,
    AxiomReport,
    ConvexRegion,
    Corpus,
    Creation,
    DimensionMismatch,
    EmptyCorpus,
    FiniteGrid,
    GridExplosion,
    SpliceOnContinuum,
    box_spec,
    check_closure_axioms,
    check_convex_valued,
    check_homogeneity,
    conv_spec,
    convex_hull,
    convex_valued,
    generate,
    is_member,
    parse_generator,
    scale_corpus,
    splice_spec,
    volume,
)

from permgen.generators import _coordinate_value_sets, _hull_probe_corpus, _near_values, _regenerates
from permgen.geometry import tol_buckets

from conftest import corpus_of, oracle_in_box, oracle_in_hull, oracle_in_splice


# -- parsing -------------------------------------------------------------------


def test_parse_base_generators():
    assert parse_generator("conv").label == "conv"
    assert parse_generator("splice").label == "splice"
    assert parse_generator("box").label == "box"


def test_parse_composition_right_to_left():
    spec = parse_generator("conv|splice")
    assert [s.kind for s in spec.stages] == ["conv", "splice"]
    assert spec.label == "conv|splice"


def test_parse_unknown_generator():
    with pytest.raises(ValueError):
        parse_generator("frobnicate")
    with pytest.raises(ValueError):
        parse_generator("conv|")


def test_convex_valued_flags():
    assert convex_valued(conv_spec())
    assert convex_valued(box_spec())
    assert not convex_valued(splice_spec())
    assert convex_valued(parse_generator("conv|splice"))
    assert not convex_valued(parse_generator("splice|box"))


# -- images --------------------------------------------------------------------


def test_box_of_two_points_is_square():
    out = generate(box_spec(), corpus_of([[0.0, 0.0], [1.0, 1.0]]))
    assert isinstance(out, ConvexRegion)
    got = {tuple(v) for v in np.round(out.polytope.vertex_array, 9)}
    assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_splice_of_two_points_is_grid():
    out = generate(splice_spec(), corpus_of([[0.0, 0.0], [1.0, 1.0]]))
    assert isinstance(out, FiniteGrid)
    got = {tuple(p) for p in out.points()}
    assert got == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert out.cardinality == 4


def test_conv_triangle_area():
    out = generate(conv_spec(), corpus_of([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    assert isinstance(out, ConvexRegion)
    assert volume(out.polytope) == pytest.approx(0.5, abs=1e-12)


def test_generate_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        generate(conv_spec(), Corpus([], dim=2))


def test_box_equals_conv_of_splice(rng):
    # the box image coincides with the hull of the recombination grid
    for _ in range(15):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        corpus = corpus_of(rng.normal(size=(n, d)))
        direct = generate(box_spec(), corpus)
        composed = generate(parse_generator("conv|splice"), corpus)
        assert direct.polytope.equals(composed.polytope, 1e-9)


def test_splice_after_continuum_rejected():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SpliceOnContinuum):
        generate(parse_generator("splice|conv"), corpus)


def test_splice_after_continuum_single_point_ok():
    # a zero-dimensional image is still a finite set, so recombination applies
    corpus = corpus_of([[2.0, 3.0]])
    out = generate(parse_generator("splice|conv"), corpus)
    assert isinstance(out, FiniteGrid)
    assert {tuple(p) for p in out.points()} == {(2.0, 3.0)}


def test_grid_explosion():
    rng = np.random.default_rng(5)
    corpus = corpus_of(rng.normal(size=(32, 4)))
    with pytest.raises(GridExplosion):
        generate(splice_spec(), corpus)


# -- membership ----------------------------------------------------------------


def test_is_member_agrees_with_oracles(rng):
    for _ in range(25):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(n, d))
        corpus = corpus_of(pts)
        probes = list(rng.uniform(-1.2, 1.2, size=(10, d)))
        probes.append(pts[0])
        probes.append(pts.mean(axis=0))
        for q in probes:
            assert is_member(conv_spec(), corpus, q, 1e-9) == oracle_in_hull(pts, q, 1e-9)
            assert is_member(box_spec(), corpus, q, 1e-9) == oracle_in_box(pts, q, 1e-9)
            assert is_member(splice_spec(), corpus, q, 1e-9) == oracle_in_splice(pts, q, 1e-9)


def test_is_member_high_dim_hull():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(20, 5))
    corpus = corpus_of(pts)
    assert is_member(conv_spec(), corpus, pts.mean(axis=0))
    assert not is_member(conv_spec(), corpus, pts.max(axis=0) + 1.0)
    for q in rng.normal(size=(10, 5)):
        assert is_member(conv_spec(), corpus, q, 1e-9) == oracle_in_hull(pts, q, 1e-9)


# -- closure laws --------------------------------------------------------------


def test_axioms_on_fixed_corpora():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
    superset = corpus.add(Creation((2.0, 2.0)))
    probes = [np.array([0.4, 0.3]), np.array([5.0, 5.0]), np.array([0.3, 0.0])]
    for spec in (conv_spec(), splice_spec(), box_spec()):
        report = check_closure_axioms(spec, corpus, superset, probes)
        assert report.all_hold


def test_axioms_require_containment():
    corpus = corpus_of([[0.0], [1.0]])
    other = corpus_of([[5.0], [6.0]])
    with pytest.raises(ValueError):
        check_closure_axioms(conv_spec(), corpus, other, [])


coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=8, unique=True),
    st.lists(st.tuples(coord, coord), min_size=0, max_size=3, unique=True),
)
# a box side 1.31e-9 wide, which a hull of the corners collapsed onto one line
@example(points=[(0.0, 0.0)], extra=[(2.0, -1.3103369431021344e-09)])
def test_axioms_hold_on_random_corpora(points, extra):
    corpus = corpus_of(points)
    superset = corpus
    for p in extra:
        c = Creation(tuple(map(float, p)))
        if c not in superset:
            superset = superset.add(c)
    arr = np.asarray(points, dtype=float)
    probes = [arr[0], arr.mean(axis=0)]
    for spec in (conv_spec(), splice_spec(), box_spec()):
        report = check_closure_axioms(spec, corpus, superset, probes)
        assert report.all_hold


# -- convex-valued characterizations ---------------------------------------------


def test_box_and_conv_convex_valued_on_fixed_corpus():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
    for spec in (conv_spec(), box_spec()):
        report = check_convex_valued(spec, corpus)
        assert report.image_convex
        assert report.hull_of_image_equal
        assert report.image_of_hull_equal
        assert report.hull_contained
        assert report.witness is None


def test_splice_not_convex_with_witness():
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0]])
    report = check_convex_valued(splice_spec(), corpus)
    assert not report.image_convex
    assert report.witness is not None
    assert report.witness.coords == (0.5, 0.5)
    # the witness lies in the hull of the image but not in the image
    assert not is_member(splice_spec(), corpus, report.witness)
    assert is_member(box_spec(), corpus, report.witness)


def test_singleton_splice_counts_as_convex():
    report = check_convex_valued(splice_spec(), corpus_of([[1.0, 2.0]]))
    assert report.image_convex
    assert report.witness is None


# -- scaling -------------------------------------------------------------------


def test_scale_corpus_validates():
    corpus = corpus_of([[1.0, 1.0]])
    with pytest.raises(ValueError):
        scale_corpus(corpus, 0.0)
    with pytest.raises(ValueError):
        scale_corpus(corpus, -1.0)
    scaled = scale_corpus(corpus, 0.5)
    assert scaled.items[0].coords == (0.5, 0.5)


def test_homogeneity_of_base_generators(rng):
    for _ in range(10):
        corpus = corpus_of(rng.normal(size=(5, 2)))
        for spec in (conv_spec(), splice_spec(), box_spec()):
            assert check_homogeneity(spec, corpus, 0.7)
            assert check_homogeneity(spec, corpus, 1.3)


# -- batched law checks against the per-point is_member loops ----------------------


def _axioms_by_point(spec, corpus, superset, probes, tol):
    """check_closure_axioms as one is_member call per point, kept as the oracle."""
    preservation = all(is_member(spec, corpus, c, tol) for c in corpus)
    monotone = all(not is_member(spec, corpus, p, tol) or is_member(spec, superset, p, tol) for p in probes)
    return AxiomReport(preservation, monotone, _regenerates(spec, generate(spec, corpus), tol))


def _convex_valued_by_point(spec, corpus, samples=8, tol=TOL_GEOM):
    """check_convex_valued's hull_contained as one is_member call per point."""
    hull = convex_hull(corpus)
    probe = _hull_probe_corpus(corpus, hull, samples).to_array()
    return all(is_member(spec, corpus, row, tol) for row in np.vstack([hull.vertex_array, probe]))


_LAW_SPECS = ["conv", "box", "splice", "conv|splice", "box|splice"]


def _law_cases(rng):
    """Random corpora in d = 1-4 with supersets and probes outside the image,
    on its boundary and inside, plus a thin triangle whose residual-expanded
    hull pokes out of its superset's (monotonicity fails at tol 0.05)."""
    for k in range(40):
        d = 1 + k % 4
        n = int(rng.integers(1, 7 if d < 4 else 5))
        pts = np.unique(np.round(rng.uniform(-1, 1, size=(n, d)), 2), axis=0)
        corpus = corpus_of(pts)
        superset = corpus
        for row in np.round(rng.uniform(-1.5, 1.5, size=(int(rng.integers(0, 3)), d)), 2):
            if Creation(tuple(row)) not in superset:
                superset = superset.add(Creation(tuple(row)))
        a, b = pts[rng.integers(len(pts), size=2)]
        w = rng.random(len(pts))
        probes = [
            pts[0], (a + b) / 2, w @ pts / w.sum(), pts.mean(axis=0),
            pts.max(axis=0) + 1e-3, rng.uniform(-2, 2, size=d),
            np.array([pts[rng.integers(len(pts)), j] for j in range(d)]),
        ]
        yield corpus, superset, probes
    thin = corpus_of([[0.0, 0.0], [10.0, 0.0], [10.0, 0.1]])
    yield thin, thin.add(Creation((0.0, 1.0))), [np.array([-5.0, 0.0]), np.array([5.0, 0.02])]


def test_closure_axioms_match_the_per_point_loop(rng):
    seen = set()
    for corpus, superset, probes in _law_cases(rng):
        for label in _LAW_SPECS:
            spec = parse_generator(label)
            # the LP that is_member uses for conv above d = 3 ignores tolerances below 1e-9
            # and measures L1 distance, so it answers as the hull does only at the default
            tols = [TOL_GEOM] if label == "conv" and corpus.dim > 3 else [TOL_GEOM, -1e-3, 0.05]
            for tol in tols:
                got = check_closure_axioms(spec, corpus, superset, probes, tol)
                assert got == _axioms_by_point(spec, corpus, superset, probes, tol), (label, corpus.to_array(), tol)
                seen.add((got.preservation, got.monotonicity))
            report = check_convex_valued(spec, corpus)
            assert report.hull_contained == _convex_valued_by_point(spec, corpus), (label, corpus.to_array())
            assert check_convex_valued(spec, corpus, tol=-1e-3).hull_contained == _convex_valued_by_point(
                spec, corpus, tol=-1e-3
            ) or (label == "conv" and corpus.dim > 3)
    # the comparisons saw each law both hold and fail
    assert {(True, True), (False, True), (True, False)} <= seen


def test_closure_axioms_on_a_four_dimensional_hull_run_no_lp(monkeypatch):
    import scipy.optimize

    calls = []
    real = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = np.random.default_rng(3)
    corpus = corpus_of(rng.normal(size=(12, 4)))
    superset = corpus.add(Creation((3.0, 0.0, 0.0, 0.0)))
    probes = list(rng.normal(size=(5, 4))) + [corpus.to_array().mean(axis=0)]
    assert check_closure_axioms(conv_spec(), corpus, superset, probes).all_hold
    assert calls == []


def test_closure_axioms_raise_grid_explosion_for_a_large_superset_grid():
    # the corpus's grid is 81 points, the superset's 33**4 > GRID_LIMIT
    rng = np.random.default_rng(8)
    corpus = corpus_of(rng.normal(size=(3, 4)))
    superset = corpus
    for row in rng.normal(size=(30, 4)):
        superset = superset.add(Creation(tuple(row)))
    with pytest.raises(GridExplosion):
        check_closure_axioms(splice_spec(), corpus, superset, [])
    assert check_closure_axioms(box_spec(), corpus, superset, []).all_hold


def test_closure_axioms_reject_probes_of_the_wrong_dimension():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for probes in ([np.array([0.2, 0.2]), np.array([0.2])], [[0.1, 0.1, 0.1]], [Creation((0.5,))]):
        for spec in (conv_spec(), splice_spec(), box_spec()):
            with pytest.raises(DimensionMismatch):
                check_closure_axioms(spec, corpus, corpus, probes)


def _value_sets_by_bucket(arr, min_count=1):
    """_coordinate_value_sets through tol_buckets, kept as the oracle; with
    min_count=2 it is the old per-column loop of the splice permissible grid."""
    return tuple(
        tuple(sorted(float(arr[i, k]) for i, count in tol_buckets(arr[:, [k]]).items() if count >= min_count))
        for k in range(arr.shape[1])
    )


def test_coordinate_value_sets_match_tol_buckets(rng):
    near = 0.3 + np.array([0.0, 0.4, 0.6, 0.9, 1.4, 2.5, -0.49, -0.51]) * TOL_GEOM
    columns = [
        near,
        np.array([0.0, -0.0, 1e-10, -1e-10, 0.0, 5e-10, -5e-10, 2e-9]),
        np.array([1e10, 1e10 + 1e-6, -3e12, 2e15, 1e10, -3e12 * (1 + 1e-16), 9.3e18, 1e17]),
        rng.integers(-3, 4, size=8).astype(float),
    ]
    arrays = (
        np.column_stack(columns),
        rng.normal(size=(50, 3)),
        np.round(rng.normal(size=(400, 2)), 1),
        near[None, :3],
    )
    for arr, min_count in itertools.product(arrays, (1, 2)):
        got = _coordinate_value_sets(arr, min_count)
        want = _value_sets_by_bucket(arr, min_count)
        assert got == want
        assert all(np.signbit(g).tolist() == np.signbit(w).tolist() for g, w in zip(got, want))


def _near_by_difference_array(x, values, tol):
    """Grid nearness with one |x - v| per probe and value, kept as the oracle."""
    if len(values) == 0:
        return np.zeros(len(x), dtype=bool)
    return np.abs(x[:, None] - np.asarray(values)[None, :]).min(axis=1) <= tol


def test_grid_nearness_matches_the_difference_array(rng):
    tol = TOL_GEOM
    for values in ([0.0], [-2.5, 0.0, 0.3, 0.3 + 3 * tol, 7.0], [1e10, 1e10 + 1e-5, -3e12, 2e15], []):
        ref = np.sort(np.asarray(values, dtype=float))
        at_tol = np.concatenate([ref - tol, ref + tol, (ref - tol) - tol * 1e-3, (ref + tol) + tol * 1e-3])
        probes = np.concatenate([at_tol, ref, [np.nan, -np.inf, np.inf, -1e11, 1e16], rng.normal(size=20)])
        for x in (probes, probes[:0], probes[:1]):
            # value sets in any order: the helper sorts them
            for vs in (values, values[::-1]):
                assert np.array_equal(_near_values(x, vs, tol), _near_by_difference_array(x, vs, tol))
        if len(values) > 1:
            assert 0 < np.count_nonzero(_near_values(probes, values, tol)) < len(probes)
    # FiniteGrid.contains_batch is the same test per coordinate
    grid = FiniteGrid(2, ((0.0, 0.5, 1.0), (-1e10, 3.0)))
    pts = np.column_stack(
        [rng.choice([0.0, 0.5 + tol, 1.0 - 2 * tol, np.nan], 200), rng.choice([-1e10, 3.0, 3.5], 200)]
    )
    want = _near_by_difference_array(pts[:, 0], grid.value_sets[0], tol)
    want &= _near_by_difference_array(pts[:, 1], grid.value_sets[1], tol)
    assert np.array_equal(grid.contains_batch(pts), want)


def test_grid_contains_batch_memory_grows_with_the_probes_only(rng):
    values = np.sort(rng.uniform(-1.0, 1.0, size=(2, 200)), axis=1)
    grid = FiniteGrid(2, tuple(tuple(v.tolist()) for v in values))
    pts = rng.uniform(-1.0, 1.0, size=(50_000, 2))
    pts[::2] = values[:, rng.integers(0, 200, size=(25_000,))].T
    tracemalloc.start()
    try:
        inside = grid.contains_batch(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(inside) == 25_000
    # one difference per probe and value would be 50,000 x 200 x 8 B = 80 MB
    assert peak < 8 * 2**20
