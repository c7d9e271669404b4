import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permgen import (
    Collection,
    ConvexRegion,
    Corpus,
    Creation,
    DegenerateSystem,
    DuplicateCreation,
    FiniteGrid,
    InsufficientPoints,
    NotConvexValued,
    ProtectedSetNotInCorpus,
    add_creation_effect,
    box_spec,
    classify,
    conv_spec,
    generable_set_included,
    generable_sets_equal,
    generate,
    groupwise_permissible,
    halfspace_intersection,
    parse_generator,
    permissible_set,
    radon_nonemptiness_witness,
    richness_compare,
    splice_spec,
    superadditivity_check,
    volume,
)
from permgen import permissibility
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
