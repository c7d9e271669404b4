import csv
import math

import numpy as np
import pytest

from permgen import (
    TOL_GEOM,
    BoundRecord,
    BoundViolation,
    Corpus,
    MisalignedCheckpoints,
    ZeroGenerableVolume,
    box_spec,
    conv_spec,
    generate,
    heavy_tail_bound,
    parse_distribution,
    permissible_ratio,
    permissible_set,
    run_growth,
    sample_points,
    splice_spec,
    summarize,
    volume,
    write_stats,
    write_trajectories,
)
from permgen.errors import DimensionNotOne, NotConvexValued
from permgen.experiments import _stratified_unit

from conftest import corpus_of, regular_polygon


# -- exact ratios ---------------------------------------------------------------


def test_ratio_four_point_line():
    # generable [0,3], permissible [1,2]
    corpus = corpus_of([[0.0], [1.0], [2.0], [3.0]])
    assert permissible_ratio(conv_spec(), corpus) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ratio_hexagon_exact():
    corpus = corpus_of(regular_polygon(6))
    assert permissible_ratio(conv_spec(), corpus) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_ratio_zero_when_permissible_degenerate():
    corpus = corpus_of([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert permissible_ratio(conv_spec(), corpus) == 0.0


def test_ratio_degenerate_generable_raises():
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ZeroGenerableVolume):
        permissible_ratio(conv_spec(), corpus)


def test_ratio_box_generator():
    # leave-one-out boxes of 4 planted points; second-order statistics
    # give permissible [1,2]x[1,2] inside generable [0,3]x[0,3]
    corpus = corpus_of([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    assert permissible_ratio(box_spec(), corpus) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_ratio_mc_agrees_with_exact(rng):
    for _ in range(5):
        pts = rng.normal(size=(12, 2))
        corpus = corpus_of(pts)
        exact = permissible_ratio(conv_spec(), corpus, method="exact")
        mc = permissible_ratio(conv_spec(), corpus, method="mc", mc_samples=200_000, mc_seed=3)
        assert mc == pytest.approx(exact, abs=0.02)


def test_ratio_exact_rejected_above_dim_3(rng):
    corpus = corpus_of(rng.normal(size=(20, 4)))
    with pytest.raises(ValueError, match="dimension <= 3"):
        permissible_ratio(conv_spec(), corpus, method="exact")
    dist = parse_distribution("gauss:d=4")
    with pytest.raises(ValueError, match="dimension <= 3"):
        run_growth(dist, conv_spec(), 100, [100], seeds=[1], method="exact")


def test_ratio_mc_never_exceeds_one(rng):
    pts = rng.normal(size=(8, 2))
    corpus = corpus_of(pts)
    r = permissible_ratio(conv_spec(), corpus, method="mc", mc_samples=10_000, mc_seed=0)
    assert 0.0 <= r <= 1.0


# -- heavy-tail bound -----------------------------------------------------------


def test_heavy_tail_bound_hand_oracle():
    # arrival order 1, 3, 2, 10; prefixes checked from n=2
    corpus = corpus_of([[1.0], [3.0], [2.0], [10.0]])
    records = heavy_tail_bound(corpus)
    assert [r.n for r in records] == [2, 3, 4]
    assert records[0].ratio == 0.0
    assert records[0].bound == pytest.approx(1.0 / 3.0)
    assert records[1].ratio == 0.0  # permissible [2,2] has zero width
    assert records[1].bound == pytest.approx(1.0)
    assert records[2].ratio == pytest.approx((3.0 - 2.0) / (10.0 - 1.0))
    assert records[2].bound == pytest.approx(3.0 / 10.0)
    for r in records:
        assert r.ratio <= r.bound + 1e-12


def test_heavy_tail_bound_requires_dim_one():
    with pytest.raises(DimensionNotOne):
        heavy_tail_bound(corpus_of([[0.0, 0.0], [1.0, 1.0]]))


def test_heavy_tail_bound_holds_on_pareto_streams():
    dist = parse_distribution("pareto:d=1,alpha=1.0")
    for seed in range(10):
        pts = sample_points(dist, 400, seed=seed)
        records = heavy_tail_bound(corpus_of(pts))
        assert all(r.ratio <= r.bound + 1e-9 for r in records)


def test_heavy_tail_bound_violation_detectable():
    # signed data breaks the positivity assumption behind the bound and
    # the check reports it instead of silently passing: at n=4 the ratio
    # is 0.5/11 but the naive bound -9/1 is negative
    corpus = corpus_of([[-10.0], [-9.5], [-9.0], [1.0]])
    with pytest.raises(BoundViolation):
        heavy_tail_bound(corpus)


def _heavy_tail_bound_by_sorting(values: np.ndarray, tol: float = TOL_GEOM) -> list[BoundRecord]:
    """Reference: sorts every prefix, as heavy_tail_bound did before its one-pass form."""
    records = []
    for n in range(2, len(values) + 1):
        prefix = values[:n]
        prev_max = float(prefix[:-1].max())
        cur_max = float(prefix.max())
        bound = prev_max / cur_max if cur_max != 0 else float("inf")
        srt = np.sort(prefix)
        vol_g = float(srt[-1] - srt[0])
        vol_p = max(0.0, float(srt[-2] - srt[1]))
        ratio = vol_p / vol_g if vol_g > 0 else 0.0
        if ratio > bound + tol:
            raise BoundViolation(
                f"ratio {ratio} exceeds successive-maxima bound {bound} at step {n}"
            )
        records.append(BoundRecord(n, bound, ratio))
    return records


def _heavy_tail_bound_one_pass(values: np.ndarray, tol: float = TOL_GEOM) -> list[BoundRecord]:
    """Reference: one Python pass keeping the two largest and two smallest values so far."""
    hi1 = hi2 = -math.inf
    lo1 = lo2 = math.inf
    records = []
    for n, x in enumerate(values.tolist(), 1):
        prev_max = hi1
        if x > hi1:
            hi1, hi2 = x, hi1
        elif x > hi2:
            hi2 = x
        if x < lo1:
            lo1, lo2 = x, lo1
        elif x < lo2:
            lo2 = x
        if n < 2:
            continue
        bound = prev_max / hi1 if hi1 != 0 else float("inf")
        vol_g = hi1 - lo1
        vol_p = max(0.0, hi2 - lo2)
        ratio = vol_p / vol_g if vol_g > 0 else 0.0
        if ratio > bound + tol:
            raise BoundViolation(
                f"ratio {ratio} exceeds successive-maxima bound {bound} at step {n}"
            )
        records.append(BoundRecord(n, bound, ratio))
    return records


def _bound_outcome(fn, arg):
    """Records as exact bit patterns, or the violation message."""
    try:
        return [(r.n, r.bound.hex(), r.ratio.hex()) for r in fn(arg)]
    except BoundViolation as exc:
        return str(exc)


def _streams():
    for alpha in (0.3, 1.0):
        dist = parse_distribution(f"pareto:d=1,alpha={alpha}")
        for seed in range(4):
            yield sample_points(dist, 300, seed=seed)
        yield sample_points(dist, 2000, seed=11)
    rng = np.random.default_rng(5)
    for _ in range(6):
        yield rng.normal(size=(40, 1))
    yield np.array([[-10.0], [-9.5], [-9.0], [1.0]])
    yield np.array([[-3.0], [-0.0], [2.0], [-1.0]])
    yield np.array([[-2.0], [-1.0], [0.0], [-0.5]])
    for n in (0, 1, 2):
        yield np.arange(1.0, n + 1.0).reshape(-1, 1)


def test_heavy_tail_bound_matches_sorting_oracle():
    outcomes = []
    for pts in _streams():
        corpus = Corpus.from_array(pts, dim=1)
        got = _bound_outcome(heavy_tail_bound, corpus)
        assert got == _bound_outcome(_heavy_tail_bound_by_sorting, pts[:, 0])
        assert got == _bound_outcome(_heavy_tail_bound_one_pass, pts[:, 0])
        outcomes.append(got)
    # both kinds of outcome are exercised: signed streams violate the bound
    assert any(isinstance(o, str) for o in outcomes)
    assert outcomes[-3:] == [[], [], [(2, (1.0 / 2.0).hex(), (0.0).hex())]]


def test_heavy_tail_bound_returns_a_list_of_plain_records():
    records = heavy_tail_bound(corpus_of(sample_points(parse_distribution("pareto:d=1,alpha=1.0"), 50, seed=0)))
    assert type(records) is list and len(records) == 49
    for r in records:
        assert type(r) is BoundRecord
        assert type(r.n) is int
        assert type(r.bound) is type(r.ratio) is float
    assert records[0] == BoundRecord(2, records[0].bound, records[0].ratio)
    assert BoundRecord._fields == ("n", "bound", "ratio")


# -- growth trajectories -----------------------------------------------------------


def test_run_growth_shapes_and_flags():
    dist = parse_distribution("gauss:d=2")
    trajs = run_growth(dist, conv_spec(), 60, [2, 10, 60], seeds=[0, 1])
    assert [t.seed for t in trajs] == [0, 1]
    for t in trajs:
        assert t.checkpoints == (2, 10, 60)
        # two gaussian points are almost surely degenerate in the plane
        assert t.records[0].degenerate
        assert t.records[0].ratio == 0.0
        assert not t.records[-1].degenerate
        assert 0.0 <= t.records[-1].ratio <= 1.0


def test_run_growth_checkpoints_are_prefixes():
    # evaluating a checkpoint equals evaluating the prefix directly
    dist = parse_distribution("gauss:d=2")
    trajs = run_growth(dist, conv_spec(), 40, [15, 40], seeds=[7])
    pts = sample_points(dist, 40, seed=7)
    direct15 = permissible_ratio(conv_spec(), corpus_of(pts[:15]))
    direct40 = permissible_ratio(conv_spec(), corpus_of(pts))
    assert trajs[0].ratio_at(15) == pytest.approx(direct15, abs=1e-12)
    assert trajs[0].ratio_at(40) == pytest.approx(direct40, abs=1e-12)


def test_run_growth_validates_checkpoints():
    dist = parse_distribution("gauss:d=2")
    with pytest.raises(MisalignedCheckpoints):
        run_growth(dist, conv_spec(), 50, [10, 10], seeds=[0])
    with pytest.raises(MisalignedCheckpoints):
        run_growth(dist, conv_spec(), 50, [10, 80], seeds=[0])
    with pytest.raises(MisalignedCheckpoints):
        run_growth(dist, conv_spec(), 50, [], seeds=[0])


def test_run_growth_rejects_non_convex_valued():
    dist = parse_distribution("gauss:d=2")
    with pytest.raises(NotConvexValued):
        run_growth(dist, splice_spec(), 50, [10], seeds=[0])


def test_run_growth_deterministic_and_thread_invariant():
    dist = parse_distribution("gauss:d=2")
    a = run_growth(dist, conv_spec(), 50, [10, 50], seeds=[0, 1, 2])
    b = run_growth(dist, conv_spec(), 50, [10, 50], seeds=[0, 1, 2])
    for ta, tb in zip(a, b):
        assert ta.seed == tb.seed
        for ra, rb in zip(ta.records, tb.records):
            assert ra.n == rb.n
            assert ra.ratio == rb.ratio
            assert ra.vol_generable == rb.vol_generable


def test_run_growth_heavy_tail_matches_closed_form():
    # alpha = 0.3 reaches |x| > 1e10, where x / TOL_GEOM leaves the int64 range;
    # in d = 1 the ratio is (x(n-1) - x(2)) / (x(n) - x(1)) over the sorted prefix
    dist = parse_distribution("pareto:d=1,alpha=0.3")
    cps = [50, 200, 800, 2000]
    for t in run_growth(dist, conv_spec(), 2000, cps, seeds=range(4)):
        pts = sample_points(dist, 2000, seed=t.seed)[:, 0]
        for n in cps:
            x = np.sort(pts[:n])
            assert t.ratio_at(n) == (x[-2] - x[1]) / (x[-1] - x[0])


def test_run_growth_mc_method():
    dist = parse_distribution("gauss:d=2")
    exact = run_growth(dist, conv_spec(), 40, [40], seeds=[0], method="exact")
    mc = run_growth(dist, conv_spec(), 40, [40], seeds=[0], method="mc", mc_samples=200_000)
    assert mc[0].records[0].ratio == pytest.approx(exact[0].records[0].ratio, abs=0.02)


# -- Monte Carlo samples --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, d, m",
    [
        (1000, 3, 10),
        (999, 3, 9),
        (1001, 3, 10),
        (8, 3, 2),
        (81, 4, 3),
        (80, 4, 2),
        (100_000, 2, 316),
        (100_000, 3, 46),
        (100_000, 4, 17),
    ],
)
def test_stratified_sample_one_point_per_cell(n, d, m):
    u = _stratified_unit(n, d, seed=11)
    plain = np.random.Generator(np.random.Philox(11)).random((n, d))
    assert u.shape == (n, d)
    assert (u >= 0.0).all() and (u < 1.0).all()
    # the first m^d points fill the m^d grid one per cell, the rest are the plain stream
    cells = np.floor(u[: m**d] * m).astype(int)
    assert len(np.unique(cells, axis=0)) == m**d
    assert np.array_equal(u[m**d :], plain[m**d :])


def test_stratified_sample_below_two_per_axis_is_plain_uniform():
    for n in (0, 1, 7):
        plain = np.random.Generator(np.random.Philox(5)).random((n, 3))
        assert np.array_equal(_stratified_unit(n, 3, seed=5), plain)


def test_mc_ratio_is_hit_quotient_of_the_stratified_sample(rng):
    corpus = corpus_of(rng.normal(size=(30, 3)))
    res = permissible_set(conv_spec(), corpus)
    lo, hi = res.generable.polytope.bounding_box()
    pts = lo + _stratified_unit(5000, 3, seed=9) * (hi - lo)
    in_g = res.generable.contains_batch(pts)
    in_p = res.permissible.contains_batch(pts)
    mc = permissible_ratio(conv_spec(), corpus, method="mc", mc_samples=5000, mc_seed=9)
    assert mc == np.count_nonzero(in_p & in_g) / np.count_nonzero(in_g)


def test_mc_ratio_error_is_below_binomial_error():
    # z = (mc - exact) / binomial standard error over the generable hits; plain
    # uniform samples give an RMS z near 1 (0.87 on these 20 corpora)
    dist = parse_distribution("gauss:d=3")
    z = []
    for seed in range(20):
        corpus = Corpus.from_array(sample_points(dist, 200, seed), dim=3)
        exact = permissible_ratio(conv_spec(), corpus)
        mc = permissible_ratio(conv_spec(), corpus, method="mc", mc_samples=100_000, mc_seed=seed)
        hull = generate(conv_spec(), corpus).polytope
        lo, hi = hull.bounding_box()
        hits = 100_000 * volume(hull) / np.prod(hi - lo)
        z.append((mc - exact) / np.sqrt(exact * (1.0 - exact) / hits))
    assert np.sqrt(np.mean(np.square(z))) < 0.7


# -- summaries and CSV output ---------------------------------------------------------


def test_summarize_stats():
    dist = parse_distribution("gauss:d=2")
    trajs = run_growth(dist, conv_spec(), 50, [10, 50], seeds=range(6))
    rows = summarize(trajs)
    assert [r.n for r in rows] == [10, 50]
    ratios10 = [t.ratio_at(10) for t in trajs]
    assert rows[0].mean == pytest.approx(float(np.mean(ratios10)))
    assert rows[0].median == pytest.approx(float(np.median(ratios10)))
    assert rows[0].q10 == pytest.approx(float(np.quantile(ratios10, 0.1)))
    assert rows[0].q90 == pytest.approx(float(np.quantile(ratios10, 0.9)))
    assert rows[0].frac_below_07 == sum(r < 0.7 for r in ratios10) / 6
    assert rows[0].frac_below_09 == sum(r < 0.9 for r in ratios10) / 6


def test_summarize_rejects_mismatched_schedules():
    dist = parse_distribution("gauss:d=2")
    a = run_growth(dist, conv_spec(), 30, [10, 30], seeds=[0])
    b = run_growth(dist, conv_spec(), 30, [30], seeds=[1])
    with pytest.raises(MisalignedCheckpoints):
        summarize(a + b)


def test_csv_files_schema_and_determinism(tmp_path):
    dist = parse_distribution("gauss:d=2")
    trajs = run_growth(dist, conv_spec(), 30, [10, 30], seeds=[0, 1])
    rows = summarize(trajs)
    t1, s1 = tmp_path / "t1.csv", tmp_path / "s1.csv"
    t2, s2 = tmp_path / "t2.csv", tmp_path / "s2.csv"
    write_trajectories(t1, trajs)
    write_stats(s1, rows)
    write_trajectories(t2, trajs)
    write_stats(s2, rows)
    assert t1.read_bytes() == t2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    with open(t1) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == [
            "seed", "n", "vol_generable", "vol_permissible", "ratio", "degenerate_flag", "walltime_ms",
        ]
        body = list(reader)
    assert len(body) == 4
    # walltimes are pinned to zero so identical flags give identical bytes
    assert {row[6] for row in body} == {"0"}
    # 17-significant-digit floats round-trip exactly
    t = trajs[0].records[1]
    assert float(body[1][2]) == t.vol_generable
    assert float(body[1][4]) == t.ratio
    with open(s1) as fh:
        header = next(csv.reader(fh))
    assert header == ["checkpoint", "mean", "median", "q10", "q90", "frac_below_0.7", "frac_below_0.9"]
