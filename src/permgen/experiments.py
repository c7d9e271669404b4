"""Growth experiments: permissible-to-generable volume ratios along seeded
sample paths, their summary statistics, and the exact one-dimensional
successive-maxima bound for heavy-tailed corpora.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundViolation,
    DimensionNotOne,
    EmptyCorpus,
    MisalignedCheckpoints,
    NotConvexValued,
    ZeroGenerableVolume,
)
from .generators import GeneratorSpec, convex_valued, generate
from .geometry import TOL_GEOM, Corpus, volume
from .permissibility import _permissible
from .sampling import DistributionSpec, sample_points

_FLOAT_FMT = ".17g"


def _format_float(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def _stratified_unit(n: int, d: int, seed: int) -> np.ndarray:
    """n points in [0, 1)^d from a Philox(``seed``) stream: for the largest m with m^d <= n,
    the first m^d fall one per cell of the m^d grid (jittered), the rest are plain uniform."""
    u = np.random.Generator(np.random.Philox(seed)).random((n, d))
    m = int(n ** (1.0 / d))  # a float guess, made exact in integers
    m += (m + 1) ** d <= n
    m -= m**d > n
    u[: m**d] = (u[: m**d] + np.indices((m,) * d).reshape(d, -1).T) / m
    return u


def _volume_ratio(
    spec: GeneratorSpec, corpus: Corpus, method: str, mc_samples: int, mc_seed: int
) -> tuple[float, float, float]:
    """(generable volume, permissible volume, ratio) of one corpus.

    The one place that picks exact volumes or Monte Carlo; ``spec`` must be
    convex-valued, which both callers check. ``exact`` needs dim <= 3.
    ``mc`` draws ``mc_samples`` stratified points (``_stratified_unit``) over
    the bounding box of the generable set and counts generable hits, then
    permissible hits among them. Raises ZeroGenerableVolume when the
    generable set has zero volume or no sample lands in it.
    """
    if method == "exact" and corpus.dim > 3:
        raise ValueError("exact volumes are limited to dimension <= 3")
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    generable = generate(spec, corpus)
    full = generable.polytope
    if full.has_zero_volume:
        raise ZeroGenerableVolume(f"generable set has zero volume at n={len(corpus)}")
    perm = _permissible(spec, corpus, generable).polytope
    if method == "exact":
        vol_g = volume(full)
        if vol_g <= 0.0:
            raise ZeroGenerableVolume(f"generable set has zero volume at n={len(corpus)}")
        vol_p = volume(perm)
        return vol_g, vol_p, min(1.0, max(0.0, vol_p / vol_g))
    lo, hi = full.bounding_box()
    pts = lo + _stratified_unit(mc_samples, corpus.dim, mc_seed) * (hi - lo)
    in_g = full.contains_batch(pts)
    hits_g = int(np.count_nonzero(in_g))
    if hits_g == 0:
        raise ZeroGenerableVolume("no generable hits in the Monte Carlo sample")
    hits_p = int(np.count_nonzero(perm.contains_batch(pts[in_g])))
    box_vol = float(np.prod(hi - lo))
    return box_vol * hits_g / mc_samples, box_vol * hits_p / mc_samples, hits_p / hits_g


def permissible_ratio(
    spec: GeneratorSpec,
    corpus: Corpus,
    method: str = "exact",
    mc_samples: int = 100_000,
    mc_seed: int = 0,
) -> float:
    """Volume of the permissible set over the volume of the generable set.

    ``method="exact"`` uses exact polytope volumes and requires dim <= 3;
    ``method="mc"`` draws one stratified sample over the bounding box of the
    generable set and tests the permissible set only on its generable hits,
    so the ratio is a plain hit count quotient and never exceeds 1. Raises
    ZeroGenerableVolume when the generable set is degenerate.
    """
    if not convex_valued(spec):
        raise NotConvexValued(f"volume ratios need a convex-valued generator, got {spec}")
    if len(corpus) == 0:
        raise EmptyCorpus("ratio over an empty corpus")
    return _volume_ratio(spec, corpus, method, mc_samples, mc_seed)[2]


@dataclass(frozen=True)
class CheckpointRecord:
    n: int
    vol_generable: float
    vol_permissible: float
    ratio: float
    degenerate: bool
    walltime_ms: float


@dataclass(frozen=True)
class Trajectory:
    seed: int
    records: tuple[CheckpointRecord, ...]

    @property
    def checkpoints(self) -> tuple[int, ...]:
        return tuple(r.n for r in self.records)

    def ratio_at(self, n: int) -> float:
        for r in self.records:
            if r.n == n:
                return r.ratio
        raise KeyError(f"no checkpoint at n={n}")


def run_growth(
    dist: DistributionSpec,
    spec: GeneratorSpec,
    n_max: int,
    checkpoints,
    seeds,
    method: str = "auto",
    mc_samples: int = 100_000,
) -> list[Trajectory]:
    """Grow one corpus per seed and record volume ratios at checkpoints.

    Per seed, the first n_max points of the stream are drawn once and each
    checkpoint evaluates the prefix, so later checkpoints extend earlier
    ones. Checkpoints where the generable set is degenerate (n <= d, or a
    flat corpus) are recorded with the degenerate flag, a ratio of 0 and
    zero volumes. ``method="auto"`` picks exact volumes for dim <= 3 and
    Monte Carlo above; ``method="exact"`` above dim 3 raises ValueError.
    """
    cps = [int(n) for n in checkpoints]
    if not cps or any(b <= a for a, b in zip(cps, cps[1:])):
        raise MisalignedCheckpoints("checkpoints must be strictly increasing")
    if cps[-1] > n_max:
        raise MisalignedCheckpoints("checkpoints exceed n_max")
    if not convex_valued(spec):
        raise NotConvexValued(f"growth ratios need a convex-valued generator, got {spec}")
    if method == "auto":
        method = "exact" if dist.dim <= 3 else "mc"

    trajectories = []
    for seed in map(int, seeds):
        pts = sample_points(dist, n_max, seed)
        records = []
        for n in cps:
            start = time.perf_counter()
            corpus = Corpus.from_array(pts[:n], dim=dist.dim)
            try:
                vol_g, vol_p, ratio = _volume_ratio(spec, corpus, method, mc_samples, seed * 1_000_003 + n)
                degenerate = False
            except ZeroGenerableVolume:
                vol_g = vol_p = ratio = 0.0
                degenerate = True
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            records.append(CheckpointRecord(n, vol_g, vol_p, ratio, degenerate, elapsed_ms))
        trajectories.append(Trajectory(seed, tuple(records)))
    return trajectories


class BoundRecord(NamedTuple):
    n: int
    bound: float
    ratio: float


def heavy_tail_bound(corpus: Corpus, tol: float = TOL_GEOM) -> list[BoundRecord]:
    """Stepwise ratio bound for one-dimensional hull growth on positive data.

    Walking the corpus in arrival order, the permissible-to-generable length
    ratio after step n is (second largest - second smallest) over
    (largest - smallest), and it never exceeds the ratio of the previous
    running maximum to the current one. Each step is checked against that
    bound (raising BoundViolation at the first failure, which for positive
    data would indicate a kernel defect) and the per-step pairs are returned.
    """
    if corpus.dim != 1:
        raise DimensionNotOne("the successive-maxima bound needs a one-dimensional corpus")
    x = corpus.to_array()[:, 0]
    # running order statistics: a value displaces the second largest only
    # up to the largest before it, so hi2 is a running max of min(x, prev hi1)
    hi1 = np.maximum.accumulate(x)
    lo1 = np.minimum.accumulate(x)
    hi2 = np.maximum.accumulate(np.minimum(x[1:], hi1[:-1]))
    lo2 = np.minimum.accumulate(np.maximum(x[1:], lo1[:-1]))
    prev_max, hi1, lo1 = hi1[:-1], hi1[1:], lo1[1:]
    bound = np.divide(prev_max, hi1, out=np.full(len(hi1), np.inf), where=hi1 != 0)
    vol_g = hi1 - lo1
    vol_p = np.maximum(hi2 - lo2, 0.0)
    ratio = np.divide(vol_p, vol_g, out=np.zeros(len(vol_g)), where=vol_g > 0)
    bad = np.flatnonzero(ratio > bound + tol)
    if len(bad):
        i = int(bad[0])
        raise BoundViolation(
            f"ratio {float(ratio[i])} exceeds successive-maxima bound {float(bound[i])} at step {i + 2}"
        )
    return list(map(BoundRecord._make, zip(range(2, len(x) + 1), bound.tolist(), ratio.tolist())))


@dataclass(frozen=True)
class StatRow:
    n: int
    mean: float
    median: float
    q10: float
    q90: float
    frac_below_07: float
    frac_below_09: float


def summarize(trajectories) -> list[StatRow]:
    """Per-checkpoint ratio statistics across seeds.

    All trajectories must share one checkpoint schedule; degenerate
    checkpoints contribute their recorded ratio of 0.
    """
    trajs = list(trajectories)
    if not trajs:
        raise MisalignedCheckpoints("nothing to summarize")
    schedule = trajs[0].checkpoints
    for t in trajs[1:]:
        if t.checkpoints != schedule:
            raise MisalignedCheckpoints(
                f"trajectory for seed {t.seed} has schedule {t.checkpoints}, expected {schedule}"
            )
    rows = []
    for i, n in enumerate(schedule):
        ratios = np.array([t.records[i].ratio for t in trajs])
        rows.append(
            StatRow(
                n,
                float(ratios.mean()),
                float(np.median(ratios)),
                float(np.quantile(ratios, 0.10)),
                float(np.quantile(ratios, 0.90)),
                float(np.mean(ratios < 0.7)),
                float(np.mean(ratios < 0.9)),
            )
        )
    return rows


def write_trajectories(path, trajectories) -> None:
    """Write the per-checkpoint trajectory table as CSV.

    Wall times are instrumentation, not data: the column is written as 0 so
    repeated runs with identical flags emit byte-identical files. Floats
    carry 17 significant digits and round-trip exactly.
    """
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["seed", "n", "vol_generable", "vol_permissible", "ratio", "degenerate_flag", "walltime_ms"]
        )
        for t in sorted(trajectories, key=lambda t: t.seed):
            for r in t.records:
                writer.writerow(
                    [
                        t.seed,
                        r.n,
                        _format_float(r.vol_generable),
                        _format_float(r.vol_permissible),
                        _format_float(r.ratio),
                        int(r.degenerate),
                        "0",
                    ]
                )


def write_stats(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["checkpoint", "mean", "median", "q10", "q90", "frac_below_0.7", "frac_below_0.9"])
        for row in rows:
            writer.writerow(
                [
                    row.n,
                    _format_float(row.mean),
                    _format_float(row.median),
                    _format_float(row.q10),
                    _format_float(row.q90),
                    _format_float(row.frac_below_07),
                    _format_float(row.frac_below_09),
                ]
            )
