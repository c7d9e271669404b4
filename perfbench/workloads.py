"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed (``setup``), picks
the inputs of one iteration (``prepare``, untimed), runs that iteration
through permgen's public API or CLI (``iterate``, timed), and checks its
outputs (``check``, untimed). permgen is always reached through module
attributes, so the tracer's patches apply.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from permgen import cli, errors, experiments, generators, permissibility, sampling

import oracle

# Seeds drawn per run; a run that needs more iterations cycles through the
# ones it kept.
SEED_POOL = 256


@dataclass
class Iteration:
    """One timed iteration: its wall time, unit-operation latencies, raw output."""

    wall_s: float
    op_ms: list[float]
    output: object = None
    error: str | None = None


@dataclass
class Check:
    """Operations attempted and failed. An operation fails when it raised or
    when its output is wrong; a run is correct only when none failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _seed_list(seed: int, count: int, stream: int) -> list[int]:
    state = np.random.SeedSequence([seed, stream]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


class Workload:
    """Defaults: iteration i's inputs are just i, and a run adds no notes."""

    def prepare(self, inputs, i: int):
        return i

    def notes(self, inputs) -> list[str]:
        return []


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- growth experiments --------------------------------------------------------


@dataclass
class GrowthInputs:
    dist: object
    spec: object
    seeds: list[int]  # candidates, in order
    out: Path
    kept: list[int] = field(default_factory=list)  # candidates the admit rule kept
    screened: int = 0


@dataclass(frozen=True)
class HullBand:
    """Seeds whose nmax-point hull has lo..hi vertices.

    The n = nmax checkpoint builds one hull per hull vertex, so its cost
    follows the vertex count; keeping seeds in the middle of that
    distribution keeps the few iterations of a run representative.
    """

    lo: int
    hi: int

    def __str__(self) -> str:
        return f"seeds whose nmax-point hull has {self.lo}-{self.hi} vertices"

    def __call__(self, growth: "Growth", inputs: GrowthInputs, seed: int) -> bool:
        pts = sampling.sample_points(inputs.dist, growth.nmax, seed)
        return self.lo <= len(ConvexHull(pts).vertices) <= self.hi


class Growth(Workload):
    """Seeded ``simulate``: run_growth, summarize and both CSVs, per iteration.

    The unit operation is one checkpoint; its latency is the n = nmax
    checkpoint's ``walltime_ms`` as run_growth records it. An ``admit`` rule,
    if given, is applied to candidate seeds in order, untimed, before the
    iteration that needs them.
    """

    unit = "checkpoint"

    def __init__(self, dist: str, nmax: int, checkpoints, method: str, seeds_per_iteration: int = 1,
                 samples: int = 100_000, bound: bool = False, admit=None):
        self.dist_text = dist
        self.admit = admit
        self.nmax = nmax
        self.checkpoints = list(checkpoints)
        self.method = method
        self.per_iteration = seeds_per_iteration
        self.samples = samples
        self.bound = bound

    def describe(self) -> str:
        text = (f"simulate {self.dist_text} conv --method {self.method} --nmax {self.nmax} "
                f"--checkpoints {','.join(map(str, self.checkpoints))}")
        if self.method == "mc":
            text += f" --samples {self.samples}"
        text += f"; {self.per_iteration} seed(s) per iteration"
        if self.bound:
            text += ", plus heavy_tail_bound per seed"
        if self.admit:
            text += f"; {self.admit}"
        return text

    def setup(self, seed: int, workdir: Path) -> GrowthInputs:
        out = workdir / "simulate"
        out.mkdir(parents=True, exist_ok=True)
        dist = sampling.parse_distribution(self.dist_text)
        seeds = _seed_list(seed, SEED_POOL * self.per_iteration, 0)
        return GrowthInputs(dist, generators.parse_generator("conv"), seeds, out)

    def prepare(self, inputs: GrowthInputs, i: int) -> list[int]:
        """The seeds of iteration i, screening further candidates as needed."""
        k = self.per_iteration
        while len(inputs.kept) < (i + 1) * k and inputs.screened < len(inputs.seeds):
            s = inputs.seeds[inputs.screened]
            inputs.screened += 1
            if self.admit is None or self.admit(self, inputs, s):
                inputs.kept.append(s)
        if not inputs.kept:
            raise RuntimeError(f"none of {len(inputs.seeds)} candidate seeds passes: {self.admit}")
        return [inputs.kept[(i * k + j) % len(inputs.kept)] for j in range(k)]

    def notes(self, inputs: GrowthInputs) -> list[str]:
        if self.admit is None:
            return []
        return [f"seeds: kept {len(inputs.kept)} of {inputs.screened} candidates screened ({self.admit})"]

    def iterate(self, inputs: GrowthInputs, seeds: list[int]) -> Iteration:
        t0 = time.perf_counter()
        try:
            trajectories = experiments.run_growth(
                inputs.dist, inputs.spec, self.nmax, self.checkpoints, seeds,
                method=self.method, mc_samples=self.samples,
            )
            rows = experiments.summarize(trajectories)
            experiments.write_trajectories(inputs.out / "trajectories.csv", trajectories)
            experiments.write_stats(inputs.out / "stats.csv", rows)
            bounds = {}
            if self.bound:
                for s in seeds:
                    try:
                        bounds[s] = experiments.heavy_tail_bound(sampling.sample_corpus(inputs.dist, self.nmax, s))
                    except errors.BoundViolation as exc:
                        bounds[s] = exc
        except Exception as exc:  # an operation that raised is a failed operation
            return Iteration(time.perf_counter() - t0, [], (seeds, None, None), repr(exc))
        wall = time.perf_counter() - t0
        op_ms = [t.records[-1].walltime_ms for t in trajectories]
        return Iteration(wall, op_ms, (seeds, trajectories, bounds))

    def check(self, inputs: GrowthInputs, it: Iteration, chk: Check) -> None:
        """Every checkpoint against an exact reference computed here.

        d = 1: the closed form. Exact method: Qhull volumes, relative
        tolerance oracle.EXACT_RTOL. Monte Carlo: within oracle.MC_SIGMAS
        binomial standard errors of the exact ratio.
        """
        seeds, trajectories, bounds = it.output
        if trajectories is None:
            per_seed = len(self.checkpoints) + (1 if self.bound else 0)
            for s in seeds:
                for _ in range(per_seed):
                    chk.record(False, f"seed {s}: {it.error}")
            return
        for traj in trajectories:
            pts = sampling.sample_points(inputs.dist, self.nmax, traj.seed)
            if traj.checkpoints != tuple(self.checkpoints):
                chk.record(False, f"seed {traj.seed}: checkpoints {traj.checkpoints}")
                continue
            for rec in traj.records:
                ok, what = self._check_record(pts[: rec.n], rec)
                chk.record(ok, f"seed {traj.seed} n={rec.n}: {what}")
            if self.bound:
                ok, what = self._check_bound(pts[:, 0], bounds[traj.seed])
                chk.record(ok, f"seed {traj.seed} heavy_tail_bound: {what}")

    def _check_record(self, pts: np.ndarray, rec) -> tuple[bool, str]:
        if rec.degenerate:
            return False, "flagged degenerate"
        if pts.shape[1] == 1:
            vol_g, ref = oracle.interval_ratio(pts)
        else:
            vol_g, ref = oracle.exact_ratio(pts)
        if self.method == "mc":
            box = float(np.prod(pts.max(axis=0) - pts.min(axis=0)))
            sigma = oracle.mc_sigma(ref, vol_g, box, self.samples)
            ok = abs(rec.ratio - ref) <= oracle.MC_SIGMAS * sigma
            return ok, f"ratio {rec.ratio!r} vs exact {ref!r} (sigma {sigma:.2g})"
        ok = oracle.close(rec.ratio, ref) and oracle.close(rec.vol_generable, vol_g)
        return ok, f"ratio {rec.ratio!r} vs {ref!r}, volume {rec.vol_generable!r} vs {vol_g!r}"

    @staticmethod
    def _check_bound(values: np.ndarray, records) -> tuple[bool, str]:
        if isinstance(records, Exception):
            # BoundViolation: the kernel's own check found a wrong ratio
            return False, repr(records)
        ref = oracle.prefix_interval_ratios(values)
        if [r.n for r in records] != list(range(2, len(values) + 1)):
            return False, "steps are not 2..n"
        for r, expected in zip(records, ref):
            if not oracle.close(r.ratio, expected) or r.ratio > r.bound + oracle.LP_TOL:
                return False, f"step {r.n}: ratio {r.ratio!r} vs {expected!r}, bound {r.bound!r}"
        return True, ""


# -- closed-loop queries on a fixed corpus ---------------------------------------


@dataclass
class QueryInputs:
    points: np.ndarray
    path: Path
    corpus: object
    spec: object
    sessions: list[tuple[list[np.ndarray], np.ndarray]]
    truths: dict = field(default_factory=dict)  # the oracle's answers, by point


class Query(Workload):
    """One caller classifying points against a fixed corpus, then one analyze.

    A session is ``per_session`` classify calls, each sent after the previous
    answer, followed by ``permgen analyze --query --add --grid-res``. The unit
    operation is one classify (the analyze call counts as one more operation).
    """

    unit = "query"
    n = 1000
    hull_vertices = 12  # median for n = 1000 standard normal points in the plane
    per_session = 20
    # outside the hull, just inside it near a vertex, deep inside
    mix = (("outside", 5), ("boundary", 8), ("interior", 7))
    grid_res = 256
    pool = 8
    min_queries = 110  # at least ten samples beyond p90
    raster_cells = 16

    def describe(self) -> str:
        mix = ", ".join(f"{k} {v}" for k, v in self.mix)
        return (f"gauss:d=2 corpus n={self.n} with {self.hull_vertices} hull vertices in a CSV; "
                f"sessions of {self.per_session} classify(conv) calls ({mix}) "
                f"then analyze --query --add --grid-res {self.grid_res}")

    def setup(self, seed: int, workdir: Path) -> QueryInputs:
        dist = sampling.parse_distribution("gauss:d=2")
        # A classify costs one hull per hull vertex, so the corpus is the first
        # draw of the seed's streams whose hull has the median vertex count.
        for stream in _seed_list(seed, 1000, 3):
            points = sampling.sample_points(dist, self.n, stream)
            vertices = points[ConvexHull(points).vertices]
            if len(vertices) == self.hull_vertices:
                break
        else:
            raise RuntimeError(f"no corpus with {self.hull_vertices} hull vertices for seed {seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "corpus.csv"
        path.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
        corpus, _ = cli.read_corpus_file(str(path))
        centre = points.mean(axis=0)
        rng = np.random.Generator(np.random.Philox(_seed_list(seed, 1, 1)[0]))

        def draw(kind):
            v = vertices[rng.integers(len(vertices))]
            if kind == "outside":
                return v + rng.uniform(0.02, 0.3) * (v - centre)
            if kind == "boundary":
                return v + rng.uniform(0.002, 0.03) * (centre - v)
            return centre + 0.25 * rng.normal(size=2)

        sessions = []
        for _ in range(self.pool):
            kinds = [k for k, count in self.mix for _ in range(count)]
            queries = [draw(kinds[j]) for j in rng.permutation(len(kinds))]
            sessions.append((queries, draw("boundary")))
        return QueryInputs(points, path, corpus, generators.parse_generator("conv"), sessions)

    def iterate(self, inputs: QueryInputs, i: int) -> Iteration:
        queries, add = inputs.sessions[i % len(inputs.sessions)]
        verdicts, op_ms = [], []
        t0 = time.perf_counter()
        try:
            for q in queries:
                t = time.perf_counter()
                verdicts.append(permissibility.classify(inputs.spec, inputs.corpus, q))
                op_ms.append((time.perf_counter() - t) * 1000.0)
            argv = ["analyze", str(inputs.path), "--generator", "conv",
                    f"--query={_point_arg(queries[0])}", f"--add={_point_arg(add)}",
                    "--grid-res", str(self.grid_res)]
            code, out = _cli(argv)
        except Exception as exc:
            return Iteration(time.perf_counter() - t0, op_ms, (i, verdicts, None, None), repr(exc))
        return Iteration(time.perf_counter() - t0, op_ms, (i, verdicts, code, out))

    def enough(self, iterations: list[Iteration]) -> bool:
        return sum(len(it.op_ms) for it in iterations) >= self.min_queries

    def check(self, inputs: QueryInputs, it: Iteration, chk: Check) -> None:
        """Verdicts and infringed lists against the barycentric-LP oracle."""
        hull = None

        def truth(x):
            nonlocal hull
            key = tuple(np.asarray(x, dtype=float).tolist())
            if key not in inputs.truths:
                hull = hull or oracle.HullOracle(inputs.points)
                inputs.truths[key] = hull.classify(x)
            return inputs.truths[key]

        i, verdicts, code, out = it.output
        queries, add = inputs.sessions[i % len(inputs.sessions)]
        for q, v in zip(queries, verdicts):
            status, infringed = truth(q)
            got = tuple(c.coords for c in v.infringed)
            chk.record((v.status, got) == (status, infringed), f"query {q.tolist()}: {v.status} vs {status}")
        for q in queries[len(verdicts):]:
            chk.record(False, f"query {q.tolist()}: {it.error}")
        if out is None:
            chk.record(False, f"analyze: {it.error}")
            return
        ok, what = self._check_report(code, out, queries[0], add, truth)
        chk.record(ok, f"analyze: {what}")

    def _check_report(self, code, out, query, add, truth) -> tuple[bool, str]:
        if code != 0:
            return False, f"exit code {code}"
        report = json.loads(out)
        status, infringed = truth(query)
        q = report["query"]
        if (q["status"], tuple(tuple(c) for c in q["infringed"])) != (status, infringed):
            return False, f"query {q['status']} vs {status}"
        add_status, _ = truth(add)
        if report["add"]["case"] != add_status or not report["add"]["inclusion_holds"]:
            return False, f"add {report['add']['case']} vs {add_status}"
        raster = report["plot"]["raster"]
        rng = np.random.Generator(np.random.Philox(0))
        for _ in range(self.raster_cells):
            r, c = (int(v) for v in rng.integers(self.grid_res, size=2))
            cell = np.array([raster["xs"][c], raster["ys"][r]])
            expected, _ = truth(cell)
            if raster["status"][r][c] != expected:
                return False, f"raster cell {cell.tolist()}: {raster['status'][r][c]} vs {expected}"
        return True, ""


def _point_arg(x: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in x)


# -- randomized law suites -------------------------------------------------------


@dataclass
class LawsInputs:
    seeds: list[int]


class Laws(Workload):
    """``permgen props all --trials T --seed s``, one call per iteration.

    The unit operation is one props call; ``fail_frac`` counts laws.
    """

    unit = "law"
    # A call's cost follows the random sizes its trials draw, so a run holds
    # many short calls rather than a few long ones: the median over them
    # varies less between seeds and passes over the host's slow spells.
    trials = 10

    def describe(self) -> str:
        return f"props all --trials {self.trials} --seed s, one call per iteration"

    def setup(self, seed: int, workdir: Path) -> LawsInputs:
        return LawsInputs(_seed_list(seed, SEED_POOL, 2))

    def prepare(self, inputs: LawsInputs, i: int) -> int:
        return inputs.seeds[i % len(inputs.seeds)]

    def iterate(self, inputs: LawsInputs, s: int) -> Iteration:
        t0 = time.perf_counter()
        try:
            code, out = _cli(["props", "all", "--trials", str(self.trials), "--seed", str(s)])
        except Exception as exc:
            return Iteration(time.perf_counter() - t0, [], (s, None, None), repr(exc))
        wall = time.perf_counter() - t0
        return Iteration(wall, [wall * 1000.0], (s, code, out))

    def check(self, inputs: LawsInputs, it: Iteration, chk: Check) -> None:
        """Any FAIL line, or an exit code that disagrees with the lines, fails."""
        s, code, out = it.output
        if out is None:
            chk.record(False, f"seed {s}: {it.error}")
            return
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        failed = [ln for ln in lines if ln.startswith("FAIL ")]
        summary = f"{len(lines) - len(failed)}/{len(lines)} properties passed"
        consistent = code == (1 if failed else 0) and summary in out
        if not lines:
            chk.record(False, f"seed {s}: exit code {code}, no law lines")
        for ln in lines:
            chk.record(ln.startswith("PASS ") and consistent, f"seed {s}: {ln} (exit code {code})")


WORKLOADS = {
    "light-growth": Growth("gauss:d=3", 2000, (50, 200, 800, 2000), "exact", admit=HullBand(40, 44)),
    "mc-growth": Growth("gauss:d=3", 800, (50, 200, 800), "mc"),
    "heavy-tail": Growth("pareto:d=1,alpha=1.0", 2000, (50, 200, 800, 2000), "exact",
                         seeds_per_iteration=20, bound=True),
    "laws": Laws(),
    # Not in BENCHMARK.json (README.md says why): query's latency moves more
    # between runs on a shared host than the largest allowed bound; at
    # alpha=0.3 permgen's int64 dedupe keys overflow (D1) and ratios are
    # wrong; in d=4 some seeds' permissible polytopes are joggled by Qhull
    # into tens of thousands of facets, and contains_batch runs out of memory.
    "query": Query(),
    "heavy-tail-d1": Growth("pareto:d=1,alpha=0.3", 2000, (50, 200, 800, 2000), "exact",
                            seeds_per_iteration=20, bound=True),
    "mc-growth-d4": Growth("gauss:d=4", 800, (50, 200, 800), "mc"),
}
