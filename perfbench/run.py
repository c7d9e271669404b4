"""Seeded benchmark for permgen.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/README.md) from the root of a source
checkout. Set-up is measured several times; the timed phase repeats the
workload's iteration for about S seconds, checking each iteration's outputs
against independent references right after it, untimed. A human-readable
report goes to stdout,
and its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a run that alternates untraced and traced iterations of the same inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

# One BLAS thread: the box is small and shared, and threads add spread.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Normal runs stay below 2 GiB of address space (mc-growth-d4 peaks near
# 1.4 GB resident, the gated workloads below 400 MB). A joggled permissible
# polytope with 7-31k facets asks contains_batch for 65536 x facets blocks
# of 4-16 GB; under this limit that is an immediate MemoryError, a failed
# operation, rather than gigabytes of a shared machine's memory touched.
ADDRESS_SPACE = 3 * 2**30
# a run starts no iteration once this many multiples of --seconds have passed
HARD_STOP = 2.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import permgen, permgen.cli; "
    "print(time.perf_counter() - t)"
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _import_seconds(env: dict) -> float:
    """permgen's import time in a fresh interpreter, as a user pays it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def _setup(workload, seed: int, workdir: Path, env: dict):
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        t_import = _import_seconds(env)
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), inputs


def _limit_memory() -> None:
    """Make an oversized allocation fail at once instead of crowding the box."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _timed_phase(workload, inputs, seconds: float, tracer):
    """Untraced iterations (and, with a tracer, a traced rerun of each).

    Iterations run until their summed wall time would pass ``seconds``.
    Each one's inputs are picked (``prepare``) before it and its outputs
    checked after it, both untimed; the outputs are then dropped, so memory
    does not grow with the number of iterations.
    """
    from workloads import Check

    check = Check()
    plain, traced = [], []
    enough = getattr(workload, "enough", None)
    started = time.perf_counter()
    spent = 0.0
    i = 0
    while True:
        if plain:
            est = statistics.median(it.wall_s for it in plain)
            if traced:
                est += statistics.median(it.wall_s for it in traced)
            satisfied = tracer is not None or enough is None or enough(plain)
            if (spent + est > seconds and satisfied) or time.perf_counter() - started > HARD_STOP * seconds:
                break
        batch = workload.prepare(inputs, i)
        runs = [(plain, False)] + ([(traced, True)] if tracer is not None else [])
        for into, traced_run in runs:
            if tracer is not None:
                tracer.enabled = traced_run
            try:
                it = workload.iterate(inputs, batch)
            finally:
                if tracer is not None:
                    tracer.enabled = False
            workload.check(inputs, it, check)
            it.output = None
            spent += it.wall_s
            into.append(it)
        i += 1
    return plain, traced, check


def _percentile(values, q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "permgen").glob("*.py")))


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "src_lines": _src_lines(),
    }


def _end_to_end(workload, plain, setup_s, report) -> dict:
    # an iteration that raised has no meaningful time; the run is incorrect
    timed = [it for it in plain if it.error is None]
    walls = [it.wall_s for it in timed]
    ops = [ms for it in timed for ms in it.op_ms]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls), "iterations"),
        "setup_s": (setup_s, "s", SETUP_REPEATS, "set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, "process"),
    }
    # latency of the workload's unit call; reported, not gated (see README)
    extra = {}
    if ops and workload.unit == "checkpoint":
        extra["final_ckpt_ms_p50"] = (statistics.median(ops), "ms", len(ops), "n=nmax checkpoints")
    if ops and workload.unit == "query":
        extra["query_ms_p50"] = (statistics.median(ops), "ms", len(ops), "classify calls")
        # the highest percentile with at least ten samples beyond it
        q = min(90.0, 100.0 * (1 - 10 / len(ops))) if len(ops) > 20 else 50.0
        extra[f"query_ms_p{q:.0f}"] = (_percentile(ops, q), "ms", len(ops), "classify calls")
    for key, (value, unit, count, what) in {**metrics, **extra}.items():
        report.append(f"{key:<20} {value:>12.4f} {unit:<3} ({count} {what})")
    return {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}


def _per_layer(tracer, plain, traced, report) -> dict:
    n = len(traced)
    s, c = tracer.self_s, tracer.counts
    traced_wall = sum(it.wall_s for it in traced)
    total_self = sum(s.values())

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in (
        "sampling.sample_points", "geometry.corpus", "geometry.from_points", "geometry.svd",
        "geometry.qhull", "geometry.linprog", "geometry.halfspace_intersection", "geometry.volume",
        "geometry.contains_batch", "geometry.radon_partition", "generators.generate",
        "generators.is_member", "permissibility.conv_permissible_polytope",
        "permissibility.permissible_set", "permissibility.classify", "experiments.run_growth",
        "experiments.heavy_tail_bound", "experiments.summarize", "experiments.write",
        "props.axioms", "props.permissibility", "props.radon", "props.groupwise", "props.appendixA",
    ):
        m[name + ".s"] = (s.get(name, 0.0) / n, "s")
    for name in (
        "geometry.from_points", "geometry.svd", "geometry.qhull", "geometry.linprog",
        "geometry.halfspace_intersection", "geometry.volume", "geometry.radon_partition",
        "generators.generate", "generators.is_member", "experiments.heavy_tail_bound",
    ):
        m[name + ".calls"] = (c.get(name + ".calls", 0.0) / n, "count")
    for key in (
        "geometry.corpus.items", "geometry.from_points.rows_in", "geometry.qhull.joggles",
        "geometry.halfspace_intersection.rows_in", "geometry.halfspace_intersection.rows_out",
        "geometry.contains_batch.points",
    ):
        m[key] = (c.get(key, 0.0) / n, "count")
    m["geometry.contains_batch.ops"] = (c.get("geometry.contains_batch.ops", 0.0) / n, "ops")
    m["geometry.contains_batch.bytes"] = (c.get("geometry.contains_batch.bytes", 0.0) / n, "B")
    m["generators.grid_points"] = (c.get("generators.grid.rows", 0.0) / n, "count")
    m["geometry.halfspace_intersection.useful_ratio"] = (
        ratio(c.get("geometry.halfspace_intersection.rows_out", 0.0), c.get("geometry.halfspace_intersection.rows_in", 0.0)),
        "ratio",
    )
    m["geometry.contains_batch.hit_ratio"] = (
        ratio(c.get("geometry.contains_batch.hits", 0.0), c.get("geometry.contains_batch.points", 0.0)), "ratio"
    )
    m["permissibility.loo_hull_ratio"] = (
        ratio(c.get("permissibility.loo_hulls", 0.0), c.get("permissibility.hull_vertices", 0.0)), "ratio"
    )
    m["permissibility.classify.hulls_per_query"] = (
        ratio(c.get("permissibility.classify.hulls", 0.0), c.get("permissibility.classify.calls", 0.0)), "ratio"
    )
    for module, value in tracer.module_self_s().items():
        m[f"{module}.self_s"] = (value / n, "s")
    m["trace.coverage"] = (ratio(total_self, traced_wall), "ratio")
    m["trace.overhead"] = (
        ratio(statistics.median(it.wall_s for it in traced), statistics.median(it.wall_s for it in plain)), "ratio"
    )
    m["trace.iterations"] = (float(n), "count")
    for key, (value, unit) in m.items():
        report.append(f"{key:<46} {value:>14.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "permgen" / "__init__.py").is_file():
        print(f"error: no permgen sources under {SRC}; run from a permgen checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    _limit_memory()
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PERMGEN_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    report = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"machine {json.dumps(_machine())}",
        f"address space limit {ADDRESS_SPACE}",
        f"input {workload.describe()}",
    ]
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setup_s, inputs = _setup(workload, args.seed, workdir, dict(os.environ))
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            plain, traced, check = _timed_phase(workload, inputs, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    fail_frac = check.failed / check.attempted if check.attempted else 1.0
    report.append(
        f"{'fail_frac':<20} {fail_frac:>12.4f}     "
        f"({check.failed} of {check.attempted} failed; one operation = one {workload.unit})"
    )
    report.extend(f"  failure: {note}" for note in check.notes)
    report.extend(f"  {note}" for note in workload.notes(inputs))
    if not any(it.error is None for it in plain):
        print("\n".join(report))
        print("error: no iteration completed, so there is no time to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = _per_layer(tracer, plain, traced, report)
    else:
        metrics = _end_to_end(workload, plain, setup_s, report)
    print("\n".join(report))
    result = {"correct": check.correct, "attempted": check.attempted, "failed": check.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
