"""Self-tests of the benchmark: the checker, the tracer and seeded inputs.

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.spatial import ConvexHull

import tracer as tracer_mod
import workloads
from permgen import geometry, permissibility, props, sampling

ROOT = Path(__file__).resolve().parent.parent


def _small_query() -> workloads.Query:
    q = workloads.Query()
    q.n, q.hull_vertices, q.grid_res, q.pool = 200, 9, 16, 1
    q.mix = (("outside", 2), ("boundary", 2), ("interior", 2))
    return q


def _failed(workload, inputs, it) -> int:
    chk = workloads.Check()
    workload.check(inputs, it, chk)
    assert chk.correct == (chk.failed == 0)
    return chk.failed


def _first_iteration(workload, inputs):
    return workload.iterate(inputs, workload.prepare(inputs, 0))


@pytest.mark.parametrize(
    "growth",
    [
        workloads.Growth("gauss:d=3", 120, (40, 120), "exact"),
        workloads.Growth("gauss:d=3", 120, (40, 120), "mc", samples=20_000),
        workloads.Growth("pareto:d=1,alpha=1.0", 120, (40, 120), "exact", seeds_per_iteration=2, bound=True),
    ],
    ids=["exact", "mc", "heavy"],
)
def test_checker_flags_a_corrupted_ratio(growth, tmp_path):
    inputs = growth.setup(7, tmp_path)
    it = _first_iteration(growth, inputs)
    assert _failed(growth, inputs, it) == 0
    seeds, trajectories, bounds = it.output
    traj = trajectories[0]
    bad = dataclasses.replace(traj.records[-1], ratio=traj.records[-1].ratio * 0.8)
    corrupted = [dataclasses.replace(traj, records=traj.records[:-1] + (bad,))] + trajectories[1:]
    it_bad = dataclasses.replace(it, output=(seeds, corrupted, bounds))
    assert _failed(growth, inputs, it_bad) == 1


def test_a_raised_operation_makes_the_run_incorrect(tmp_path):
    growth = workloads.Growth("gauss:d=2", 40, (20, 40), "exact")
    inputs = growth.setup(5, tmp_path)
    seeds = growth.prepare(inputs, 0)
    raised = workloads.Iteration(0.1, [], (seeds, None, None), "MemoryError()")
    chk = workloads.Check()
    growth.check(inputs, raised, chk)
    assert (chk.attempted, chk.failed, chk.correct) == (2, 2, False)


def test_admit_rule_picks_seeds_before_the_iteration(tmp_path):
    band = workloads.HullBand(9, 10)
    growth = workloads.Growth("gauss:d=2", 100, (50, 100), "exact", admit=band)
    inputs = growth.setup(3, tmp_path)
    picked = [growth.prepare(inputs, i)[0] for i in range(3)]
    assert picked == inputs.kept[:3]
    for s in picked:
        assert 9 <= len(ConvexHull(sampling.sample_points(inputs.dist, 100, s)).vertices) <= 10
    assert inputs.screened >= 3


def test_checker_flags_a_wrong_verdict(tmp_path):
    q = _small_query()
    inputs = q.setup(3, tmp_path)
    it = q.iterate(inputs, 0)
    assert _failed(q, inputs, it) == 0
    i, verdicts, code, out = it.output
    statuses = {v.status for v in verdicts}
    assert statuses == {"permissible", "violation", "not_generable"}

    flipped = [permissibility.Classification("permissible") if v.status == "violation" else v for v in verdicts]
    assert _failed(q, inputs, dataclasses.replace(it, output=(i, flipped, code, out))) >= 1

    report = json.loads(out)
    report["query"]["status"] = "not_generable" if report["query"]["status"] != "not_generable" else "permissible"
    bad_out = json.dumps(report)
    assert _failed(q, inputs, dataclasses.replace(it, output=(i, verdicts, code, bad_out))) == 1


def test_checker_flags_a_fail_line():
    laws = workloads.Laws()
    inputs = workloads.LawsInputs([0])
    good = "PASS axioms/conv/preservation  trials=1 failures=0\n1/1 properties passed\n"
    bad = "FAIL axioms/conv/preservation  trials=1 failures=1\n0/1 properties passed\n"
    ok = workloads.Iteration(1.0, [1.0], (0, 0, good))
    fail = workloads.Iteration(1.0, [1.0], (0, 1, bad))
    assert _failed(laws, inputs, ok) == 0
    assert _failed(laws, inputs, fail) == 1


def test_tracer_restores_every_binding(tmp_path):
    before = tracer_mod.bindings_snapshot()
    suites_before = dict(props.SUITES)
    t = tracer_mod.Tracer()
    t.install()
    assert tracer_mod.bindings_snapshot() != before
    assert props.SUITES != suites_before
    try:
        t.enabled = True
        growth = workloads.Growth("gauss:d=2", 60, (30, 60), "exact")
        _first_iteration(growth, growth.setup(1, tmp_path))
        q = _small_query()
        _first_iteration(q, q.setup(1, tmp_path))
        workloads._cli(["props", "axioms", "--trials", "2"])
    finally:
        t.enabled = False
        t.restore()
    assert tracer_mod.bindings_snapshot() == before
    assert props.SUITES == suites_before
    assert t.counts["geometry.from_points.calls"] > 0
    assert t.counts["permissibility.classify.calls"] > 0
    assert t.counts["props.axioms.calls"] == 1
    assert t.counts["cli.main.calls"] >= 2
    assert t.counts["permissibility.loo_hulls"] > 0


def _layered_permissible_polytope(corpus, full=None):
    """conv_permissible_polytope with each leave-one-out hull built from the
    other hull vertices and the second convex layer only."""
    P = corpus.to_array()
    if full is None:
        full = geometry.convex_hull(corpus)
    V = full.vertex_array
    is_vertex = (P[:, None, :] == V[None, :, :]).all(axis=2).any(axis=1)
    inner = P[~is_vertex]
    L2 = inner[ConvexHull(inner).vertices]
    polys = [geometry.Polytope.from_points(np.vstack([np.delete(V, i, axis=0), L2])) for i in range(len(V))]
    return geometry.halfspace_intersection(polys)


@pytest.mark.parametrize("layered", [False, True], ids=["n-1 rows", "layers"])
def test_loo_hulls_are_counted_whatever_rows_they_get(layered, monkeypatch):
    original = permissibility.conv_permissible_polytope
    if layered:
        monkeypatch.setattr(permissibility, "conv_permissible_polytope", _layered_permissible_polytope)
    corpus = sampling.sample_corpus(sampling.parse_distribution("gauss:d=2"), 60, 4)
    vertices = len(geometry.convex_hull(corpus).vertex_array)
    t = tracer_mod.Tracer()
    t.install()
    try:
        t.enabled = True
        reference = permissibility.conv_permissible_polytope(corpus)
    finally:
        t.enabled = False
        t.restore()
    assert reference.equals(original(corpus))
    assert t.counts["permissibility.hull_vertices"] == vertices
    assert t.counts["permissibility.loo_hulls"] == vertices


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    a = wl.setup(11, tmp_path / "a")
    b = wl.setup(11, tmp_path / "b")
    c = wl.setup(12, tmp_path / "c")

    def content(inputs):
        if isinstance(inputs, workloads.QueryInputs):
            return [inputs.path.read_bytes(), [np.concatenate(qs + [add]).tobytes() for qs, add in inputs.sessions]]
        return [inputs.seeds, getattr(inputs, "dist", None)]

    assert content(a) == content(b)
    assert content(a) != content(c)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "laws", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
