"""Randomized invariant suites over the public operations.

Each suite draws seeded random corpora, exercises one family of laws and
reports trial counts plus the first counterexample. The suites back the
``props`` CLI command and the acceptance tests, so they are deterministic
given (trials, seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import (
    _regenerates,
    box_spec,
    check_closure_axioms,
    check_convex_valued,
    conv_spec,
    generate,
    is_member,
    splice_spec,
)
from .geometry import Corpus, Creation, convex_hull
from .permissibility import (
    PERMISSIBLE,
    VIOLATION,
    Collection,
    add_creation_effect,
    classify,
    generable_set_included,
    groupwise_permissible,
    permissible_set,
    radon_nonemptiness_witness,
    richness_compare,
    superadditivity_check,
)

_SPECS = {"conv": conv_spec(), "splice": splice_spec(), "box": box_spec()}


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record_failure(self, detail: str) -> None:
        self.failures += 1
        if self.first_failure is None:
            self.first_failure = detail


def _random_corpus(rng: np.random.Generator, n: int, dim: int, scale: float = 1.0) -> Corpus:
    return Corpus.from_array(rng.uniform(-scale, scale, size=(n, dim)), dim=dim)


def _probes_for(rng: np.random.Generator, kind: str, corpus: Corpus, count: int) -> list[np.ndarray]:
    arr = corpus.to_array()
    probes = [arr[rng.integers(len(arr))]]
    for _ in range(count):
        if kind == "splice":
            # recombine coordinates of random items
            picks = rng.integers(len(arr), size=corpus.dim)
            probes.append(np.array([arr[picks[k], k] for k in range(corpus.dim)]))
        else:
            w = rng.random(len(arr))
            w /= w.sum()
            probes.append(w @ arr)
    probes.append(rng.uniform(-2.0, 2.0, size=corpus.dim))
    return probes


def run_axioms_suite(trials: int, seed: int = 0, dims=(1, 2, 3, 4), max_n: int = 12) -> list[PropertyResult]:
    """Preservation, monotonicity and idempotence for all three generators."""
    rng = np.random.Generator(np.random.Philox(seed))
    results = {
        (name, law): PropertyResult(f"axioms/{name}/{law}", trials, 0)
        for name in _SPECS
        for law in ("preservation", "monotonicity", "idempotence")
    }
    for trial in range(trials):
        dim = int(rng.choice(dims))
        n = int(rng.integers(1, max_n + 1))
        corpus = _random_corpus(rng, n, dim)
        extra = int(rng.integers(0, 4))
        superset = corpus
        for _ in range(extra):
            superset = superset.add(Creation(tuple(rng.uniform(-1.5, 1.5, size=dim))))
        for name, spec in _SPECS.items():
            probes = _probes_for(rng, name, corpus, 3)
            report = check_closure_axioms(spec, corpus, superset, probes)
            detail = f"trial={trial} dim={dim} n={n} generator={name}"
            if not report.preservation:
                results[(name, "preservation")].record_failure(detail)
            if not report.monotonicity:
                results[(name, "monotonicity")].record_failure(detail)
            if not report.idempotence:
                results[(name, "idempotence")].record_failure(detail)
    return list(results.values())


def run_permissibility_suite(trials: int, seed: int = 0) -> list[PropertyResult]:
    """Monotonicity and stability of the permissible set, plus the insertion
    trichotomy with its strict-expansion witness."""
    rng = np.random.Generator(np.random.Philox(seed))
    monotone = PropertyResult("permissibility/monotone-growth", trials, 0)
    stability = PropertyResult("permissibility/stability", trials, 0)
    trichotomy = PropertyResult("permissibility/insertion-trichotomy", trials, 0)
    consistency = PropertyResult("permissibility/classify-consistency", trials, 0)
    for trial in range(trials):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        name = ("conv", "splice", "box")[int(rng.integers(3))]
        spec = _SPECS[name]
        corpus = _random_corpus(rng, n, dim)
        detail = f"trial={trial} dim={dim} n={n} generator={name}"
        result = permissible_set(spec, corpus)

        # monotone growth: permissible(C) stays inside permissible(C + extras)
        grown = corpus
        for _ in range(int(rng.integers(1, 3))):
            grown = grown.add(Creation(tuple(rng.uniform(-1.5, 1.5, size=dim))))
        grown_result = permissible_set(spec, grown)
        if not generable_set_included(result.permissible, grown_result.permissible):
            monotone.record_failure(detail)

        # stability: regenerating from the permissible set leaves it fixed
        if not _regenerates(spec, result.permissible):
            stability.record_failure(detail)

        # insertion trichotomy
        candidate = _insertion_candidate(rng, spec, name, corpus)
        if candidate is not None:
            try:
                effect = add_creation_effect(spec, corpus, candidate)
            except AssertionError as exc:
                trichotomy.record_failure(f"{detail}: {exc}")
            else:
                if effect.case == PERMISSIBLE and effect.strictly_expanded:
                    trichotomy.record_failure(detail)
                if effect.case == VIOLATION and not effect.strictly_expanded:
                    trichotomy.record_failure(detail)
                if effect.case == VIOLATION and effect.witness is None:
                    trichotomy.record_failure(detail)
                if not effect.inclusion_holds:
                    trichotomy.record_failure(detail)

        # classify agrees with membership in the permissible set
        agree = True
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=dim)
            verdict = classify(spec, corpus, x)
            in_perm = result.permissible.contains(x)
            if (verdict.status == PERMISSIBLE) != in_perm:
                agree = False
                break
        if not agree:
            consistency.record_failure(detail)
    return [monotone, stability, trichotomy, consistency]


def _insertion_candidate(rng, spec, name: str, corpus: Corpus):
    arr = corpus.to_array()
    roll = rng.random()
    if roll < 0.4 and len(arr) >= 2:
        w = rng.random(len(arr))
        w /= w.sum()
        x = w @ arr
    elif roll < 0.7:
        picks = rng.integers(len(arr), size=corpus.dim)
        x = np.array([arr[picks[k], k] for k in range(corpus.dim)])
    else:
        x = rng.uniform(-2.0, 2.0, size=corpus.dim)
    c = Creation(tuple(x))
    return None if c in corpus else c


def run_radon_suite(trials: int, seed: int = 0, dims=(1, 2, 3)) -> list[PropertyResult]:
    """Nonemptiness witnesses for corpora of d + 2 points under hull and box."""
    rng = np.random.Generator(np.random.Philox(seed))
    res = PropertyResult("radon/witness-permissible", trials, 0)
    for trial in range(trials):
        dim = int(dims[trial % len(dims)])
        corpus = Corpus.from_array(rng.normal(size=(dim + 2, dim)), dim=dim)
        for name in ("conv", "box"):
            try:
                witness, _ = radon_nonemptiness_witness(_SPECS[name], corpus)
            except AssertionError as exc:
                res.record_failure(f"trial={trial} dim={dim} generator={name}: {exc}")
                continue
            if classify(_SPECS[name], corpus, witness).status != PERMISSIBLE:
                res.record_failure(f"trial={trial} dim={dim} generator={name}")
    return [res]


def run_groupwise_suite(trials: int, seed: int = 0) -> list[PropertyResult]:
    """Groupwise monotonicity/stability, richness inclusion, superadditivity."""
    rng = np.random.Generator(np.random.Philox(seed))
    monotone = PropertyResult("groupwise/monotone-growth", trials, 0)
    stability = PropertyResult("groupwise/stability", trials, 0)
    richness = PropertyResult("groupwise/richness-inclusion", trials, 0)
    superadd = PropertyResult("groupwise/superadditivity", trials, 0)
    for trial in range(trials):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(4, 9))
        name = ("conv", "box")[int(rng.integers(2))]
        spec = _SPECS[name]
        corpus = _random_corpus(rng, n, dim)
        detail = f"trial={trial} dim={dim} n={n} generator={name}"

        coarse_sets = _random_collection(rng, corpus)
        fine_sets = _enrich_collection(rng, corpus, coarse_sets)
        if not richness_compare(fine_sets, coarse_sets):
            richness.record_failure(detail + " (construction)")
            continue
        p_fine = groupwise_permissible(spec, corpus, fine_sets)
        p_coarse = groupwise_permissible(spec, corpus, coarse_sets)
        if not generable_set_included(p_fine, p_coarse):
            richness.record_failure(detail)

        grown = corpus.add(Creation(tuple(rng.uniform(-1.5, 1.5, size=dim))))
        p_grown = groupwise_permissible(spec, grown, coarse_sets)
        if not generable_set_included(p_coarse, p_grown):
            monotone.record_failure(detail)

        if not _regenerates(spec, p_coarse):
            stability.record_failure(detail)

        items = list(corpus.items)
        half = max(1, int(rng.integers(1, max(2, len(items) // 2))))
        set_a = Corpus(items[:half], dim=dim)
        set_b = Corpus(items[half : half + max(1, int(rng.integers(1, 3)))], dim=dim)
        report = superadditivity_check(spec, corpus, set_a, set_b, samples=64, seed=trial)
        if not report.inclusion_holds:
            superadd.record_failure(detail)
    return [monotone, stability, richness, superadd]


def _random_collection(rng, corpus: Corpus) -> Collection:
    items = list(corpus.items)
    groups = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, max(2, len(items) // 2 + 1)))
        picks = rng.choice(len(items), size=size, replace=False)
        groups.append(Corpus((items[int(i)] for i in sorted(picks)), dim=corpus.dim))
    return Collection(tuple(groups))


def _enrich_collection(rng, corpus: Corpus, base: Collection) -> Collection:
    items = list(corpus.items)
    groups = []
    for group in base:
        members = {it for it in group}
        for _ in range(int(rng.integers(0, 3))):
            members.add(items[int(rng.integers(len(items)))])
        ordered = [it for it in items if it in members]
        groups.append(Corpus(ordered, dim=corpus.dim))
    return Collection(tuple(groups))


def run_convexity_suite(trials: int, seed: int = 0) -> list[PropertyResult]:
    """Hull minimality and the convex-valued characterizations."""
    rng = np.random.Generator(np.random.Philox(seed))
    minimal = PropertyResult("convexity/hull-minimality", trials, 0)
    box_laws = PropertyResult("convexity/box-characterizations", trials, 0)
    conv_laws = PropertyResult("convexity/hull-characterizations", trials, 0)
    splice_neg = PropertyResult("convexity/recombination-witness", trials, 0)
    for trial in range(trials):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        corpus = _random_corpus(rng, n, dim)
        detail = f"trial={trial} dim={dim} n={n}"

        hull = convex_hull(corpus)
        ok = all(is_member(_SPECS["box"], corpus, v) for v in hull.vertex_array)
        arr = corpus.to_array()
        for _ in range(4):
            w = rng.random(len(arr))
            w /= w.sum()
            if not is_member(_SPECS["box"], corpus, w @ arr):
                ok = False
        if not ok:
            minimal.record_failure(detail)

        report = check_convex_valued(_SPECS["box"], corpus)
        if not (
            report.image_convex
            and report.hull_of_image_equal
            and report.image_of_hull_equal
            and report.hull_contained
        ):
            box_laws.record_failure(detail)
        report = check_convex_valued(_SPECS["conv"], corpus)
        if not (
            report.image_convex
            and report.hull_of_image_equal
            and report.image_of_hull_equal
            and report.hull_contained
        ):
            conv_laws.record_failure(detail)

        grid = generate(_SPECS["splice"], corpus)
        if grid.cardinality > 1:
            report = check_convex_valued(_SPECS["splice"], corpus)
            if report.image_convex or report.witness is None:
                splice_neg.record_failure(detail)
            else:
                w = report.witness
                hull_of_grid = convex_hull(Corpus.from_array(grid.points(), dim=dim))
                if not hull_of_grid.contains(w.coords) or grid.contains(w.coords):
                    splice_neg.record_failure(detail)
    return [minimal, box_laws, conv_laws, splice_neg]


SUITES: dict[str, tuple] = {
    "axioms": (run_axioms_suite,),
    "permissibility": (run_permissibility_suite, run_radon_suite),
    "groupwise": (run_groupwise_suite,),
    "appendixA": (run_convexity_suite,),
}

SCOPES = (*SUITES, "all")


def run_scope(scope: str, trials: int, seed: int = 0) -> list[PropertyResult]:
    if scope == "all":
        out: list[PropertyResult] = []
        for fns in SUITES.values():
            for fn in fns:
                out.extend(fn(trials, seed))
        return out
    if scope not in SUITES:
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(SCOPES)}")
    out = []
    for fn in SUITES[scope]:
        out.extend(fn(trials, seed))
    return out
