"""Command-line front end.

Three subcommands: ``analyze`` reads a corpus file and emits a JSON report,
``simulate`` runs seeded growth experiments and writes trajectory and stats
CSVs, ``props`` executes the randomized invariant suites. All output is
deterministic given flags and seeds.

Exit codes: 0 success, 1 property failure, 2 input error, 3 configuration
error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateCreation,
    EmptyCorpus,
    GridExplosion,
    MisalignedCheckpoints,
    NotConvexValued,
    PermgenError,
    SpliceOnContinuum,
)
from .experiments import run_growth, summarize, write_stats, write_trajectories
from .generators import ConvexRegion, FiniteGrid, GeneratorSpec, parse_generator
from .geometry import Corpus, Creation
from .permissibility import (
    PERMISSIBLE,
    VIOLATION,
    add_creation_effect,
    classify,
    permissible_set,
)
from .props import SCOPES, run_scope
from .sampling import parse_distribution

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CONFIG_ERROR = 3

_RASTER_MAX_CELLS = 1_000_000


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- corpus files --------------------------------------------------------------


def read_corpus_file(path: str) -> tuple[Corpus, list[str]]:
    """Parse a corpus file into a Corpus plus the column names.

    The file holds one creation per line, coordinates comma-separated. A
    first line with any non-numeric token is taken as a header naming the
    columns. Rows must agree on column count, values must be finite and
    duplicate rows are rejected; diagnostics carry 1-based file line
    numbers.
    """
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise _CliError(EXIT_INPUT_ERROR, f"cannot read corpus file: {exc}")

    header: list[str] | None = None
    rows: list[tuple[float, ...]] = []
    seen: dict[tuple[float, ...], int] = {}
    dim: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if header is None and not rows:
            if any(not _is_float(t) for t in tokens):
                header = tokens
                continue
        values = []
        for col, token in enumerate(tokens, start=1):
            try:
                v = float(token)
            except ValueError:
                raise _CliError(
                    EXIT_INPUT_ERROR,
                    f"row {lineno}, column {col}: could not parse {token!r} as a number",
                )
            if not np.isfinite(v):
                raise _CliError(
                    EXIT_INPUT_ERROR, f"row {lineno}, column {col}: value must be finite"
                )
            values.append(v)
        if dim is None:
            dim = len(values)
            if header is not None and len(header) != dim:
                raise _CliError(
                    EXIT_INPUT_ERROR,
                    f"row {lineno}: expected {len(header)} columns per header, found {dim}",
                )
        elif len(values) != dim:
            raise _CliError(
                EXIT_INPUT_ERROR, f"row {lineno}: expected {dim} columns, found {len(values)}"
            )
        key = tuple(values)
        if key in seen:
            raise _CliError(
                EXIT_INPUT_ERROR, f"row {lineno} duplicates row {seen[key]}: {line}"
            )
        seen[key] = lineno
        rows.append(key)
    if not rows:
        raise _CliError(EXIT_INPUT_ERROR, "corpus file contains no data rows")
    names = header if header is not None else [f"x{k}" for k in range(dim or 0)]
    return Corpus((Creation(r) for r in rows), dim=dim), names


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_point(text: str, dim: int, flag: str) -> np.ndarray:
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise _CliError(EXIT_INPUT_ERROR, f"{flag}: could not parse {text!r} as a point")
    if len(values) != dim:
        raise _CliError(
            EXIT_INPUT_ERROR, f"{flag}: point has dimension {len(values)}, corpus has {dim}"
        )
    if not all(np.isfinite(values)):
        raise _CliError(EXIT_INPUT_ERROR, f"{flag}: point coordinates must be finite")
    return np.asarray(values, dtype=float)


def _parse_generator_or_exit(text: str) -> GeneratorSpec:
    try:
        return parse_generator(text)
    except ValueError as exc:
        raise _CliError(EXIT_CONFIG_ERROR, str(exc))


# -- JSON report pieces --------------------------------------------------------


def _describe_set(gen_set) -> dict:
    if isinstance(gen_set, ConvexRegion):
        poly = gen_set.polytope
        if poly.is_empty:
            return {"type": "region", "empty": True, "affine_dim": -1, "vertices": []}
        return {
            "type": "region",
            "empty": False,
            "affine_dim": poly.affine_dim,
            "vertices": [list(v) for v in poly.vertex_array.tolist()],
            "halfspaces": [
                {"normal": list(n), "offset": float(b)}
                for n, b in zip(poly.normals.tolist(), poly.offsets.tolist())
            ],
        }
    grid: FiniteGrid = gen_set
    if grid.is_empty:
        return {"type": "grid", "empty": True, "cardinality": 0, "sizes": [], "value_sets": []}
    return {
        "type": "grid",
        "empty": False,
        "cardinality": grid.cardinality,
        "sizes": [len(vs) for vs in grid.value_sets],
        "value_sets": [list(vs) for vs in grid.value_sets],
    }


def _polygon(gen_set) -> list[list[float]] | None:
    # counterclockwise outline of a 2-d region, or the explicit point list
    # of a 2-d grid; plot-ready either way
    if isinstance(gen_set, ConvexRegion):
        poly = gen_set.polytope
        if poly.is_empty or poly.dim != 2:
            return [] if poly.is_empty else None
        pts = poly.vertex_array
        center = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))
        return [list(p) for p in pts[order].tolist()]
    if gen_set.dim != 2:
        return None
    if gen_set.is_empty:
        return []
    return [list(p) for p in gen_set.points().tolist()]


def _raster(gen_set, perm_set, resolution: int) -> dict:
    if resolution < 2:
        raise _CliError(EXIT_INPUT_ERROR, "--grid-res must be at least 2")
    if resolution * resolution > _RASTER_MAX_CELLS:
        raise _CliError(EXIT_CONFIG_ERROR, f"--grid-res {resolution} exceeds the cell budget")
    lo, hi = _set_bounds(gen_set)
    span = np.where(hi > lo, hi - lo, 1.0)
    lo = lo - 0.05 * span
    hi = hi + 0.05 * span
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    status = np.full(resolution * resolution, "not_generable", dtype=object)
    if isinstance(gen_set, FiniteGrid):
        # grid points almost never lie on raster points: each marks its nearest
        # cell, which is permissible only if all of its grid points are
        grid = gen_set.points()
        ij = np.rint((grid - lo) / ((hi - lo) / (resolution - 1))).astype(int)
        cells = ij[:, 1] * resolution + ij[:, 0]
        status[cells] = PERMISSIBLE
        status[cells[~perm_set.contains_batch(grid)]] = VIOLATION
    else:
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        in_gen = np.flatnonzero(gen_set.contains_batch(pts))
        status[in_gen] = VIOLATION
        # the permissible set is tested only on generable cells
        status[in_gen[perm_set.contains_batch(pts[in_gen])]] = PERMISSIBLE
    return {
        "xs": list(xs.tolist()),
        "ys": list(ys.tolist()),
        "status": [list(row) for row in status.reshape(resolution, resolution).tolist()],
    }


def _set_bounds(gen_set) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(gen_set, ConvexRegion):
        return gen_set.polytope.bounding_box()
    # value sets are sorted
    return np.array([vs[0] for vs in gen_set.value_sets]), np.array([vs[-1] for vs in gen_set.value_sets])


# -- subcommands ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    corpus, names = read_corpus_file(args.corpus)
    spec = _parse_generator_or_exit(args.generator)
    tol = args.tol
    result = permissible_set(spec, corpus)
    report: dict = {
        "corpus": {
            "path": args.corpus,
            "dim": corpus.dim,
            "size": len(corpus),
            "columns": names,
            "items": [list(c.coords) for c in corpus],
        },
        "generator": spec.label,
        "generable": _describe_set(result.generable),
        "permissible": _describe_set(result.permissible),
    }
    if args.query is not None:
        point = _parse_point(args.query, corpus.dim, "--query")
        verdict = classify(spec, corpus, point, tol)
        report["query"] = {
            "point": list(point.tolist()),
            "status": verdict.status,
            "infringed": [list(c.coords) for c in verdict.infringed],
        }
    if args.add is not None:
        point = _parse_point(args.add, corpus.dim, "--add")
        try:
            effect = add_creation_effect(spec, corpus, Creation(tuple(point)))
        except DuplicateCreation as exc:
            raise _CliError(EXIT_INPUT_ERROR, str(exc))
        report["add"] = {
            "creation": list(point.tolist()),
            "case": effect.case,
            "strictly_expanded": effect.strictly_expanded,
            "inclusion_holds": effect.inclusion_holds,
            "witness": list(effect.witness.coords) if effect.witness is not None else None,
            "before": _describe_set(effect.before.permissible),
            "after": _describe_set(effect.after.permissible),
        }
    if corpus.dim == 2:
        plot = {
            "generable_polygon": _polygon(result.generable),
            "permissible_polygon": _polygon(result.permissible),
        }
        if args.grid_res is not None:
            plot["raster"] = _raster(result.generable, result.permissible, args.grid_res)
        report["plot"] = plot
    elif args.grid_res is not None:
        raise _CliError(EXIT_CONFIG_ERROR, "--grid-res is only supported for 2-d corpora")
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_simulate(args) -> int:
    dist_text = args.dist_pos if args.dist_pos is not None else args.dist
    gen_text = args.gen_pos if args.gen_pos is not None else args.generator
    if dist_text is None or gen_text is None:
        raise _CliError(
            EXIT_INPUT_ERROR, "simulate needs a distribution and a generator (see --help)"
        )
    try:
        dist = parse_distribution(dist_text)
    except ValueError as exc:
        raise _CliError(EXIT_INPUT_ERROR, str(exc))
    spec = _parse_generator_or_exit(gen_text)
    if args.nmax < 1:
        raise _CliError(EXIT_INPUT_ERROR, "--nmax must be at least 1")
    if args.seeds < 1:
        raise _CliError(EXIT_INPUT_ERROR, "--seeds must be at least 1")
    if args.samples < 1:
        raise _CliError(EXIT_INPUT_ERROR, "--samples must be at least 1")
    checkpoints = _resolve_checkpoints(args.checkpoints, args.nmax)
    seeds = range(args.seeds)
    try:
        trajectories = run_growth(
            dist,
            spec,
            args.nmax,
            checkpoints,
            seeds,
            method=args.method,
            mc_samples=args.samples,
        )
    except (NotConvexValued, SpliceOnContinuum, GridExplosion, ValueError) as exc:
        raise _CliError(EXIT_CONFIG_ERROR, str(exc))
    except MisalignedCheckpoints as exc:
        raise _CliError(EXIT_INPUT_ERROR, str(exc))
    rows = summarize(trajectories)
    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectories.csv")
    stats_path = os.path.join(args.out, "stats.csv")
    write_trajectories(traj_path, trajectories)
    write_stats(stats_path, rows)
    print(f"wrote {traj_path} and {stats_path}")
    print(f"{'n':>8} {'mean':>10} {'median':>10} {'q10':>10} {'q90':>10} {'<0.7':>8} {'<0.9':>8}")
    for row in rows:
        print(
            f"{row.n:>8d} {row.mean:>10.4f} {row.median:>10.4f} "
            f"{row.q10:>10.4f} {row.q90:>10.4f} {row.frac_below_07:>8.3f} {row.frac_below_09:>8.3f}"
        )
    return EXIT_OK


_DEFAULT_CHECKPOINTS = (50, 200, 800, 2000)


def _resolve_checkpoints(text: str | None, n_max: int) -> list[int]:
    if text is None:
        points = [c for c in _DEFAULT_CHECKPOINTS if c < n_max]
        points.append(n_max)
        return points
    try:
        points = [int(t) for t in text.split(",")]
    except ValueError:
        raise _CliError(EXIT_INPUT_ERROR, f"--checkpoints: could not parse {text!r}")
    if not points:
        raise _CliError(EXIT_INPUT_ERROR, "--checkpoints must not be empty")
    return points


def cmd_props(args) -> int:
    if args.trials < 1:
        raise _CliError(EXIT_INPUT_ERROR, "--trials must be at least 1")
    if args.scope not in SCOPES:
        raise _CliError(
            EXIT_INPUT_ERROR, f"unknown scope {args.scope!r}; choose from {sorted(SCOPES)}"
        )
    results = run_scope(args.scope, args.trials, args.seed)
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        line = f"{mark} {res.name}  trials={res.trials} failures={res.failures}"
        if res.first_failure is not None:
            line += f"  first: {res.first_failure}"
        print(line)
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_PROPERTY_FAILURE


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permgen",
        description="Generable and permissible sets over finite corpora of creations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one corpus file, emit a JSON report")
    p_an.add_argument("corpus", help="corpus file: comma-separated coordinates, optional header")
    p_an.add_argument("--generator", required=True, help="conv, splice, box or a 'a|b' composition")
    p_an.add_argument("--query", help="point to classify, e.g. '0.5,0.5'")
    p_an.add_argument("--add", help="creation to insert, reporting before/after permissible sets")
    p_an.add_argument("--grid-res", type=int, help="2-d raster resolution for plotting")
    p_an.add_argument("--tol", type=float, default=1e-9, help="membership tolerance")
    p_an.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="seeded growth experiments, CSV output")
    p_sim.add_argument("dist_pos", nargs="?", metavar="dist", help="distribution, e.g. gauss:d=2")
    p_sim.add_argument("gen_pos", nargs="?", metavar="generator", help="conv, splice or box")
    p_sim.add_argument("--dist", help="distribution spec (alternative to the positional)")
    p_sim.add_argument("--generator", help="generator (alternative to the positional)")
    p_sim.add_argument("--nmax", type=int, default=2000, help="final corpus size")
    p_sim.add_argument("--checkpoints", help="comma-separated sizes, default 50,200,800,2000 capped at nmax")
    p_sim.add_argument("--seeds", type=int, default=20, help="number of seeds; runs use 0..N-1")
    p_sim.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count")
    p_sim.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    p_sim.add_argument("--out", default=".", help="output directory for the CSV files")
    p_sim.set_defaults(func=cmd_simulate)

    p_pr = sub.add_parser("props", help="run randomized invariant suites")
    p_pr.add_argument("scope", nargs="?", default="all", help="|".join(SCOPES))
    p_pr.add_argument("--trials", type=int, default=200)
    p_pr.add_argument("--seed", type=int, default=0)
    p_pr.set_defaults(func=cmd_props)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (EmptyCorpus, DimensionMismatch, DuplicateCreation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except PermgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
