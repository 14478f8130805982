"""Command-line interface.

stdout carries machine-parseable JSON/CSV; human-readable notes go to
stderr.  Exit codes: 0 success / verification passed, 2 verification
failed, 3 malformed input file, 4 inadmissible parameter (usage errors
included).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import secrets
import sys

import numpy as np

from . import biunimodular, catalog, constructions, io as mio, optimize as opt, search as search_mod
from .core import (
    DEFAULT_DEDUPE_TOL,
    DEFAULT_EQ_TOL,
    Basis,
    InadmissibleParameterError,
    Tolerance,
    hadamard_defect,
    is_unbiased_pair,
)
from .grassmann import chordal_distance_sq_overlap, distance_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_MALFORMED = 3
EXIT_INADMISSIBLE = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors are inadmissible parameters (exit 4); argparse's own exit 2 means "verification failed" here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InadmissibleParameterError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """argparse type for integers >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _env_float(name: str, default: float) -> float:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return float(text)
    except ValueError:
        raise InadmissibleParameterError(f"{name}={text!r} is not a number") from None


def _tolerance() -> Tolerance:
    return Tolerance(
        eq_tol=_env_float("MUBTOOLS_EQ_TOL", DEFAULT_EQ_TOL),
        dedupe_tol=_env_float("MUBTOOLS_DEDUPE_TOL", DEFAULT_DEDUPE_TOL),
    )


def _write_text(path: str | None, *parts: str) -> None:
    """Write the parts in order, to `path` or to stdout (ending in a newline there), without joining them."""
    if path is None or path == "-":
        sys.stdout.writelines(parts)
        if not parts or not parts[-1].endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w") as handle:
        handle.writelines(parts)


def _load_bases(paths: list[str], tol: Tolerance) -> list[Basis]:
    """Every command that reads files as bases rejects non-unitary or mixed-dimension input here."""
    bases = [basis for path in paths for basis in mio.parse_bases(mio.loads(mio.read_text(path)), path)]
    for basis in bases:
        try:
            basis.require_unitary(tol)
        except ValueError as exc:
            raise mio.FileFormatError(str(exc)) from None
    dims = sorted({b.dim for b in bases})
    if len(dims) > 1:
        raise mio.FileFormatError(f"bases of mixed dimensions {dims}")
    return bases


def _two_bases(paths: list[str], tol: Tolerance) -> list[Basis]:
    bases = _load_bases(paths, tol)
    if len(bases) != 2:
        raise mio.FileFormatError(f"expected exactly two bases, the files hold {len(bases)}")
    return bases


def _resolve_seed(seed: int | None) -> tuple[int, str]:
    if seed is not None:
        return seed, "explicit"
    return secrets.randbits(32), "derived-from-entropy"


def _cmd_gen(args) -> int:
    kind = args.what
    if kind == "fourier":
        basis = constructions.fourier(args.n)
        if args.format == "roots":
            exps = np.outer(np.arange(args.n), np.arange(args.n)) % args.n
            payload = mio.root_matrix_payload(exps, args.n)
        else:
            payload = mio.complex_matrix_payload(basis.matrix)
    elif kind == "weyl":
        x, z, q = constructions.weyl_pair(args.n)
        payload = {
            "format": "weyl-pair",
            "n": args.n,
            "q": mio.complex_entries(q),
            "X": mio.complex_matrix_payload(x),
            "Z": mio.complex_matrix_payload(z),
        }
    elif kind == "prime-mubs":
        mubs = constructions.prime_mub_set(args.p)
        payload = mio.basis_list_payload(list(mubs.bases), mubs.dim)
    elif kind == "h4":
        payload = mio.complex_matrix_payload(catalog.h4(args.phi))
    elif kind == "f6":
        mat = catalog.f6_transpose(args.phi1, args.phi2) if args.transpose else catalog.f6(args.phi1, args.phi2)
        payload = mio.complex_matrix_payload(mat)
    elif kind == "bjorck":
        payload = mio.complex_matrix_payload(catalog.bjorck_c())
    elif kind == "bn":
        mat, (x, z, t) = catalog.beauchamp_nicoara(np.exp(1j * args.theta), branch=args.branch)
        payload = mio.complex_matrix_payload(
            mat,
            provenance={"family": "BN", "theta": args.theta, "branch": args.branch,
                        "x": mio.complex_entries(x), "z": mio.complex_entries(z), "t": mio.complex_entries(t)},
        )
    else:  # real4
        result = constructions.real_mub_set_dim4()
        payload = mio.basis_list_payload(list(result.bases), 4)
        payload["vertices"] = [[float(v) for v in row] for row in result.vertices]
    _write_text(args.output, mio.dumps(payload))
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = _tolerance()
    failures = 0
    reports = []
    if args.what == "hadamard":
        for path in args.files:
            payload = mio.loads(mio.read_text(path))
            listed = payload.get("format") == "basis-list"
            # one verdict per basis; not `_load_bases`, whose unitarity check would turn a FAIL into exit 3
            for basis in mio.parse_bases(payload, path):
                defect = hadamard_defect(basis.matrix)
                name = f"{path} [{basis.label}]" if listed else path
                if not math.isfinite(defect):  # entries near the float limit overflow the products
                    raise mio.FileFormatError(f"{name}: hadamard defect {defect} is not finite")
                ok = defect <= tol.eq_tol
                report = {"file": path, "check": "hadamard", "pass": ok, "defect": defect}
                if listed:
                    report["basis"] = basis.label
                reports.append(report)
                failures += 0 if ok else 1
                print(f"{name}: hadamard defect {defect:.3e} -> {'pass' if ok else 'FAIL'}", file=sys.stderr)
    elif args.what == "unbiased":
        a, b = _two_bases(args.files, tol)
        ok, dev = is_unbiased_pair(a, b, tol)
        reports.append({"files": list(args.files), "check": "unbiased", "pass": ok, "deviation": dev})
        failures += 0 if ok else 1
        print(f"unbiasedness deviation {dev:.3e} -> {'pass' if ok else 'FAIL'}", file=sys.stderr)
    else:  # mubset
        bases = _load_bases(args.files, tol)  # a non-unitary basis exits 3 here, so every unitary check passes
        for basis in bases:
            reports.append({"basis": basis.label, "check": "unitary", "pass": True, "defect": basis.unitarity_defect()})
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                ok, dev = is_unbiased_pair(bases[i], bases[j], tol)
                reports.append(
                    {"pair": [bases[i].label, bases[j].label], "check": "unbiased", "pass": ok, "deviation": dev}
                )
                failures += 0 if ok else 1
                print(
                    f"{bases[i].label} / {bases[j].label}: deviation {dev:.3e} -> {'pass' if ok else 'FAIL'}",
                    file=sys.stderr,
                )
    _write_text(None, mio.dumps({"reports": reports, "failures": failures}))
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _cmd_distance(args) -> int:
    tol = _tolerance()
    a, b = _two_bases(args.files, tol)
    value = chordal_distance_sq_overlap(a, b, tol)
    _write_text(None, mio.dumps({"n": a.dim, "chordal_distance_sq": value}))
    return EXIT_OK


def _cmd_table(args) -> int:
    tol = _tolerance()
    bases = _load_bases(args.files, tol)
    if len(bases) < 2:
        raise mio.FileFormatError("table needs at least two bases")
    table = distance_table(bases, tol)
    csv = mio.distance_csv([b.label for b in bases], table)
    _write_text(args.csv, csv)
    return EXIT_OK


def _cmd_census(args) -> int:
    if args.method == "newton":
        seed, origin = _resolve_seed(args.seed)
        census = biunimodular.newton_census(args.n, restarts=args.restarts, seed=seed, tol=_tolerance())
        census.metadata["seed_origin"] = origin
    else:
        census = biunimodular.root_census(args.n, args.k)
    _write_text(args.output, mio.dumps(census.to_dict()))
    counts = census.count_by_kind()
    print(
        f"census: {census.count} sequences ({counts}) status={census.metadata['status']}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_assemble(args) -> int:
    census = biunimodular.CensusResult.from_dict(mio.loads(mio.read_text(args.census)))
    try:
        census = biunimodular.assemble_bases(census)
    except ValueError as exc:  # an empty census, or a basis that is not unbiased to standard and Fourier
        raise mio.FileFormatError(str(exc)) from None
    _write_text(args.output, mio.dumps(census.to_dict()))
    print(f"assembled {len(census.bases)} bases", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    tol = _tolerance()
    census = biunimodular.CensusResult.from_dict(mio.loads(mio.read_text(args.census)))
    try:
        if not census.bases:
            census = biunimodular.assemble_bases(census)
        report = biunimodular.census_distance_report(census, tol=tol)
    except ValueError as exc:  # an empty census, non-unitary bases, or not the full census structure
        raise mio.FileFormatError(str(exc)) from None
    if args.csv:
        _write_text(args.csv, mio.distance_csv(list(report.labels), report.table))
    _write_text(None, mio.dumps({"summary": report.summary_lines(), "stats": report.stats}))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_OK


def _cmd_search(args) -> int:
    run = {"hadamards": search_mod.root_hadamard_enumerate, "triplets": search_mod.mub_triplet_search,
           "quartets": search_mod.mub_quartet_search}[args.depth]
    outcome = run(args.n, args.k, budget=args.budget, resume_token=args.resume,
                  checkpoint_path=args.checkpoint or f"{args.depth}-n{args.n}-k{args.k}.checkpoint.json")
    lines = [mio.dumps(mio.search_result_payload(item, args.k)) + "\n" for item in outcome.results]
    if args.depth == "hadamards":
        counts = {"matrices": len(outcome.results), "buckets": len(outcome.buckets)}
    else:
        counts = {"results": len(outcome.results), "verdict": outcome.verdict}
    summary = {
        "depth": args.depth, "n": args.n, "k": args.k, **counts,
        "complete": outcome.complete, "nodes": outcome.nodes_used,
        "resume_token": outcome.resume_token,
    }
    lines.append(mio.dumps({"summary": summary}) + "\n")
    _write_text(args.output, *lines)  # line by line: no copy of the whole text
    print(f"search {args.depth}: {summary}", file=sys.stderr)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    seed, origin = _resolve_seed(args.seed)
    runs = []
    best = None
    for offset in range(args.seeds):
        result = opt.maximize_spread(args.n, args.m, seed=seed + offset, iterations=args.iterations)
        runs.append(result)
        if best is None or result.objective > best.objective:
            best = result
    payload = {
        "n": args.n,
        "m": args.m,
        "seed_base": seed,
        "seed_origin": origin,
        "seeds": args.seeds,
        "upper_bound": best.upper_bound,
        "best_objective": best.objective,
        "runs": [
            {
                "seed": r.seed,
                "objective": r.objective,
                "trials": r.trials,
                "converged": r.converged,
                "stop_reason": r.stop_reason,
                "trajectory": [float(v) for v in _downsample(r.trajectory)],
            }
            for r in runs
        ],
        "best_bases": mio.basis_list_payload(best.bases, args.n)["bases"],
    }
    _write_text(args.output, mio.dumps(payload))
    print(f"best F = {best.objective:.9f} of bound {best.upper_bound}", file=sys.stderr)
    return EXIT_OK


def _downsample(traj: np.ndarray) -> np.ndarray:
    if len(traj) <= 200:
        return traj
    idx = np.linspace(0, len(traj) - 1, 200).astype(int)
    return traj[idx]


def _cmd_scan(args) -> int:
    tol = _tolerance()
    family = args.family.upper()
    n, names, _ = catalog.FAMILIES[family]
    axis = np.linspace(0.0, 2 * np.pi, args.points, endpoint=False)
    grid = np.array(list(itertools.product(axis, repeat=len(names))))
    against = [Basis.standard(n)]
    if args.with_fourier:
        against.append(constructions.fourier(n))
    rows = opt.scan_family(
        family, grid, against,
        extension_m=args.extension_m,
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        iterations=args.iterations,
        tol=tol,
    )
    csv = mio.scan_csv(list(names), [b.label for b in against], rows)
    _write_text(args.csv, csv)
    return EXIT_OK


def _cmd_ks_check(args) -> int:
    census3 = constructions.real_unbiased_census(3)
    dim4 = constructions.real_mub_set_dim4()
    exact = Tolerance(eq_tol=1e-12)
    cross_ok = all(is_unbiased_pair(a, b, exact)[0] for a, b in itertools.combinations(dim4.bases, 2))
    rays = constructions.peres_rays()
    result = constructions.ks_uncolourable(rays)
    payload = {
        "real3": {
            "sign_classes": len(census3.representatives),
            "mub_pair_exists": census3.mub_pair_exists,
            "verdict": census3.verdict,
        },
        "real4": {"bases": 3, "cross_overlap_quarter": cross_ok, "vertices": len(dim4.vertices)},
        "kochen_specker": {
            "rays": len(rays),
            "uncolourable": result.uncolourable,
            "contexts": [list(c) for c in result.contexts],
        },
    }
    _write_text(args.output, mio.dumps(payload))
    expected = result.uncolourable and not census3.mub_pair_exists and cross_ok
    return EXIT_OK if expected else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mubtools", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate catalog objects")
    gen.set_defaults(func=_cmd_gen)  # argparse copies a group's defaults into its leaves' namespace
    gen_sub = gen.add_subparsers(dest="what", required=True)
    for name in ("fourier", "weyl"):
        p = gen_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        if name == "fourier":
            p.add_argument("--format", choices=("complex", "roots"), default="complex")
        p.add_argument("-o", "--output")
    p = gen_sub.add_parser("prime-mubs")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("-o", "--output")
    p = gen_sub.add_parser("h4")
    p.add_argument("--phi", type=_finite_float, required=True)
    p.add_argument("-o", "--output")
    p = gen_sub.add_parser("f6")
    p.add_argument("--phi1", type=_finite_float, default=0.0)
    p.add_argument("--phi2", type=_finite_float, default=0.0)
    p.add_argument("--transpose", action="store_true")
    p.add_argument("-o", "--output")
    p = gen_sub.add_parser("bjorck")
    p.add_argument("-o", "--output")
    p = gen_sub.add_parser("bn")
    p.add_argument("--theta", type=_finite_float, required=True, help="phase of the unimodular parameter")
    p.add_argument("--branch", type=int, choices=(1, -1), default=1)
    p.add_argument("-o", "--output")
    p = gen_sub.add_parser("real4")
    p.add_argument("-o", "--output")

    ver = sub.add_parser("verify", help="verify properties of stored matrices")
    ver.add_argument("what", choices=("hadamard", "unbiased", "mubset"))
    ver.add_argument("files", nargs="+")
    ver.set_defaults(func=_cmd_verify)

    dist = sub.add_parser("distance", help="squared chordal distance between two bases")
    dist.add_argument("files", nargs=2)
    dist.set_defaults(func=_cmd_distance)

    tab = sub.add_parser("table", help="pairwise distance table")
    tab.add_argument("files", nargs="+")
    tab.add_argument("--csv", help="output CSV path (default stdout)")
    tab.set_defaults(func=_cmd_table)

    cen = sub.add_parser("census", help="biunimodular sequence census")
    cen.set_defaults(func=_cmd_census)
    cen_sub = cen.add_subparsers(dest="method", required=True)
    p = cen_sub.add_parser("newton")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--restarts", type=int, default=20000)
    p.add_argument("--seed", type=_non_negative_int)
    p.add_argument("-o", "--output")
    p = cen_sub.add_parser("roots")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("-o", "--output")

    asm = sub.add_parser("assemble", help="assemble census vectors into bases")
    asm.add_argument("census")
    asm.add_argument("-o", "--output")
    asm.set_defaults(func=_cmd_assemble)

    rep = sub.add_parser("report", help="distance-pattern report over an assembled census")
    rep.add_argument("census")
    rep.add_argument("--csv", help="also write the full distance table as CSV")
    rep.set_defaults(func=_cmd_report)

    sea = sub.add_parser("search", help="exact root-of-unity searches")
    sea.add_argument("depth", choices=("hadamards", "triplets", "quartets"))
    sea.add_argument("--n", type=int, required=True)
    sea.add_argument("--k", type=int, required=True)
    sea.add_argument("--budget", type=_positive_int)
    sea.add_argument("--resume", help="checkpoint token from an interrupted run")
    sea.add_argument("--checkpoint", help="where to write the checkpoint on budget exhaustion "
                     "(default <depth>-n<n>-k<k>.checkpoint.json)")
    sea.add_argument("-o", "--output")
    sea.set_defaults(func=_cmd_search)

    o = sub.add_parser("optimize", help="maximize the spread objective")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--seeds", type=_positive_int, default=1)
    o.add_argument("--seed", type=_non_negative_int)
    o.add_argument("--iterations", type=_positive_int, default=4000)
    o.add_argument("-o", "--output")
    o.set_defaults(func=_cmd_optimize)

    sc = sub.add_parser("scan", help="parameter scans over catalog families")
    sc.add_argument("family", choices=("h4", "f6", "bn"))
    sc.add_argument("--points", type=_positive_int, default=360)
    sc.add_argument("--extension-m", type=int)
    sc.add_argument("--seeds", type=_positive_int, default=2)
    sc.add_argument("--seed", type=_non_negative_int, default=0)
    sc.add_argument("--iterations", type=_positive_int, default=4000)
    sc.add_argument("--with-fourier", action="store_true")
    sc.add_argument("--csv")
    sc.set_defaults(func=_cmd_scan)

    ks = sub.add_parser("ks-check", help="real-space results and the colouring obstruction")
    ks.add_argument("-o", "--output")
    ks.set_defaults(func=_cmd_ks_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except mio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InadmissibleParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'the requested size is too large'}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except OSError as exc:  # an output or checkpoint path that cannot be written
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
