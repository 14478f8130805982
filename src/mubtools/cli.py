"""Command-line interface.

stdout carries machine-parseable JSON/CSV; human-readable notes go to
stderr.  Exit codes: 0 success / verification passed, 2 verification
failed, 3 malformed input file, 4 inadmissible parameter.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
from importlib import resources

import numpy as np

from . import biunimodular, catalog, constructions, io as mio, optimize as opt, search as search_mod
from .core import (
    DEFAULT_DEDUPE_TOL,
    DEFAULT_EQ_TOL,
    Basis,
    InadmissibleParameterError,
    Tolerance,
    hadamard_defect,
    is_complex_hadamard,
    is_unbiased_pair,
)
from .grassmann import chordal_distance_sq_overlap, distance_table

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_MALFORMED = 3
EXIT_INADMISSIBLE = 4


def _tolerance() -> Tolerance:
    eq = float(os.environ.get("MUBTOOLS_EQ_TOL", DEFAULT_EQ_TOL))
    dd = float(os.environ.get("MUBTOOLS_DEDUPE_TOL", DEFAULT_DEDUPE_TOL))
    return Tolerance(eq_tol=eq, dedupe_tol=dd)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise mio.FileFormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w") as handle:
        handle.write(text)


def _load_matrix(path: str) -> np.ndarray:
    return mio.as_complex_matrix(mio.loads(_read_text(path)))


def _load_bases(paths: list[str]) -> list[Basis]:
    bases: list[Basis] = []
    for path in paths:
        payload = mio.loads(_read_text(path))
        if payload.get("format") == "basis-list":
            for item in payload["bases"]:
                bases.append(Basis(mio.as_complex_matrix(item["matrix"]), label=item.get("label", path)))
        else:
            bases.append(Basis(mio.as_complex_matrix(payload), label=path))
    return bases


def _basis_list_payload(bases: list[Basis], n: int) -> dict:
    return {
        "format": "basis-list",
        "n": n,
        "bases": [
            {"label": b.label, "matrix": mio.complex_matrix_payload(b.matrix)} for b in bases
        ],
    }


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
            "q": [q.real, q.imag],
            "X": mio.complex_matrix_payload(x),
            "Z": mio.complex_matrix_payload(z),
        }
    elif kind == "prime-mubs":
        mubs = constructions.prime_mub_set(args.p)
        payload = _basis_list_payload(list(mubs.bases), mubs.dim)
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
                        "x": [x.real, x.imag], "z": [z.real, z.imag], "t": [t.real, t.imag]},
        )
    elif kind == "real4":
        result = constructions.real_mub_set_dim4()
        payload = _basis_list_payload(list(result.bases), 4)
        payload["vertices"] = [[float(v) for v in row] for row in result.vertices]
    else:
        raise AssertionError(kind)
    _write_text(args.output, mio.dumps(payload))
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = _tolerance()
    failures = 0
    reports = []
    if args.what == "hadamard":
        for path in args.files:
            mat = _load_matrix(path)
            defect = hadamard_defect(mat)
            ok = is_complex_hadamard(mat, tol)
            reports.append({"file": path, "check": "hadamard", "pass": ok, "defect": defect})
            failures += 0 if ok else 1
            print(f"{path}: hadamard defect {defect:.3e} -> {'pass' if ok else 'FAIL'}", file=sys.stderr)
    elif args.what == "unbiased":
        if len(args.files) != 2:
            raise mio.FileFormatError("verify unbiased needs exactly two files")
        a, b = (Basis(_load_matrix(p), label=p) for p in args.files)
        ok, dev = is_unbiased_pair(a, b, tol)
        reports.append({"files": list(args.files), "check": "unbiased", "pass": ok, "deviation": dev})
        failures += 0 if ok else 1
        print(f"unbiasedness deviation {dev:.3e} -> {'pass' if ok else 'FAIL'}", file=sys.stderr)
    else:  # mubset
        bases = _load_bases(args.files)
        for basis in bases:
            defect = basis.unitarity_defect()
            ok = defect <= tol.eq_tol
            reports.append({"basis": basis.label, "check": "unitary", "pass": ok, "defect": defect})
            failures += 0 if ok else 1
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
    a, b = (Basis(_load_matrix(p), label=p) for p in args.files)
    value = chordal_distance_sq_overlap(a, b, tol)
    _write_text(None, mio.dumps({"n": a.dim, "chordal_distance_sq": value}))
    return EXIT_OK


def _cmd_table(args) -> int:
    tol = _tolerance()
    bases = _load_bases(args.files)
    table = distance_table(bases, tol)
    csv = mio.distance_csv([b.label for b in bases], table)
    _write_text(args.csv, csv)
    return EXIT_OK


def _cmd_census(args) -> int:
    tol = _tolerance()
    if args.method == "newton":
        seed, origin = _resolve_seed(args.seed)
        census = biunimodular.newton_census(args.n, restarts=args.restarts, seed=seed, tol=tol)
        census.metadata["seed_origin"] = origin
    else:
        census = biunimodular.root_census(args.n, args.k, tol=tol)
    _write_text(args.output, mio.dumps(census.to_dict()))
    counts = census.count_by_kind()
    print(
        f"census: {census.count} sequences ({counts}) status={census.metadata['status']}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_assemble(args) -> int:
    tol = _tolerance()
    census = biunimodular.CensusResult.from_dict(mio.loads(_read_text(args.census)))
    census = biunimodular.assemble_bases(census, tol=tol)
    _write_text(args.output, mio.dumps(census.to_dict()))
    print(f"assembled {len(census.bases)} bases", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    tol = _tolerance()
    census = biunimodular.CensusResult.from_dict(mio.loads(_read_text(args.census)))
    if not census.bases:
        census = biunimodular.assemble_bases(census, tol=tol)
    report = biunimodular.census_distance_report(census, tol=tol)
    if args.csv:
        _write_text(args.csv, mio.distance_csv(list(report.labels), report.table))
    stats = dict(report.stats)
    stats["gaussian_vs_nongaussian"] = list(stats["gaussian_vs_nongaussian"])
    stats["sixplet_cross"] = list(stats["sixplet_cross"])
    _write_text(None, mio.dumps({"summary": report.summary_lines(), "stats": stats}))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_OK


def _root_payload_pair(obj, k: int) -> dict:
    names = ("h1", "h2", "h3")
    if isinstance(obj, np.ndarray):
        return mio.root_matrix_payload(obj, k)
    return {name: mio.root_matrix_payload(mat, k) for name, mat in zip(names, obj)}


def _cmd_search(args) -> int:
    lines = []
    checkpoint = args.checkpoint or f"{args.depth}-n{args.n}-k{args.k}.checkpoint.json"
    if args.depth == "hadamards":
        outcome = search_mod.root_hadamard_enumerate(
            args.n, args.k, budget=args.budget,
            checkpoint_path=checkpoint, resume_token=args.resume,
        )
        for mat in outcome.matrices:
            lines.append(mio.dumps(mio.root_matrix_payload(mat, args.k)))
        summary = {
            "depth": "hadamards", "n": args.n, "k": args.k,
            "matrices": len(outcome.matrices), "buckets": len(outcome.buckets),
            "complete": outcome.complete, "nodes": outcome.nodes_used,
            "resume_token": outcome.resume_token,
        }
        if args.write_fixtures:
            _write_fixture(outcome, args.n, args.k)
    else:
        func = search_mod.mub_triplet_search if args.depth == "triplets" else search_mod.mub_quartet_search
        outcome = func(args.n, args.k, budget=args.budget,
                       checkpoint_path=checkpoint, resume_token=args.resume)
        for item in outcome.results:
            lines.append(mio.dumps(_root_payload_pair(item, args.k)))
        summary = {
            "depth": args.depth, "n": args.n, "k": args.k,
            "results": len(outcome.results), "verdict": outcome.verdict,
            "complete": outcome.complete, "nodes": outcome.nodes_used,
            "resume_token": outcome.resume_token,
        }
    lines.append(mio.dumps({"summary": summary}))
    _write_text(args.output, "\n".join(lines) + ("\n" if lines else ""))
    print(f"search {args.depth}: {summary}", file=sys.stderr)
    return EXIT_OK


def _write_fixture(outcome, n: int, k: int) -> None:
    known = {(6, 3): "S", (6, 4): "DITA0"}
    name = known.get((n, k))
    if name is None:
        raise InadmissibleParameterError("fixtures are defined for (n, k) in {(6, 3), (6, 4)} only")
    if not outcome.complete:
        raise InadmissibleParameterError("refusing to write a fixture from an incomplete search")
    best = min(outcome.matrices, key=lambda m: tuple(m.ravel()))
    payload = mio.root_matrix_payload(
        best, k,
        provenance={
            "generator": f"mubtools search hadamards --n {n} --k {k} --write-fixtures",
            "date": "2026-08-10",
            "search": {
                "n": n, "k": k,
                "matrices_found": len(outcome.matrices),
                "equivalence_buckets": len(outcome.buckets),
                "selection": "lexicographically least exponent matrix",
            },
        },
    )
    target = resources.files("mubtools").joinpath(f"fixtures/{name}.json")
    with resources.as_file(target) as path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(mio.dumps(payload) + "\n")
    print(f"fixture {name} written to {target}", file=sys.stderr)


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
                "trajectory": [float(v) for v in _downsample(r.trajectory)],
            }
            for r in runs
        ],
        "best_bases": [
            {"label": b.label, "matrix": mio.complex_matrix_payload(b.matrix)} for b in best.bases
        ],
    }
    _write_text(args.output, mio.dumps(payload))
    print(f"best F = {best.objective:.9f} of bound {best.upper_bound}", file=sys.stderr)
    return EXIT_OK


def _downsample(traj: np.ndarray, limit: int = 200) -> np.ndarray:
    if len(traj) <= limit:
        return traj
    idx = np.linspace(0, len(traj) - 1, limit).astype(int)
    return traj[idx]


def _cmd_scan(args) -> int:
    tol = _tolerance()
    family = {"h4": "H4", "f6": "F6", "bn": "BN"}[args.family]
    n = 4 if family == "H4" else 6
    if family == "F6":
        axis = np.linspace(0.0, 2 * np.pi, args.points, endpoint=False)
        grid = np.array([[a, b] for a in axis for b in axis])
        names = ["phi1", "phi2"]
    else:
        grid = np.linspace(0.0, 2 * np.pi, args.points, endpoint=False).reshape(-1, 1)
        names = ["phi"] if family == "H4" else ["theta"]
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
    csv = mio.scan_csv(names, [b.label for b in against], rows)
    _write_text(args.csv, csv)
    return EXIT_OK


def _cmd_ks_check(args) -> int:
    census3 = constructions.real_unbiased_census(3)
    dim4 = constructions.real_mub_set_dim4()
    cross_ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            s = np.abs(dim4.bases[i].matrix.conj().T @ dim4.bases[j].matrix) ** 2
            cross_ok &= bool(np.abs(s - 0.25).max() < 1e-12)
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
    parser = argparse.ArgumentParser(prog="mubtools", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate catalog objects")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    for name in ("fourier", "weyl"):
        p = gen_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        if name == "fourier":
            p.add_argument("--format", choices=("complex", "roots"), default="complex")
        p.add_argument("-o", "--output")
        p.set_defaults(func=_cmd_gen)
    p = gen_sub.add_parser("prime-mubs")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)
    p = gen_sub.add_parser("h4")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)
    p = gen_sub.add_parser("f6")
    p.add_argument("--phi1", type=float, default=0.0)
    p.add_argument("--phi2", type=float, default=0.0)
    p.add_argument("--transpose", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)
    p = gen_sub.add_parser("bjorck")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)
    p = gen_sub.add_parser("bn")
    p.add_argument("--theta", type=float, required=True, help="phase of the unimodular parameter")
    p.add_argument("--branch", type=int, choices=(1, -1), default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)
    p = gen_sub.add_parser("real4")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

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
    cen_sub = cen.add_subparsers(dest="method", required=True)
    p = cen_sub.add_parser("newton")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--restarts", type=int, default=20000)
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_census)
    p = cen_sub.add_parser("roots")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_census)

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
    sea.add_argument("--budget", type=int)
    sea.add_argument("--resume", help="checkpoint token from an interrupted run")
    sea.add_argument("--checkpoint", help="where to write the checkpoint on budget exhaustion "
                     "(default <depth>-n<n>-k<k>.checkpoint.json)")
    sea.add_argument("--write-fixtures", action="store_true",
                     help="store the canonical matrix as a package fixture (hadamards only)")
    sea.add_argument("-o", "--output")
    sea.set_defaults(func=_cmd_search)

    o = sub.add_parser("optimize", help="maximize the spread objective")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--seeds", type=int, default=1)
    o.add_argument("--seed", type=int)
    o.add_argument("--iterations", type=int, default=4000)
    o.add_argument("-o", "--output")
    o.set_defaults(func=_cmd_optimize)

    sc = sub.add_parser("scan", help="parameter scans over catalog families")
    sc.add_argument("family", choices=("h4", "f6", "bn"))
    sc.add_argument("--points", type=int, default=360)
    sc.add_argument("--extension-m", type=int)
    sc.add_argument("--seeds", type=int, default=2)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--iterations", type=int, default=4000)
    sc.add_argument("--with-fourier", action="store_true")
    sc.add_argument("--csv")
    sc.set_defaults(func=_cmd_scan)

    ks = sub.add_parser("ks-check", help="real-space results and the colouring obstruction")
    ks.add_argument("-o", "--output")
    ks.set_defaults(func=_cmd_ks_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except mio.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except InadmissibleParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
