"""Child side of the benchmark: one fresh interpreter per workload repetition.

    python3 perfbench/child.py <spec.json>

imports mubtools, stamps the ready time, runs the workload body, checks its
answers and writes a result file.  With "setup_only" in the spec it stops
after the ready stamp.  All times are time.monotonic() readings
(CLOCK_MONOTONIC, shared with the parent process), so the parent can
subtract its spawn time from the ready stamp.  With "trace" set, layer
boundaries are wrapped by module attribute (see install_tracing); no program
file changes, and untraced children run the program untouched.
"""

from __future__ import annotations

import contextlib
import io as text_io
import json
import os
import sys
import time
import traceback
from collections import Counter, defaultdict
from functools import wraps
from itertools import count

# Program seeds for workload seed s: the three consecutive seeds 3s, 3s+1, 3s+2.
SEEDS_PER_WORKLOAD_SEED = 3
# Name prefix of the checks on CLI exit codes (counted as cli.exit_mismatches).
EXIT_CHECK = "exit code:"


class Tracer:
    """In-memory spans (name, start, end, parent, run id) plus aggregate timers.

    Hot inner calls (expm, the objective, Haagerup invariants) are aggregated
    into call counts and total seconds instead of one span per call.
    """

    def __init__(self, run_id: str, parent: str | None):
        self.run_id = run_id
        self.root_parent = parent
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._ids = count()

    def _current(self) -> str | None:
        return self.stack[-1] if self.stack else self.root_parent

    def span(self, module, attr: str, name: str, attrs=None) -> None:
        func = getattr(module, attr)

        @wraps(func)
        def wrapper(*args, **kwargs):
            span_id = f"{os.getpid()}.{next(self._ids)}"
            parent = self._current()
            self.stack.append(span_id)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.stack.pop()
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "run": self.run_id}
            if attrs is not None:
                record["attrs"] = attrs(args, kwargs, result)
            self.spans.append(record)
            return result

        setattr(module, attr, wrapper)

    def aggregate(self, module, attr: str, name: str) -> None:
        func = getattr(module, attr)

        @wraps(func)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                self.seconds[name] += time.monotonic() - start
                self.calls[name] += 1

        setattr(module, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls), "seconds": dict(self.seconds)}


def _ascent_attrs(args, kwargs, result) -> dict:
    """Trials and stop reason of one maximize_spread call."""
    target = kwargs.get("target")
    iterations = kwargs.get("iterations", 4000)
    if target is not None and result.objective >= target:
        stop = "target"
    elif result.trials >= iterations and not result.converged:
        stop = "cap"
    else:
        stop = "other"
    return {"trials": result.trials, "stop": stop}


def _hadamard_attrs(args, kwargs, result) -> dict:
    return {"nodes": result.nodes_used, "results": len(result.matrices),
            "buckets": len(result.buckets)}


def _outcome_attrs(args, kwargs, result) -> dict:
    return {"nodes": result.nodes_used, "results": len(result.results)}


def _k_attrs(args, kwargs, result) -> dict:
    return {"k": int(args[1] if len(args) > 1 else kwargs["k"])}


def _newton_attrs(args, kwargs, result) -> dict:
    return {"restarts": result.metadata["restarts_used"], "solutions": result.count}


def _assemble_attrs(args, kwargs, result) -> dict:
    return {"bases": len(result.bases)}


def _dumps_attrs(args, kwargs, result) -> dict:
    payload = args[0] if args else kwargs.get("obj")
    census = isinstance(payload, dict) and payload.get("format") == "census"
    return {"bytes": len(result), "census": census}


def _cli_attrs(args, kwargs, result) -> dict:
    return {"subcommand": args[0][0], "code": result}


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public layer boundaries that workloads and the CLI call through."""
    from mubtools import biunimodular, cli, io, optimize, search

    tracer.span(cli, "main", "cli.main", _cli_attrs)
    tracer.span(search, "root_hadamard_enumerate", "search.hadamards", _hadamard_attrs)
    tracer.span(search, "mub_triplet_search", "search.triplets", _outcome_attrs)
    tracer.span(search, "mub_quartet_search", "search.quartets", _outcome_attrs)
    tracer.span(search, "unbiased_vector_enumerate", "search.unbiased_vectors", _k_attrs)
    tracer.aggregate(search, "haagerup_invariants", "core.haagerup")
    tracer.span(biunimodular, "newton_census", "biunimodular.newton", _newton_attrs)
    tracer.span(biunimodular, "assemble_bases", "biunimodular.assemble", _assemble_attrs)
    tracer.span(biunimodular, "census_distance_report", "biunimodular.report")
    tracer.span(biunimodular, "distance_table", "grassmann.distance_table")
    tracer.span(io, "dumps", "io.dumps", _dumps_attrs)
    tracer.span(io, "loads", "io.loads")
    tracer.span(optimize, "maximize_spread", "optimize.ascent", _ascent_attrs)
    tracer.aggregate(optimize, "spread_and_grads", "optimize.spread_and_grads")
    tracer.aggregate(optimize, "expm", "optimize.expm")


# --------------------------------------------------------------------------
# Workload bodies.  Each takes the workload seed and a `check(name, ok)`
# callback, runs the timed work and passes every pinned answer to `check`.


def _search_k12(seed: int, check) -> None:
    """The paper's exact k = 12 result; the input has no randomness, so `seed` is unused."""
    import numpy as np
    from mubtools import search

    had = search.root_hadamard_enumerate(6, 12)
    trip = search.mub_triplet_search(6, 12, hadamards=had)
    quart = search.mub_quartet_search(6, 12, triplets=trip)

    check("hadamards == 2184", len(had.matrices) == 2184)
    check("buckets == 5", len(had.buckets) == 5)
    check("triplets == 480", len(trip.results) == 480)
    check("quartets == 0, verdict empty", len(quart.results) == 0 and quart.verdict == "empty")
    check("all stages complete", had.complete and trip.complete and quart.complete)
    fourier_cols = frozenset(tuple((2 * a * b) % 12 for a in range(6)) for b in range(6))
    partners = [h2 for h1, h2 in trip.results
                if frozenset(tuple(h1[:, j]) for j in range(6)) == fourier_cols]
    circulant = 0
    for h2 in partners:
        cols = np.exp(2j * np.pi * h2 / 12) / np.sqrt(6)
        circulant += all(
            np.any(np.abs(np.abs(np.roll(cols[:, j], 1).conj() @ cols) - 1) < 1e-9)
            for j in range(6)
        )
    check("4 Fourier partners, 2 circulant", len(partners) == 4 and circulant == 2)


def _census(seed: int, check) -> None:
    """Three Newton censuses through the file round trips, then the exact root censuses."""
    import numpy as np
    from mubtools import biunimodular as bu
    from mubtools import io

    for s in range(SEEDS_PER_WORKLOAD_SEED * seed, SEEDS_PER_WORKLOAD_SEED * (seed + 1)):
        census = bu.newton_census(6, restarts=20000, seed=s)
        text = io.dumps(census.to_dict())
        census = bu.CensusResult.from_dict(io.loads(text))
        assembled = bu.assemble_bases(census)
        assembled = bu.CensusResult.from_dict(io.loads(io.dumps(assembled.to_dict())))
        stats = bu.census_distance_report(assembled).stats

        kinds = census.count_by_kind()
        check(f"seed {s}: 48 = 12 + 36, status ok",
              census.count == 48 and kinds.get(bu.GAUSSIAN) == 12 and kinds.get(bu.BJORCK) == 36
              and census.metadata["status"] == "ok")
        check(f"seed {s}: census round trip is byte-identical", io.dumps(census.to_dict()) == text)
        check(f"seed {s}: 16 bases, membership 2/2",
              len(assembled.bases) == 16
              and assembled.metadata["membership_per_vector"] == {"min": 2, "max": 2})
        sides = np.asarray(stats["gaussian_square_sides"])
        diags = np.asarray(stats["gaussian_square_diagonals"])
        gvn, cross = stats["gaussian_vs_nongaussian"], stats["sixplet_cross"]
        check(f"seed {s}: distance pattern",
              np.abs(sides - 2.0).max() <= 1e-3 and np.abs(diags - 4.0).max() <= 1e-3
              and abs(gvn[0] - 4.62) <= 0.01 and abs(gvn[1] - 4.62) <= 0.01
              and abs(cross[0] - 3.71) <= 0.01 and abs(cross[1] - 3.71) <= 0.01
              and abs(stats["within_sixplet_max"] - 4.64) <= 0.01 and stats["global_max"] < 4.9)

    c12 = bu.root_census(6, 12)
    c24 = bu.root_census(6, 24)

    def phases(c):
        return {tuple(np.round(x.phases(), 9)) for x in c.sequences}

    check("root census k=12 and k=24: the same 12 sequences",
          c12.count == 12 and c24.count == 12 and phases(c12) == phases(c24))


def cli_sequence(seed: int) -> list[tuple[list[str], int]]:
    """The README CLI calls in order, each with its expected exit code."""
    s = str(seed)
    return [
        (["gen", "fourier", "--n", "6", "-o", "f6.json"], 0),
        (["gen", "prime-mubs", "--p", "7", "-o", "mubs7.json"], 0),
        (["gen", "bn", "--theta", "2.0", "-o", "bn.json"], 0),
        (["verify", "hadamard", "f6.json"], 0),
        (["verify", "mubset", "mubs7.json"], 0),
        (["table", "mubs7.json", "--csv", "table.csv"], 0),
        (["distance", "f6.json", "bn.json"], 0),
        (["ks-check", "-o", "ks.json"], 0),
        (["census", "newton", "--n", "6", "--restarts", "20000", "--seed", s, "-o", "census.json"], 0),
        (["assemble", "census.json", "-o", "bases.json"], 0),
        (["report", "bases.json", "--csv", "distances.csv"], 0),
        (["search", "hadamards", "--n", "6", "--k", "3", "-o", "had3.jsonl"], 0),
        (["optimize", "--n", "6", "--m", "4", "--seed", s, "--iterations", "300", "-o", "spread.json"], 0),
        # Fixed optimizer seeds 0, 1, 2 (those of the tier-1 gate test): with six
        # failing ascents, the scan's work differs 2.3x between seed triples.
        (["scan", "h4", "--points", "4", "--extension-m", "5", "--seeds", "3", "--seed", "0",
          "--iterations", "3000", "--csv", "h4scan.csv"], 0),
        (["gen", "bn", "--theta", "0.5"], 4),
        (["verify", "unbiased", "f6.json", "f6.json"], 2),
    ]


def _cli_pipeline(seed: int, check) -> None:
    """The README CLI sequence through `mubtools.cli.main`, writing into the current directory."""
    from mubtools import cli

    stdout = {}
    for argv, expected in cli_sequence(seed):
        out = text_io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(text_io.StringIO()):
            code = _console_exit_code(cli.main, argv)
        check(f"{EXIT_CHECK} mubtools {' '.join(argv)} -> {expected}", code == expected)
        stdout[" ".join(argv[:2])] = out.getvalue()
    try:
        answers = _cli_answers(stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        answers = [(f"CLI outputs readable ({exc!r})", False)]
    for name, ok in answers:
        check(name, ok)


def _console_exit_code(main, argv: list[str]) -> int:
    """The exit status the `mubtools` console script would give for `argv`."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught exception ends the console script with status 1
        traceback.print_exc(file=sys.__stderr__)
        return 1


def _cli_answers(stdout: dict[str, str]) -> list[tuple[str, bool]]:
    """Pinned answers in the files the CLI sequence wrote and in its stdout.

    `stdout` maps the first two words of a call ("verify hadamard") to what it printed.
    """

    def load(path: str):
        with open(path) as handle:
            return json.load(handle)

    def table_ok() -> bool:
        with open("table.csv") as handle:
            lines = handle.read().splitlines()[1:]
        # labels may hold commas and are not quoted, so take the last 8 cells
        rows = [line.split(",")[-8:] for line in lines]
        return len(rows) == 8 and all(
            abs(float(v) - (0.0 if i == j else 6.0)) < 1e-9
            for i, row in enumerate(rows) for j, v in enumerate(row))

    def h4_extends() -> list[bool]:
        with open("h4scan.csv") as handle:
            rows = handle.read().splitlines()[1:]
        return [float(row.split(",")[-1]) >= 30.0 - 1e-6 for row in rows]

    def had3_summary() -> dict:
        with open("had3.jsonl") as handle:
            return json.loads(handle.read().splitlines()[-1])["summary"]

    verify_h = json.loads(stdout["verify hadamard"])
    verify_m = json.loads(stdout["verify mubset"])
    census, bases = load("census.json"), load("bases.json")
    report = json.loads(stdout["report bases.json"])
    distance = json.loads(stdout["distance f6.json"])["chordal_distance_sq"]
    ks, summary, spread = load("ks.json"), had3_summary(), load("spread.json")
    return [
        ("verify hadamard: 0 failures", verify_h["failures"] == 0),
        ("verify mubset: 36 checks, 0 failures",
         verify_m["failures"] == 0 and len(verify_m["reports"]) == 36),
        ("table: prime-7 set at pairwise D2 = 6", table_ok()),
        ("distance: 0 <= D2 <= 5", 0.0 <= distance <= 5.0),
        ("ks-check: uncolourable, no real MUB pair in R^3",
         ks["kochen_specker"]["uncolourable"] and not ks["real3"]["mub_pair_exists"]),
        ("census: 48 sequences, status ok",
         len(census["sequences"]) == 48 and census["metadata"]["status"] == "ok"),
        ("assemble: 16 bases", len(bases["bases"]) == 16),
        ("report: 16 bases, global max below 4.9",
         report["summary"][0].startswith("bases: 16") and report["stats"]["global_max"] < 4.9),
        ("search hadamards k=3: complete, 12 matrices in 1 bucket",
         summary["complete"] and summary["matrices"] == 12 and summary["buckets"] == 1),
        ("optimize: objective within the bound",
         0.0 < spread["best_objective"] <= spread["upper_bound"] + 1e-9),
        ("scan h4: extends to five bases exactly at phi = 0 and pi",
         h4_extends() == [True, False, True, False]),
        ("verify unbiased f6 f6: 1 failure", json.loads(stdout["verify unbiased"])["failures"] == 1),
    ]


def _census_cli(seed: int, check) -> None:
    """The census pipeline through the Python API, then the README CLI sequence."""
    _census(seed, check)
    _cli_pipeline(seed, check)


BODIES = {"search-k12": _search_k12, "census-cli": _census_cli}


def main(spec_path: str) -> None:
    with open(spec_path) as handle:
        spec = json.load(handle)
    import mubtools  # noqa: F401  (the set-up being timed)

    out = {"ready": time.monotonic()}
    if not spec["setup_only"]:
        os.chdir(spec["work"])
        tracer = None
        if spec["trace"]:
            tracer = Tracer(spec["run_id"], spec["parent_span"])
            install_tracing(tracer)
        checks = []
        BODIES[spec["workload"]](spec["seed"], lambda name, ok: checks.append([name, bool(ok)]))
        out.update(done=time.monotonic(), checks=checks, exit_mismatches=sum(
            1 for name, ok in checks if name.startswith(EXIT_CHECK) and not ok))
        if tracer is not None:
            out["trace"] = tracer.dump()
    with open(spec["result"], "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1])
