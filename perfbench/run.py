"""mubtools benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Workloads (see NOTES.md for why each exists):

    search-k12  exact k = 12 Hadamard -> triplet -> quartet search
    census-cli  three Newton censuses, file round trips, assembly, report and
                the exact k = 12 / k = 24 root censuses; then the README CLI
                sequence through mubtools.cli.main

Every repetition runs in a fresh interpreter (perfbench/child.py), so import
and lazy set-up cost what a CLI user pays.  The run repeats the workload
while the next repetition is predicted to end within --seconds (at least
once), checks every pinned answer, prints each metric by name and unit and,
as its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  The full record (machine, versions, raw
samples, spans) goes to .perfbench/results/, where compare.py reads it.
Exit status: 0 when every answer matches, 1 on a mismatch, 2 when the run
itself cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
WORK = ROOT / ".perfbench" / "work"
WORKLOADS = ("search-k12", "census-cli")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
MIN_SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OPENBLAS_MAIN_FREE")


class BenchError(RuntimeError):
    """The run cannot be made (missing program, crashed child, deadline)."""


# ---------------------------------------------------------------------------
# Child processes


class Runner:
    """Spawns children one at a time and keeps their raw samples and spans."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.t0 = time.monotonic()
        self.run_id = f"{workload}-s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        self.work = WORK / self.run_id
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.spans: list[dict] = []
        self.n_children = 0

    def child(self, setup_only: bool) -> dict:
        """Run one fresh-interpreter repetition (or set-up probe) to completion.

        Returns its spawn, ready, done and exit times, exit code, rusage and
        the result the child wrote.
        """
        self.n_children += 1
        name = "setup" if setup_only else "repetition"
        span_id = f"parent.{self.n_children}"
        stem = self.work / f"child{self.n_children:03d}"
        stem.mkdir()
        spec = {"workload": self.workload, "seed": self.seed, "setup_only": setup_only,
                "trace": self.trace, "run_id": self.run_id, "parent_span": span_id,
                "work": str(stem), "result": f"{stem}.json"}
        Path(f"{stem}.spec.json").write_text(json.dumps(spec))
        argv = [sys.executable] + (["-X", "importtime"] if self.trace else []) + [
            str(HERE / "child.py"), f"{stem}.spec.json"]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.t0)
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s before {name} {self.n_children}")
        with open(f"{stem}.err", "wb") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        exit_t = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if exit_t - self.t0 >= RUN_LIMIT_S:
            raise BenchError(f"{name} {self.n_children} killed at the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0 or not Path(f"{stem}.json").exists():
            tail = Path(f"{stem}.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"{name} {self.n_children} exited with {proc.returncode}:\n{tail}")
        self.spans.append({"id": span_id, "name": name, "start": spawn, "end": exit_t,
                           "parent": "parent.0", "run": self.run_id})
        sample = {"name": name, "spawn": spawn, "exit": exit_t,
                  "cpu": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss,
                  "importtime": parse_importtime(Path(f"{stem}.err")) if self.trace else None}
        sample.update(json.loads(Path(f"{stem}.json").read_text()))
        sample["setup"] = sample["ready"] - spawn
        return sample


def parse_importtime(stderr: Path) -> dict[str, float]:
    """Seconds spent importing mubtools, scipy and numpy, from `-X importtime` lines.

    Each figure sums the cumulative time of the outermost imports of that
    package, so numpy pulled in by mubtools counts for both.
    """
    lines = []
    for line in stderr.read_text(errors="replace").splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = len(name) - len(name.lstrip(" "))
        lines.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = Counter()
    stack: list[tuple[int, str]] = []  # ancestors of the current line, in reverse order
    for depth, name, cumulative in reversed(lines):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in ("mubtools", "scipy", "numpy") and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {f"import.{top}_s": totals[top] for top in ("mubtools", "scipy", "numpy")}


def measure(runner: Runner, seconds: float) -> tuple[list[dict], list[dict]]:
    """Repetitions while the next is predicted to end within `seconds` (at least one),
    then set-up probes until the run holds MIN_SETUP_SAMPLES set-up samples."""
    start = time.monotonic()
    reps = []
    while True:
        before = time.monotonic()
        reps.append(runner.child(setup_only=False))
        took = time.monotonic() - before
        if time.monotonic() - start + took > seconds:
            break
    probes = [runner.child(setup_only=True)
              for _ in range(MIN_SETUP_SAMPLES - len(reps))]
    return reps, probes


# ---------------------------------------------------------------------------
# Metrics


def p90(values: list[float]) -> float:
    """90th percentile by linear interpolation; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(reps: list[dict], probes: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["done"] - r["ready"] for r in reps),
        "setup_s": statistics.median(c["setup"] for c in reps + probes),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "peak_rss_mb": max(r["rss_kb"] for r in reps) / 1024.0,
    }


# Every per-layer figure of a repetition, with its unit.  Counts are exact and
# must repeat from repetition to repetition; times are medians over the run.
LAYER_UNITS = {
    "search.hadamards_s": "s", "search.triplets_s": "s", "search.quartets_s": "s",
    "search.nodes_hadamards": "count", "search.nodes_triplets": "count",
    "search.nodes_quartets": "count", "search.hadamards": "count", "search.buckets": "count",
    "search.triplets": "count", "search.quartets": "count",
    "core.haagerup_s": "s", "core.haagerup_calls": "count",
    "search.unbiased_vectors_s": "s", "search.candidates_per_s": "1/s",
    "biunimodular.newton_s": "s", "biunimodular.restarts_used": "count",
    "biunimodular.solutions_per_restart": "1", "biunimodular.assemble_s": "s",
    "biunimodular.report_s": "s", "biunimodular.bases": "count",
    "grassmann.distance_table_s": "s",
    "io.dumps_s": "s", "io.loads_s": "s", "io.census_bytes": "count",
    "optimize.ascents": "count", "optimize.trials": "count", "optimize.ascent_p50_s": "s",
    "optimize.ascent_p90_s": "s", "optimize.s_per_trial": "s",
    "optimize.spread_and_grads_calls": "count", "optimize.spread_and_grads_s": "s",
    "optimize.expm_calls": "count", "optimize.expm_s": "s",
    "optimize.stop_target": "count", "optimize.stop_cap": "count", "optimize.stop_other": "count",
    "cli.exit_mismatches": "count",
}
EXACT_UNITS = ("count", "1")
CANDIDATES_K24 = 24 ** 5


def rep_layers(trace: dict) -> dict[str, float]:
    """Per-layer figures of one repetition from its trace dump."""
    spans, calls, seconds = trace["spans"], Counter(trace["calls"]), Counter(trace["seconds"])
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name, keep=lambda attrs: True):
        return sum(s["end"] - s["start"] for s in by_name[name] if keep(s.get("attrs")))

    def attr_sum(name, key, keep=lambda value: True):
        return sum(s["attrs"][key] for s in by_name[name] if keep(s["attrs"][key]))

    ascents = [s["end"] - s["start"] for s in by_name["optimize.ascent"]]
    trials = attr_sum("optimize.ascent", "trials")
    restarts = attr_sum("biunimodular.newton", "restarts")
    k24_s = total("search.unbiased_vectors", lambda a: a["k"] == 24)
    k24_calls = sum(1 for s in by_name["search.unbiased_vectors"] if s["attrs"]["k"] == 24)
    stops = Counter(s["attrs"]["stop"] for s in by_name["optimize.ascent"])
    figures = {
        "search.hadamards_s": total("search.hadamards"),
        "search.triplets_s": total("search.triplets"),
        "search.quartets_s": total("search.quartets"),
        "search.nodes_hadamards": attr_sum("search.hadamards", "nodes"),
        "search.nodes_triplets": attr_sum("search.triplets", "nodes"),
        "search.nodes_quartets": attr_sum("search.quartets", "nodes"),
        "search.hadamards": attr_sum("search.hadamards", "results"),
        "search.buckets": attr_sum("search.hadamards", "buckets"),
        "search.triplets": attr_sum("search.triplets", "results"),
        "search.quartets": attr_sum("search.quartets", "results"),
        "core.haagerup_s": seconds["core.haagerup"],
        "core.haagerup_calls": calls["core.haagerup"],
        "search.unbiased_vectors_s": k24_s,
        "search.candidates_per_s": k24_calls * CANDIDATES_K24 / k24_s if k24_s else 0.0,
        "biunimodular.newton_s": total("biunimodular.newton"),
        "biunimodular.restarts_used": restarts,
        "biunimodular.solutions_per_restart":
            attr_sum("biunimodular.newton", "solutions") / restarts if restarts else 0.0,
        "biunimodular.assemble_s": total("biunimodular.assemble"),
        "biunimodular.report_s": total("biunimodular.report"),
        "biunimodular.bases": attr_sum("biunimodular.assemble", "bases"),
        "grassmann.distance_table_s": total("grassmann.distance_table"),
        "io.dumps_s": total("io.dumps"),
        "io.loads_s": total("io.loads"),
        "io.census_bytes": sum(s["attrs"]["bytes"] for s in by_name["io.dumps"] if s["attrs"]["census"]),
        "optimize.ascents": len(ascents),
        "optimize.trials": trials,
        "optimize.ascent_p50_s": statistics.median(ascents) if ascents else 0.0,
        "optimize.ascent_p90_s": p90(ascents) if ascents else 0.0,
        "optimize.s_per_trial": sum(ascents) / trials if trials else 0.0,
        "optimize.spread_and_grads_calls": calls["optimize.spread_and_grads"],
        "optimize.spread_and_grads_s": seconds["optimize.spread_and_grads"],
        "optimize.expm_calls": calls["optimize.expm"],
        "optimize.expm_s": seconds["optimize.expm"],
        "optimize.stop_target": stops["target"],
        "optimize.stop_cap": stops["cap"],
        "optimize.stop_other": stops["other"],
    }
    for span in by_name["cli.main"]:
        key = f"cli.{span['attrs']['subcommand']}_s"
        figures[key] = figures.get(key, 0.0) + span["end"] - span["start"]
    return figures


def per_layer(reps: list[dict], probes: list[dict], wall_s: float
              ) -> tuple[dict[str, float], dict[str, str], bool]:
    """Medians of the repetition figures, the CLI and import figures, and whether counts repeat."""
    figures = []
    for r in reps:
        f = rep_layers(r["trace"])
        f["cli.exit_mismatches"] = r["exit_mismatches"]
        figures.append(f)
    units_of = dict(LAYER_UNITS)
    units_of.update({name: "s" for f in figures for name in f if name.startswith("cli.")
                     and name.endswith("_s")})
    metrics, repeat_ok = {}, True
    for name, unit in units_of.items():
        values = [f.get(name, 0.0) for f in figures]
        if unit in EXACT_UNITS:
            repeat_ok &= len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    for name in ("import.mubtools_s", "import.scipy_s", "import.numpy_s"):
        metrics[name] = statistics.median(c["importtime"][name] for c in reps + probes)
        units_of[name] = "s"
    metrics["trace.wall_s"] = wall_s
    units_of["trace.wall_s"] = "s"
    return metrics, units_of, repeat_ok


# ---------------------------------------------------------------------------
# Record


def environment() -> dict:
    """Machine, versions and source identity, read after all timing is done."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def benchmark_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mubtools" / "__init__.py").is_file():
        print(f"error: no mubtools source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    trace = bool(args.trace)
    wanted = benchmark_metrics(trace)

    runner = Runner(args.workload, args.seed, trace)
    started_unix, start = time.time(), time.monotonic()
    try:
        reps, probes = measure(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        end = time.monotonic()
        shutil.rmtree(runner.work, ignore_errors=True)
    runner.spans.append({"id": "parent.0", "name": f"run.{args.workload}", "start": start,
                         "end": end, "parent": None, "run": runner.run_id})

    metrics = end_to_end(reps, probes)
    checks = [c for r in reps for c in r["checks"]]
    metric_units = {m["name"]: m["unit"] for m in benchmark_metrics(False)}
    layer_metrics = {}
    if trace:
        layer_metrics, layer_units, counts_repeat = per_layer(reps, probes, metrics["wall_s"])
        checks.append(["exact counts repeat across repetitions", counts_repeat])
        metric_units.update(layer_units)
    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)

    reported = layer_metrics if trace else metrics
    missing = [m["name"] for m in wanted if m["name"] not in reported]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not produce: {missing}",
              file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  repetitions {len(reps)}  set-up probes {len(probes)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {metric_units[name]}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6f} ({failed} of {attempted} checks)")
    for name in sorted(layer_metrics):
        print(f"  {name:34s} {layer_metrics[name]:14.6f} {metric_units[name]}")
    for name, ok in checks:
        if not ok:
            print(f"  MISMATCH: {name}")

    RESULTS.joinpath(args.workload, f"trace{args.trace}").mkdir(parents=True, exist_ok=True)
    record_path = RESULTS / args.workload / f"trace{args.trace}" / f"{runner.run_id}.json"
    record = {
        "run_id": runner.run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started_unix": started_unix,
        "environment": environment(),
        "metrics": {name: {"value": v, "unit": metric_units[name]}
                    for name, v in {**metrics, **layer_metrics}.items()},
        "checks": checks, "attempted": attempted, "failed": failed,
        "samples": [{k: v for k, v in c.items() if k not in ("trace", "checks")}
                    for c in reps + probes],
        "spans": runner.spans + [s for r in reps if "trace" in r for s in r["trace"]["spans"]],
    }
    record_path.write_text(json.dumps(record))
    print(f"record: {record_path.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
