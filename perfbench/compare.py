"""Compare the benchmark records of two commits.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory holding run records as run.py writes them
(`.perfbench/results` of a checkout, or a copy of it).  Run the two sides
alternately (parent, change, change, parent, ...) with the same --seconds;
the i-th run of a workload on one side is paired with the i-th run of the
same workload and trace setting on the other, in start order.

For every workload and metric the report gives each side's median and
quartiles, the change in the median, the share of pairs the change wins
(ties count for neither) and a verdict:

    improved    the change wins at least 9 of 10 pairs and the medians differ
                by more than the parent's own quartile spread
    regressed   the change's median is worse than the parent's by more than
                the metric's bound (BENCHMARK.json) and the parent's spread is
                within that bound; for metrics without a bound, the change
                loses at least 9 of 10 pairs by more than the parent's spread
    unresolved  the parent's spread is wider than the bound, and not every
                run of the change is better than every run of the parent
    unchanged   otherwise

Exact counts (unit `count`) are compared pair by pair for equality instead,
which is meaningful when both sides ran the same seeds in the same order.  Each side's
tracing overhead is its median traced wall time minus its median untraced
wall time, per workload.  Exit status 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_records(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Records by (workload, trace), each list in start order."""
    groups = defaultdict(list)
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        groups[(record["workload"], record["trace"])].append(record)
    for runs in groups.values():
        runs.sort(key=lambda r: r["started_unix"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], lower_better: bool, bound: float | None) -> dict:
    """Medians, quartiles, win share and verdict of change `b` against parent `a`."""
    sign = 1.0 if lower_better else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = a3 - a1
    worse = sign * (bm - am) / abs(am) if am else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * (bm - am) < 0 and abs(bm - am) > spread:
        call = "improved"
    elif bound is None:
        regressed = pairs and losses >= WIN_SHARE * len(pairs) and abs(bm - am) > spread
        call = "regressed" if regressed else "unchanged"
    elif worse > bound:
        call = "regressed" if (spread / abs(am) if am else 0.0) <= bound or all_worse else "unresolved"
    elif am and spread / abs(am) > bound and not all_better:
        call = "unresolved"
    else:
        call = "unchanged"
    return {"a": (a1, am, a3), "b": (b1, bm, b3), "change": (bm - am) / abs(am) if am else 0.0,
            "wins": wins, "pairs": len(pairs), "verdict": call}


def tracing_overhead(groups, workload: str) -> float | None:
    traced = [r["metrics"]["trace.wall_s"]["value"] for r in groups.get((workload, 1), [])]
    plain = [r["metrics"]["wall_s"]["value"] for r in groups.get((workload, 0), [])]
    if not traced or not plain:
        return None
    return statistics.median(traced) - statistics.median(plain)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = (load_records(Path(p)) for p in argv)
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        a_runs, b_runs = parent[key], change[key]
        print(f"\n{workload}  trace {trace}  parent runs {len(a_runs)}  change runs {len(b_runs)}")
        a_failed = sum(r["failed"] for r in a_runs)
        b_failed = sum(r["failed"] for r in b_runs)
        print(f"  failed checks: parent {a_failed} of {sum(r['attempted'] for r in a_runs)}, "
              f"change {b_failed} of {sum(r['attempted'] for r in b_runs)}")
        regressed |= b_failed > a_failed
        names = [n for n in a_runs[0]["metrics"] if all(n in r["metrics"] for r in a_runs + b_runs)]
        for name in names:
            unit = a_runs[0]["metrics"][name]["unit"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            if unit == "count":
                equal = sum(1 for x, y in zip(a, b) if x == y)
                print(f"  {name:34s} parent median {statistics.median(a):.6g}  change median "
                      f"{statistics.median(b):.6g}  equal in {equal}/{min(len(a), len(b))} pairs")
                continue
            v = verdict(a, b, lower.get(name, True), bounds.get(name) if trace == 0 else None)
            regressed |= v["verdict"] == "regressed"
            (a1, am, a3), (b1, bm, b3) = v["a"], v["b"]
            print(f"  {name:34s} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  change {bm:.6g} "
                  f"[{b1:.6g}, {b3:.6g}] {unit}  {v['change']:+.1%}  wins {v['wins']}/{v['pairs']}"
                  f"  {v['verdict']}")
    for name, groups in (("parent", parent), ("change", change)):
        for workload in sorted({w for w, _ in groups}):
            overhead = tracing_overhead(groups, workload)
            if overhead is not None:
                print(f"tracing overhead, {name}, {workload}: {overhead:+.6f} s")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
