"""Compare two sets of benchmark runs: the A/A and A/B tool.

    python bench/compare.py A.jsonl B.jsonl

Each file holds the lines ``run.py --out FILE`` appended, any number of
untraced runs per workload (run ten, each with another ``--seed``).  For
every (end-to-end metric x workload) row this prints both medians, both
quartile pairs, the relative change of B against A (positive = worse) and a
verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  it is not, but one side's quartile distance is wider than
                  the bound, so "unchanged" cannot be claimed either;
* ``ok``          otherwise.

Simulated work does not depend on the host, so wherever both files ran the
same (workload, seed) their simulated digests and work-unit counts must be
identical.  Exits non-zero on any ``worse`` row or digest difference.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

if not __package__:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import metrics, stats  # noqa: E402


def load(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced run documents by workload, in file order."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            if not doc["trace"]:
                runs.setdefault(doc["workload"], []).append(doc)
    return runs


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, str]:
    """``(relative worsening of B against A, verdict)``."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / med_a
    if better == "higher":
        change = -change
    if change > bound:
        return change, "worse"
    if max(stats.iqr_frac(a), stats.iqr_frac(b)) > bound:
        return change, "unresolved"
    return change, "ok"


def digest_problems(a_runs, b_runs) -> List[str]:
    problems = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        if workload not in a_runs or workload not in b_runs:
            problems.append(f"{workload}: present in only one file")
            continue
        for side, runs in (("A", a_runs[workload]), ("B", b_runs[workload])):
            bad = [doc["seed"] for doc in runs if not doc["correct"]]
            if bad:
                problems.append(f"{workload}: {side} has incorrect runs for seeds {bad}")
        seen = {doc["seed"]: (doc["digest"], doc["units"]) for doc in a_runs[workload]}
        for doc in b_runs[workload]:
            expected = seen.get(doc["seed"])
            if expected is not None and expected != (doc["digest"], doc["units"]):
                problems.append(
                    f"{workload} seed {doc['seed']}: simulated digest/units "
                    f"{doc['digest'][:12]}/{doc['units']} != {expected[0][:12]}/{expected[1]}"
                )
    return problems


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    problems = digest_problems(a_runs, b_runs)
    worse = 0
    header = (f"{'workload':<16}{'metric':<13}{'n':>5} {'A median':>11} {'A q1..q3':>21} "
              f"{'B median':>11} {'B q1..q3':>21} {'change':>8}  verdict")
    print(header)
    for workload in sorted(set(a_runs) & set(b_runs)):
        for name, _unit, better, bound in metrics.END_TO_END:
            a = [doc["metrics"][name]["value"] for doc in a_runs[workload] if doc["metrics"]]
            b = [doc["metrics"][name]["value"] for doc in b_runs[workload] if doc["metrics"]]
            if not a or not b:
                problems.append(f"{workload}: no {name} samples on one side")
                continue
            change, result = verdict(a, b, better, bound)
            worse += result == "worse"
            (a1, a3), (b1, b3) = stats.quartiles(a), stats.quartiles(b)
            print(f"{workload:<16}{name:<13}{len(a):>2}/{len(b):<2} "
                  f"{statistics.median(a):>11.4f} {a1:>10.4f}..{a3:<9.4f} "
                  f"{statistics.median(b):>11.4f} {b1:>10.4f}..{b3:<9.4f} "
                  f"{change:>+8.1%}  {result} (bound {bound:.0%})")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if worse or problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
