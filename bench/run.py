"""The repo benchmark: six workloads, four end-to-end metrics, a layer trace.

    python bench/run.py [--workload W] [--seed 1234] [--seconds S] [--trace [0|1]]
                        [--reps N] [--out FILE] [--write-expected]

Each workload runs in child processes of its own (sequentially, inline
executor, one BLAS thread, the ``FLINT_*`` plane pinned below and recorded
in the output).  The harness is a closed loop with one client: repetitions
run back to back, each on fresh engine contexts, ``gc.collect()`` before
each.  Outputs are checked, never timed.

``--trace 0`` (default) reports the end-to-end metrics from untraced
repetitions.  ``--trace 1`` reports the per-layer metrics: a few untraced
repetitions for the overhead baseline, then two repetitions with the
wrappers of ``bench/trace.py`` installed; spans go to
``bench/out/trace_<workload>.jsonl``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the (last) workload run.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
if not __package__:
    # Run as a script, sys.path[0] is bench/ itself, where ``trace.py`` and
    # ``stats.py`` would shadow any top-level module of those names.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != _HERE]
    sys.path.insert(0, _ROOT)

from bench import SRC  # noqa: E402

OUT_DIR = os.path.join(_HERE, "out")
EXPECTED_PATH = os.path.join(_HERE, "expected.json")
PINNED_SEED = 1234

#: The plane every child runs on.  Any other ``FLINT_*`` variable in the
#: caller's environment (``FLINT_PROFILE``, ``FLINT_FAULT_PLAN``, ...) is
#: dropped, not inherited.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "FLINT_SCHEDULER": "incremental",
    "FLINT_FUSION": "on",
    "FLINT_COLUMNAR": "on",
    "FLINT_EXECUTOR": "inline",
    "FLINT_TRACE": "0",
    # Simulated results do not depend on it; set iteration order does, and
    # with it a few percent of wall time from run to run.
    "PYTHONHASHSEED": "0",
}

#: Set-ups per untraced run.  The first child goes on to measure; the
#: others exit after their warm-up, so ``setup_s`` is a median and not one
#: sample of a 3 s interval on a host whose speed wanders.
SETUPS = 2
TRACED_REPS = 2
MAX_ERRORS = 3


def child_env(base: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = {
        key: value
        for key, value in (os.environ if base is None else base).items()
        if not key.startswith("FLINT_")
    }
    env.update(PINNED_ENV)
    return env


# ----------------------------------------------------------------------
# Child: one process, one workload
# ----------------------------------------------------------------------
def _traced_pass(workload, seed: int, out: Dict[str, Any], record) -> None:
    """Two repetitions under the wrappers; fills ``out["layers"]``."""
    from bench import metrics, trace

    tracer = trace.Tracer()
    counters: Dict[str, float] = {}
    traced_walls: List[float] = []
    tracer.install()
    try:
        traced_run = tracer.wrap(workload.run, trace.ROOT_SPAN)
        for tracer.rep in range(TRACED_REPS):
            gc.collect()
            try:
                rep = traced_run(seed, OUT_DIR)
            except Exception:
                out["errors"].append(traceback.format_exc(limit=8))
                continue
            traced_walls.append(rep.wall_s)
            metrics.read_counters(tracer.take_instances(), counters)
            for key, value in rep.facts.items():
                counters[key] = counters.get(key, 0) + value
            record(rep)
            del rep
    finally:
        tracer.remove()
    if traced_walls and out["walls"]:
        values, notes = metrics.per_layer_values(
            tracer.spans, counters, len(traced_walls), traced_walls,
            out["walls"], tracer.events_scheduled, tracer.events_stepped,
        )
        out["layers"] = {"values": values, "notes": notes, "traced_walls": traced_walls}
    with open(os.path.join(OUT_DIR, f"trace_{workload.name}.jsonl"), "w",
              encoding="utf-8") as fh:
        # Span names are dotted identifiers, so formatting by hand is valid
        # JSON and several times faster than 300k json.dumps calls.
        fh.writelines(
            '{"name":"%s","start":%r,"end":%r,"parent":%d,"rep":%d}\n' % tuple(span)
            for span in tracer.spans
        )


def child_main(args: argparse.Namespace) -> int:
    from bench import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    # One full untimed warm-up repetition: caches fill, lazy imports land.
    workload.run(args.seed, OUT_DIR)
    gc.collect()
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": time.time() - args.spawned_at,
        "walls": [], "units": [], "digests": [], "errors": [],
        "check_error": None,
        "layers": None,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0
    check_pending = True

    def record(rep) -> None:
        """Book one repetition; the first also takes the reference check.

        Every repetition must reproduce that one's digest, so one check
        covers them all.  The caller drops ``rep`` before the next one runs:
        a repetition kept alive would make peak memory depend on how many
        repetitions fit into ``--seconds``.
        """
        nonlocal check_pending
        out["units"].append(rep.units)
        out["digests"].append(rep.digest)
        if check_pending:
            check_pending = False
            try:
                workload.check(rep)
            except workloads.CheckFailed as exc:
                out["check_error"] = str(exc)

    # At least one repetition, then until --reps are done or --seconds of
    # repetitions (their set-up included) have passed.  A workload that
    # raises at once would otherwise fail thousands of times in --seconds.
    measuring = 0.0
    for done in itertools.count(1):
        gc.collect()
        started = time.perf_counter()
        try:
            rep = workload.run(args.seed, OUT_DIR)
        except Exception:
            out["errors"].append(traceback.format_exc(limit=8))
        else:
            out["walls"].append(rep.wall_s)
            record(rep)
            del rep
        measuring += time.perf_counter() - started
        if (done >= args.reps) if args.reps is not None else (measuring >= args.seconds):
            break
        if len(out["errors"]) >= MAX_ERRORS:
            break

    if args.trace:
        _traced_pass(workload, args.seed, out, record)

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


# ----------------------------------------------------------------------
# Parent: spawn, aggregate, report
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", _ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(_ROOT)},
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "env": dict(PINNED_ENV),
    }


def spawn_child(
    name: str, args: argparse.Namespace, seconds: float, setup_only: bool = False
) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace), "--spawned-at", repr(time.time()),
    ]
    if args.reps is not None:
        command += ["--reps", str(args.reps)]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, env=child_env(), stdout=subprocess.PIPE, text=True,
                          cwd=_ROOT)
    if done.returncode != 0:
        raise SystemExit(f"bench: child for {name} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args: argparse.Namespace, host: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload; returns its full result document."""
    from bench import metrics, workloads

    workload = workloads.WORKLOADS[name]
    # A traced run spends the other half of its time on the traced pass.
    child = spawn_child(name, args, args.seconds / 2 if args.trace else args.seconds)
    setups = [child["setup_s"]]
    if not args.trace:
        setups += [
            spawn_child(name, args, args.seconds, setup_only=True)["setup_s"]
            for _ in range(SETUPS - 1)
        ]

    walls, digests, units, errors = (
        child["walls"], child["digests"], child["units"], child["errors"]
    )
    problems = [child["check_error"]] if child["check_error"] else []
    reference = digests[0] if digests else None
    strays = sum(1 for d in digests if d != reference)
    if strays:
        problems.append(f"{strays} repetitions produced a different simulated digest")
    if len(set(units)) > 1:
        problems.append(f"work-unit count did not repeat: {sorted(set(units))}")
    if args.seed == PINNED_SEED and not args.write_expected:
        pinned = load_expected()["workloads"][name]
        if reference != pinned["digest"] or (units and units[0] != pinned["units"]):
            problems.append(
                f"seed {PINNED_SEED} digest/units {reference}/{units[:1]} differ from "
                f"the pinned {pinned['digest']}/{pinned['units']}"
            )
    attempted = len(digests) + len(errors)
    # A failed reference check condemns every repetition that shares its
    # digest, which is all that did not already count as strays.
    failed = attempted if child["check_error"] else len(errors) + strays
    correct = not problems and not errors and bool(walls)

    doc: Dict[str, Any] = {
        "workload": name, "seed": args.seed, "trace": args.trace, "host": host,
        "digest": reference, "units": units[0] if units else None, "unit": workload.unit,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems + errors,
        "samples": {}, "metrics": {},
    }
    if not walls:
        return doc
    if args.trace:
        layers = child["layers"]
        if layers is None:
            doc["correct"] = False
            doc["problems"].append("the traced pass produced no repetition")
            return doc
        doc["metrics"] = {
            metric: {"value": layers["values"][metric], "unit": unit}
            for metric, unit, _better in metrics.PER_LAYER
        }
        doc["notes"] = layers["notes"]
        doc["samples"] = {"wall_s": walls, "traced_wall_s": layers["traced_walls"]}
        return doc
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "tasks_per_s": units[0] / wall,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    doc["samples"] = {"setup_s": setups, "wall_s": walls}
    doc["metrics"] = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit, _better, _bound in metrics.END_TO_END
    }
    return doc


def print_report(doc: Dict[str, Any]) -> None:
    from bench import metrics, stats, trace

    digest = (doc["digest"] or "-")[:16]
    print(f"== {doc['workload']}  seed={doc['seed']}  attempted={doc['attempted']}  "
          f"failed={doc['failed']}  correct={doc['correct']}  digest={digest}  "
          f"units={doc['units']} {doc['unit']}")
    for problem in doc["problems"]:
        print(f"   PROBLEM: {problem}")
    values = doc["metrics"]
    if not values:
        return
    if not doc["trace"]:
        counts = {"setup_s": len(doc["samples"]["setup_s"]), "peak_rss_mb": 1}
        counts["wall_s"] = counts["tasks_per_s"] = len(doc["samples"]["wall_s"])
        q1, q3 = stats.quartiles(doc["samples"]["wall_s"])
        for name, unit, better, bound in metrics.END_TO_END:
            extra = f"  q1={q1:.4f} q3={q3:.4f} (printed, not gated)" if name == "wall_s" else ""
            print(f"   {name:<14}{values[name]['value']:>12.4f} {unit:<4} n={counts[name]}  "
                  f"{better} is better, bound {bound:.0%}{extra}")
        return
    print(f"   {'layer':<14}{'calls':>10}{'self_s':>10}{'share':>8}")
    total = 0.0
    for layer in trace.LAYERS:
        share = values[f"{layer}.share"]["value"]
        total += share
        print(f"   {layer:<14}{values[f'{layer}.calls']['value']:>10.0f}"
              f"{values[f'{layer}.self_s']['value']:>10.4f}{share:>8.3f}")
    print(f"   {'(sum)':<14}{'':>20}{total:>8.3f}")
    for name, unit, _better in metrics.COUNTERS:
        note = doc["notes"].get(name)
        extra = ""
        if note is not None:
            which = f"p{note['percentile_used']}" if note["percentile_used"] else "median"
            extra = f"  ({which} of {note['samples']})"
        print(f"   {name:<38}{values[name]['value']:>16.6g} {unit}{extra}")


def contract_line(doc: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    })


def write_expected(docs: List[Dict[str, Any]]) -> None:
    try:
        expected = load_expected()
    except FileNotFoundError:
        expected = {"seed": PINNED_SEED, "workloads": {}}
    for doc in docs:
        if not doc["correct"]:
            raise SystemExit(f"bench: refusing to pin {doc['workload']}: {doc['problems']}")
        expected["workloads"][doc["workload"]] = {
            "digest": doc["digest"], "units": doc["units"],
        }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from bench import metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                        help="how long the untraced measuring loops run in total")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced repetitions per child, instead of --seconds")
    parser.add_argument("--out", help="append one JSON line per workload run")
    parser.add_argument("--write-expected", action="store_true",
                        help=f"regenerate bench/expected.json (forces --seed {PINNED_SEED})")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_expected:
        args.seed = PINNED_SEED
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    from bench import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    host = host_fingerprint()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    docs = []
    for name in names:
        doc = run_workload(name, args, host)
        docs.append(doc)
        print_report(doc)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True))
                fh.write("\n")
    if args.write_expected:
        write_expected(docs)
    print(contract_line(docs[-1]))
    return 0 if all(doc["correct"] for doc in docs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
