"""Which ``def``s under ``src/repro`` no shipped entry point calls.

Under one profile hook it runs what the repository ships: the examples,
the six bench workloads at seed 1234, CLI invocations covering every
subcommand, two seeds of each chaos cell and the tier-2 figure tests.  It
records reach only (test outcomes are ignored), prints every ``def`` none
of them called — outermost only, with its line count — and exits 1 when
there are more than ``CEILING``::

    python benchmarks/reach.py
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: The not-reached count may only fall: code no shipped run calls is not
#: part of the reproduction, so a change that adds some must use it or go.
CEILING = 130

CLI = [["markets"], ["select", "--mode", "interactive"], ["advise"],
       ["canonical", "--runs", "3"], ["longrun", "--nodes", "100", "--weeks", "0.5"],
       ["serve", "--queries", "2"], ["serve", "--policy", "fifo", "--revoke", "--queries", "2"],
       ["serve", "--queries", "2", "--clients", "2", "--tenant-quota", "8", "--tenant-rate", "5",
        "--breaker-threshold", "10", "--retry-attempts", "2", "--result-cache",
        "--journal", "{tmp}/journal.jsonl"]]
CLI += [["run", "--workload", w] for w in ("pagerank", "kmeans", "als", "tpch", "streaming")]
CLI += [["trace", s, "--out", "{tmp}/t.json"]
        for s in ("multitenant", "storm", "streaming", "pagerank", "kmeans", "als")]
CHAOS = [["--workload", w] for w in ("PageRank", "KMeans", "ALS")] + [
    ["--workload", w, "--family", f]
    for w, f in (("MultiJob", "multijob"), ("Streaming", "streaming"), ("Tenancy", "tenancy"))]

reached = set()


def hook(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


def install():
    sys.setprofile(hook)
    threading.setprofile(hook)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    install()  # pytest-benchmark's pedantic mode clears the profile hook
    yield


def run_everything(tmp):
    from bench.workloads import WORKLOADS
    from repro.cli import main as cli
    from repro.faults.chaos import main as chaos

    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")
    for workload in WORKLOADS.values():
        workload.run(1234, tmp)
    for argv in CLI:
        cli([arg.format(tmp=tmp) for arg in argv])
    for argv in CHAOS:
        chaos(["--seeds", "2"] + argv)
    pytest.main(["-q", "-m", "tier2", "-p", "no:cacheprovider", "--benchmark-disable",
                 str(ROOT / "benchmarks")], plugins=[sys.modules[__name__]])


def not_reached():
    starts = {(code.co_filename, code.co_firstlineno) for code in reached}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), first) not in starts:
                    yield str(path.relative_to(ROOT)), node.lineno, node.name, (
                        node.end_lineno - first + 1)
                    continue
            stack.extend(ast.iter_child_nodes(node))


def main():
    install()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        run_everything(tmp)
    sys.setprofile(None)
    threading.setprofile(None)
    rows = sorted(not_reached())
    for path, line, name, lines in rows:
        print(f"{path}:{line}  {name}  ({lines} lines)")
    print(f"not reached: {len(rows)} defs, {sum(r[3] for r in rows)} lines (ceiling {CEILING})")
    return 1 if len(rows) > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
