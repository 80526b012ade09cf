"""The engine's settable options, pinned so that they can only shrink.

Every mode the user can set is a configuration the tests must hold
bit-identical, so a new environment variable or CLI flag has to be added
here on purpose.  The data plane, for one, is chosen by the engine from
what it observes (kernels, batch sizes, refusals) and has no option.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``add_argument`` calls in ``cli.py``; lower it when a flag goes.
CLI_ADD_ARGUMENT_CALLS = 48

#: ``def``s taking each retired parameter: none.  ``batch_fn=`` was a
#: kernel twin (a stage's kernel comes only from its declared operator,
#: ``repro.engine.declared``); ``map_side_combine=`` chose a shuffle shape
#: (an aggregator always combines map-side).
RETIRED_PARAMETERS = {"batch_fn": 0, "map_side_combine": 0}


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "environ"
        and isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def _env_names(tree: ast.AST):
    """String constants used as keys of ``os.environ`` / ``os.getenv``."""
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr == "get" and _is_environ(func.value)) or (
                func.attr == "getenv" and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                key = node.args[0]
        elif isinstance(node, ast.Compare) and any(map(_is_environ, node.comparators)):
            key = node.left
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value


def test_only_tracing_and_fault_plans_are_read_from_the_environment():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(_env_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert {n for n in names if n.startswith("FLINT_")} == {"FLINT_TRACE", "FLINT_FAULT_PLAN"}


def test_the_cli_grows_no_flags():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    ]
    assert len(calls) <= CLI_ADD_ARGUMENT_CALLS


def test_retired_parameters_only_shrink():
    """Count every ``def`` taking a retired parameter, constructors and
    private functions included."""
    defs = {name: [] for name in RETIRED_PARAMETERS}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                for name in {a.arg for a in arguments} & defs.keys():
                    defs[name].append(f"{path.name}:{getattr(node, 'name', 'lambda')}")
    for name, limit in RETIRED_PARAMETERS.items():
        assert len(defs[name]) <= limit, (name, sorted(defs[name]))
