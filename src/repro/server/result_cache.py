"""Shared query-result cache keyed by lineage fingerprint.

Interactive multi-tenancy is repetitive: dashboards and analysts issue the
*same* query against the *same* cached tables over and over, across
sessions.  The result cache short-circuits those at the server's front door:
a query that declares its lineage fingerprint returns the shared result
instantly on a hit — no scheduler round, no tasks, zero simulated latency —
while misses run normally and fill the cache.

The key is a *structural* fingerprint of the query's RDD plan:
:func:`lineage_fingerprint` walks the lineage DAG in deterministic BFS
order and hashes, per node, the operator type, partitioning, cost hints,
edge structure (a shuffle edge with its aggregator and map-side combine
flag), and a best-effort description of every closure (bytecode,
constants, defaults, captured cells) and source dataset.  Two plans built
independently — by different sessions, in different submission orders — that
describe the same computation hash identically; plans differing in any
operator, parameter, or input diverge.

Fingerprinting closures is inherently best-effort (Python gives no
canonical form for a lambda), so the cache is *invariant-checkable*: with
``validate=True`` every hit recomputes the query anyway and raises
:class:`CacheInvariantError` on any mismatch.  The chaos harness and the
equivalence tests run in this mode; production-shaped runs trust the
fingerprint and take the latency win.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

from repro.engine.dependencies import ShuffleDependency
from repro.engine.lineage import ancestors

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD


class CacheInvariantError(AssertionError):
    """A validated cache hit disagreed with recomputation."""


#: Infrastructure attributes that never affect a plan's results.
_SKIP_ATTRS = {
    "context",
    "dependencies",
    "rdd_id",
    "dependents",
    "persisted",
    "disk_persist",
    "manual_checkpoint",
    "_record_size_memo",
}

_MAX_DEPTH = 6

#: The values an opaque object's attribute is described by in full.
_DESCRIBED = (bool, int, float, str, type(None), bytes, list, tuple, dict, set, frozenset)


def _feed(hasher: "hashlib._Hash", token: str) -> None:
    hasher.update(token.encode("utf-8", "backslashreplace"))
    hasher.update(b"\x00")


def _describe_value(hasher: "hashlib._Hash", value: Any, depth: int = 0) -> None:
    """Feed a deterministic description of ``value`` into the hasher.

    Memory addresses never leak into the digest: callables are described by
    module/qualname/bytecode/constants, containers element-wise, and opaque
    objects by type name (their ``repr`` may embed ``0x...`` ids) plus their
    public attributes: scalars and containers in full, objects by type.
    """
    if depth > _MAX_DEPTH:
        _feed(hasher, "depth-capped")
        return
    if value is None or isinstance(value, (bool, int, float, str)):
        _feed(hasher, f"{type(value).__name__}:{value!r}")
    elif isinstance(value, bytes):
        _feed(hasher, f"bytes:{hashlib.sha256(value).hexdigest()}")
    elif isinstance(value, (list, tuple)):
        _feed(hasher, f"{type(value).__name__}[{len(value)}]")
        for item in value:
            _describe_value(hasher, item, depth + 1)
    elif isinstance(value, dict):
        _feed(hasher, f"dict[{len(value)}]")
        for key in sorted(value, key=repr):
            _describe_value(hasher, key, depth + 1)
            _describe_value(hasher, value[key], depth + 1)
    elif isinstance(value, (set, frozenset)):
        _feed(hasher, f"set[{len(value)}]")
        for item in sorted(value, key=repr):
            _describe_value(hasher, item, depth + 1)
    elif callable(value):
        _describe_callable(hasher, value, depth)
    else:
        # Opaque object: its type (repr may carry addresses) and its public
        # state — scalars and containers in full, depth-capped, and any
        # other object by its type alone, so a captured RDD or context is
        # named, never walked.
        _feed(hasher, _type_name(value))
        simple = getattr(value, "__dict__", None)
        if isinstance(simple, dict) and depth < _MAX_DEPTH:
            for key in sorted(simple):
                if key.startswith("_"):
                    continue
                inner = simple[key]
                _feed(hasher, f"attr:{key}")
                if isinstance(inner, _DESCRIBED):
                    _describe_value(hasher, inner, depth + 1)
                else:
                    _feed(hasher, _type_name(inner))


def _type_name(value: Any) -> str:
    return f"obj:{type(value).__module__}.{type(value).__qualname__}"


def _describe_callable(hasher: "hashlib._Hash", fn: Any, depth: int) -> None:
    code = getattr(fn, "__code__", None)
    if code is None:
        # Builtin / bound method / functools.partial.
        func = getattr(fn, "func", None)
        if func is not None:  # partial
            _feed(hasher, "partial")
            _describe_callable(hasher, func, depth + 1)
            _describe_value(hasher, getattr(fn, "args", ()), depth + 1)
            _describe_value(hasher, getattr(fn, "keywords", {}) or {}, depth + 1)
            return
        inner = getattr(fn, "__func__", None)
        if inner is not None:  # bound method: descend to the function
            _feed(hasher, "bound")
            _describe_callable(hasher, inner, depth + 1)
            owner = getattr(fn, "__self__", None)
            _describe_value(hasher, owner, depth + 1)
            return
        _feed(
            hasher,
            f"callable:{getattr(fn, '__module__', '?')}."
            f"{getattr(fn, '__qualname__', type(fn).__name__)}",
        )
        # A callable instance is its class plus its public state, slots and
        # ``vars()`` alike: without it ``Pair(1)`` and ``Pair(2)``, or two
        # instances of a plain class holding ``self.k``, hash alike.
        names = list(getattr(type(fn), "__slots__", ()))
        state = getattr(fn, "__dict__", None)
        if isinstance(state, dict):
            names += sorted(state)
        for name in names:
            if not name.startswith("_") and hasattr(fn, name):
                _feed(hasher, f"state:{name}")
                _describe_value(hasher, getattr(fn, name), depth + 1)
        return
    _feed(hasher, f"fn:{fn.__module__}.{fn.__qualname__}")
    _feed(hasher, code.co_code.hex())
    _describe_value(hasher, code.co_consts, depth + 1)
    _describe_value(hasher, getattr(fn, "__defaults__", None), depth + 1)
    kwdefaults = getattr(fn, "__kwdefaults__", None)
    if kwdefaults:
        # Keyword-only defaults bind values as surely as closure cells do.
        _feed(hasher, "kwdefaults")
        _describe_value(hasher, kwdefaults, depth + 1)
    cells = getattr(fn, "__closure__", None)
    if cells:
        _feed(hasher, f"cells[{len(cells)}]")
        for cell in cells:
            try:
                _describe_value(hasher, cell.cell_contents, depth + 1)
            except ValueError:  # empty cell
                _feed(hasher, "cell:empty")


def lineage_fingerprint(
    rdd: "RDD", action: str = "collect", params: Iterable[Any] = ()
) -> str:
    """Structural sha256 of ``rdd``'s lineage plus the action applied to it.

    The walk order is ``[rdd] + ancestors(rdd)`` (deterministic BFS), and
    dependency edges hash as positions in that walk — so the digest is
    independent of ``rdd_id`` allocation order and stable across sessions
    and processes for structurally identical plans.
    """
    hasher = hashlib.sha256()
    _feed(hasher, f"action:{action}")
    for param in params:
        _describe_value(hasher, param)
    walk = [rdd] + ancestors(rdd)
    position = {node.rdd_id: i for i, node in enumerate(walk)}
    for node in walk:
        _feed(hasher, f"node:{type(node).__name__}")
        _feed(hasher, f"parts:{node.num_partitions}")
        _feed(hasher, f"cost:{node.compute_multiplier!r}")
        _feed(hasher, f"size:{node._record_size!r}")
        for dep in node.dependencies:
            _feed(hasher, f"edge:{type(dep).__name__}:{position[dep.rdd.rdd_id]}")
            if isinstance(dep, ShuffleDependency):
                # The aggregator lives on the edge, not the node: without
                # it reduce_by_key(add) and reduce_by_key(max) hash alike.
                _feed(hasher, f"combine:{dep.map_side_combine}")
                _describe_value(hasher, dep.aggregator)
        for key in sorted(vars(node)):
            if key in _SKIP_ATTRS or key == "name":
                continue
            _feed(hasher, f"attr:{key}")
            _describe_value(hasher, vars(node)[key])
    return hasher.hexdigest()


class ResultCache:
    """Bounded LRU of finished query results, shared across sessions.

    Entries are keyed by :func:`lineage_fingerprint` digests; eviction is
    least-recently-used at ``capacity``.  ``validate=True`` makes every hit
    recompute and compare (see module docstring) — the invariant-checked
    mode used by chaos runs and equivalence tests.
    """

    def __init__(self, capacity: int = 256, validate: bool = False):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.validate = validate
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.validated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Tuple[bool, Optional[Any]]:
        """(hit?, value); counts the access and refreshes LRU order."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def put(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def check(self, key: str, cached: Any, recomputed: Any) -> None:
        """Assert a validated hit equals its recomputation."""
        self.validated += 1
        if cached != recomputed:
            raise CacheInvariantError(
                f"result cache entry {key[:12]}... diverged from "
                f"recomputation: cached={cached!r} recomputed={recomputed!r}"
            )

    def describe(self) -> Dict[str, Any]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "validated": self.validated,
        }
