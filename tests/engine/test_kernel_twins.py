"""Every batch kernel against its row twin, on generated records.

The row plane is what the engine falls back to and what it chooses below
``MIN_LOWERED_ROWS``, so a kernel is only correct if, for any records
``from_records`` accepts, ``kernel(batch).to_records()`` equals the row
function's output bit for bit (floats compared by ``float.hex``, so
``-0.0`` is not ``0.0``).  A kernel may instead refuse the batch with
``ColumnarUnsupported``: the chain then runs on rows, which is also
correct.  Covered: every declared row function — the engine's
(``Split``, ``Pair``, ``Identity``, ``MapValues``) and the workloads'
(KMeans's ``Assign``, PageRank's ``InitRank``, ``RankUpdate`` and
``Contributions``), whose kernel and row form are one definition — and the
built-in kernels of the fusable transformations.  A declared class that no
test here covers fails :func:`test_every_declared_class_is_covered`.
"""

from __future__ import annotations

import ast
import functools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    LINE,
    ColumnarBatch,
    ColumnarUnsupported,
    are_tokens,
    encode,
    from_records,
    token_lines,
)
from repro.engine.declared import Identity, MapValues, Pair, Split, kernel_of
from repro.engine.transformations import FlatMappedRDD, MappedRDD, UnionRDD
from repro.workloads import kmeans, pagerank
from tests.conftest import build_on_demand_context
from tests.engine.test_columnar_combine import exact

I8 = st.integers(-(2**63), 2**63 - 1)
F8 = st.floats(allow_nan=True, allow_infinity=True)
SMALL = st.integers(-50, 50)
#: Strings that stress splitting and the dictionary: any unicode, empty,
#: whitespace leading, trailing and inside (ideographic space included),
#: and values that repeat.
TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", " ", "a", "a b", " a", "b ", "\u3000", "x\u3000y", "\t\n", "é b"]),
)


def _values(schema):
    """A strategy for one value of ``schema`` (the columnar schema tree)."""
    if schema == "i8":
        return I8
    if schema == "f8":
        return F8
    if schema == "s":
        return TEXT
    if schema[0] == "tuple":
        return st.tuples(*map(_values, schema[1]))
    return st.lists(_values(schema[1]), max_size=4)


SCHEMAS = st.recursive(
    st.sampled_from(["i8", "f8", "s"]),
    lambda child: st.one_of(
        st.tuples(st.just("tuple"), st.lists(child, min_size=1, max_size=3).map(tuple)),
        st.tuples(st.just("list"), child),
    ),
    max_leaves=5,
)


def _records(schema, max_size=40):
    return st.lists(_values(schema), min_size=1, max_size=max_size)


ANY_RECORDS = SCHEMAS.flatmap(_records)
#: ``(key, value)`` pairs of any two schemas, for ``MapValues``.
PAIRS = st.tuples(SCHEMAS, SCHEMAS).flatmap(lambda kv: _records(("tuple", kv)))

#: The declared classes some test below holds to their row form.
COVERED = set()


def covers(*classes):
    """Mark a test as the one that holds ``classes``' kernels to their row
    forms."""
    COVERED.update(f"{cls.__module__}.{cls.__qualname__}" for cls in classes)
    return lambda test: test


def assert_declared(fn, records):
    """``fn``'s kernel against ``fn`` itself, as the stage it declares."""
    kernel = kernel_of(fn, fn.stage)
    assert kernel is not None
    if fn.stage == "map":
        assert_twins(kernel, lambda rows: [fn(r) for r in rows], records)
    else:
        assert_twins(kernel, _flat_map(fn), records)


def _flat_map(fn):
    return lambda rows: [out for row in rows for out in fn(row)]


def assert_twins(kernel, rows_of, records):
    """``kernel`` over ``records`` as a batch equals ``rows_of(records)``.

    Records ``from_records`` refuses never reach a kernel; a kernel that
    refuses its batch hands the records to the row plane, so that passes
    too, whatever the row function then does with them.
    """
    batch = from_records(records)
    if batch is None:
        return
    try:
        out = kernel(batch)
    except ColumnarUnsupported:
        return
    assert exact(out.to_records()) == exact(rows_of(records))


# ----------------------------------------------------------------------
# Workloads' declared row functions
# ----------------------------------------------------------------------
POINTS = st.integers(1, 4).flatmap(
    lambda dim: st.tuples(
        st.lists(st.tuples(*[F8] * dim), min_size=1, max_size=4),
        _records(("tuple", ("f8",) * dim)),
    )
)


@covers(kmeans.Assign)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan points by design
@settings(max_examples=60, deadline=None)
@given(POINTS)
def test_kmeans_assignment(case):
    centroids, points = case
    assign = kmeans.Assign(centroids)
    assert [assign(p) for p in points] == [
        (kmeans._closest(p, centroids), (p, 1)) for p in points
    ]
    assert_declared(assign, points)


@covers(pagerank.InitRank)
@settings(max_examples=60, deadline=None)
@given(_records(("tuple", ("i8", ("list", "i8")))))
def test_pagerank_initial_ranks(links):
    assert_declared(pagerank.InitRank(), [dsts for _src, dsts in links])
    # As PageRank runs it: lifted over the links' adjacency lists.
    assert_declared(MapValues(pagerank.InitRank()), links)


@covers(pagerank.RankUpdate)
@settings(max_examples=60, deadline=None)
@given(_records(("tuple", ("i8", "f8"))))
def test_pagerank_rank_update(totals):
    assert_declared(pagerank.RankUpdate(), [total for _v, total in totals])
    assert_declared(MapValues(pagerank.RankUpdate()), totals)


#: Any float, or one of the ordinary magnitudes ranks take, whose shares
#: ``rank / len(dsts)`` are rarely exact.
RANKS = st.one_of(F8, st.floats(0.01, 100.0))


def _cogrouped(groups, adjacency, ranks):
    """Cogrouped ``(src, ([dsts, ...], [rank, ...]))`` records."""
    return st.lists(
        st.tuples(
            SMALL,
            st.tuples(
                st.lists(st.lists(SMALL, min_size=adjacency, max_size=8), max_size=groups),
                st.lists(RANKS, max_size=ranks),
            ),
        ),
        min_size=1,
        max_size=40,
    )


#: Mostly what a cogroup of grouped links with unique ranks yields (at most
#: one non-empty adjacency list and one rank per key), which the kernel
#: takes; sometimes extra groups, extra ranks or an empty adjacency list,
#: which it must refuse.
COGROUPED = st.one_of(_cogrouped(1, 1, 1), _cogrouped(1, 1, 1), _cogrouped(2, 0, 2))


@covers(pagerank.Contributions)
@settings(max_examples=150, deadline=None)
@given(COGROUPED)
def test_pagerank_contributions(cogrouped):
    assert_declared(pagerank.Contributions(), cogrouped)


@covers(Identity)
@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS)
def test_streaming_identity(records):
    assert_declared(Identity(), records)


# ----------------------------------------------------------------------
# The built-in kernel: union's batch_kernel against its compute_fused
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _parent():
    """A two-partition parent; the twins never read its records."""
    return build_on_demand_context(1).parallelize([0, 1], 2)


def assert_rdd_twins(rdd, split, records):
    assert_twins(
        rdd.batch_kernel(split), lambda rows: rdd.compute_fused(rows, split), records
    )


@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS, st.integers(0, 3))
def test_union(records, split):
    parent = _parent()
    assert_rdd_twins(UnionRDD(parent.context, [parent, parent]), split, records)


# ----------------------------------------------------------------------
# Declared row functions: the kernel and the row form are one definition
# ----------------------------------------------------------------------
@covers(Split)
@settings(max_examples=150, deadline=None)
@given(st.lists(TEXT, min_size=1, max_size=40))
def test_split_over_lines_held_as_strings(lines):
    split = Split()
    want = [w for line in lines for w in line.split()]
    assert want == _flat_map(split)(lines)
    assert exact(split.kernel(from_records(lines)).to_records()) == exact(want)


#: Single tokens: what a line born as its tokens is made of.
TOKENS = st.text(min_size=1, max_size=5).filter(lambda w: w.split() == [w])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=4), min_size=1, max_size=30))
def test_split_over_lines_born_as_tokens(token_lists):
    tokens = [w for line in token_lists for w in line]
    counts = np.array([len(line) for line in token_lists], dtype=np.int64)
    batch = ColumnarBatch(LINE, (counts, encode(tokens)), len(token_lists))
    lines = batch.to_records()
    assert lines == [" ".join(line) for line in token_lists]
    out = Split().kernel(batch)
    assert exact(out.to_records()) == exact([w for line in lines for w in line.split()])


@settings(max_examples=60, deadline=None)
@given(st.lists(TOKENS, min_size=1, max_size=6, unique=True), st.integers(1, 4), st.data())
def test_token_lines_are_their_words_joined(words, per_line, data):
    codes = np.array(
        data.draw(st.lists(st.integers(0, len(words) - 1), max_size=24)), dtype=np.int64
    )
    codes = codes[: len(codes) - len(codes) % per_line]
    batch = token_lines(codes, tuple(words), per_line)
    drawn = [words[c] for c in codes.tolist()]
    lines = [" ".join(drawn[i:i + per_line]) for i in range(0, len(drawn), per_line)]
    if not lines:
        assert batch == []
        return
    assert batch.to_records() == lines
    assert Split().kernel(batch).to_records() == drawn


@pytest.mark.parametrize(
    "words, tokens",
    [(("a", "bb", "é"), True), (("a", "b c"), False), (("a", ""), False), (("\u3000",), False),
     (("a", " b"), False), (("b\n",), False)],
)
def test_are_tokens_holds_only_where_split_gives_the_words_back(words, tokens):
    assert are_tokens(words) is tokens
    line = " ".join(words)
    assert (line.split() == list(words)) is tokens


def test_split_refuses_what_is_not_lines():
    for records in ([1, 2], [("a", 1)], [["a"]]):
        with pytest.raises(ColumnarUnsupported):
            Split().kernel(from_records(records))


@covers(Pair)
@settings(max_examples=60, deadline=None)
@given(ANY_RECORDS, st.sampled_from([1, 0, -7, 2**63 - 1, -(2**63), 0.5, -0.0, float("inf")]))
def test_pair(records, value):
    pair = Pair(value)
    assert_twins(pair.kernel, lambda rows: [pair(r) for r in rows], records)


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, True, "x", None, (1,)])
def test_pair_without_a_column_has_no_kernel(value):
    pair = Pair(value)
    assert pair.kernel is None
    assert pair(3) == (3, value)


@covers(MapValues)
@settings(max_examples=60, deadline=None)
@given(PAIRS, st.sampled_from([1, 0.5, -0.0]))
def test_map_values_lifts_a_declared_kernel_over_the_values(pairs, value):
    assert_declared(MapValues(Pair(value)), pairs)
    assert_declared(MapValues(Identity()), pairs)


def test_map_values_of_what_is_not_a_declared_map_has_no_kernel():
    assert MapValues(lambda v: v).kernel is None
    assert MapValues(Split()).kernel is None
    assert MapValues(Pair("x")).kernel is None
    assert MapValues(Pair(1))((3, 4)) == (3, (4, 1))
    for records in ([1, 2], [(1, 2, 3)], ["a"]):
        with pytest.raises(ColumnarUnsupported):
            MapValues(Identity()).kernel(from_records(records))


class _LoudSplit(Split):
    """Its row form is no longer the kernel's."""

    def __call__(self, line):
        return line.upper().split()


def test_a_declared_function_is_only_a_kernel_for_its_own_stage():
    parent = _parent()
    assert kernel_of(Split(), "flat_map") is not None
    assert kernel_of(Pair(1), "map") is not None
    assert MappedRDD(parent, Split()).batch_kernel(0) is None
    assert FlatMappedRDD(parent, Pair(1)).batch_kernel(0) is None
    assert FlatMappedRDD(parent, _LoudSplit()).batch_kernel(0) is None
    assert MappedRDD(parent, Pair("x")).batch_kernel(0) is None
    assert FlatMappedRDD(parent, Identity()).batch_kernel(0) is None
    assert MappedRDD(parent, lambda x: x).batch_kernel(0) is None


SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def _declared_classes():
    """Every class under ``src/repro`` whose own body defines ``__call__``,
    ``kernel`` and ``stage`` — the rule ``kernel_of`` applies — by dotted
    name."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.Assign):
                    names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            if {"__call__", "kernel", "stage"} <= names:
                yield f"{module}.{node.name}"


def test_every_declared_class_is_covered():
    declared = set(_declared_classes())
    assert "repro.engine.declared.Split" in declared
    assert declared - COVERED == set()
