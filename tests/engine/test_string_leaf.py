"""The dictionary-encoded string leaf and the text source born as its tokens.

Contracts (see :mod:`repro.engine.columnar` and :mod:`repro.engine.declared`):

- a list of ``str`` round-trips exactly through ``from_records``, as codes
  into a dictionary of its distinct strings in first-occurrence order, and
  ``take``/``slice`` equal the row operations, and ``merged_codes`` puts
  columns on one dictionary, whatever each batch's dictionary holds;
- ``Sum.combine`` over ``("s", value)`` pairs lays out exactly the map
  output ``bucket_map_output`` builds from the rows, CRC32 ties broken by
  first occurrence;
- ``TextSource`` is born as its tokens when every vocabulary word is one
  token, draws rows otherwise, and yields the lines of the same draws
  either way; wordcount over it lowers end to end with the row plane's
  results and charges.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    LINE,
    MIN_LOWERED_ROWS,
    ColumnarBatch,
    from_records,
    merged_codes,
    take,
)
from repro.engine.declared import Pair, Split, Sum
from repro.engine.buckets import bucket_map_output
from repro.simulation.rng import SeededRNG
from repro.streaming.sources import TextSource
from tests.conftest import build_on_demand_context, plane
from tests.engine.test_columnar_combine import (
    assert_matches_row_loop,
    combined_output,
    exact,
    sum_dependency,
)
from tests.engine.test_kernel_twins import TEXT

STRINGS = st.lists(TEXT, min_size=1, max_size=40)

#: Two strings whose CRC32 (their ``stable_hash``) is the same.
TIED = ("plumless", "buckeroo")


def test_the_tied_strings_tie():
    assert len({zlib.crc32(w.encode("utf-8")) for w in TIED}) == 1


# ----------------------------------------------------------------------
# The leaf: round trip and the row operations
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(STRINGS)
def test_round_trip_is_exact(values):
    batch = from_records(values)
    assert batch.schema == "s"
    codes, words = batch.data
    assert words == tuple(dict.fromkeys(values))  # distinct, first occurrence
    out = batch.to_records()
    assert out == values and {type(v) for v in out} == {str}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(TEXT, st.integers(-5, 5), st.lists(TEXT, max_size=3)), min_size=1))
def test_strings_nested_in_tuples_and_lists_round_trip(records):
    assert from_records(records).to_records() == records


def _joined(batches):
    """One ``"s"`` batch of every batch's records, in order, on the
    dictionary ``merged_codes`` gives them (the way ``reduce_major``
    places string columns)."""
    codes, words = merged_codes([batch.data for batch in batches])
    return ColumnarBatch("s", (np.concatenate(codes), words), sum(map(len, batches)))


@settings(max_examples=150, deadline=None)
@given(st.lists(STRINGS, min_size=1, max_size=4), st.data())
def test_take_slice_and_merged_codes_equal_the_rows(parts, data):
    batches = [from_records(part) for part in parts]
    rows = [v for part in parts for v in part]
    whole = _joined(batches)
    assert whole.to_records() == rows
    codes, words = whole.data
    assert len(set(words)) == len(words)
    idx = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=50))
    picked = take("s", whole.data, np.array(idx, dtype=np.int64))
    assert ColumnarBatch("s", picked, len(idx)).to_records() == [rows[i] for i in idx]
    start = data.draw(st.integers(0, len(rows)))
    stop = data.draw(st.integers(start, len(rows)))
    assert whole.slice(start, stop).to_records() == rows[start:stop]
    # Slices of differing dictionaries merge too.
    tails = [batch.slice(len(batch) // 2, len(batch)) for batch in batches]
    assert _joined(tails).to_records() == [
        v for part in parts for v in part[len(part) // 2:]
    ]


def test_merged_codes_keeps_codes_when_the_dictionaries_agree():
    a, b = from_records(["x", "y", "x"]), from_records(["x", "y"])
    assert a.data[1] == b.data[1] and a.data[1] is not b.data[1]
    joined = _joined([a, b])
    assert joined.data[1] is a.data[1]
    assert joined.data[0].tolist() == [0, 1, 0, 0, 1]
    merged = _joined([a, from_records(["z", "x"])])
    assert merged.data[1] == ("x", "y", "z")
    assert merged.to_records() == ["x", "y", "x", "z", "x"]


# ----------------------------------------------------------------------
# Sum.combine over string keys
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(TEXT, st.integers(-1000, 1000)), min_size=1, max_size=60),
    st.integers(1, 9),
)
def test_string_keyed_sums_equal_the_row_loop(records, n_buckets):
    assert_matches_row_loop(records, n_buckets)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(TEXT, st.floats(-1e3, 1e3).filter(lambda v: v != 0.0)), min_size=1),
    st.integers(1, 9),
)
def test_string_keyed_float_sums_equal_the_row_loop(records, n_buckets):
    assert_matches_row_loop(records, n_buckets)


@pytest.mark.parametrize("first", TIED)
@pytest.mark.parametrize("n_buckets", [1, 4, 7])
def test_crc32_ties_keep_first_occurrence_order(first, n_buckets):
    second = TIED[1] if first == TIED[0] else TIED[0]
    # ``first`` occurs first and ``second`` occurs last.
    records = [(first, 1), ("spot", 2), (second, 3), (first, 4)]
    assert_matches_row_loop(records, n_buckets)
    # The dictionary lists ``second`` first: its order must not matter.
    batch = from_records([(second, 0)] + records).slice(1, len(records) + 1)
    assert batch.data[0][1][0] == second
    output, _written = combined_output(batch, n_buckets)
    assert exact(output) == exact(bucket_map_output(sum_dependency(n_buckets), records)[0])
    keys = [key for key, _ in output.rows]
    assert keys.index(first) + 1 == keys.index(second)


@pytest.mark.parametrize("keep", [5, 40, 400])
def test_a_slice_keeping_a_large_dictionary_combines_exactly(keep):
    # A slice keeps its batch's whole dictionary: its codes are counted
    # over all 402 words, however few of them the slice holds.
    rng = random.Random(keep)
    words = [f"w{i}" for i in range(400)] + list(TIED)
    records = [(w, rng.randrange(9)) for w in words] + [
        (rng.choice(words), rng.randrange(9)) for _ in range(400)
    ]
    rng.shuffle(records)
    batch = from_records(records).slice(0, keep)
    assert len(batch.data[0][1]) == 402
    for n_buckets in (1, 3):
        got = combined_output(batch, n_buckets)
        want = bucket_map_output(sum_dependency(n_buckets), records[:keep])
        assert exact(got[0]) == exact(want[0]) and got[1] == want[1]


def test_string_keyed_combine_reuses_the_dictionary_and_merges_again():
    rng = random.Random(11)
    records = [(rng.choice(["a", "b", "c", "", " "]), rng.randrange(9)) for _ in range(300)]
    batch = from_records(records)
    combined, sizes = Sum().combine(batch, 3)
    assert combined.data[0][1] is batch.data[0][1]
    assert sum(sizes) == combined.length == 5
    # With one bucket it is the reducer's merge: a second pass over the
    # combiners changes nothing.
    merged, _ = Sum().combine(combined, 1)
    assert exact(sorted(merged.to_records())) == exact(sorted(combined.to_records()))


# ----------------------------------------------------------------------
# TextSource born as its tokens
# ----------------------------------------------------------------------
def _drawn_lines(vocab, seed, label, batch, p, per_part, wpl):
    """The lines the generator drew as rows before it was born as tokens."""
    picks = SeededRNG(seed, f"{label}-{batch}-{p}").integers(0, len(vocab), size=per_part * wpl)
    words = [vocab[w] for w in picks.tolist()]
    return [" ".join(words[i * wpl:(i + 1) * wpl]) for i in range(per_part)]


@pytest.mark.parametrize(
    "vocab, born",
    [
        (("spot", "bid", "spot", "lineage"), True),  # a duplicated word
        (("spot", "transient server", "bid"), False),  # a word with a space
        (("spot", "", "bid"), False),  # an empty word
        (("spot", "　", "bid"), False),  # ideographic space
    ],
)
def test_text_source_lines_are_the_drawn_lines(vocab, born):
    src = TextSource(48, 4, vocab, seed=3, words_per_line=3, label="t")
    for batch in (0, 2):
        generate = src.generator_for(batch)
        for p in range(4):
            part = generate(p)
            assert (type(part) is ColumnarBatch) == born
            lines = part.to_records() if born else part
            assert lines == _drawn_lines(vocab, 3, "t", batch, p, 12, 3)
            if born:
                assert part.schema == LINE
                _counts, (codes, words) = part.data
                assert words == tuple(dict.fromkeys(vocab))
    assert src.reference_records(1) == [
        line for p in range(4) for line in _drawn_lines(vocab, 3, "t", 1, p, 12, 3)
    ]


# ----------------------------------------------------------------------
# Wordcount lowers end to end, with the row plane's results and charges
# ----------------------------------------------------------------------
def _wordcount(columnar, source):
    with plane(columnar):
        ctx = build_on_demand_context(2)
        lines = source(ctx)
        counts = lines.flat_map(Split()).map(Pair(1)).reduce_by_key(Sum(), 3)
        t0 = ctx.now
        out = sorted(counts.collect())
        return out, ctx.now - t0, ctx.scheduler.stats


SOURCES = {
    # Born as tokens: the chain reads the drawn batch.
    "born": lambda ctx: ctx.generate(
        TextSource(2 * MIN_LOWERED_ROWS, 2, ("a", "bb", "a", "é"), seed=1)
        .generator_for(0), 2,
    ),
    # Rows of lines: the boundary is columnarised to a string leaf.
    "rows": lambda ctx: ctx.parallelize(
        [" a  b\tc ", "", "　d a", "b"] * MIN_LOWERED_ROWS, 2
    ),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_wordcount_lowers_with_the_row_planes_results(name):
    on, on_time, on_stats = _wordcount(True, SOURCES[name])
    off, off_time, off_stats = _wordcount(False, SOURCES[name])
    assert on == off and on_time == off_time
    assert on_stats.task_counts() == off_stats.task_counts()
    assert on_stats.columnar_chains == on_stats.columnar_combines == 2
    assert on_stats.columnar_fallbacks == 0
    assert off_stats.columnar_chains == off_stats.columnar_combines == 0


def test_a_cached_text_source_lowers_from_its_drawn_batch():
    ctx = build_on_demand_context(2)
    lines = SOURCES["born"](ctx).persist()
    counts = lines.flat_map(Split()).map(Pair(1)).reduce_by_key(Sum(), 3)
    first = sorted(counts.collect())
    second = sorted(lines.flat_map(Split()).map(Pair(1)).reduce_by_key(Sum(), 3).collect())
    assert first == second
    stats = ctx.scheduler.stats
    assert stats.columnar_chains == stats.columnar_combines == 4
    assert stats.columnar_fallbacks == 0
