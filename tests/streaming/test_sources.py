"""Stream sources: seeded determinism, replayability, validation."""

from __future__ import annotations

import pytest

from repro.simulation.rng import SeededRNG
from repro.streaming.sources import EventSource, RateSource, StreamSource, TextSource

VOCAB = ("alpha", "beta", "gamma", "delta")


def test_rate_source_is_consecutive_integers():
    src = RateSource(100, 4, record_size=1000, start=10)
    assert src.per_partition == 25
    assert src.records_in_batch(0) == 100
    flat = []
    for b in range(3):
        flat.extend(src.reference_records(b))
    assert flat == list(range(10, 310))


def test_rate_source_partition_generators_are_disjoint():
    src = RateSource(40, 4)
    gen = src.generator_for(2)
    parts = [gen(p).to_records() for p in range(4)]
    seen = [r for part in parts for r in part]
    assert len(seen) == len(set(seen)) == 40


def test_records_in_batch_floor_division():
    # 103 records over 4 partitions floors to 25 each — the actual batch
    # size is what throughput accounting must report.
    src = RateSource(103, 4)
    assert src.per_partition == 25
    assert src.records_in_batch(7) == 100
    assert len(src.reference_records(7)) == 100


def test_event_source_replays_bit_identically():
    a = EventSource(200, 4, 16, seed=5)
    b = EventSource(200, 4, 16, seed=5)
    for batch in (0, 3):
        assert a.reference_records(batch) == b.reference_records(batch)
    # Different batches and seeds draw different streams.
    assert a.reference_records(0) != a.reference_records(1)
    assert a.reference_records(0) != EventSource(200, 4, 16, seed=6).reference_records(0)


def test_event_source_without_value_range_matches_legacy_draws():
    # value_range=None is the legacy StreamingWorkload generator: one
    # ``integers`` draw per partition, every value the literal 1.
    src = EventSource(80, 4, 10, seed=9, label="batch")
    for p in range(4):
        rng = SeededRNG(9, f"batch-2-{p}")
        expected = [(int(k), 1) for k in rng.integers(0, 10, size=20)]
        assert src.generator_for(2)(p).to_records() == expected


def test_event_source_value_range():
    src = EventSource(400, 4, 8, seed=3, value_range=(1, 10))
    records = src.reference_records(0)
    assert len(records) == 400
    assert all(0 <= k < 8 and 1 <= v < 10 for k, v in records)
    assert {v for _, v in records} != {1}


def test_text_source_lines():
    src = TextSource(40, 4, VOCAB, seed=1, words_per_line=3)
    lines = src.reference_records(0)
    assert len(lines) == 40
    for line in lines:
        words = line.split()
        assert len(words) == 3
        assert set(words) <= set(VOCAB)
    assert src.reference_records(0) == src.reference_records(0)
    assert src.reference_records(0) != src.reference_records(1)


def test_text_source_lines_equal_the_per_word_reference():
    """The generator indexes the vocabulary once per partition; the lines
    are exactly those of the per-word loop it replaced."""
    from repro.simulation.rng import SeededRNG

    src = TextSource(40, 4, VOCAB, seed=7, words_per_line=5, label="t")
    for batch in (0, 3):
        generate = src.generator_for(batch)
        for p in range(4):
            picks = SeededRNG(7, f"t-{batch}-{p}").integers(0, len(VOCAB), size=10 * 5)
            reference = [
                " ".join(VOCAB[int(w)] for w in picks[i * 5:(i + 1) * 5])
                for i in range(10)
            ]
            assert generate(p).to_records() == reference


# The oracles below are the generators as they were written before they
# returned columns: the same draws, turned into records one NumPy scalar at
# a time.  ``to_records()`` must equal them exactly, Python types included.
def _exact(records):
    return [
        tuple((type(x), x) for x in r) if type(r) is tuple else (type(r), r)
        for r in records
    ]


@pytest.mark.parametrize("start", [0, 7])
def test_rate_columns_equal_the_range_loop(start):
    src = RateSource(103, 4, start=start)
    per_part = src.per_partition
    for batch in (0, 5):
        generate = src.generator_for(batch)
        for p in range(4):
            lo = start + batch * per_part * 4 + p * per_part
            assert _exact(generate(p).to_records()) == _exact(list(range(lo, lo + per_part)))


@pytest.mark.parametrize("seed", [0, 9, 1234])
@pytest.mark.parametrize("value_range", [None, (1, 10), (-5, 1000)])
def test_event_columns_equal_the_pair_loop(seed, value_range):
    src = EventSource(120, 4, 16, seed=seed, value_range=value_range, label="ev")
    for batch in (0, 3):
        generate = src.generator_for(batch)
        for p in range(4):
            rng = SeededRNG(seed, f"ev-{batch}-{p}")
            if value_range is None:
                expected = [(int(k), 1) for k in rng.integers(0, 16, size=30)]
            else:
                drawn = rng.integers(0, 16, size=30)
                values = rng.integers(value_range[0], value_range[1], size=30)
                expected = [(int(k), int(v)) for k, v in zip(drawn, values)]
            assert _exact(generate(p).to_records()) == _exact(expected)


def test_a_partition_of_no_records_is_rows():
    # Fewer records than partitions: per_partition is 0.
    assert RateSource(3, 4).generator_for(0)(1) == []
    assert EventSource(3, 4, 8, seed=1).generator_for(0)(2) == []
    assert EventSource(3, 4, 8, seed=1, value_range=(1, 5)).generator_for(0)(0) == []
    assert TextSource(3, 4, VOCAB, seed=1).generator_for(0)(3) == []
    assert RateSource(3, 4).reference_records(0) == []


def test_source_validation():
    with pytest.raises(ValueError):
        StreamSource("s", 0, 4)
    with pytest.raises(ValueError):
        StreamSource("s", 10, 0)
    with pytest.raises(ValueError):
        StreamSource("s", 10, 4, record_size=0)
    with pytest.raises(ValueError):
        EventSource(10, 2, 0, seed=1)
    with pytest.raises(ValueError):
        TextSource(10, 2, (), seed=1)
    with pytest.raises(ValueError):
        TextSource(10, 2, VOCAB, seed=1, words_per_line=0)


def test_base_generator_is_abstract():
    with pytest.raises(NotImplementedError):
        StreamSource("s", 10, 2).generator_for(0)
