"""Sources born columnar: a generator that returns ``columns(...)``.

The contract under test (see :mod:`repro.engine.columnar` and
``TaskRuntime.iterator``): a source partition drawn as columns is the same
partition as its rows — same results and same simulated time on both
planes — while the batch feeds lowered chains and a declared combine
without a conversion, seeds a persisted block's sidecar, and becomes rows
only where something observes the partition or needs rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import columnar
from repro.engine.block_manager import block_id_for
from repro.engine.columnar import ColumnarBatch, Sum, columns
from repro.engine.task_runtime import MIN_LOWERED_ROWS, TaskRuntime
from repro.simulation.rng import SeededRNG
from tests.conftest import build_on_demand_context, plane
from tests.engine.test_columnar_combine import ConversionCounter

N = 4 * MIN_LOWERED_ROWS
SCHEMA = ("tuple", ("i8", "f8"))
SUM = Sum()


def _draw(p):
    rng = SeededRNG(5, f"born-{p}")
    return columns(rng.integers(0, 7, size=N), rng.random(N))


def _draw_rows(p):
    return _draw(p).to_records()


def _double(batch):
    key, value = batch.require(SCHEMA)
    return ColumnarBatch(SCHEMA, (key, value * 2.0), len(batch))


def _double_row(record):
    return (record[0], record[1] * 2.0)


def _run_all(monkeypatch, plan):
    """``plan(source)`` over a drawn and a row source, on both planes:
    ``{(generator, knob): (result, ctx.now, stats, conversions)}``."""
    runs = {}
    for generator in (_draw, _draw_rows):
        for knob in ("on", "0"):
            with plane(knob == "on"):
                ctx = build_on_demand_context(2)
                source = ctx.generate(generator, 4, record_size=100)
                counted = ConversionCounter(monkeypatch)
                out = plan(source)
            runs[generator.__name__, knob] = (out, ctx.now, ctx.scheduler.stats, counted)
            monkeypatch.undo()
    reference = runs["_draw_rows", "0"][:2]
    for key, run in runs.items():
        assert run[:2] == reference, key
    return runs


def test_a_lowered_chain_reads_the_drawn_columns_without_converting(monkeypatch):
    runs = _run_all(
        monkeypatch, lambda src: src.map(_double_row, batch_fn=_double).collect()
    )
    _out, _now, stats, counted = runs["_draw", "on"]
    assert stats.columnar_chains == 4 and stats.columnar_fallbacks == 0
    assert counted.from_rows == []
    # Rows are built once per task, for the action's observed head only.
    assert counted.to_rows == 4
    # The same partition drawn as rows is columnarised once per task.
    assert len(runs["_draw_rows", "on"][3].from_rows) == 4
    assert runs["_draw_rows", "on"][2].columnar_chains == 4


def test_an_unobserved_source_never_becomes_rows(monkeypatch):
    plans = {
        "lowered head": lambda src: src.map(_double_row, batch_fn=_double)
        .reduce_by_key(SUM, 2)
        .collect(),
        "source head": lambda src: src.reduce_by_key(SUM, 2).collect(),
    }
    for name, plan in plans.items():
        runs = _run_all(monkeypatch, plan)
        _out, _now, stats, counted = runs["_draw", "on"]
        assert stats.columnar_combines == 4, name
        # The source never becomes rows.  The combined map outputs cross
        # the shuffle as columns, and each of the 2 reducers — a row
        # caller, with under MIN_LOWERED_ROWS records — turns its one slice
        # of them into rows.
        assert (counted.from_rows, counted.to_rows) == ([], 2), name


def test_the_row_path_gets_rows(monkeypatch):
    """A kernel-less chain, a refusing kernel and the row plane all stream
    the drawn partition's rows — with the results of the row source."""

    def refuse(batch):
        raise columnar.ColumnarUnsupported("not this schema")

    plans = {
        "no kernel": lambda src: src.map(_double_row).collect(),
        "refusal": lambda src: src.map(_double_row, batch_fn=refuse).collect(),
        "row head": lambda src: src.collect(),
        "filtered rows": lambda src: src.filter(lambda r: r[0] < 3).count(),
    }
    for name, plan in plans.items():
        runs = _run_all(monkeypatch, plan)
        assert runs["_draw", "on"][2].columnar_chains == 0, name


def test_a_persisted_source_seeds_its_sidecar(monkeypatch):
    ctx = build_on_demand_context(2)
    drawn = {}

    def drawing(p):
        drawn[p] = _draw(p)
        return drawn[p]

    source = ctx.generate(drawing, 4, record_size=100).persist()
    assert source.count() == 4 * N
    counted = ConversionCounter(monkeypatch)
    lowered = source.map(_double_row, batch_fn=_double)
    for _ in range(2):
        lowered.reduce_by_key(SUM, 2).collect()
    assert counted.from_rows == []
    assert ctx.scheduler.stats.columnar_combines == 8
    seen = 0
    for worker in ctx.cluster.live_workers():
        store = worker.block_manager
        for p, batch in drawn.items():
            block = block_id_for(source.rdd_id, p)
            if block in store.memory_block_ids():
                rows = store.get(block)[0]
                # The plane rule stands: the block's data is rows.
                assert type(rows) is list and rows == batch.to_records()
                assert store.columnar(block, rows) is batch
                seen += 1
    assert seen == 4


def test_a_drawn_partition_read_twice_in_one_task_is_drawn_once():
    ctx = build_on_demand_context(1)
    source = ctx.generate(_draw, 1, record_size=100)
    runtime = TaskRuntime(ctx, ctx.cluster.live_workers()[0], None)
    batch = runtime.iterator(source, 0, as_batch=True)
    charged = runtime.time_charged
    assert type(batch) is ColumnarBatch
    assert runtime.iterator(source, 0, as_batch=True) is batch
    rows = runtime.iterator(source, 0)
    assert rows == batch.to_records()
    assert runtime.iterator(source, 0) is rows
    assert runtime.time_charged == charged > 0
    # Nothing observed it: no block, no materialisation report.
    assert runtime.pending_puts == [] and runtime.computed == []


def test_a_kernel_that_writes_into_its_input_raises():
    """A drawn batch is shared — here it is a cached block's sidecar — so a
    kernel writing into it must fail rather than corrupt the block."""

    def scale_in_place(batch):
        key, value = batch.require(SCHEMA)
        value *= 2.0
        return batch

    ctx = build_on_demand_context(1)
    source = ctx.generate(_draw, 1, record_size=100).persist()
    source.count()
    with pytest.raises(ValueError, match="read-only"):
        source.map(_double_row, batch_fn=scale_in_place).collect()
    store = ctx.cluster.live_workers()[0].block_manager
    block = block_id_for(source.rdd_id, 0)
    rows = store.get(block)[0]
    assert store.columnar(block, rows).to_records() == rows == _draw_rows(0)


def test_an_empty_drawn_partition_is_an_empty_row_partition():
    ctx = build_on_demand_context(1)

    def empty(p):
        return columns(np.empty(0, dtype=np.int64), np.empty(0))

    source = ctx.generate(empty, 2, record_size=100)
    assert source.map(_double_row, batch_fn=_double).collect() == []
    assert source.reduce_by_key(SUM, 2).collect() == []
    assert ctx.scheduler.stats.columnar_fallbacks == 0
