"""Stateful streams: update/merge folds, τ-policy, bounded recovery.

The last test is the subsystem's acceptance criterion: a revocation late in
a long stream recomputes from the last τ-periodic state checkpoint, not
from batch 0.
"""

from __future__ import annotations

import math

import pytest

from repro.streaming import (
    StreamingContext,
    StreamingWordCountWorkload,
    run_recovery_benchmark,
)


def _key_one(x):
    return (x % 4, 1)


def _add(a, b):
    return a + b


def _count_update(new_values, old_state):
    return (old_state or 0) + len(new_values)


def _expiring_update(new_values, old_state):
    # Keys stop arriving after their batch; a state of 3+ expires (None
    # drops the key from the fold — Spark's updateStateByKey contract).
    total = (old_state or 0) + sum(new_values)
    return None if total >= 3 else total


def _hex_floats(report):
    """``report`` with every float as ``float.hex``, for bit-exact equality."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.items()}


def test_update_state_running_totals(ctx):
    workload = StreamingWordCountWorkload(
        ctx, lines_per_batch=400, partitions=8, num_batches=4, seed=23,
    )
    per_batch_keys, final_state = workload.run()
    expected = workload.expected_state()
    assert dict(final_state) == expected
    assert per_batch_keys[-1] == len(expected)
    # Running totals only grow: each batch's key count is non-decreasing.
    assert list(per_batch_keys) == sorted(per_batch_keys)


def test_update_returning_none_drops_keys(ctx):
    ssc = StreamingContext(ctx, 10.0)
    source = ssc.rate_stream(8, 4)
    state = source.map(_key_one).reduce_by_key(_add, 4).update_state_by_key(
        _expiring_update, 4
    )
    state.collect_per_batch("state")
    ssc.run(2)
    # Each batch adds 2 per key; batch 0's totals (2) survive, batch 1's
    # fold pushes every key to 4 >= 3 and drops them all.
    assert sorted(ssc.results("state")[0]) == [(k, 2) for k in range(4)]
    assert ssc.results("state")[1] == []


def test_exactly_one_state_generation_stays_cached(ctx):
    ssc = StreamingContext(ctx, 10.0)
    source = ssc.rate_stream(40, 4)
    state = source.map(_key_one).reduce_by_key(_add, 4).update_state_by_key(
        _count_update, 4
    )
    state.count_per_batch("n")
    ssc.run_batch()
    first = state.latest_rdd
    assert first.persisted
    ssc.run_batch()
    assert not first.persisted  # superseded generation was unpersisted
    assert state.latest_rdd.persisted
    assert state.latest_batch == 1
    assert sorted(state.state_rdd_ids) == [0, 1]


def test_state_requires_exactly_one_fold_function(ctx):
    ssc = StreamingContext(ctx, 10.0)
    source = ssc.rate_stream(20, 4)
    from repro.streaming.dstream import StateDStream

    with pytest.raises(ValueError):
        StateDStream(ssc, source)
    with pytest.raises(ValueError):
        StateDStream(ssc, source, update_fn=_count_update, merge_fn=_add)


def test_tau_policy_marks_state_checkpoints(ctx):
    workload = StreamingWordCountWorkload(
        ctx, lines_per_batch=400, partitions=8, num_batches=6, seed=23,
        batch_interval=30.0, checkpointing=True, mttf=1800.0,
        initial_delta=20.0, min_tau=30.0, max_tau=60.0,
    )
    workload.run()
    policy = workload.ssc.policy
    assert policy is not None
    assert policy.stats.marks >= 2
    assert workload.state.last_checkpoint_batch is not None
    # τ stays inside the configured clamp through every online δ refresh.
    assert all(30.0 <= tau <= 60.0 for tau in policy.stats.tau_history)
    # Online refresh replaced the conservative estimate with measured bytes.
    assert policy.stats.delta_updates >= 1


def test_tau_clamps_and_delta_validation(ctx):
    ssc = StreamingContext(ctx, 30.0)
    source = ssc.rate_stream(40, 4)
    state = source.map(_key_one).reduce_by_key(_add, 4).update_state_by_key(
        _count_update, 4
    )
    state.count_per_batch("n")
    policy = ssc.enable_state_checkpointing(1800.0, initial_delta=0.001, min_tau=45.0)
    # √(2·δ·MTTF) ≈ 1.9s here; the floor wins.
    assert policy.tau == 45.0
    policy.set_delta(1e6)
    assert not math.isinf(policy.tau) and policy.tau > 45.0
    with pytest.raises(ValueError):
        policy.set_delta(-1.0)


def test_conservative_delta_is_default(ctx):
    ssc = StreamingContext(ctx, 30.0)
    source = ssc.rate_stream(40, 4)
    state = source.map(_key_one).reduce_by_key(_add, 4).update_state_by_key(
        _count_update, 4
    )
    state.count_per_batch("n")
    policy = ssc.enable_state_checkpointing(1800.0)
    # FTManager-style upper bound: all cluster storage memory as state.
    assert policy.delta > 0


def test_recovery_recomputes_from_last_checkpoint_not_batch_zero():
    """Acceptance: τ-periodic state checkpointing bounds recovery.

    Both runs lose the whole pool after batch 8 of 12.  Without
    checkpointing the next state generation recomputes its entire
    batch-0-to-now lineage; with it, only the segment past the last durable
    state checkpoint.  Task counts and recovery latency must show that gap,
    and the stream's results must not change.
    """
    on = run_recovery_benchmark(checkpointing=True)
    off = run_recovery_benchmark(checkpointing=False)
    assert on["state_checkpoint_marks"] >= 1
    assert off["state_checkpoint_marks"] == 0
    # Same stream, same final state either way.
    assert on["final_state_keys"] == off["final_state_keys"] > 0
    # The unbounded run recomputes several times more work...
    assert off["recovery_tasks"] > 2 * on["recovery_tasks"]
    # ...and the checkpointed run's recovery batch is far cheaper.
    assert on["recovery_batch_latency"] < off["recovery_batch_latency"] / 2
    assert on["recovery_overhead"] < off["recovery_overhead"]
    # Steady-state (pre-revocation) behaviour is unaffected by the policy.
    assert on["steady_batch_latency"] == pytest.approx(
        off["steady_batch_latency"], rel=0.25
    )
    # Every reported number is simulated, so both runs are pinned exactly.
    assert _hex_floats(on) == {
        "steady_batch_latency": "0x1.08c6a7ef9db28p+3",
        "recovery_batch_latency": "0x1.3d4f41f212d70p+4",
        "recovery_overhead": "0x1.71d7dbf487fb8p+3",
        "recovery_tasks": 40,
        "records_per_second": "0x1.c6142ec3683b2p+5",
        "state_checkpoint_marks": "0x1.0000000000000p+3",
        "final_state_keys": "0x1.e000000000000p+4",
    }
    assert _hex_floats(off) == {
        "steady_batch_latency": "0x1.08b851eb851ecp+3",
        "recovery_batch_latency": "0x1.ee8538ef34d88p+5",
        "recovery_overhead": "0x1.ac5724745390dp+5",
        "recovery_tasks": 168,
        "records_per_second": "0x1.b8ee050f635ddp+5",
        "state_checkpoint_marks": "0x0.0p+0",
        "final_state_keys": "0x1.e000000000000p+4",
    }


def test_recovery_benchmark_validates_revocation_point():
    with pytest.raises(ValueError):
        run_recovery_benchmark(num_batches=5, revoke_after_batch=4)
