"""A finished task is freed by reference counting, not by the cyclic collector.

A dispatched task's completion event carries the task as its payload, and
the task remembers the event so a revocation can cancel it.  Unless the
scheduler breaks that pair when the task leaves ``running``, every task —
with its result, pending puts, computed rows and map output — waits for a
full collection.
"""

import gc

from tests.conftest import build_on_demand_context


def test_a_job_leaves_no_cyclic_garbage():
    ctx = build_on_demand_context(2)
    rdd = ctx.parallelize([(i % 7, i) for i in range(200)], 4, record_size=100)
    gc.collect()
    gc.disable()
    try:
        result = rdd.reduce_by_key(lambda a, b: a + b, 3).collect()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sorted(result) == sorted(
        (k, sum(i for i in range(200) if i % 7 == k)) for k in range(7)
    )
    assert ctx.scheduler.stats.tasks_completed > 0
