"""The ``tenancy`` chaos family: engine faults under the hardened server.

Every plan opens with a revocation while the job server is multiplexing
retry-enabled analyst tenants, an invariant-checked result cache, a JSONL
journal, and a batch job.  The harness holds the faulted run bit-identical
to its failure-free reference — admission decisions, cached results, and
query values must not depend on fault-perturbed timing.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import (
    EXTRA_WORKLOADS,
    NUM_WORKERS,
    _TenancyChaosWorkload,
    generate_spec,
    run_chaos,
)
from repro.faults.harness import run_with_plan


def test_tenancy_family_specs_open_with_replaced_revocation():
    for seed in range(12):
        spec = generate_spec(seed, "tenancy")
        clauses = spec.split("; ")
        assert clauses[0].startswith("revoke")
        # The server is long-lived: every revocation must replenish.
        for clause in clauses:
            if clause.startswith("revoke"):
                assert "replace=" in clause


def test_tenancy_workload_is_registered():
    assert EXTRA_WORKLOADS["Tenancy"] is _TenancyChaosWorkload


@pytest.mark.parametrize("seed", [0, 1])
def test_tenancy_plans_match_reference(seed):
    spec = generate_spec(seed, "tenancy")
    report = run_with_plan(
        _TenancyChaosWorkload,
        spec,
        num_workers=NUM_WORKERS,
        checkpointing=True,
        mttf=1800.0,
    )
    assert report.results_match
    assert not report.violations


def test_tenancy_family_sweep():
    report = run_chaos(
        seeds=range(2),
        workloads=["Tenancy"],
        families=["tenancy"],
    )
    assert report.plans_run == 2
    assert report.passed
