"""The sweep and symbolic benchmark entries still give their reference outputs.

This test imports bench/workloads.py, read and executed from its source so
that nothing is written under bench/, and fails (it does not skip) when that
module is missing.  It runs the first 50 sweep pool entries of each l through
the benchmark's own sweep_entry, sweep_op and sweep_check against
bench/reference/sweep.json, and every symbolic task through symbolic_op and
symbolic_content against bench/reference/symbolic.json, so a change to a
certificate or to an exact Q(c) result fails tier-1 and not only a benchmark
run.
"""

import pytest

from bench_source import reference, workloads

SWEEP_ENTRIES = 50
SWEEP_REFERENCE = reference("sweep")
SYMBOLIC_REFERENCE = reference("symbolic")["tasks"]


@pytest.mark.parametrize("l", workloads().SWEEP_LEVELS)
def test_first_entries_match_the_sweep_reference(l):
    wl = workloads()
    for index in range(SWEEP_ENTRIES):
        output = wl.sweep_op(wl.sweep_entry(l, index))
        assert wl.sweep_check((l, index), output, SWEEP_REFERENCE), (l, index)


def test_the_symbolic_reference_covers_every_task():
    assert sorted(SYMBOLIC_REFERENCE) == sorted(workloads().SYMBOLIC_TASKS)


@pytest.mark.parametrize("task", workloads().SYMBOLIC_TASKS)
def test_symbolic_task_matches_its_reference(task):
    wl = workloads()
    output = wl.symbolic_op(task, wl.symbolic_setup())
    assert wl.symbolic_content(task, output) == SYMBOLIC_REFERENCE[task]
