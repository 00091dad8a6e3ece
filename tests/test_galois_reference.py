"""The first galois benchmark entries still give their reference reports.

This test imports bench/workloads.py, read and executed from its source so
that nothing is written under bench/, and fails (it does not skip) when that
module is missing.  For the first three pool entries of each category it
runs the benchmark's own galois_entry, galois_op and galois_check against
bench/reference/galois.json, so a change to a report's label, certainty or
content digest fails tier-1 and not only a benchmark run.
"""

import functools
import json
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
ENTRIES = 3


@functools.cache
def _workloads():
    path = BENCH / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


REFERENCE = json.loads((BENCH / "reference" / "galois.json").read_text())


@pytest.mark.parametrize("category", sorted(REFERENCE["entries"]))
def test_first_entries_match_the_galois_reference(category):
    workloads = _workloads()
    for index in range(ENTRIES):
        output = workloads.galois_op(workloads.galois_entry(category, index))
        assert workloads.galois_check((category, index), output, REFERENCE), (category, index)
