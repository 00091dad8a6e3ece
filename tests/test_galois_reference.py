"""The first galois benchmark entries still give their reference reports.

This test imports bench/workloads.py, read and executed from its source so
that nothing is written under bench/, and fails (it does not skip) when that
module is missing.  For the first three pool entries of each category it
runs the benchmark's own galois_entry, galois_op and galois_check against
bench/reference/galois.json, so a change to a report's label, certainty or
content digest fails tier-1 and not only a benchmark run.
"""

import pytest

from bench_source import reference, workloads

ENTRIES = 3
REFERENCE = reference("galois")


@pytest.mark.parametrize("category", sorted(REFERENCE["entries"]))
def test_first_entries_match_the_galois_reference(category):
    wl = workloads()
    for index in range(ENTRIES):
        output = wl.galois_op(wl.galois_entry(category, index))
        assert wl.galois_check((category, index), output, REFERENCE), (category, index)
