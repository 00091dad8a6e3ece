"""Tests of the benchmark itself: references, tracer and result contract.

    python3 -m pytest bench/test_bench.py

The sympy cross-check regenerates the whole galois pool (5000 entries)
and takes about nine minutes; sympy is used here only, never in a timed
run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import ellquot  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def _reference(name):
    with open(BENCH / "reference" / f"{name}.json") as fh:
        return json.load(fh)


def _sympy_label(coeffs):
    """Our label for the polynomial, computed independently by sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    x = sympy.symbols("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain=sympy.QQ)
    if not poly.is_irreducible:
        return "other"
    group, _ = galois_group(poly, by_name=True)
    name = group.name
    if poly.degree() == 3:
        return {"A3": "C3", "S3": "S3"}[name]
    if poly.degree() == 4:
        return {"V": "V4"}.get(name, name)
    if poly.degree() == 5:
        return {"M20": "F20"}.get(name, name)
    return "C6" if name == "C6" else "other"


def test_galois_reference_labels_agree_with_sympy():
    entries = _reference("galois")["entries"]
    disagreements = []
    for category in W.GALOIS_CATEGORIES:
        for i, (label, _, _) in enumerate(entries[category]):
            poly, _ = W.galois_entry(category, i)
            expected = _sympy_label(poly.coeffs)
            if expected != label:
                disagreements.append((category, i, label, expected))
    assert not disagreements


def test_battery_reference_keeps_the_documented_reds():
    content = _reference("battery")["content"]
    assert sorted(k for k, ok in content["ledger"].items() if not ok) == ["AC-5", "AC-6"]
    assert len(content["ledger"]) == 12
    assert content["crashed"] == []
    assert content["AC-5"]["draws"]["3"]["valid"] == 0 and content["AC-5"]["l3_analysis"]
    assert content["AC-6"]["4"] == {"checked": content["AC-5"]["draws"]["4"]["valid"], "pass": False}


def test_a_crashed_red_criterion_is_a_failure():
    """run_battery turns a raising criterion into passed=False, like the reds."""
    reference = _reference("battery")["content"]
    criteria = [{"name": n, "passed": ok, "detail": ""} for n, ok in reference["ledger"].items()]
    for c in criteria:
        if c["name"] in ("AC-5", "AC-6"):
            c["detail"] = "exception: ZeroDivisionError: division by zero"
    content = W.battery_content({"criteria": criteria})
    assert content["ledger"] == reference["ledger"]
    assert content["crashed"] == ["AC-5", "AC-6"]
    assert content != reference


def test_feed_builds_distinct_inputs_a_chunk_at_a_time():
    first, feed = W.galois_setup(seed=3)
    assert len(first) == W.GALOIS_CHUNK * len(W.GALOIS_CATEGORIES)
    keys = [key for key, _ in first]
    while True:
        chunk = feed.take()
        if not chunk:
            break
        keys += [key for key, _ in chunk]
    assert len(keys) == len(set(keys)) == W.GALOIS_POOL * len(W.GALOIS_CATEGORIES)


def test_calibration_samples_do_not_use_the_measured_heap():
    """The helper runs the workload, so nothing the library holds can slow it."""
    tracemalloc.start()
    try:
        calibration._work()
        _, in_process = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with calibration.helper():
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert calibration.sample() > 0
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert in_process > 100_000
    assert peak - base < 10_000


def test_sweep_reference_matches_fresh_certificates():
    reference = _reference("sweep")
    for l in W.SWEEP_LEVELS:
        for i in (0, 1, W.SWEEP_POOL - 1):
            assert W.sweep_check((l, i), W.sweep_op(W.sweep_entry(l, i)), reference)


def test_tracer_rebinds_every_module_that_imported_a_target():
    t = tracer.Tracer()
    t.install()
    try:
        for module, name in [
            (ellquot.factor, "factor_mod_p"),
            (ellquot.galois, "factor_mod_p"),
            (ellquot.galois, "rational_roots"),
            (ellquot.verify, "factor_over_Q"),
            (ellquot.verify, "frobenius_patterns"),
            (ellquot, "certify"),
        ]:
            assert hasattr(getattr(module, name), "__traced_original__"), (module.__name__, name)
        assert not t.missing
        t.op = 0
        poly, payload = W.galois_op(W.galois_entry("p_ncl5", 0))
    finally:
        t.uninstall()
    assert not hasattr(ellquot.galois.factor_mod_p, "__traced_original__")
    values = tracer.layer_metrics(t.export(), ops=1)
    # every sampled prime is one factor_mod_p call made through galois.py
    assert values["factor.factor_mod_p.calls"] == payload["primes_used"]
    assert values["galois.galois_group.calls"] == 1
    assert values["curves.WeierstrassCurve.add.calls"] == 0
    assert values["galois.exact_share"] == (payload["certainty"] == "exact")


def test_self_time_is_duration_minus_child_coverage():
    trace = {
        "names": ["poly.resultant", "poly.discriminant"],
        # discriminant [0, 10] calls resultant twice: [1, 3] and [5, 9]
        "spans": [[1, 0.0, 10.0, -1, 0], [0, 1.0, 3.0, 0, 0], [0, 5.0, 9.0, 0, 0]],
        "counts": {},
    }
    values = tracer.layer_metrics(tracer.merge([trace, trace]), ops=2)
    assert values["poly.discriminant.self_s"] == pytest.approx(4.0)
    assert values["poly.resultant.self_s"] == pytest.approx(6.0)
    assert values["poly.resultant.calls"] == 2


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail(list(range(99))) is None
    assert run.tail(list(range(100))) == (90.0, 89, 10)
    assert run.tail(list(range(1000)))[0] == 99.0


def test_benchmark_json_lists_every_per_layer_metric():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == tracer.metric_names() + [("trace.ops_per_s", "1/s")]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
