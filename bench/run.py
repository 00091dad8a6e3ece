#!/usr/bin/env python3
"""Run one ellquot benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the library is imported from the
checkout's ``src``.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans are written to
``bench/out/spans-<workload>.jsonl.gz``.  The lines before it are a table
with the raw and the scaled figures and those that are not gated.

Times are scaled to a reference machine speed (see calibration.py).
Everything runs in one process at a time: the measuring process, or one
fresh interpreter after another, never a pool or a thread; the calibration
helper runs only while the process that asked for a sample waits.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("battery", "sweep", "galois", "symbolic")
# set-ups timed per run: at least the first figure, then more until they
# add up to SETUP_TOTAL_S, at most the second
SETUP_SAMPLES = (3, 9)
SETUP_TOTAL_S = 4.0
SETUP_CAL_AFTER = 10  # calibration samples right after a set-up, for short ones
RUN_BUDGET_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
STARTED = time.perf_counter()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the same script runs as a fresh interpreter for one task
    parser.add_argument("--child", choices=("setup", "battery", "symbolic"), help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--op-base", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--probe-fds", type=int, nargs=2, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _start_tracer(trace, op=0):
    if not trace:
        return None
    t = tracer.Tracer()
    t.install()
    t.op = op
    return t


def _sampler(t):
    """Calibration sampler; a traced run records each sample as a span."""
    if t is None:
        return calibration.Sampler()
    return calibration.Sampler(lambda start, end: t.record("calibration", start, end))


class Run:
    """What one run measured: raw times and the calibration samples of its window."""

    def __init__(self):
        self.latencies = []  # (ms, factor or None for the run's), calibration taken out
        self.pass_means = []  # symbolic: (mean task ms, factor) per pass
        self.setups = []  # (s, factor), each in a fresh interpreter
        self.cal = []  # calibration samples taken in the window
        self.ops = 0
        self.window = 0.0  # wall seconds of the window, calibration taken out
        self.mismatches = []
        self.traces = []
        self.rss = 0.0

    def factor(self):
        return calibration.factor(self.cal)


# ---------------------------------------------------------------------------
# Fresh-interpreter tasks (--child)


def _set_up(args):
    """Import the library and build the workload's inputs: what setup_s times."""
    import workloads

    if args.workload in ("sweep", "galois"):
        return workloads, getattr(workloads, f"{args.workload}_setup")(args.seed)
    if args.workload == "symbolic":
        return workloads, workloads.symbolic_setup()
    return workloads, None


def _timed_set_up(args):
    """(workloads, inputs, seconds, factor) of one set-up in this process.

    The factor comes from calibration samples taken during the set-up and
    right after it, so it reflects the machine's speed at that moment.
    """
    with calibration.Sampler() as sampler:
        start = time.perf_counter()
        workloads, inputs = _set_up(args)
        seconds = time.perf_counter() - start - sampler.spent
    after = [calibration.sample() for _ in range(SETUP_CAL_AFTER)]
    return workloads, inputs, seconds, calibration.factor(sampler.samples + after)


def child_setup(args):
    _, _, seconds, factor = _timed_set_up(args)
    return {"setup": [seconds, factor]}


def child_battery(args):
    workloads, _, setup_s, setup_factor = _timed_set_up(args)
    t = _start_tracer(args.trace, args.op_base)
    with _sampler(t) as sampler:
        begin = time.perf_counter()
        summary = workloads.battery_op()
        op_s = time.perf_counter() - begin - sampler.spent
    if t is not None:
        t.uninstall()
    out = {
        "setup": [setup_s, setup_factor],
        "op_s": op_s,
        "cal": sampler.samples,
        "cal_spent": sampler.spent,
        "content": workloads.battery_content(summary),
    }
    if t is not None:
        out["trace"] = t.export()
    return out


def child_symbolic(args):
    workloads, gens, setup_s, setup_factor = _timed_set_up(args)
    tasks = list(workloads.SYMBOLIC_TASKS)
    random.Random(f"{args.seed}-symbolic-{args.pass_index}").shuffle(tasks)
    t = _start_tracer(args.trace, args.op_base)
    results = []
    with _sampler(t) as sampler:
        for k, task in enumerate(tasks):
            if t is not None:
                t.op = args.op_base + k
            begin, spent = time.perf_counter(), sampler.spent
            try:
                output = workloads.symbolic_op(task, gens)
            except Exception as exc:  # a raising op is a failure, the pass goes on
                output = f"{type(exc).__name__}: {exc}"
            results.append([task, time.perf_counter() - begin - (sampler.spent - spent), output])
    if t is not None:
        t.uninstall()
    for row in results:
        task, _, output = row
        if not isinstance(output, str):
            row[2] = {"content": workloads.symbolic_content(task, output)}
    out = {
        "setup": [setup_s, setup_factor],
        "results": results,
        "cal": sampler.samples,
        "cal_spent": sampler.spent,
    }
    if t is not None:
        out["trace"] = t.export()
    return out


CHILDREN = {"setup": child_setup, "battery": child_battery, "symbolic": child_symbolic}


def _spawn(args, kind, **extra):
    """Run one fresh interpreter to completion; its last stdout line is JSON."""
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--child", kind,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--probe-fds", *map(str, calibration.probe().fds),
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    timeout = max(10.0, RUN_BUDGET_S - (time.perf_counter() - STARTED))
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT, pass_fds=calibration.probe().fds
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {kind} child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"run.py: {kind} child failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _top_up_setups(args, run):
    """More set-up times, each in a fresh interpreter (see SETUP_SAMPLES)."""
    fewest, most = SETUP_SAMPLES
    while len(run.setups) < fewest or (
        len(run.setups) < most and sum(s for s, _ in run.setups) < SETUP_TOTAL_S
    ):
        res = _spawn(args, "setup")
        if res is None:
            break
        run.setups.append(tuple(res["setup"]))


# ---------------------------------------------------------------------------
# Workload runners


def _local_factor(samples):
    """Factor of one battery or pass from its own samples; None: use the run's."""
    return calibration.factor(samples) if samples else None


def _load_reference(name):
    with open(BENCH / "reference" / f"{name}.json") as fh:
        return json.load(fh)


def run_in_process(args, run):
    """sweep and galois: set up, then a closed loop of one client."""
    workloads, (inputs, feed), setup_s, setup_factor = _timed_set_up(args)
    run.setups.append((setup_s, setup_factor))
    op = getattr(workloads, f"{args.workload}_op")
    check = getattr(workloads, f"{args.workload}_check")
    reference = _load_reference(args.workload)

    t = _start_tracer(args.trace)
    clock = time.perf_counter
    n = 0
    paused = 0.0  # building further chunks of inputs, calibration taken out
    with _sampler(t) as sampler:
        begin = clock()
        while clock() - begin - paused < args.seconds:
            if n == len(inputs):
                t0, spent = clock(), sampler.spent
                if t is not None:
                    t.uninstall()
                more = feed.take()
                if t is not None:
                    t.install()
                paused += clock() - t0 - (sampler.spent - spent)
                if not more:
                    raise SystemExit(
                        f"run.py: all {n} inputs of the {args.workload} pool used within "
                        f"{args.seconds:g} s; enlarge the pool in workloads.py"
                    )
                inputs += more
            key, inp = inputs[n]
            if t is not None:
                t.op = n
            n += 1
            t0, spent = clock(), sampler.spent
            try:
                output = op(inp)
            except Exception as exc:  # a raising op is a failure, the loop goes on
                run.mismatches.append((key, f"{type(exc).__name__}: {exc}"))
                continue
            run.latencies.append(((clock() - t0 - (sampler.spent - spent)) * 1e3, None))
            if not check(key, output, reference):
                run.mismatches.append((key, "output differs from the reference"))
        run.window = clock() - begin - sampler.spent - paused
    run.cal = sampler.samples
    run.rss = _rss_mb(resource.RUSAGE_SELF)
    run.ops = n
    if t is not None:
        t.uninstall()
        run.traces.append(t.export())


def run_battery(args, run):
    """One battery per fresh interpreter, one after another."""
    reference = _load_reference("battery")["content"]
    spent = 0.0
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds:
        res = _spawn(args, "battery", op_base=run.ops)
        run.ops += 1
        if res is None:
            run.mismatches.append((run.ops - 1, "battery process failed"))
            break
        run.setups.append(tuple(res["setup"]))
        run.latencies.append((res["op_s"] * 1e3, _local_factor(res["cal"])))
        run.cal += res["cal"]
        spent += res["cal_spent"]
        if res["content"] != reference:
            diff = {k: v for k, v in res["content"].items() if reference.get(k) != v}
            run.mismatches.append((run.ops - 1, f"differs from the reference: {diff}"))
        if "trace" in res:
            run.traces.append(res["trace"])
    run.window = time.perf_counter() - begin - spent
    run.rss = _rss_mb(resource.RUSAGE_CHILDREN)


def run_symbolic(args, run):
    """One pass over the Q(c) tasks per fresh interpreter, one after another."""
    import workloads

    reference = _load_reference("symbolic")["tasks"]
    spent = 0.0
    begin = time.perf_counter()
    pass_index = 0
    while time.perf_counter() - begin < args.seconds:
        res = _spawn(args, "symbolic", pass_index=pass_index, op_base=run.ops)
        pass_index += 1
        if res is None:
            run.ops += len(workloads.SYMBOLIC_TASKS)
            run.mismatches.append((pass_index - 1, "symbolic process failed"))
            break
        run.setups.append(tuple(res["setup"]))
        run.cal += res["cal"]
        spent += res["cal_spent"]
        times = []
        for task, seconds, output in res["results"]:
            run.ops += 1
            times.append(seconds * 1e3)
            if isinstance(output, str):
                run.mismatches.append((task, output))
            elif output["content"] != reference[task]:
                run.mismatches.append((task, "output differs from the reference"))
        f = _local_factor(res["cal"])
        run.latencies += [(ms, f) for ms in times]
        run.pass_means.append((statistics.fmean(times), f))
        if "trace" in res:
            run.traces.append(res["trace"])
    run.window = time.perf_counter() - begin - spent
    run.rss = _rss_mb(resource.RUSAGE_CHILDREN)


RUNNERS = {
    "battery": run_battery,
    "sweep": run_in_process,
    "galois": run_in_process,
    "symbolic": run_symbolic,
}


# ---------------------------------------------------------------------------
# Reporting


def tail(latencies):
    """(percentile, value, samples beyond) at the highest ladder step with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(n * q / 100.0)
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1], n - rank
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_mismatches(mismatches):
    for key, why in mismatches[:10]:
        print(f"  FAIL {key}: {why}")


def _p50(run, f):
    """Median latency; for symbolic the median over passes of the mean task time.

    Each time is scaled by the factor of its own process when it has one
    (a battery, a pass), else by the run's factor f; f=None leaves it raw.
    """
    rows = run.pass_means or run.latencies
    return statistics.median(ms * (g or f) if f else ms for ms, g in rows)


def end_to_end(args, run):
    if not run.latencies or not run.setups:
        _print_mismatches(run.mismatches)
        raise SystemExit("run.py: no operation completed, so there is nothing to report")
    f = run.factor()
    failed = len(run.mismatches)
    metrics = {
        "setup_s": _metric(statistics.median(s * g for s, g in run.setups), "s"),
        "ops_per_s": _metric(run.ops / (run.window * f), "1/s"),
        "op_p50_ms": _metric(_p50(run, f), "ms"),
        "peak_rss_mb": _metric(run.rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(s for s, _ in run.setups),
        "ops_per_s": run.ops / run.window,
        "op_p50_ms": _p50(run, None),
        "peak_rss_mb": run.rss,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace 0")
    print(f"  speed factor {f:.4f} from {len(run.cal)} calibration samples (scaled = raw * factor)")
    print(f"  {'metric':<12} {'scaled':>12} {'raw':>12}")
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:>12.6g} {raw[name]:>12.6g} {m['unit']}")
    latencies = [ms * (g or f) for ms, g in run.latencies]
    found = tail(latencies)
    if found:
        q, value, beyond = found
        print(f"  {'op_tail_ms':<12} {value:>12.6g}  (p{q:g}, {beyond} of {len(latencies)} samples beyond)")
    else:
        print(f"  {'op_tail_ms':<12} {'n/a':>12}  ({len(latencies)} samples: no percentile has 10 beyond it)")
    print(f"  {'fail_frac':<12} {failed / max(run.ops, 1):>12.6g}  ({failed} of {run.ops} ops)")
    print(f"  set-up samples {len(run.setups)}; window {run.window:.3f} s without calibration")
    _print_mismatches(run.mismatches)
    return {"correct": failed == 0, "attempted": run.ops, "failed": failed, "metrics": metrics}


def per_layer(args, run):
    f = run.factor()
    merged = tracer.merge(run.traces)
    values = tracer.layer_metrics(merged, run.ops, scale=f)
    metrics = {name: _metric(values[name], unit) for name, unit in tracer.metric_names()}
    metrics["trace.ops_per_s"] = _metric(run.ops / (run.window * f), "1/s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        header = {"names": merged["names"], "fields": ["name", "start", "end", "parent", "op"], "speed_factor": f}
        fh.write(json.dumps(header) + "\n")
        for span in merged["spans"]:
            fh.write(json.dumps(span) + "\n")
    failed = len(run.mismatches)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace 1")
    print(f"  speed factor {f:.4f}; {len(merged['spans'])} spans over {run.ops} ops in {path.relative_to(ROOT)}")
    _print_mismatches(run.mismatches)
    return {"correct": failed == 0, "attempted": run.ops, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "ellquot" / "__init__.py").is_file():
        print(f"run.py: no ellquot sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.child:
        with calibration.helper(args.probe_fds):
            print(json.dumps(CHILDREN[args.child](args)))
        return 0
    # compile once up front, so no timed import pays for bytecode compilation
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1, maxlevels=0)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process, its fresh interpreters and the calibration
        # helper, which inherit it: the samples then meet the CPU the measured
        # code runs on, and nothing migrates mid-operation
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run()
    with calibration.helper():
        RUNNERS[args.workload](args, run)
        if not args.trace:
            _top_up_setups(args, run)
    result = per_layer(args, run) if args.trace else end_to_end(args, run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
