#!/usr/bin/env python3
"""Write the reference outputs under bench/reference/ from the current code.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right: the files are
what every benchmark run is checked against.  It takes about ten minutes.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as W  # noqa: E402


def sweep():
    entries, examples, classes = {}, {}, {}
    for l in W.SWEEP_LEVELS:
        digests, counts = [], Counter()
        for i in range(W.SWEEP_POOL):
            content = W.certificate_content(W.sweep_op(W.sweep_entry(l, i)))
            digests.append(W.digest(content))
            counts[content["excluded_reason"] or "valid"] += 1
            if i < 2:
                examples.setdefault(str(l), []).append(content)
        entries[str(l)] = digests
        classes[str(l)] = dict(sorted(counts.items()))
    return {
        "about": "entry i of level l is sweep_entry(l, i); each digest covers certificate_content",
        "classes": classes,
        "examples": examples,
        "entries": entries,
    }


def galois():
    entries, labels = {}, {}
    for category in W.GALOIS_CATEGORIES:
        rows = []
        for i in range(W.GALOIS_POOL):
            poly, payload = W.galois_op(W.galois_entry(category, i))
            rows.append([payload["group_label"], payload["certainty"], W.digest(W.report_content(poly, payload))])
        entries[category] = rows
        labels[category] = dict(Counter(f"{r[0]} {r[1]}" for r in rows))
    return {
        "about": "entry i of a category is galois_entry(category, i): [label, certainty, digest of report_content]",
        "labels": labels,
        "entries": entries,
    }


def symbolic():
    gens = W.symbolic_setup()
    return {
        "about": "True/False for identities, a digest of the exact Q(c) result otherwise",
        "tasks": {t: W.symbolic_content(t, W.symbolic_op(t, gens)) for t in W.SYMBOLIC_TASKS},
    }


def battery():
    content = W.battery_content(W.battery_op())
    if content["crashed"]:
        raise SystemExit(f"criteria raised: {content['crashed']}")
    return {
        "about": "AC-5 (l=3 points are trivial) and AC-6 (l=4 fibers split) are documented reds; "
        "content is battery_content of the summary",
        "seed": W.BATTERY_SEED,
        "prime_budget": W.BATTERY_PRIMES,
        "content": content,
    }


def main():
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    for name, make in (("sweep", sweep), ("galois", galois), ("symbolic", symbolic), ("battery", battery)):
        data = make()
        with open(out / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote reference/{name}.json")


if __name__ == "__main__":
    main()
