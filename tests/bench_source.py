"""Modules of bench/ read and executed from their source, and its references.

Nothing is written under bench/ (no bytecode cache), and a missing module or
reference file raises, so a test that uses one fails instead of skipping.
"""

import functools
import json
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    """A fresh module executed from bench/<name>.py."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@functools.cache
def workloads():
    return load("workloads")


def reference(name):
    return json.loads((BENCH / "reference" / f"{name}.json").read_text())
