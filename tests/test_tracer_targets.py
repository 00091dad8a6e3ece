"""Every callable the benchmark tracer wraps must exist under its name.

The tracer reports a target it cannot find as 0 and traces the rest, so a
rename in the library would only show up as a zero in the benchmark; this
test fails instead.  bench/tracer.py is read and executed from its source,
so nothing is written under bench/.
"""

import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    targets = [*tracer.SPANNED, *(target for target, _ in tracer.CRITERIA), *tracer.COUNTED]
    missing = []
    for target in targets:
        try:
            owner, attr = tracer._resolve(target)
            if not callable(getattr(owner, attr)):
                missing.append(target)
        except (ImportError, AttributeError):
            missing.append(target)
    assert targets
    assert not missing
