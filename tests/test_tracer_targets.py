"""Every callable the benchmark tracer wraps must exist under its name.

The tracer reports a target it cannot find as 0 and traces the rest, so a
rename in the library would only show up as a zero in the benchmark; this
test fails instead.  bench/tracer.py is read and executed from its source,
so nothing is written under bench/.
"""

from bench_source import load


def test_every_tracer_target_resolves():
    tracer = load("tracer")
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


def test_tracer_installs_and_uninstalls_as_the_benchmark_does():
    """install() rebinds every importing module and raises on a stale reference.

    The pairs are the ones bench/test_bench.py pins: a module that stops
    importing a target by name (say `from . import factor`) fails here.
    """
    import ellquot
    import ellquot.cli  # noqa: F401  every library module is loaded before install
    import ellquot.jsonio  # noqa: F401

    pinned = [
        (ellquot.factor, "factor_mod_p"),
        (ellquot.galois, "factor_mod_p"),
        (ellquot.galois, "rational_roots"),
        (ellquot.verify, "factor_over_Q"),
        (ellquot.verify, "frobenius_patterns"),
        (ellquot, "certify"),
    ]
    originals = [getattr(module, name) for module, name in pinned]
    t = load("tracer").Tracer()
    try:
        t.install()
        assert not t.missing
        for module, name in pinned:
            assert hasattr(getattr(module, name), "__traced_original__"), (module.__name__, name)
    finally:
        t.uninstall()
    for (module, name), original in zip(pinned, originals):
        assert getattr(module, name) is original, (module.__name__, name)
