"""Spans and counts around the public callables of each ellquot module.

The library is not edited: install() replaces each target with a wrapper in
every ellquot module that holds it by name (``ellquot.galois.factor_mod_p``
as well as ``ellquot.factor.factor_mod_p``), and on its class for methods.
Spans stay in memory as [name, start, end, parent, op] lists; self time is
derived after the run as duration minus the time covered by child spans.
Single-threaded code nests spans strictly, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPANNED = (
    "factor.factor_mod_p",
    "factor.factor_over_Q",
    "factor.rational_roots",
    "galois.frobenius_patterns",
    "galois.galois_group",
    "galois.cyclic_from_fiber",
    "poly.discriminant",
    "poly.resultant",
    "poly.UniPoly.gcd",
    "curves.kubert_curve",
    "curves.WeierstrassCurve.add",
    "curves.WeierstrassCurve.contains",
    "curves.WeierstrassCurve.is_infinite_order",
    "isogeny.velu_quotient",
    "isogeny.has_rational_preimage",
    "isogeny.fiber_polynomial",
    "constructions.certify",
    "constructions.quotient_model",
    "constructions.verify_defining_identity",
    "families.check_brumer_substitution",
    "families.check_darmon_transform",
    "families.gras_resultant_identity",
    "families.check_shanks_reproduction",
    "jsonio.certificate_to_json",
    "jsonio.galois_report_to_json",
)
# battery criteria, spanned under the names of the battery summary
CRITERIA = tuple((f"verify.ac{k}", f"verify.AC-{k}") for k in range(1, 12))
COUNTED = ("funcfield.RatFunc.__init__",)

RATIOS = (
    ("curves.contains_per_add", "curves.WeierstrassCurve.contains", "curves.WeierstrassCurve.add"),
    ("galois.primes_per_patterns_call", "factor.factor_mod_p", "galois.frobenius_patterns"),
    ("poly.discriminant_per_report", "poly.discriminant", "galois.galois_group"),
    ("galois.exact_share", "galois.exact_reports", "galois.galois_group"),
)


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPANNED:
        out.append((f"{name}.calls", "1/op"))
        out.append((f"{name}.self_s", "s/op"))
    out += [(f"{label}.s", "s/op") for _, label in CRITERIA]
    out += [(f"{name}.calls", "1/op") for name in COUNTED]
    out += [(name, "ratio") for name, _, _ in RATIOS]
    return out


def _resolve(target):
    """(owner, attribute) of 'module.name' or 'module.Class.method'."""
    module_name, _, rest = target.partition(".")
    owner = importlib.import_module(f"ellquot.{module_name}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps the targets while installed; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}
        self.op = -1
        self.missing = []
        self._stack = []
        self._restore = []

    def install(self):
        for target in SPANNED:
            inspect = self._count_exact if target == "galois.galois_group" else None
            self._replace(target, lambda fn, t=target, i=inspect: self._spanned(t, fn, i))
        for target, label in CRITERIA:
            self._replace(target, lambda fn, t=label: self._spanned(t, fn, None))
        for target in COUNTED:
            self._replace(target, lambda fn, t=target: self._counted(t, fn))
        self._check_no_stale_references()

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, target, make_wrapper):
        try:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            # a later refactor renamed the target: report it, trace the rest
            self.missing.append(target)
            print(f"tracer: {target} not found, reported as 0", file=sys.stderr)
            return
        wrapper = make_wrapper(original)
        wrapper.__traced_original__ = original
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in _library_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def _check_no_stale_references(self):
        """Fail loudly when a target sits in a module-level table or list."""
        originals = {id(original) for _, _, original in self._restore}
        for module in _library_modules():
            for name, value in vars(module).items():
                items = ()
                if isinstance(value, dict):
                    items = value.values()
                elif isinstance(value, (list, tuple)):
                    items = value
                if any(id(item) in originals for item in items):
                    raise RuntimeError(
                        f"{module.__name__}.{name} holds a traced callable the tracer cannot rebind"
                    )

    def _spanned(self, name, fn, inspect):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if inspect is not None:
                inspect(result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_exact(self, report):
        if report.certainty == "exact":
            self.counts["galois.exact_reports"] = self.counts.get("galois.exact_reports", 0) + 1

    def record(self, name, start, end):
        """A span that did not come from a wrapper, such as a calibration sample."""
        if name not in self.names:
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.names.index(name), start, end, parent, self.op])

    def export(self):
        """Plain data for another process: names, spans and counts."""
        return {"names": self.names, "spans": self.spans, "counts": self.counts}


def _library_modules():
    """ellquot's modules and the benchmark's, which call the library by name."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name in ("ellquot", "workloads") or name.startswith("ellquot.")
    ]


def merge(parts):
    """Join exported traces of several processes; op ids must already be global."""
    names, spans, counts = [], [], {}
    for part in parts:
        ids = []
        for name in part["names"]:
            if name not in names:
                names.append(name)
            ids.append(names.index(name))
        offset = len(spans)
        for name_id, start, end, parent, op in part["spans"]:
            spans.append([ids[name_id], start, end, parent + offset if parent >= 0 else -1, op])
        for name, n in part["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"names": names, "spans": spans, "counts": counts}


def layer_metrics(trace, ops, scale=1.0):
    """Per-layer metrics from a (merged) trace of `ops` operations.

    Times are multiplied by `scale`, the run's calibration factor.
    """
    names, spans, counts = trace["names"], trace["spans"], trace["counts"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s, total_s = {}, {}, {}
    for i, (name_id, start, end, _, _) in enumerate(spans):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    per_op = max(ops, 1)
    values = {}
    for name in SPANNED:
        values[f"{name}.calls"] = calls.get(name, 0) / per_op
        values[f"{name}.self_s"] = self_s.get(name, 0.0) * scale / per_op
    for _, label in CRITERIA:
        values[f"{label}.s"] = total_s.get(label, 0.0) * scale / per_op
    for name in COUNTED:
        values[f"{name}.calls"] = counts.get(name, 0) / per_op
    tally = dict(calls, **{"galois.exact_reports": counts.get("galois.exact_reports", 0)})
    for name, top, base in RATIOS:
        values[name] = tally.get(top, 0) / tally[base] if tally.get(base) else 0.0
    return values
