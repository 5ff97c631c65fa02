"""Spans and counters around calls into qcap's modules, for the traced run.

The tracer wraps module attributes and class methods of an imported qcap in
place; it changes no file.  Every binding of a wrapped function in any
``qcap`` module is replaced, so ``from qcap.series import div_exact`` copies
are traced too.  A span is (name, parent, start, end); spans are held in
arrays and written out once, at the end of the pass.  A span's self time is
its duration minus the durations of its direct children.

Functions and caches a later change removes from qcap are skipped, and
their metrics are left out of the result (absent), not reported as 0 and
not an error.  A metric whose function is there but was not called on a
workload reads 0.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable

# Operand-length product above which a multiplication counts as
# series.mul_large.  Fixed here, independent of qcap's own Kronecker cutoff,
# so the split stays comparable across changes to that cutoff.
MUL_LARGE_BOUNDARY = 4096

# Every per-layer metric, in report order, with its unit.
METRICS: tuple[tuple[str, str], ...] = (
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul_large.calls", "count"),
    ("series.mul_large.self_s", "s"),
    ("series.mul.coeff_products", "count"),
    ("series.mul.kept_ratio", "ratio"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("series.div_exact.calls", "count"),
    ("series.div_exact.self_s", "s"),
    ("series.div_exact.work", "count"),
    ("series.inverse.calls", "count"),
    ("series.inverse.self_s", "s"),
    ("series.compare.calls", "count"),
    ("series.compare.self_s", "s"),
    ("qcombinat.poch_ratio.calls", "count"),
    ("qcombinat.poch_ratio.self_s", "s"),
    ("qcombinat.q_binomial.calls", "count"),
    ("qcombinat.q_binomial.self_s", "s"),
    ("qcombinat.warnaar_s.calls", "count"),
    ("qcombinat.warnaar_s.self_s", "s"),
    ("qcombinat.pochhammer_inf.self_s", "s"),
    ("qcombinat.cache_hit_ratio", "ratio"),
    ("qcombinat.cache_entries", "count"),
    ("identities.verify_case.calls", "count"),
    ("identities.verify_case.self_s", "s"),
    ("identities.verify_case.p50_ms", "ms"),
    ("identities.verify_case.p90_ms", "ms"),
    ("identities.reference_side_s", "s"),
    ("identities.other_sides_s", "s"),
    ("bailey.verify_bailey_theorem.s", "s"),
    ("bailey.generate_hierarchy_lhs.s", "s"),
    ("recurrences.verify_catalog.s", "s"),
    ("recurrences.verify_factor_witness.s", "s"),
    ("recurrences.verify_initial_condition_argument.s", "s"),
    ("partitions.count_c.s", "s"),
    ("partitions.count_d.s", "s"),
    ("partitions.weighted_sum.s", "s"),
    ("partitions.enumerated", "count"),
    ("partitions.member_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

# Metrics that must repeat exactly between two traced runs with one seed.
COUNT_METRICS = tuple(name for name, unit in METRICS
                      if unit in ("count", "bytes"))

# Plain spans: (module, attribute).  The span is named "<module>.<attribute>".
_SPANS = (
    ("series", "inverse"), ("series", "compare"),
    ("qcombinat", "poch_ratio"), ("qcombinat", "q_binomial"),
    ("qcombinat", "warnaar_s"), ("qcombinat", "pochhammer_inf"),
    ("identities", "verify_case"),
    ("bailey", "verify_bailey_theorem"), ("bailey", "generate_hierarchy_lhs"),
    ("recurrences", "verify_catalog"), ("recurrences", "verify_factor_witness"),
    ("recurrences", "verify_initial_condition_argument"),
    ("partitions", "count_c"), ("partitions", "count_d"),
    ("partitions", "weighted_sum"),
    ("cli", "main"),
)

# Class predicates of the partition oracle; a true result is a class member.
_PREDICATES = ("in_class_c", "in_class_d", "_no_part_multiple_of_3")


# Metrics whose source is not their name less its last part.
_SOURCES = {
    "qcombinat.cache_hit_ratio": "qcombinat.caches",
    "qcombinat.cache_entries": "qcombinat.caches",
    "identities.reference_side_s": "identities.reference_side",
    "identities.other_sides_s": "identities.other_side",
    "partitions.enumerated": "partitions.enumerated",
    "partitions.member_ratio": "partitions.members",
    "cli.output_bytes": "cli.output",
}


def _source(metric: str) -> str:
    """The span or counter install() must find for a metric to be present."""
    return _SOURCES.get(metric, metric.rpartition(".")[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Holds the spans and counters of one pass; install() wraps qcap."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters: Counter[str] = Counter()
        self.caches: dict[str, object] = {}
        # Sources found at install(): span names and the counters' sources
        # in _SOURCES.  A metric whose source is missing is absent.
        self.installed: set[str] = {"cli.output"}

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.kind.append(name_id)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def span(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point of the already imported qcap."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "qcap" or name.startswith("qcap.")}
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if callable(getattr(value, "cache_info", None)):
                    self.caches[f"{value.__module__}.{value.__qualname__}"] = value
        if any(name.startswith("qcap.qcombinat.") for name in self.caches):
            self.installed.add("qcombinat.caches")
        for module, attr in _SPANS:
            fn = getattr(modules.get(f"qcap.{module}"), attr, None)
            if fn is not None:
                self._rebind(modules, fn, self.span(f"{module}.{attr}", fn))
                self.installed.add(f"{module}.{attr}")
        if "qcap.series" in modules:
            self._install_series(modules, modules["qcap.series"])
        if "qcap.identities" in modules:
            self._install_sides(modules["qcap.identities"])
        if "qcap.partitions" in modules:
            self._install_partitions(modules, modules["qcap.partitions"])

    @staticmethod
    def _rebind(modules: dict, fn: Callable, wrapper: Callable) -> None:
        for mod in modules.values():
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                setattr(mod, attr, wrapper)

    def _install_series(self, modules: dict, series) -> None:
        qs = series.QSeries
        small, large = self._name_id("series.mul"), self._name_id("series.mul_large")
        counters, mul, add = self.counters, qs.__mul__, qs.__add__

        def length(x) -> int:
            return (1 if x else 0) if isinstance(x, int) else len(x.coeffs)

        def traced_mul(a, b):
            la, lb = length(a), length(b)
            product = la * lb
            idx = self._enter(large if product > MUL_LARGE_BOUNDARY else small)
            try:
                result = mul(a, b)
            finally:
                self._exit(idx)
            counters["series.mul.coeff_products"] += product
            counters["series.mul.computed"] += la + lb - 1 if product else 0
            counters["series.mul.kept"] += len(result.coeffs)
            return result

        qs.__mul__ = qs.__rmul__ = traced_mul
        qs.__add__ = qs.__radd__ = self.span("series.add", add)
        self.installed.update(("series.mul", "series.mul_large", "series.add"))

        div_exact = getattr(series, "div_exact", None)
        if div_exact is None:
            return
        traced_div = self.span("series.div_exact", div_exact)

        def counted_div(a, b):
            counters["series.div_exact.work"] += len(a.coeffs) * len(b.coeffs)
            return traced_div(a, b)

        self._rebind(modules, div_exact, counted_div)
        self.installed.add("series.div_exact")

    def _install_sides(self, identities) -> None:
        cases = getattr(identities, "CASES", None)
        if cases is None:
            return
        for case_id, case in list(cases.items()):
            sides = tuple(
                (name, self.span("identities.reference_side" if i == 0
                                 else "identities.other_side", fn))
                for i, (name, fn) in enumerate(case.sides))
            cases[case_id] = replace(case, sides=sides)
        self.installed.update(("identities.reference_side",
                               "identities.other_side"))

    def _install_partitions(self, modules: dict, partitions) -> None:
        counters = self.counters
        predicates = False

        def member(fn: Callable) -> Callable:
            def counted(*args):
                ok = fn(*args)
                counters["partitions.members"] += bool(ok)
                return ok
            return counted

        for attr in _PREDICATES:
            fn = getattr(partitions, attr, None)
            if fn is not None:
                self._rebind(modules, fn, member(fn))
                predicates = True
        for theorem, (left, left_exp, right, right_exp) in list(
                getattr(partitions, "_WEIGHTED", {}).items()):
            partitions._WEIGHTED[theorem] = (member(left), left_exp,
                                             member(right), right_exp)
            predicates = True

        generate = getattr(partitions, "partitions", None)
        if generate is None:
            return
        code = generate.__code__

        def yielded(gen):
            for p in gen:
                counters["partitions.enumerated"] += 1
                yield p

        def counted_partitions(*args, **kwargs):
            gen = generate(*args, **kwargs)
            # Recursive calls come from the generator's own frame; only
            # partitions handed to other callers count as enumerated.
            if sys._getframe(1).f_code is code:
                return gen
            return yielded(gen)

        self._rebind(modules, generate, counted_partitions)
        self.installed.add("partitions.enumerated")
        if predicates:
            self.installed.add("partitions.members")

    # -- results ---------------------------------------------------------

    def _per_name(self) -> dict[str, dict]:
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
                 for name in self.names}
        for i in range(n):
            entry = stats[self.names[self.kind[i]]]
            entry["calls"] += 1
            entry["total_s"] += duration[i]
            entry["self_s"] += duration[i] - child[i]
            entry["durations"].append(duration[i])
        return stats

    def cache_stats(self) -> dict[str, dict]:
        out = {}
        for name, fn in sorted(self.caches.items()):
            info = fn.cache_info()
            out[name] = {"hits": info.hits, "misses": info.misses,
                         "entries": info.currsize}
        return out

    def metrics(self, output_bytes: int) -> dict[str, float]:
        """Every per-layer metric whose source install() found, except
        trace.overhead_s, which needs an untraced pass."""
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        stats = self._per_name()

        def get(name: str) -> dict:
            return stats.get(name, empty)

        c = self.counters
        out: dict[str, float] = {}
        for layer in ("series.mul", "series.mul_large", "series.add",
                      "series.div_exact", "series.inverse", "series.compare",
                      "qcombinat.poch_ratio", "qcombinat.q_binomial",
                      "qcombinat.warnaar_s", "identities.verify_case"):
            out[f"{layer}.calls"] = get(layer)["calls"]
            out[f"{layer}.self_s"] = get(layer)["self_s"]
        out["series.mul.coeff_products"] = c["series.mul.coeff_products"]
        out["series.mul.kept_ratio"] = _ratio(c["series.mul.kept"],
                                              c["series.mul.computed"])
        out["series.div_exact.work"] = c["series.div_exact.work"]
        out["qcombinat.pochhammer_inf.self_s"] = get("qcombinat.pochhammer_inf")["self_s"]
        caches = [v for k, v in self.cache_stats().items()
                  if k.startswith("qcap.qcombinat.")]
        hits = sum(v["hits"] for v in caches)
        out["qcombinat.cache_hit_ratio"] = _ratio(
            hits, hits + sum(v["misses"] for v in caches))
        out["qcombinat.cache_entries"] = sum(v["entries"] for v in caches)
        cases_ms = [d * 1000.0 for d in get("identities.verify_case")["durations"]]
        p50 = p90 = cases_ms[0] if cases_ms else 0.0
        if len(cases_ms) >= 2:
            p50, p90 = statistics.median(cases_ms), statistics.quantiles(cases_ms, n=10)[8]
        out["identities.verify_case.p50_ms"] = p50
        out["identities.verify_case.p90_ms"] = p90
        out["identities.reference_side_s"] = get("identities.reference_side")["total_s"]
        out["identities.other_sides_s"] = get("identities.other_side")["total_s"]
        for name in ("bailey.verify_bailey_theorem", "bailey.generate_hierarchy_lhs",
                     "recurrences.verify_catalog", "recurrences.verify_factor_witness",
                     "recurrences.verify_initial_condition_argument",
                     "partitions.count_c", "partitions.count_d",
                     "partitions.weighted_sum"):
            out[f"{name}.s"] = get(name)["total_s"]
        out["partitions.enumerated"] = c["partitions.enumerated"]
        out["partitions.member_ratio"] = _ratio(c["partitions.members"],
                                                c["partitions.enumerated"])
        out["cli.main.self_s"] = get("cli.main")["self_s"]
        out["cli.output_bytes"] = output_bytes
        return {name: value for name, value in out.items()
                if _source(name) in self.installed}

    def write(self, path: Path) -> None:
        """Write the spans and cache statistics as gzipped JSON."""
        spans = [[self.names[self.kind[i]], self.parent[i],
                  round(self.start[i], 9), round(self.end[i], 9)]
                 for i in range(len(self.start))]
        doc = {"fields": ["name", "parent", "start", "end"], "spans": spans,
               "counters": dict(self.counters), "caches": self.cache_stats()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
