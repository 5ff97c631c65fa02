"""The benchmark's workloads: the calls one cold pass makes into qcap.

A workload is a list of items.  Each item is one call into a public entry
point (``qcap.cli.main`` for ``verify`` and ``partitions``, the public
functions of ``qcap.bailey`` and ``qcap.recurrences`` otherwise) and turns the
call's output into check lines.  The seed fixes the order of the items and,
for ``verify``, the order of the ``--case`` flags, which the CLI keeps; so it
moves what each of qcap's caches holds when a case starts.

A check line is ``"<source>\\t<payload>"``.  run.py compares the multiset
of a pass's check lines with ``golden/<workload>-<size>.txt``.  Only
deterministic output goes into a payload: ``verify`` reports carry no timing,
and the ``verify`` summary line (which does) is left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable

from qcap import bailey, cli, identities, recurrences

# Bounds flags per (workload, size).  "tiny" keeps every workload's shape at a
# size the self-tests can run in seconds.
_TINY_VERIFY = ["--L-max", "2", "--M-max", "2", "--f-max", "1",
                "--nu-max", "1", "--trunc", "10"]
_VERIFY_FLAGS = {
    ("gate", "full"): [],
    ("gate", "tiny"): _TINY_VERIFY,
    ("deep", "full"): ["--L-max", "12", "--M-max", "12"],
    ("deep", "tiny"): ["--L-max", "3", "--M-max", "3", "--f-max", "1",
                       "--nu-max", "1", "--trunc", "10"],
    ("limits", "full"): ["--trunc", "100"],
    ("limits", "tiny"): ["--trunc", "12"],
}
# gate's non-CLI part: (catalog length, witness windows, bailey l_max,
# hierarchy f values, hierarchy L values); the full size is the acceptance
# gate's criteria 6 and 7.
_GATE_EXTRA = {
    "full": (9, (("b", range(4, 13)), ("c", range(6, 13))), 6,
             range(1, 4), range(5)),
    "tiny": (3, (("b", range(4, 6)), ("c", range(6, 8))), 2,
             range(1, 2), range(3)),
}
# The hierarchy families of bailey.generate_hierarchy_lhs.
_FAMILIES = ("cap1", "cap1_binomial", "cap2", "cap2_analogue", "cap2_binomial",
             "double", "sum_cap")
# oracle: (n_max for counts, n_max for weighted)
_ORACLE_N = {"full": (40, 25), "tiny": (10, 6)}


@dataclass
class Outcome:
    """What one pass produced: check lines, their own verdicts, errors."""

    checks: list[str] = field(default_factory=list)
    not_ok: int = 0
    errors: list[str] = field(default_factory=list)
    output_bytes: int = 0

    def check(self, source: str, payload: str, ok: bool) -> None:
        self.checks.append(f"{source}\t{payload}")
        self.not_ok += not ok


Item = Callable[[Outcome], None]


def _run_cli(argv: list[str], out: Outcome) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    kept = [line for line in buf.getvalue().splitlines(keepends=True)
            if not line.startswith('{"summary"')]
    out.output_bytes += sum(len(line.encode()) for line in kept)
    return [line.rstrip("\r\n") for line in kept]


def _verify_item(case_ids: list[str], flags: list[str]) -> Item:
    argv = ["verify", *[x for c in case_ids for x in ("--case", c)], *flags]

    def item(out: Outcome) -> None:
        for line in _run_cli(argv, out):
            out.check("verify", line, json.loads(line)["verdict"] is True)

    return item


def _partitions_item(argv: list[str]) -> Item:
    source = "partitions " + " ".join(argv)

    def item(out: Outcome) -> None:
        rows = _run_cli(["partitions", *argv], out)[1:]  # drop the header
        for row in rows:
            out.check(source, row, row.endswith(",True"))

    return item


def _flag_item(source: str, label: str, call: Callable[[], bool]) -> Item:
    def item(out: Outcome) -> None:
        ok = bool(call())
        out.check(source, f"{label} {ok}", ok)

    return item


def _bailey_theorem_item(name: str, l_max: int) -> Item:
    def item(out: Outcome) -> None:
        alpha = bailey.ALPHAS[name]
        for L, ok in bailey.verify_bailey_theorem(alpha, l_max):
            out.check("bailey.verify_bailey_theorem", f"{name} L={L} {ok}", ok)

    return item


def _catalog_item(length: int) -> Item:
    def item(out: Outcome) -> None:
        for report in recurrences.verify_catalog(length):
            out.check("recurrences.verify_catalog",
                      f"{report.name} {report.ok}", report.ok)

    return item


def _hierarchy_item(family: str, f: int, s: int, L: int) -> Item:
    def call() -> bool:
        generated = bailey.generate_hierarchy_lhs(family, f, L, s)
        return generated == identities.hierarchy_finite_lhs(family, f, L, s)

    return _flag_item("bailey.generate_hierarchy_lhs",
                      f"{family} f={f} s={s} L={L}", call)


def _shuffled_cases(rng: random.Random, mode: str | None = None) -> list[str]:
    ids = sorted(c for c, case in identities.CASES.items()
                 if mode is None or case.mode == mode)
    rng.shuffle(ids)
    return ids


def _gate(size: str, rng: random.Random) -> list[Item]:
    length, windows, l_max, f_values, l_values = _GATE_EXTRA[size]
    items = [_verify_item(_shuffled_cases(rng), _VERIFY_FLAGS["gate", size]),
             _catalog_item(length)]
    for which, window in windows:
        items.append(_flag_item(
            "recurrences.verify_factor_witness", which,
            lambda w=which, r=window: recurrences.verify_factor_witness(w, r).ok))
    for which in ("a", "b", "c"):
        items.append(_flag_item(
            "recurrences.verify_initial_condition_argument", which,
            lambda w=which: recurrences.verify_initial_condition_argument(w)))
    items += [_bailey_theorem_item(name, l_max) for name in sorted(bailey.ALPHAS)]
    for family in _FAMILIES:
        for f in f_values:
            for s in (range(f + 1) if family == "double" else (0,)):
                items += [_hierarchy_item(family, f, s, L) for L in l_values]
    rng.shuffle(items)
    return items


def _oracle(size: str, rng: random.Random) -> list[Item]:
    n_counts, n_weighted = _ORACLE_N[size]
    items = [_partitions_item(["counts", "--m", str(m), "--n-max", str(n_counts)])
             for m in (1, 2)]
    items += [_partitions_item(["weighted", "--theorem", t,
                                "--n-max", str(n_weighted)])
              for t in ("W1", "W2", "W3")]
    rng.shuffle(items)
    return items


def build(workload: str, size: str, rng: random.Random) -> list[Item]:
    """The items of one pass, in the order the seed gives."""
    if workload == "gate":
        return _gate(size, rng)
    if workload == "deep":
        return [_verify_item(_shuffled_cases(rng), _VERIFY_FLAGS["deep", size])]
    if workload == "limits":
        return [_verify_item(_shuffled_cases(rng, "truncated"),
                             _VERIFY_FLAGS["limits", size])]
    if workload == "oracle":
        return _oracle(size, rng)
    raise ValueError(f"unknown workload {workload!r}")


def run(items: list[Item]) -> Outcome:
    """Run every item; an item that raises loses its checks and is recorded."""
    out = Outcome()
    for item in items:
        try:
            item(out)
        except Exception:  # every failure must count, and the pass must go on
            out.errors.append(traceback.format_exc())
    return out
