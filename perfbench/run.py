"""qcap's benchmark runner: time to verdict from cold processes, checked
against golden outputs.

    python3 perfbench/run.py --workload gate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (run.py finds ``src/qcap`` next to its
own directory).  Every pass is a fresh interpreter (child.py) that pays
``import qcap`` and fills qcap's caches from empty, as each real CLI call
does; passes run one at a time.  It runs rounds until ``--seconds`` is
spent, at least one.  It prints one line per metric and, last, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0``: a round is ``SETUPS_PER_ROUND`` import-only interpreters,
timed as setup_s, then one pass; so set-up is sampled over the same stretch
of time as the passes.  Every end-to-end metric is the median over the run.
Times are rescaled to a machine of nominal speed by the reference reps each
child runs (reference.py), since the host's own speed swings by up to a
factor of two; the raw medians are printed too, but not in the JSON result.
``--trace 1``: a round is a traced pass and an untraced pass.  It reports
the per-layer metrics of tracer.py (medians over traced passes) and the
tracing overhead; the spans of the last traced pass go to
``perfbench/traces/``.  A metric whose function or cache qcap no longer has
is printed as absent and left out of the JSON result.

Exit codes: 0 with a result (failed checks are counted, not fatal), 1 when a
pass could not run, 2 when the checkout has no qcap or no golden output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gate", "deep", "limits", "oracle")
END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# Import-only interpreters before each untraced pass, and at least so many
# in a run (deep's runs have one pass); the median of all of a run's is
# setup_s.
SETUPS_PER_ROUND = 3
MIN_SETUPS = 15
# A pass that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A pass could not run; the benchmark prints no result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # One job (qcap's default), no -O (it strips the oracle's assert), cached
    # bytecode as for an installed qcap, and a fixed hash seed, whatever the
    # calling shell has set.
    for var in ("QCAP_JOBS", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv: list[str]) -> tuple[str, float]:
    """Run child.py to completion; return its stdout and wall seconds."""
    # -S: qcap needs nothing from site-packages, and the host's site hooks
    # (.pth files) are start-up cost that is not qcap's and drifts by tens
    # of milliseconds from run to run.
    cmd = [sys.executable, "-S", str(HERE / "child.py"), *argv]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded {CHILD_TIMEOUT_S} s: {cmd}") from None
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {cmd}")
    return proc.stdout, elapsed


def _result(out: str, argv: list[str]) -> dict:
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"pass printed no result: {argv}") from None


def run_pass(base: list[str], trace: Path | None = None) -> dict:
    argv = base + (["--trace", str(trace)] if trace else [])
    return _result(_child(argv)[0], argv)


def run_setup(base: list[str]) -> tuple[float, float]:
    """(raw, rescaled) seconds of one import-only interpreter: its wall time
    from spawn to exit, less the reference reps it ran around the imports."""
    argv = base + ["--setup-only"]
    out, elapsed = _child(argv)
    reps = _result(out, argv)
    raw = elapsed - reps["reps_s"]
    return raw, raw * reference.NOMINAL_S / reps["reference_s"]


def load_golden(path: Path) -> Counter:
    return Counter(path.read_text().splitlines())


def score(checks: list[str], golden: Counter) -> tuple[int, int]:
    """(attempted, failed) of one pass: a check fails when its line is not in
    the golden output; a golden line no pass produced is failed too."""
    matched = sum((Counter(checks) & golden).values())
    attempted = max(sum(golden.values()), len(checks))
    return attempted, attempted - matched


def measure(args: argparse.Namespace, golden: Counter) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    start = perf_counter()
    setups: list[tuple[float, float]] = []
    trace_path = HERE / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.json.gz"
    traced: list[dict] = []
    plain: list[dict] = []
    rounds: list[float] = []
    while True:
        round_start = perf_counter()
        if args.trace:
            traced.append(run_pass(base, trace_path))
        else:
            setups += [run_setup(base) for _ in range(SETUPS_PER_ROUND)]
        plain.append(run_pass(base))
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    if not args.trace:
        setups += [run_setup(base) for _ in range(MIN_SETUPS - len(setups))]

    attempted = failed = 0
    for result in traced + plain:
        a, f = score(result["checks"], golden)
        attempted, failed = attempted + a, failed + f
        for err in result["errors"]:
            print(err, file=sys.stderr)
    if args.trace:
        # A metric is absent when a pass lacks it (every pass does alike).
        metrics = {name: statistics.median_low([r["layers"][name] for r in traced])
                   for name, _ in LAYER_METRICS
                   if all(name in r["layers"] for r in traced)}
        metrics["trace.overhead_s"] = (
            statistics.median([r["verdict_s"] for r in traced])
            - statistics.median([r["verdict_s"] for r in plain]))
        units = {name: unit for name, unit in LAYER_METRICS if name in metrics}
        absent = [name for name, _ in LAYER_METRICS if name not in metrics]
        raw = {}
    else:
        med = statistics.median
        metrics = {"setup_s": med(scaled for _, scaled in setups),
                   "verdict_s": med(r["scaled_verdict_s"] for r in plain),
                   "cpu_s": med(r["scaled_cpu_s"] for r in plain),
                   "peak_rss_mb": med(r["peak_rss_mb"] for r in plain)}
        units = dict(END_TO_END)
        absent = []
        raw = {"setup_s": med(raw for raw, _ in setups),
               "verdict_s": med(r["verdict_s"] for r in plain),
               "cpu_s": med(r["cpu_s"] for r in plain),
               "reference_s": med(ref for r in plain for ref in r["refs"])}
    return {
        "verdicts": [(r["verdict_s"], r.get("scaled_verdict_s")) for r in plain],
        "passes": len(plain), "traced_passes": len(traced),
        "setups": len(setups), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "absent": absent,
        "raw": raw,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-tests' small inputs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcap" / "__init__.py").is_file():
        print(f"no qcap sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    golden_path = HERE / "golden" / f"{args.workload}-{args.size}.txt"
    if not golden_path.is_file():
        print(f"no golden output {golden_path}", file=sys.stderr)
        return 2
    try:
        result = measure(args, load_golden(golden_path))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    print(f"# {args.workload} size={args.size} seed={args.seed}: "
          f"{result['passes']} untraced and {result['traced_passes']} traced "
          f"passes, {result['setups']} set-ups")
    print("# untraced verdict_s per pass, raw/rescaled: " + " ".join(
        f"{raw:.4f}" + (f"/{scaled:.4f}" if scaled else "")
        for raw, scaled in result["verdicts"]))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<52} {shown:>14} {metric['unit']}")
    for name, value in result["raw"].items():
        print(f"{name + '.raw':<52} {value:>14.6g} s (median, not rescaled)")
    for name in result["absent"]:
        print(f"{name:<52} {'absent':>14}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':<52} {fail_ratio:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
