"""One cold pass of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py --workload gate --seed 1 [--size tiny]
        [--trace PATH] [--setup-only]

Imports qcap from ``src/`` of the checkout (this is the pass's set-up), runs
the workload once and prints one JSON object: the pass's timings, its check
lines and, with ``--trace``, its per-layer metrics.  The spans go to PATH.
An untraced pass is timed by ``reference.Rescaler``: raw, and rescaled by the
reference reps run in between.  A traced pass is timed raw only.

``--setup-only`` stops after the imports and prints the median of reference
reps timed just before and just after them, and how long those reps took;
run.py times such runs from the outside and takes them as setup_s.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent


def _timed_sample() -> tuple[float, float]:
    """(median seconds of the edge reps, seconds they took together)."""
    start = perf_counter()
    return reference.sample(reference.EDGE_REPS), perf_counter() - start


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for.

    This process's own peak is VmHWM, which starts afresh at exec.  Its
    ru_maxrss does not: it keeps the RSS of run.py, which forked it.
    """
    with open("/proc/self/status") as status:
        own_kb = next(int(line.split()[1]) for line in status
                      if line.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, children_kb) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if sys.flags.optimize:
        # -O strips the partition oracle's in-loop assert and changes its work.
        print("child.py must run without -O", file=sys.stderr)
        return 2

    if args.setup_only:
        before = _timed_sample()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports qcap from src/
    if args.setup_only:
        after = _timed_sample()
        print(json.dumps({"reference_s": (before[0] + after[0]) / 2,
                          "reps_s": before[1] + after[1]}))
        return 0

    items = workloads.build(args.workload, args.size, random.Random(args.seed))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    if tracer is None:
        clock = reference.Rescaler()
        clock.start()
        outcome = workloads.run(items)
        clock.stop()
        timings = {"verdict_s": clock.wall_s, "cpu_s": clock.cpu_s,
                   "scaled_verdict_s": clock.scaled_wall_s,
                   "scaled_cpu_s": clock.scaled_cpu_s, "refs": clock.refs}
    else:
        cpu0, t0 = reference.process_cpu_s(), perf_counter()
        outcome = workloads.run(items)
        timings = {"verdict_s": perf_counter() - t0,
                   "cpu_s": reference.process_cpu_s() - cpu0}

    result = {
        **timings,
        "peak_rss_mb": _peak_rss_mb(),
        "checks": outcome.checks,
        "not_ok": outcome.not_ok,
        "errors": outcome.errors,
        "output_bytes": outcome.output_bytes,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(outcome.output_bytes)
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
