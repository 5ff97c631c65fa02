"""Record the golden outputs the benchmark checks every pass against.

    python3 perfbench/record_golden.py [--size full|tiny] [workload ...]

Runs one untraced pass per workload and size and writes its check lines,
sorted, to ``perfbench/golden/<workload>-<size>.txt``.  It refuses to write
when any check of the pass is false or any call raised: a golden output
records passing verdicts only.  Re-record only at a commit whose outputs are
known to be right; a change that claims a gain must reproduce these files.
"""

from __future__ import annotations

import argparse
import sys

from run import HERE, WORKLOADS, BenchError, run_pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    args = parser.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    for size in args.size or ["full", "tiny"]:
        for workload in args.workloads or WORKLOADS:
            try:
                result = run_pass(["--workload", workload, "--seed", "0",
                                   "--size", size])
            except BenchError as exc:
                print(exc, file=sys.stderr)
                return 1
            if result["not_ok"] or result["errors"]:
                print(f"{workload}-{size}: {result['not_ok']} false checks, "
                      f"{len(result['errors'])} errors; not recorded",
                      file=sys.stderr)
                print("".join(result["errors"]), file=sys.stderr)
                return 1
            path = HERE / "golden" / f"{workload}-{size}.txt"
            path.parent.mkdir(exist_ok=True)
            path.write_text("".join(f"{line}\n" for line in sorted(result["checks"])))
            print(f"{path.name}: {len(result['checks'])} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
