"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload geer-walkbound --seed 1 --seconds 30 --trace 0

Workloads: ``geer-walkbound`` and ``geer-pushbound`` (closed-loop
``QueryEngine`` callers) and ``serve-read`` (HTTP reads in an open loop, then
batches in a closed loop, against a server in its own process).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` installs the span wrappers and reports the per-layer ledger
instead.  Every answer is checked
against an exact resistance computed by the benchmark itself.  Every time is
scaled to a reference CPU speed by calibration slices (``speed.py``).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it (``record ...``)
carries the seed, code version, host fingerprint and diagnostics.  The exit
code is 0 only when every answer passed the correctness gate.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("geer-walkbound", "geer-pushbound", "serve-read")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="graph sizes; 'tiny' is for the benchmark's self-test only",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run unwinds, so the servers it started are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import common

    if args.workload.startswith("geer-"):
        import geer_bench as bench
    else:
        import serve_bench as bench
    record, result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    record.update(common.provenance(args.seed), trace=args.trace, size=args.size)
    return common.emit(record, result)


if __name__ == "__main__":
    sys.exit(main())
