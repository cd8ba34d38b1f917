"""Benchmark entry point: one workload against an out-of-process
``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the service's
request tracing off.  ``--trace 1`` sends the same list to an untraced
service, its first half interleaved with a traced one
(``trace.overhead_pct``), then replays each worker's share with a span
around every layer call (``perfbench/traced.py``) and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A checkout
without the ``src/repro`` tree exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot", "cold", "inspect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # a terminated run still stops the services it started
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    from perfbench.bench import run_workload
    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        outcome = run_workload(ROOT, work, args.workload, args.seed,
                               args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
