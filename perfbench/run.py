"""Run one workload of the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 \\
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that times each layer's public calls and prints the
layer report.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output passed the gate.

Everything runs under the ``if __name__ == "__main__"`` guard: the
traced run builds a forkserver worker pool, whose workers re-import this
file as ``__mp_main__`` and must not start a second benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.abspath(os.getcwd())
for _path in (os.path.join(_ROOT, "src"), os.path.dirname(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.common import PINS_PATH, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: three tiny circuits (benchmark tests)")
    parser.add_argument("--pins", default=PINS_PATH,
                        help="digest pins to gate against")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(_ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no src/repro under {_ROOT}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from perfbench.common import WORK_DIR, become_subreaper, stop_children

    # a terminated run still stops its processes and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()

    run_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.trace:
            from perfbench.layers import run_traced

            outcome = run_traced(args.workload, args.seed, args.scale,
                                 args.pins, run_dir)
        else:
            from perfbench.batch import run_batch

            outcome = run_batch(args.workload, args.seed, args.seconds,
                                args.scale, args.pins)
    finally:
        # no process of this run outlives it: the worker pool's and the
        # daemon's forkservers and resource trackers included
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in outcome.notes:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed_frac = outcome.failed / max(1, outcome.attempted)
    print(f"failed_frac = {failed_frac:.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
