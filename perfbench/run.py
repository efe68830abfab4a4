"""faultlab benchmark: end-to-end and per-layer host-time metrics.

One workload, one run (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload mac-fault --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics from a traced run. Every workload, both kinds,
with the rows of ROADMAP's baseline table::

    python3 perfbench/run.py --report

Run from the root of a faultlab checkout; the program is imported from its
``src/``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads  # no numpy: safe before the BLAS threads are pinned

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
DEFAULT_SECONDS = 45
CHILD_TIMEOUT_S = 600


def pin_blas_threads() -> None:
    """At most two BLAS threads, and no more than the CPUs this process may use.

    Must run before numpy is imported: OpenBLAS reads it once, at load.
    """
    n = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def run_one(args) -> int:
    import harness

    run = harness.traced_run if args.trace else harness.untraced_run
    result, detail = run(args.workload, args.seed, args.seconds)
    for note in detail["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


def report(args) -> int:
    """Both kinds of run of every workload, each in its own process."""
    results = {}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited with {proc.returncode}")
                return 1
            lines = proc.stdout.splitlines()
            detail = json.loads(next(line[len("detail "):] for line in lines
                                     if line.startswith("detail ")))
            results[name, trace] = json.loads(lines[-1]), detail

    print(f"seed {args.seed}, {args.seconds} s per run; host time scaled to the "
          "reference host speed, median over the run's passes\n")
    print(f"{'workload':<14} {'metric':<16} {'value':>14} {'unit':<6} samples")
    for name in WORKLOAD_NAMES:
        result, detail = results[name, 0]
        rows = [(key, m["value"], m["unit"], detail["samples"][key])
                for key, m in result["metrics"].items()]
        rows.append(("failed_frac", detail["failed_frac"], "1", result["attempted"]))
        for key, value, unit, n in rows:
            print(f"{name:<14} {key:<16} {value:>14.6g} {unit:<6} {n}")
        print(f"{name:<14} {'correct':<16} {str(result['correct']):>14}")

    print("\nBaseline table (traced run, first traced pass; mean per call, "
          "or the pass's total where it says 'in all')\n")
    print(f"{'workload':<14} {'stage':<62} {'time':>10} calls")
    for name in WORKLOAD_NAMES:
        result, detail = results[name, 1]
        for stage, seconds, calls in detail.get("table", []):
            print(f"{name:<14} {stage:<62} {seconds * 1000:>8.1f}ms {calls}")
        overhead = result["metrics"].get("bench.trace_overhead_frac", {}).get("value")
        if overhead is not None:
            print(f"{name:<14} {'trace overhead (traced/untraced - 1)':<62} "
                  f"{overhead * 100:>8.1f}%")
    ok = all(result["correct"] for result, _ in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the CSV and checkpoint digests of --seed in "
                             "perfbench/reference.json")
    parser.add_argument("--report", action="store_true",
                        help="run every workload, traced and untraced, and print "
                             "the metrics and the baseline table")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (args.report or args.write_reference) and args.workload is None:
        parser.error("give --workload, --report or --write-reference")
    if not (HERE.parent / "src" / "faultlab" / "__init__.py").is_file():
        print(f"no faultlab source under {HERE.parent / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.write_reference:
        import harness

        print(json.dumps(harness.write_reference(args.seed), indent=2))
        return 0
    return report(args) if args.report else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
