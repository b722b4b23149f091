"""Benchmark of the SAFE reproduction: fit and serve workloads.

Run from the repository root::

    python3 perfbench/run.py                       # every workload, in turn
    python3 perfbench/run.py --workload fit_stream --seed 3 --seconds 16
    python3 perfbench/run.py --workload serve --trace 1

``--trace 0`` times the workload and prints every end-to-end metric
(the serve workload adds its serving latencies and throughputs, which
the JSON line leaves out because they are not gated);
``--trace 1`` makes a warm-up repetition, then untraced, traced and
untraced ones, and prints the per-layer metrics of the traced one (spans
are written to ``perfbench/_runs/spans-<workload>.json``). Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 only when every output check passed.

Inputs are generated from ``--seed`` by ``datagen.py``; the program under
test is imported from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_DIR = HERE / "_runs"
#: Same as ``workloads.WORKLOADS``; repeated so that argument parsing
#: works before the program's source is known to exist.
WORKLOADS = ("fit_memory", "fit_stream", "fit_parallel", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_lines(result) -> "list[str]":
    ledger = result.ledger
    lines = []
    for name, (value, unit) in result.metrics.items():
        note = ledger.notes.get(name, "")
        if name not in result.gated:
            note = f"{note} (printed, not gated)".strip()
        lines.append(f"  {name:<30} {value:>16.6g} {unit:<7} {note}")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    lines.append(
        f"  {'error_rate':<30} {rate:>16.6g} {'ratio':<7} "
        f"{ledger.failed} failed of {ledger.attempted} operations"
    )
    for name, (ok, detail) in ledger.checks.items():
        lines.append(f"  check {name:<26} {'ok' if ok else 'FAILED':<6} {detail}")
    for failure in ledger.failures[:20]:
        lines.append(f"  failure: {failure}")
    return lines


def run_one(args) -> int:
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), RUN_DIR
    )
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(report_lines(result)), flush=True)
    print(json.dumps(result.as_json()), flush=True)
    return 0 if result.ledger.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so their memory peaks stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # A terminated run still unwinds: work directories are removed and
    # process pools shut down by their context managers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
