#!/usr/bin/env python3
"""Correctness gate on one `perfbench/run.py` run.

Reads the run's stdout (a file, or `-` for stdin) and checks its last
line, the JSON result: `"correct"` must be true, and on the collective
workloads `"failed"` must be 0. Timings are not checked.

Usage: check_perfbench.py WORKLOAD OUTPUT
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    workload, path = sys.argv[1], sys.argv[2]
    text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    lines = text.strip().splitlines()
    if not lines:
        print(f"{workload}: no output", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    errors = []
    if result.get("correct") is not True:
        errors.append(f"correct is {result.get('correct')!r}")
    if workload != "paper-suite" and result.get("failed") != 0:
        errors.append(f"failed is {result.get('failed')!r}")
    for e in errors:
        print(f"{workload}: {e}", file=sys.stderr)
    if not errors:
        print(f"{workload}: correct, {result.get('attempted')} attempted, "
              f"{result.get('failed')} failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
