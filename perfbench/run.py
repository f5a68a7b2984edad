#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one benchmark run.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. `perfbench` and the mgcomp libraries
are built (Release) into $CARGO_TARGET_DIR, default `.bench_build`, under
`perfbench/`; build output goes to stderr so that the last line of stdout is
perfbench's JSON result. With --trace 1 the spans of the traced run are
written to `<build dir>/perfbench/traces/<workload>-seed<seed>.json`.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-suite", "allreduce-hier-bulk", "allreduce-lossy-switch")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(source: Path, build_dir: Path) -> Path:
    if not (source.parent / "src" / "CMakeLists.txt").is_file():
        fail(f"mgcomp sources not found next to {source}")
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    binary = build(source, build_dir)

    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{a.workload}-seed{a.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
