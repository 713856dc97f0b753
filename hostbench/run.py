#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see hostbench/README.md).

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --self-test

Run from the repository root.  The benchmark is compiled from source into
.bench_build/hostbench on first use (CMake, Release).  The binary's output
is passed through; its last line is the JSON result, which is checked
against the metric names and units listed in BENCHMARK.json before it is
printed.  Any failure exits non-zero without printing a result.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", target])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return BUILD / target


def check_metrics(result, argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else "0"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(printed)}, "
             f"listed {sorted(expected)}")


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        sys.exit(subprocess.run([str(build("hostbench_test"))]).returncode)

    binary = build("hostbench")
    proc = subprocess.run([str(binary), *argv], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("last output line is not a JSON result")
    check_metrics(result, argv)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
