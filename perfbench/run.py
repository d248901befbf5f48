#!/usr/bin/env python3
"""Builds and runs the end-to-end MiniCrypt benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. With --trace 1 the spans are
written to .bench_build/traces/<workload>.jsonl unless --trace-file is given.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def build(build_dir: Path) -> Path:
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "mc_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return build_dir / "mc_perfbench"


def flag(args, name):
    """Value following `name` in args, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no MiniCrypt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build_dir = ROOT / ".bench_build"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if flag(args, "--trace") == "1" and "--trace-file" not in args:
        workload = flag(args, "--workload") or "unknown"
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-file", str(traces / f"{workload}.jsonl")]
    sys.stdout.flush()
    os.execv(str(binary), [str(binary)] + args)
    return 0  # not reached


if __name__ == "__main__":
    sys.exit(main())
