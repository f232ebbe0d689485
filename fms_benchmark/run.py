#!/usr/bin/env python3
"""Builds the benchmark program from this checkout, then runs one workload.

Run from the root of a checkout:

    python3 fms_benchmark/run.py --workload W --seed S --seconds T --trace 0|1

fms_benchmark is configured and built under .bench_build/cmake (Release, the
repository's own compile flags). Before the workload, the program checks its
own arithmetic (--self-test); after each build that produced a new program it
also runs the smoke test (--smoke: every workload for a few rounds, with every
output check). Scratch files go to .bench_build/work. The workload's stdout
passes through, so its last line is the results JSON; build, self-test and
smoke output goes to stderr. The exit code is the workload's, 1 when the
self-test or smoke test fails, or 2 when the program cannot be built.
"""
import os
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
PROGRAM = BUILD / "fms_benchmark"


def mtime(path):
    return path.stat().st_mtime_ns if path.exists() else None


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: {ROOT} is not a repository checkout (no src/)",
              file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(BUILD), "--target", "fms_benchmark",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def check(*flags):
    """Runs the program with `flags`, its output on stderr; True on exit 0."""
    return subprocess.run([str(PROGRAM), *flags],
                          stdout=sys.stderr).returncode == 0


def workload_name(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload" and re.fullmatch(r"[A-Za-z0-9_]+", value):
            return value
    return "none"


def main():
    before = mtime(PROGRAM)
    if not build():
        return 2
    if not check("--self-test"):
        return 1
    if mtime(PROGRAM) != before:
        smoke_dir = OUT / "work" / "smoke"
        shutil.rmtree(smoke_dir, ignore_errors=True)
        if not check("--smoke", "--workdir", str(smoke_dir)):
            return 1
    args = sys.argv[1:]
    workdir = OUT / "work" / workload_name(args)
    shutil.rmtree(workdir, ignore_errors=True)
    bench = subprocess.run([str(PROGRAM), *args, "--workdir", str(workdir)],
                           stdout=subprocess.PIPE, text=True)
    sys.stdout.write(bench.stdout)
    sys.stdout.flush()
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
