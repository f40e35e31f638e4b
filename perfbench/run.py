#!/usr/bin/env python3
"""Figure-sweep benchmark: build the simulator from source and run one
workload.

    python3 perfbench/run.py --workload niagara_sweep --seed 0 \
        --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The simulator library (src/) and the
benchmark program (perfbench/*.cc) are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics; the line before it records the source
revision, compiler, build type and host. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("niagara_sweep", "ooo_spec", "desc_design_sweep")
# Set-up is sampled in this many processes per run (the timed process
# plus set-up-only ones, half before it and half after, so the samples
# straddle the run) and reported as their median.
SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources (src/) next to the benchmark")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "desc_perfbench"


def run_binary(binary, args):
    """Run desc_perfbench; return its exit code and last stdout line."""
    try:
        res = subprocess.run([str(binary)] + args, cwd=build_dir(),
                             stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} timed out")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return res.returncode, result


def revision():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: identify the sources by content.
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()
    if not opts.self_test and not opts.workload:
        ap.error("--workload is required")
    if opts.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    scratch = str(build_dir() / "scratch")
    if opts.self_test:
        code, _ = run_binary(binary, ["--self-test", "--scratch", scratch])
        sys.exit(code)

    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--scratch", scratch]
    digests = HERE / "digests" / f"{opts.workload}.txt"
    if opts.trace:
        spans = build_dir() / f"spans-{opts.workload}-seed{opts.seed}.json"
        code, result = run_binary(binary, common + [
            "--trace", "--digests", str(digests), "--spans", str(spans)])
    else:
        def setup_samples(count):
            for _ in range(count):
                c, r = run_binary(binary, common + ["--setup-only"])
                if c != 0 or r is None:
                    fail("set-up-only run failed")
                yield r["metrics"]["setup_s"]["value"]

        setups = list(setup_samples(SETUP_SAMPLES // 2))
        code, result = run_binary(binary, common + [
            "--seconds", str(opts.seconds), "--digests", str(digests)])
        setups += setup_samples(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
        if result is not None:
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    if result is None:
        fail(f"desc_perfbench exited {code} without a result")

    _, about = run_binary(binary, ["--about"])
    about["revision"] = revision()
    about["nproc"] = os.cpu_count()
    print(json.dumps({"environment": about}))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
