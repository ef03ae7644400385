#!/usr/bin/env python3
"""End-to-end daemon benchmark: builds the program from source, runs one
workload (or all of them) and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, seed 1
    python3 perfbench/run.py --selftest            # tests of the helpers

Run from the repository root. The build goes to .bench_build/ and reports
to .bench_out/. The last stdout line of a single-workload run is one JSON
object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ["direct-windows", "agg-scale", "read-steady", "socket-mix"]
TARGETS = ["opus_e2e", "opus_daemon", "bench_util_test"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log,
                              env=env).returncode != 0:
                fail(f"cmake configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + TARGETS
        if subprocess.run(cmd, stdout=log, stderr=log,
                          env=env).returncode != 0:
            fail(f"build failed, see {log_path}")


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return os.environ.get("OPUS_GIT_REV", "unknown")


def run_workload(name, seed, seconds, trace):
    """Runs one workload; returns (human-readable lines, result object)."""
    OUT.mkdir(exist_ok=True)
    cmd = [str(BUILD / "opus_e2e"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--daemon", str(BUILD / "opus_daemon"),
           "--out-dir", os.path.relpath(OUT, ROOT), "--git-rev", git_rev()]
    # Own process group, so that ending it also ends the daemons it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{name}: benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{name}: last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{name}: malformed result object")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SIGTERM unwinds like an error, so the benchmark's process group is
    # ended on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD / "bench_util_test")]).returncode)

    if args.workload != "all":
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, result = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"== {name}")
        print("\n".join(lines))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
