#!/usr/bin/env python3
"""Build and run the slingbench benchmark from a source checkout.

    python3 slingbench/run.py --workload fig10_failover --seed 1 \
        --seconds 20 --trace 0
    python3 slingbench/run.py --selftest

The first call configures and builds slingbench/ (the simulator
libraries from src/ plus the benchmark binary) into .bench_build/ at the
checkout root; later calls rebuild incrementally. The binary's stdout is
passed through unchanged, so its last line is the result object
{correct, attempted, failed, metrics}. Build output goes to stderr.

--selftest runs every workload at a tiny horizon and checks that each
metric BENCHMARK.json names is present with its unit and a finite value,
that the per-layer shares plus unattributed_share sum to 1, and that
another seed changes the trace fingerprint but not the set of metrics.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig10_failover", "tab02_migration", "fleet_massive_ue")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"slingbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources under {os.path.join(ROOT, 'src')}")
        return None
    out = os.path.join(ROOT, ".bench_build", "slingbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "slingbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "slingbench")


def source_stamp():
    """Git commit when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "slingbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return f"git:{commit}+src:{digest.hexdigest()[:16]}"


def run_binary(binary, workload, seed, seconds, trace, extra=(),
               capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_stamp(), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout or ""


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        seen = {}
        for trace in (0, 1):
            for seed in (1, 2):
                code, out = run_binary(binary, workload, seed, 0.2, trace,
                                       extra=["--tiny"], capture=True)
                where = f"{workload} trace={trace} seed={seed}"
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    problems.append(f"{where}: exit {code}")
                    continue
                result = json.loads(lines[-1])
                metrics = result["metrics"]
                if set(metrics) != set(expected[trace]):
                    problems.append(f"{where}: metric names differ from "
                                    f"BENCHMARK.json: "
                                    f"{sorted(set(metrics) ^ set(expected[trace]))}")
                for name, m in metrics.items():
                    if m.get("unit") != expected[trace].get(name):
                        problems.append(f"{where}: {name} unit {m.get('unit')}")
                    value = m.get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append(f"{where}: {name} is not finite")
                if trace == 1:
                    total = sum(m["value"] for n, m in metrics.items()
                                if n.startswith("share.") or n == "unattributed_share")
                    if abs(total - 1.0) > 1e-9:
                        problems.append(f"{where}: shares sum to {total}")
                fingerprint = next((l.split()[-1] for l in lines
                                    if l.startswith("# fingerprint")), None)
                seen[(trace, seed)] = (fingerprint, set(metrics))
        for trace in (0, 1):
            a, b = seen.get((trace, 1)), seen.get((trace, 2))
            if a and b:
                if a[0] is None or a[0] == b[0]:
                    problems.append(f"{workload} trace={trace}: seed 2 did not "
                                    f"change the fingerprint {a[0]}")
                if a[1] != b[1]:
                    problems.append(f"{workload} trace={trace}: seed 2 changed "
                                    f"the metric names")
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)
    code, _ = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
