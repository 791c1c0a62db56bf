#!/usr/bin/env python3
"""Repository benchmark: build the simulator and the perfbench driver
from source, run one workload, and print its metrics.

    python3 perfbench/run.py --workload pmake8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record      # re-record reference digests

Run from the repository root. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under the root. The last line of stdout is one
JSON object: correct, attempted, failed and metrics. With --trace 1 the
sampled PCs of the traced pass are resolved here (addr2line, inline
frames included) to the src/ module whose code they ran, giving each
module's share of the engine's self time. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)

# Modules of src/ the traced pass splits self time across; util joins
# host.other_share with code outside src/ (see README.md).
MODULES = ["simulation", "config", "sim", "checkpoint", "core", "os",
           "machine", "workload", "metrics", "exp"]
CHECKPOINT_FUNC = re.compile(r"::(save|load|writeImage|loadImage)\(")
ALLOC_FUNC = re.compile(
    r"countedAlloc|countedFree|allocOrThrow|operator (new|delete)")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build; returns the driver's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no src/ tree next to perfbench/; nothing to build")
        return None
    out = build_dir()
    steps = [["cmake", "--build", out, "-j", "4"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", out] + generator)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.isfile(exe) else None


def frame_module(frames):
    """Module of one code address from its inline chain (innermost
    first), or None when no frame is in src/ (library or STL code, or
    an address addr2line cannot resolve). The first src/ frame
    decides; save/load code counts as checkpoint's. Allocator code of
    this benchmark is "alloc"; any other benchmark code is "other"."""
    for func, path in frames:
        if not path.startswith("/"):
            continue
        rel = os.path.relpath(os.path.realpath(path), ROOT)
        parts = rel.split(os.sep)
        if parts[0] == "perfbench":
            return "alloc" if ALLOC_FUNC.search(func) else "other"
        if len(parts) < 2 or parts[0] != "src":
            continue
        if CHECKPOINT_FUNC.search(func):
            return "checkpoint"
        if len(parts) == 2:
            return "simulation" if parts[1].startswith("simulation.") \
                else "other"
        if parts[1] == "sim" and parts[2].startswith("checkpoint."):
            return "checkpoint"
        return parts[1] if parts[1] in MODULES else "other"
    return None


def resolve(exe, addrs):
    """Address -> inline chain [(function, file)], via one addr2line
    process over every unique address."""
    chains = {a: [] for a in addrs}
    tool = shutil.which("addr2line")
    if not tool or not addrs:
        return chains
    text = "".join("%x\n" % a for a in addrs)
    done = subprocess.run([tool, "-a", "-f", "-i", "-C", "-e", exe],
                          input=text, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    current, pending = None, None
    for line in done.stdout.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current, pending = int(line, 16), None
        elif pending is None:
            pending = line
        elif current in chains:
            chains[current].append((pending, line.rsplit(":", 1)[0]))
            pending = None
    return chains


def stack_module(stack, chains):
    """A sample's module: the innermost frame of its call chain that
    frame_module() places. Library code (libc, STL instantiations) is
    so charged to the src/ module that called it."""
    for addr in stack:
        module = frame_module(chains.get(addr, []))
        if module:
            return module
    return "other"


def add_profile(exe, result):
    """Turn the traced pass's sampled call chains into *.self_share
    metrics (each with its sample count) that sum to 1."""
    prof = result.pop("profile")
    stacks = [(s[0], s[1:]) for s in prof["stacks"]]
    chains = resolve(exe, sorted({a for _, st in stacks for a in st}))
    counts = {m: 0 for m in MODULES + ["alloc", "other"]}
    for n, stack in stacks:
        counts[stack_module(stack, chains)] += n
    counts["alloc"] += prof["alloc_samples"]
    total = sum(counts.values())
    metrics = result["metrics"]

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def share(n):
        return n / total if total else 0.0

    for m in MODULES:
        put(m + ".self_share", share(counts[m]), "ratio")
        put(m + ".self_samples", counts[m], "count")
    put("host.alloc_share", share(counts["alloc"]), "ratio")
    put("host.alloc_samples", counts["alloc"], "count")
    put("host.other_share", share(counts["other"]), "ratio")
    put("host.other_samples", counts["other"], "count")
    put("host.samples", total, "count")
    events = prof["events"]
    put("sim.ns_per_event",
        share(counts["sim"]) * prof["gated_sec"] * 1e9 / events
        if events else 0.0, "ns/event")
    if prof["dropped"]:
        log("run.py: %d samples dropped (buffer full)" % prof["dropped"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/reference.txt")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        log("run.py: build failed")
        return 1

    golden = os.path.join(ROOT, "tests", "golden")
    reference = os.path.join(HERE, "reference.txt")
    if args.record:
        cmd = [exe, "--record", reference, "--golden-dir", golden]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", reference, "--golden-dir", golden]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run.py: perfbench timed out")
        return 1
    if done.returncode != 0:
        log("run.py: perfbench exited with %d" % done.returncode)
        return 1
    if args.record:
        return 0

    result = json.loads(done.stdout)
    if args.trace:
        add_profile(exe, result)
    for name, m in result["metrics"].items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
