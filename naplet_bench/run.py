#!/usr/bin/env python3
"""naplet-bench: build the benchmark from source, run one workload, check it.

Usage (from the root of a checkout):

    python3 naplet_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first run configures and builds naplet_bench/ (which compiles ../src)
into $CARGO_TARGET_DIR/naplet_bench, or .bench_build/naplet_bench when the
variable is unset; later runs only re-check the build. The benchmark
binary's human-readable report is passed through; the last line printed is
one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each as {"value": v, "unit": u}. The run
exits non-zero when a correctness check failed or the output does not
match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"naplet-bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "naplet_bench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"naplet sources not found at {ROOT / 'src'}; "
            "run from the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "naplet_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return out / "naplet_bench"


def source_digest():
    """sha256 over src/ and naplet_bench/: identifies the code measured."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload '{args.workload}'")
    binary = build()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        die(f"benchmark exited {done.returncode} without a result", 1)
    for line in lines[:-1]:
        print(line)
    print(f"stamp source     {source_digest()} (sha256 of src/ and "
          f"naplet_bench/)")
    print(f"stamp git        {git_commit()}")

    # Self-check: every metric BENCHMARK.json names for this mode is
    # reported, with its unit, and holds a finite number.
    kind = "per_layer" if args.trace else "end_to_end"
    got = result[kind]
    problems = []
    for metric in spec[kind]:
        name = metric["name"]
        if name not in got:
            problems.append(f"{name} missing")
        elif got[name]["unit"] != metric["unit"]:
            problems.append(f"{name} unit {got[name]['unit']!r}, "
                            f"BENCHMARK.json says {metric['unit']!r}")
        elif not math.isfinite(got[name]["value"]):
            problems.append(f"{name} is not a finite number")
        elif kind == "end_to_end" and got[name]["value"] <= 0:
            problems.append(f"{name} is {got[name]['value']}, expected > 0")
    extra = set(got) - {m["name"] for m in spec[kind]}
    problems += [f"{name} not named in BENCHMARK.json" for name in extra]
    for p in problems:
        print(f"naplet-bench self-check: {p}", file=sys.stderr)

    correct = bool(result["correct"]) and done.returncode == 0 and not problems
    metrics = {m["name"]: got[m["name"]] for m in spec[kind]
               if m["name"] in got}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
