#!/usr/bin/env python3
"""Paced open-loop benchmark of djstar.

Builds the djstar libraries and the perfbench program from the source tree
around this directory, runs one workload and prints, as the last line of
standard output, one JSON object: {"correct", "attempted", "failed",
"metrics"}. The line before it is the run record (host, seed, source
identity, failure reasons), also written to <build>/runs/.

    python3 perfbench/run.py --workload dj_paced --seed 1 --seconds 30 --trace 0

The build directory is $CARGO_TARGET_DIR, or .bench_build in the current
directory. The exit code is perfbench's: 0 when every op passed its
output check, 1 when any failed, 2 on bad usage or a refused environment.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no djstar source tree next to perfbench/", 1)
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 1)
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """The git commit when there is one, and a digest of the built sources."""
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "include", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        digest.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            digest.update(f.read())
    return sha, digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (expected one of %s)"
             % (args.workload, ", ".join(workloads)))
    set_vars = sorted(k for k in os.environ if k.startswith("DJSTAR_"))
    if set_vars:
        fail("refusing to run with %s set: DJSTAR_* variables rewrite the "
             "configuration being measured" % ", ".join(set_vars))

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("runs", "traces"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build_dir, "traces", name + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2 \
            or not lines[-2].startswith("record "):
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode,
             proc.returncode or 1)
    record = json.loads(lines[-2][len("record "):])
    result = json.loads(lines[-1])

    # perfbench and BENCHMARK.json must name the same metrics and units.
    want = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    for m in want:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            fail("metric %s (%s) missing from perfbench's output"
                 % (m["name"], m["unit"]), 1)
    if len(got) != len(want):
        fail("perfbench reports metrics that BENCHMARK.json does not list", 1)

    record["git_sha"], record["source_sha256"] = source_identity()
    record["result"] = result
    with open(os.path.join(build_dir, "runs", name + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    del record["result"]
    print("record " + json.dumps(record))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
