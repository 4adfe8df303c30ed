#!/usr/bin/env python3
"""perfbench: InstantCheck's same-host benchmark.

    python3 perfbench/run.py --workload campaign|explore|serve \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, `icheck` and the
probe from source into $CARGO_TARGET_DIR (default `.bench_build`), runs
the workload for about S seconds, checks every output, and prints as
its last line one JSON object: correct, attempted, failed and metrics.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import layers  # noqa: E402
import workloads  # noqa: E402


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def build(build_dir):
    """Configure once, then (incrementally) build the probe and icheck."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(nproc()), "--target", "perfbench_probe",
                    "icheck"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)


def source_digest():
    """SHA-1 over the sources the benchmark builds (the checkout need
    not be a git repository)."""
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def environment(cpus):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        compiler = "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or "none"
    except OSError:
        sha = "none"
    return {"nproc": cpus, "cpu": cpu, "compiler": compiler, "git_sha": sha,
            "source_sha1": source_digest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no InstantCheck sources under {ROOT}; run from a full "
             "checkout of the repository")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}", 3)

    cpus = nproc()
    print(json.dumps({"env": environment(cpus)}), flush=True)
    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Ctx(os.path.join(build_dir, "perfbench_probe"),
                        os.path.join(build_dir, "icheck"), workdir,
                        args.seed, args.seconds, cpus)
    try:
        if args.trace:
            attempted, failed, metrics = layers.traced(ctx, args.workload)
        else:
            attempted, failed, metrics = \
                workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
