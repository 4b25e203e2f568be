#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload fermi_sync_suite --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The simulator library and the benchmark
are built from source into .bench_build/perfbench on first use; later runs
only check that the build is up to date. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON record.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def revision():
    """Git revision when the checkout is a repository, plus a hash of the
    sources the benchmark builds, which identifies any checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    return f"git:{rev},src:{h.hexdigest()[:16]}"


def flag(args, name):
    """Value following `name` in args, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no simulator sources under {ROOT}/src; run from a checkout")
        return 1
    try:
        if argv == ["--self-test"]:
            return subprocess.run([build("perfbench_tests")]).returncode
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    args = list(argv)
    if flag(args, "--revision") is None:
        args += ["--revision", revision()]
    if flag(args, "--trace") == "1" and flag(args, "--spans-out") is None:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.json"
        args += ["--spans-out", os.path.join(spans, name)]
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + args, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    # A terminated run stops the benchmark it started (the finally above).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
