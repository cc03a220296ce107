#!/usr/bin/env python3
"""Builds and runs the Helios benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 25 --trace 0

Builds the `serve` daemon (repository workspace) and the `perfbench`
binary (its own workspace in this directory) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload. Every argument is passed
through to `perfbench`; see perfbench/README.md. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

`--workload all` runs every workload in BENCHMARK.json in turn, each
printing its own report and result line, and fails if any of them fails.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args, env):
    # Cargo writes progress to stderr; keep stdout for the result line.
    r = subprocess.run(["cargo", "build", "--release", "--offline", "-q", *args],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ["src", "crates", "perfbench/src", "perfbench/golden"]:
        for d, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in sorted(names)]
    for f in files:
        h.update(f.encode())
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"{ROOT} holds no Helios sources to build")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    build(["-p", "helios-bench", "--bin", "serve"], env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    exe = os.path.join(target, "release", "perfbench")
    extra = ["--serve-bin", os.path.join(target, "release", "serve"),
             "--out-dir", os.path.join(ROOT, ".bench_build", "perfbench"),
             "--rustc", command_output(["rustc", "-V"]),
             "--commit", command_output(["git", "rev-parse", "HEAD"]),
             "--source", source_digest()]
    argv = sys.argv[1:]
    if "--workload" in argv[:-1] and argv[argv.index("--workload") + 1] == "all":
        i = argv.index("--workload") + 1
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        codes = [subprocess.run([exe, *argv[:i], name, *argv[i + 1:], *extra], cwd=ROOT).returncode
                 for name in names]
        sys.exit(max(codes))
    sys.exit(subprocess.run([exe, *argv, *extra], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
