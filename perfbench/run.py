#!/usr/bin/env python3
"""Builds cme-serve and the load generator from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Build
progress goes to stderr; the load generator's last stdout line is the result.
"""

import os
import subprocess
import sys


def build(args, env):
    # Build chatter must not reach stdout, whose last line is the result.
    done = subprocess.run(args, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("perfbench: build failed: %s\n" % " ".join(args))
        sys.exit(3)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    build(cargo + ["--manifest-path", "Cargo.toml", "-p", "cme-serve", "--bin", "cme-serve"], env)
    build(cargo + ["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    release = os.path.join(target, "release")
    generator = os.path.join(release, "perfbench")
    serve = os.path.join(release, "cme-serve")
    done = subprocess.run([generator, "--serve-bin", serve] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
