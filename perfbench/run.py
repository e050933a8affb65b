#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Cargo builds the `retcon-perfbench`
package (its own workspace, with path dependencies on the repository's
crates) into $CARGO_TARGET_DIR, or perfbench/target when that is unset.
The binary's last line of standard output is the result object; build
output and human-readable summaries go to standard error. The exit code
is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(target, "release", "retcon-perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--scratch", scratch]).returncode


if __name__ == "__main__":
    sys.exit(main())
