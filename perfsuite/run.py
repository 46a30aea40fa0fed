#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfsuite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfsuite` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The last
line of standard output is the JSON result. If the build fails, nothing is
printed on standard output and the exit code is 1.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# What the source fingerprint covers when the checkout is not a git
# repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfsuite"]
SKIP_DIRS = {"target", "out", ".bench_build"}


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in SOURCES:
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in paths:
            rel = p.relative_to(ROOT)
            if p.is_file() and not SKIP_DIRS.intersection(rel.parts):
                h.update(str(rel).encode())
                h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfsuite: build failed", file=sys.stderr)
        return 1
    exe = target / "release" / "perfsuite"
    run = subprocess.run([str(exe), *sys.argv[1:], "--commit", commit_id()], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
