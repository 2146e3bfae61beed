#!/usr/bin/env python3
"""Build the perfbench package from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-dense --seed 1 --seconds 10 --trace 0

The arguments go to the `perfbench` binary unchanged (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR, or to
perfbench/target when that is unset. The binary's standard output is
passed through; its last line is the JSON result. Exits non-zero, without
a result line, when the build fails or the run breaks its time limit.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates"]
    for top in roots:
        files = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in files:
            if path.is_file() and (path.suffix == ".rs" or path.name.startswith("Cargo.")):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(HERE / "Cargo.toml"),
    ]
    try:
        # Cargo's own output goes to stderr; stdout carries only the result.
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build did not finish: {e}")
    if built.returncode != 0:
        sys.exit(f"perfbench: build failed with code {built.returncode}")
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    try:
        ran = subprocess.run(
            [str(target / "release" / "perfbench"), *sys.argv[1:]],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run did not finish: {e}")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
