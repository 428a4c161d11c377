#!/usr/bin/env python3
"""Build and run the osp benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (`perfbench/`,
a Cargo workspace of its own that depends on the repository's crates by
path) in release mode, then runs the named workload in one process and
passes its output through: a context record, one line per metric, and,
as the last line, the JSON result. `all` runs every workload in turn and
ends with one JSON result whose metrics are keyed `<workload>/<metric>`.

The build goes to `$CARGO_TARGET_DIR` (default `perfbench/target`); spans
of traced runs and the service's scratch state go to `perfbench-out/`
inside it. Exits non-zero, without a result line, if the build fails, and
with the benchmark's own code if any outcome is wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["contended-biregular", "serve-journal"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Workloads that run on one CPU. The service's closed loop keeps one
# thread busy at a time (client, connection, executor, one shard), so one
# CPU serves it; spread over several, every hand-off between its threads
# costs a cross-CPU wakeup or TLB-shootdown interrupt, and on a virtual
# machine that cost follows the host's load rather than the program.
ONE_CPU = {"serve-journal"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "vendor", HERE]
    files = []
    for root in roots:
        if root.is_dir():
            files += [p for p in root.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml", ".lock")]
    for path in sorted(files):
        if "target" in path.relative_to(ROOT).parts:
            continue
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def target_dir():
    # Cargo runs from ROOT, so a relative CARGO_TARGET_DIR is relative to it.
    configured = os.environ.get("CARGO_TARGET_DIR")
    return ROOT / configured if configured else HERE / "target"


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return False
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def pin_to_one_cpu():
    """Restricts the calling process to the highest CPU it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(binary, workload, args, out_dir, env):
    """Runs one workload; returns (exit code, stdout lines)."""
    pin = pin_to_one_cpu if workload in ONE_CPU else None
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin,
        )
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3, []
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target_dir() / "release" / "osp-perfbench"
    # Relative to the root the benchmark runs in where possible: the
    # service's Unix socket lives under it, and socket paths are short.
    out_dir = Path(os.path.relpath(target_dir() / "perfbench-out", ROOT))
    if out_dir.parts[0] == "..":
        out_dir = target_dir() / "perfbench-out"
    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()

    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args, out_dir, env)
        print("\n".join(lines))
        return code

    correct, attempted, failed, metrics, worst = True, 0, 0, {}, 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args, out_dir, env)
        print("\n".join(lines[:-1]))
        worst = max(worst, code)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return worst if worst else (0 if correct else 1)


if __name__ == "__main__":
    sys.exit(main())
