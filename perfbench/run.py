#!/usr/bin/env python3
"""Benchmark entry point for pathweave.

    python3 perfbench/run.py --workload coauthor-1e5 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --smoke

Run from the root of a checkout. Each workload runs in its own
single-threaded child process (BLAS and OpenMP thread caps of 1,
`PATHWEAVE_THREADS=1`), one at a time, against the checkout's `src`. The
report lines go first; the last line of output is the result as JSON:
`correct`, `attempted`, `failed` and `metrics`, where the metrics are the
end-to-end ones with `--trace 0` and the per-layer ones with `--trace 1`.
With `--workload all` each workload prints its own block and the exit code
is nonzero if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("coauthor-1e5", "expr-corpus", "scholarly-cli")
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PATHWEAVE_THREADS": "1",
}
CHILD_TIMEOUT_S = 170


def git_sha():
    """The checkout's commit, or None when the checkout is not a repository.
    Read from the checkout's own .git rather than by running git, which
    would report an enclosing repository's commit instead."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed, seconds, trace, smoke):
    """Run one workload in a child process; returns its result dict or None."""
    env = dict(os.environ, **THREAD_CAPS, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: harness exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_report(result, sha):
    record = dict(result["record"], git_sha=sha)
    print(f"== {record['workload']} (seed {record['seed']}) ==")
    print("record: " + json.dumps(record, sort_keys=True))
    print("end-to-end:")
    for name, m in result["report"].items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    if result["record"]["traced_passes"]:
        print("per-layer:")
        for name, m in result["metrics"].items():
            why = result["absent"].get(name)
            tail = f"  (absent: {why})" if why else ""
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}{tail}")
    for note in result["notes"]:
        print(f"note: {note}")
    print(
        f"checks: {'pass' if result['correct'] else 'FAIL'}, "
        f"{result['failed']} of {result['attempted']} operations failed"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description="pathweave benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pathweave" / "__init__.py").is_file():
        print(f"no pathweave source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sha = git_sha()
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, args.trace, args.smoke)
        if result is None:
            return 1
        print_report(result, sha)
        ok = ok and result["correct"]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
