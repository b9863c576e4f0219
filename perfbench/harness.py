"""One workload run in its own process: set-up, warm-up, timed passes, checks.

`run.py` starts this file with the thread caps in its environment and
`src` on the path; run it directly only for debugging. It prints one JSON
object, the run's whole result, as its last line of output.

Set-up builds the workload's inputs `SETUP_REPEATS` times and keeps the
median; `setup_s` is the import time plus that median plus one warm-up pass
over smoke-size inputs, which loads everything the first timed operation
would otherwise load. Passes over the same inputs then repeat until the
next one would end past `--seconds`, alternating full passes with light
ones that skip the workload's one long operation; each operation's time is
its median over the passes. Checks run after each pass, outside the timed
region. All end-to-end times are scaled to a reference machine speed by
the calibration job in `workloads.py`; per-layer span times are not.

With `--trace 1` every pass is full, passes alternate untraced and traced,
the set-ups are traced, and the result carries per-layer metrics instead of
end-to-end ones, plus `trace.overhead_ratio`: the median traced pass time
over the median untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# name -> (unit, better). Every one is measured on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "exprs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Stages a workload may record, and the report name of each stage's time.
STAGE_METRICS = {
    "pagerank": "pagerank_s",
    "spread": "spread_s",
    "assort": "assort_s",
    "geodesic": "geodesic_s",
}

REPORT_UNITS = {
    "expr_p50_ms": "ms",
    "expr_p95_ms": "ms",
    **{name: "s" for name in STAGE_METRICS.values()},
    "failed_ratio": "ratio",
}

# Why a per-layer metric reads 0 on a workload, by metric-name prefix.
ABSENT = {
    "coauthor-1e5": {
        "rewrite.": "the query is evaluated as written, never simplified",
        "cli.": "library calls only; the CLI path is scholarly-cli",
        "kernels.export_tsv_s": "no TSV export on the library path",
        "analysis.shortest_paths": "all-pairs geodesics at n = 1e5 need a dense n x n matrix",
    },
    "expr-corpus": {
        "analysis.": "the corpus stops at the path matrix",
        "cli.": "library calls only; the CLI path is scholarly-cli",
        "kernels.export_tsv_s": "no TSV export on the library path",
    },
    "scholarly-cli": {},
}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _absent_reasons(workload, metrics):
    reasons = {}
    for name, value in metrics.items():
        if value != 0 or name == "trace.overhead_ratio":
            continue
        why = next(
            (text for prefix, text in ABSENT[workload].items() if name.startswith(prefix)),
            "not exercised by this workload's inputs",
        )
        reasons[name] = why
    return reasons


def main(argv=None):
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    import pathweave
    import spans
    import workloads

    import_s = perf_counter() - started
    if Path(pathweave.__file__).resolve().parent != ROOT / "src" / "pathweave":
        print(f"pathweave imported from {pathweave.__file__}, not this checkout", file=sys.stderr)
        return 3
    wl = workloads.WORKLOADS[args.workload]()
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    rec = spans.Recorder() if args.trace else None

    def traced(phase):
        if rec is None:
            return contextlib.nullcontext()
        rec.phase = phase
        return rec.installed()

    try:
        builds, cals = [], [workloads.calibration()]
        inputs = None
        for k in range(SETUP_REPEATS):
            inputs = None  # free the previous build before timing the next
            with traced(f"setup{k}"):
                t = perf_counter()
                inputs = wl.build(args.seed, args.smoke, str(work / "inputs"))
                builds.append(perf_counter() - t)
            cals.append(workloads.calibration())
        t = perf_counter()
        warm = wl.build(args.seed, True, str(work / "warmup"))
        warm_s = perf_counter() - t
        r = workloads.PassResult()
        wl.run_pass(warm, r)
        warm_s += sum(end - start for _, _, start, end in r.samples)
        cals += [c for _, c in r.marks]
        del warm, r

        passes, traced_passes, untraced_passes = [], [], []
        peak_rss_mb = None
        last = {}  # full pass? -> duration of the last such pass, checks included
        window = perf_counter()
        index = 0
        while True:
            is_traced = rec is not None and index % 2 == 1
            full = rec is not None or not wl.long_ops or index % 2 == 0
            # a traced pass runs the same page as the untraced one before it
            r = workloads.PassResult((index // 2 if rec else index) % wl.pages)
            t = perf_counter()
            with traced(f"pass{index}") if is_traced else contextlib.nullcontext():
                wl.run_pass(inputs, r, full)
            r.finish()
            if peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb()  # before any check allocates
            if is_traced:
                rec.count("cli.bytes_out", r.bytes_out)
            wl.check(inputs, r)
            r.outputs.clear()
            (traced_passes if is_traced else untraced_passes).append(r)
            passes.append(r)
            last[full] = perf_counter() - t
            index += 1
            next_full = rec is not None or not wl.long_ops or index % 2 == 0
            enough = len(passes) >= (2 if rec else 1)
            if enough and perf_counter() - window + last.get(next_full, last[full]) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in passes)
    failures = [(k, op, why) for k, r in enumerate(passes) for op, why in r.failed_ops.items()]
    for k, op, why in failures[:20]:
        print(f"failed: pass {k} {op}: {why}", file=sys.stderr)
    notes = []

    def pass_total(r):
        return sum(seconds for _, seconds in r.ops.values())

    # An operation is one input's step; its time is its median over the
    # untraced passes that ran it, so a slow spell of the machine in one pass
    # is dropped per operation rather than per pass. expr-corpus passes run
    # different pages of inputs, so pass-level times are the sum over
    # operations divided by the number of pages timed.
    pages = len({r.page for r in untraced_passes})
    ops = {}
    for r in untraced_passes:
        for op, (stage, seconds) in r.ops.items():
            ops.setdefault(op, (stage, []))[1].append(seconds)
    op_s = {op: (stage, statistics.median(times)) for op, (stage, times) in ops.items()}
    expr_s = [seconds for stage, seconds in op_s.values() if stage == "eval"]

    def stage_s(stage):
        return sum(seconds for st, seconds in op_s.values() if st == stage) / pages

    e2e = {
        "setup_s": (import_s + statistics.median(builds) + warm_s)
        * workloads.CALIBRATION_REF_S
        / statistics.median(cals),
        "pass_s": sum(seconds for _, seconds in op_s.values()) / pages,
        "eval_s": stage_s("eval"),
        "exprs_per_s": len(expr_s) / (stage_s("eval") * pages),
        "peak_rss_mb": peak_rss_mb,
    }
    report = dict(e2e)
    report["expr_p50_ms"] = statistics.median(expr_s) * 1e3
    report["expr_p95_ms"] = spans.p95(expr_s) * 1e3
    recorded = {stage for stage, _ in op_s.values()}
    for stage, name in STAGE_METRICS.items():
        if stage in recorded:
            report[name] = stage_s(stage)
    report["failed_ratio"] = len(failures) / attempted
    units = {k: unit for k, (unit, _) in END_TO_END.items()} | REPORT_UNITS

    correct = not failures
    if rec is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in e2e.items()}
        absent = {}
    else:
        per_layer, mismatched = spans.layer_metrics(
            rec,
            [f"setup{k}" for k in range(SETUP_REPEATS)],
            [f"pass{r_index}" for r_index in range(1, len(passes), 2)],
        )
        if mismatched and wl.pages == 1:
            correct = False
            notes.append(f"counts differ between traced passes: {', '.join(mismatched)}")
        per_layer["trace.overhead_ratio"] = statistics.median(
            pass_total(r) for r in traced_passes
        ) / statistics.median(pass_total(r) for r in untraced_passes)
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k][0]} for k, v in per_layer.items()}
        absent = _absent_reasons(wl.name, per_layer)
        spans_out = HERE / ".work" / f"spans-{wl.name}-seed{args.seed}.jsonl"
        rec.write(spans_out)
        notes.append(f"{len(rec.spans)} spans written to {spans_out.relative_to(ROOT)}")

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PATHWEAVE_THREADS")
        },
        "setup_repeats": SETUP_REPEATS,
        "calibration_ms": statistics.median(c for r in passes for _, c in r.marks) * 1e3,
        "warmup": "one pass over smoke-size inputs before the timed passes, counted in setup_s",
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "expressions_timed": len(expr_s),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "report": {k: {"value": v, "unit": units[k]} for k, v in report.items()},
        "absent": absent,
        "record": record,
        "notes": notes,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
