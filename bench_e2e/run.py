"""End-to-end and per-layer solve benchmark for tlf.

    python3 bench_e2e/run.py --workload deblur-64 [--seed 42] [--seconds 22] [--trace 0|1] [--quick]

Runs one workload in fresh worker processes, one after another, never
concurrently. With ``--trace 0`` it reports the end-to-end metrics: a
main run timed with tracing off, plus set-up-only processes so that
``setup_s`` is a median. With ``--trace 1`` it makes one untraced run and
one separate traced run, and reports the per-layer metrics and the tracing
overhead. Every solve's output is checked. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with the run environment and every sample, goes to ``bench_e2e/out/``.

See bench_e2e/README.md for the workloads and what each metric means.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

WORKLOADS = ("deblur-64", "deblur-256", "inpaint-64", "derain-64")
SETUP_PROBES = 4  # set-up-only processes; setup_s is the median of these and the main run
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "job_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "psnr_db.dtlf": "dB",
}
# reported and recorded, but not defined on every workload or never nonzero
REPORT_ONLY = {"psnr_db.pg": "dB", "psnr_db.tlf": "dB", "failed_ratio": "ratio"}

TIMED_LAYERS = (
    "problem.pg_step",
    "problem.eval_F",
    "feasibility.solve_G",
    "feasibility.solve_G_mu",
    "feasibility.cg",
    "tensor.fft",
    "kernels.haar",
    "denoise.denoise",
    "tasks.derain_step",
    "tasks.derain_objective",
)
PER_LAYER = {
    **{f"{layer}.s": "s" for layer in TIMED_LAYERS},
    **{f"{layer}.calls": "count" for layer in TIMED_LAYERS
       if layer not in ("feasibility.cg", "tasks.derain_step")},
    "feasibility.cg.matvecs": "count",
    "tensor.fft.bytes": "bytes-computed",
    "noise.gaussian_field.s": "s",
    "engine.iterations.pg": "count",
    "engine.iterations.tlf": "count",
    "engine.iterations.dtlf": "count",
    "engine.mdus.accept_ratio": "ratio",
    "engine.mdus.decisions": "count",
    "engine.bus.accept_ratio": "ratio",
    "engine.bus.decisions": "count",
    "feasibility.solve_G_mu.useful_ratio": "ratio",
    "remainder.s": "s",
    "trace.job_s": "s",
    "trace.overhead": "ratio",
}
ACCOUNTING_TOL = 1e-6  # relative gap allowed between summed self times and job time


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run one worker to completion; return its JSON line."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(main, setups):
    jobs = main["job_s"]
    rates = [sum(o["iterations"].values()) / t for o, t in zip(main["outcomes"], jobs)]
    metrics = {
        "job_s": statistics.median(jobs),
        "iters_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    for solver, value in main["psnr"].items():
        metrics[f"psnr_db.{solver}"] = value
    return metrics


def per_layer(traced, untraced):
    """Per-job medians of the traced run's layer numbers."""
    rows = []
    for (self_s, calls, counts, _), outcome in zip(traced["layers"], traced["outcomes"]):
        row = {}
        for layer in TIMED_LAYERS:
            row[f"{layer}.s"] = self_s.get(layer, 0.0)
            row[f"{layer}.calls"] = calls.get(layer, 0)
        row["feasibility.cg.matvecs"] = counts.get("feasibility.cg.matvecs", 0)
        row["tensor.fft.bytes"] = counts.get("tensor.fft.bytes", 0)
        row["remainder.s"] = self_s.get("job", 0.0)
        for solver in ("pg", "tlf", "dtlf"):
            row[f"engine.iterations.{solver}"] = outcome["iterations"].get(solver, 0)
        row["engine.mdus.accept_ratio"] = ratio(outcome["mdus_accepted"], outcome["mdus_decisions"])
        row["engine.mdus.decisions"] = outcome["mdus_decisions"]
        row["engine.bus.accept_ratio"] = ratio(outcome["bus_accepted"], outcome["bus_decisions"])
        row["engine.bus.decisions"] = outcome["bus_decisions"]
        row["feasibility.solve_G_mu.useful_ratio"] = ratio(
            outcome["anchored_useful"], calls.get("feasibility.solve_G_mu", 0))
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["noise.gaussian_field.s"] = traced["setup_layers"][0].get("noise.gaussian_field", 0.0)
    metrics["trace.job_s"] = statistics.median(traced["job_s"])
    metrics["trace.overhead"] = metrics["trace.job_s"] / statistics.median(untraced["job_s"])
    return {name: metrics[name] for name in PER_LAYER}


def accounting(traced):
    """Check that layer self times plus the remainder make up each traced job."""
    problems = []
    for j, (self_s, _, _, duration) in enumerate(traced["layers"]):
        total = sum(self_s.values())
        worst = min(self_s.values())
        if abs(total - duration) > ACCOUNTING_TOL * duration or worst < -ACCOUNTING_TOL * duration:
            problems.append(f"job {j}: self times sum to {total!r} s, job took {duration!r} s")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42, help="workload seed passed to the fixture functions")
    parser.add_argument("--seconds", type=float, default=22.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="16x16 fixtures and 5-iteration budgets")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "tlf" / "__init__.py").is_file():
        print(f"bench_e2e: no tlf package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}" + ("_quick" if args.quick else "")
    setups = []
    try:
        if args.trace:
            # the untraced half gives the denominator of the tracing overhead
            half = str(args.seconds / 2)
            untraced = spawn(common + ["--seconds", half], deadline)
            spans = OUT / f"spans_{stem}.csv"
            traced = spawn(common + ["--seconds", half, "--trace", "1", "--spans", str(spans)], deadline)
            runs = [untraced, traced]
            metrics, units = per_layer(traced, untraced), PER_LAYER
            problems = accounting(traced)
        else:
            setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
            main_run = spawn(common + ["--seconds", str(args.seconds)], deadline)
            runs = [main_run]
            setups.append(main_run["setup_s"])
            metrics, units = end_to_end(main_run, setups), END_TO_END
            problems = []
    except BenchError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    problems += [p for r in runs for p in r["pin_problems"]]
    report = dict(metrics)
    report["failed_ratio"] = failed / attempted
    all_units = {**units, **REPORT_ONLY}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  {len(runs[-1]['job_s'])} timed jobs, {attempted} solves")
    print("environment " + json.dumps(runs[-1]["env"], sort_keys=True))
    for name, value in report.items():
        print(f"  {name:<40} {value:>16.6g} {all_units[name]}")
    for line in failures + problems:
        print(f"  FAILED {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "quick": args.quick, "env": runs[-1]["env"],
        "metrics": {name: {"value": v, "unit": all_units[name]} for name, v in report.items()},
        "samples": {"job_s": [r["job_s"] for r in runs], "setup_s": setups},
        "failures": failures, "problems": problems,
    }
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
