#!/usr/bin/env python3
"""leakguard benchmark: time-to-verdict on three workloads, end to end and per layer.

Usage (from the root of a checkout):

  python3 bench/run.py --workload demo20k --seed 0 --seconds 16 --trace 0
  python3 bench/run.py --workload all          # every workload, one after another

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
wall time of one operation, from the first ``cli.main`` call to the last
file written, over the operations that fit in ``--seconds``), ``setup_s``
(median time to import leakguard and build the inputs, over at least three
fresh set-up processes, run before and after the operations) and ``peak_rss_mb`` (high-water
RSS, in MiB, of the fresh process running the operations, read after its
first operation). ``error_rate`` is
``failed / attempted`` and is printed and carried in those two fields.

With ``--trace 1`` it runs the operations twice in fresh processes, once
plain and once with spans around leakguard's public functions (see
tracing.py), and reports per-layer self times and counts, with the
tracing overhead. The span log is written to
``.bench_out/<workload>-seed<N>-trace1/trace.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else the
run records (machine facts, per-operation figures, headline scores) goes
to ``summary.json`` beside the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics on the result line. Each is exercised by every
# workload, so none reads a constant 0; the layers only some workloads use
# (CSV loading and writing, resampling) are printed and kept in
# summary.json. See README.md for what each should move.
PER_LAYER = {
    "cli.self_s": "s",
    "dataset.load_s": "s",
    "dataset.load_rows": "count",
    "dataset.split_s": "s",
    "dataset.preprocess_s": "s",
    "experiment.fingerprint_s": "s",
    "experiment.audit_s": "s",
    "experiment.audit_rows": "count",
    "experiment.run_scenario.self_s": "s",
    "boosting.train_s": "s",
    "boosting.bin_s": "s",
    "boosting.round_s": "s",
    "boosting.rounds": "count",
    "boosting.row_rounds": "count",
    "boosting.tree_nodes": "count",
    "boosting.predict_s": "s",
    "metrics.report_s": "s",
    "trace.overhead_s": "s",
}

# Printed when the workload exercises them (their value is not 0).
WORKLOAD_LAYERS = {
    "dataset.load_csv_s": "s",
    "dataset.load_csv_rows": "count",
    "dataset.load_csv.rss_growth_mb": "MB",
    "dataset.save_csv_s": "s",
    "sampling.resample_s": "s",
    "sampling.resample_s.smote": "s",
    "sampling.resample_s.random_over": "s",
    "sampling.rows_created": "count",
    "sampling.minority_rows": "count",
    "sampling.resample.rss_growth_mb": "MB",
}

# ROADMAP item 1's single-run baseline for the credit-card-shaped data
# (20 rounds at depth 6), beside the traced figure it corresponds to.
ROADMAP_BASELINE = (
    ("generate", 1.1, "bench.generate_s"),
    ("fingerprint", 0.85, "experiment.fingerprint_s"),
    ("split", 0.12, "dataset.split_s"),
    ("standardize", 0.25, "dataset.preprocess_s"),
    ("thresholds + binning", 1.5, "boosting.bin_s"),
    ("one round, depth 6", 11.2 / 20, "boosting.round_s"),
    ("predict", 0.09, "boosting.predict_s"),
    ("metrics", 0.15, "metrics.report_s"),
    ("roc_curve", 0.51, None),
    ("leakage audit", 0.32, "experiment.audit_s"),
)

# Each batch of set-ups repeats in fresh processes until a minimum count
# and this much time have passed, with at most MAX_SETUPS, so that set-ups
# of a tenth of a second are sampled often enough.
SETUP_SECONDS, MAX_SETUPS = 1.0, 9

CHILD_TIMEOUT_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The harness could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(command: str, args: argparse.Namespace, work: Path, out_name: str, *extra: str) -> dict:
    out = work / out_name
    argv = [
        sys.executable, str(BENCH / "worker.py"), command,
        "--workload", args.workload, "--seed", str(args.seed),
        "--dir", str(work / "inputs"), "--out", str(out), *extra,
    ]
    if args.toy:
        argv.append("--toy")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {command} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {command} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def commit() -> str:
    # Checking for .git keeps git from reporting an enclosing repository.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(ops: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": ops["python"],
        "numpy": ops["numpy"],
        "platform": platform.platform(),
        "commit": commit(),
        "thread_env": {name: "1" for name in THREAD_ENV},
    }


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    """Run the child processes for one workload; returns (result, summary)."""
    seconds = ["--seconds", str(args.seconds)]
    summary: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": workloads.data_seed(args.seed),
        "trace": args.trace,
        "toy": args.toy,
    }
    if args.trace:
        setup = run_child("setup", args, work, "setup.json", "--trace")
        plain = run_child("ops", args, work, "ops-plain.json", *seconds)
        traced = run_child("ops", args, work, "ops-traced.json", *seconds, "--trace")
        per_op = traced["layers"]
        # High-water growth shows on the first operation of a fresh process.
        metrics = {
            name: per_op[0][name] if name.endswith("rss_growth_mb")
            else statistics.median(op[name] for op in per_op)
            for name in per_op[0]
        }
        metrics["dataset.save_csv_s"] = setup["layers"]["dataset.save_csv_s"]
        metrics["bench.generate_s"] = setup["layers"]["bench.generate_s"]
        traced_wall = statistics.median(traced["walls"])
        plain_wall = statistics.median(plain["walls"])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = plain_wall
        # The zero-round binning probe is extra work, not tracing cost.
        metrics["trace.overhead_s"] = traced_wall - metrics["boosting.bin_s"] - plain_wall
        accounted = [
            sum(op[k] for k in tracing.PARTITION) / wall for op, wall in zip(per_op, traced["walls"])
        ]
        metrics["trace.accounted_share"] = statistics.median(accounted)
        runs = [plain, traced]
        summary["per_op_layers"] = per_op
        summary["setup_layers"] = setup["layers"]
    else:
        setups: list[float] = []

        def set_up(minimum: int) -> None:
            started = time.perf_counter()
            count = 0
            while count < minimum or (
                time.perf_counter() - started < SETUP_SECONDS and count < MAX_SETUPS
            ):
                setups.append(run_child("setup", args, work, "setup.json")["setup_s"])
                count += 1

        # Set-ups run both before the operations, which need their inputs,
        # and after them, so that they sample the machine over the whole run.
        set_up(2)
        ops = run_child("ops", args, work, "ops.json", *seconds)
        set_up(1)
        metrics = {
            "wall_s": statistics.median(ops["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": ops["peak_rss_mb"],
        }
        runs = [ops]
        summary["setup_s_samples"] = setups
        summary["wall_s_samples"] = ops["walls"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    summary["machine"] = machine(runs[0])
    summary["metrics"] = metrics
    summary["attempted"] = attempted
    summary["failed"] = failed
    summary["failures"] = [f for r in runs for f in r["failures"]]
    summary["facts"] = runs[0]["facts"][0]
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, summary


def report(summary: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    m, facts = summary["metrics"], summary["machine"]
    print(
        f"workload {summary['workload']}  seed {summary['seed']} "
        f"(data seed {summary['data_seed']})  trace {int(summary['trace'])}"
    )
    print(
        "machine: nproc={nproc} python={python} numpy={numpy} commit={commit} ".format(**facts)
        + " ".join(f"{k}={v}" for k, v in facts["thread_env"].items())
    )
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    rate = summary["failed"] / summary["attempted"]
    if not summary["trace"]:
        print(f"  wall_s       {m['wall_s']:10.4f} s    median of {len(summary['wall_s_samples'])} operation(s)")
        print(f"  setup_s      {m['setup_s']:10.4f} s    median of {len(summary['setup_s_samples'])} set-up(s)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:10.1f} MB")
        print(f"  error_rate   {rate:10.4f}      {summary['failed']} failed / {summary['attempted']} attempted")
        return
    print(f"  error_rate   {rate:.4f} ({summary['failed']} failed / {summary['attempted']} attempted)")
    print("  per-layer (median over traced operations):")
    for name, unit in {**PER_LAYER, **WORKLOAD_LAYERS}.items():
        if name in PER_LAYER or m[name]:
            print(f"    {name:34s} {m[name]:14.6g} {unit}")
    print(
        f"  traced wall {m['trace.wall_s']:.4f} s, untraced {m['trace.untraced_wall_s']:.4f} s, "
        f"binning probe {m['boosting.bin_s']:.4f} s, overhead {m['trace.overhead_s']:+.4f} s; "
        f"layer self times account for {m['trace.accounted_share']:.2%} of traced wall"
    )
    if summary["workload"] == "creditcard-shaped":
        print("  stage                  ROADMAP baseline   traced now")
        for stage, baseline, key in ROADMAP_BASELINE:
            now = f"{m[key]:.4f} s" if key else "not called on any user path"
            print(f"    {stage:22s} {baseline:8.2f} s       {now}")


def run_workload(args: argparse.Namespace) -> dict:
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, summary = measure(args, work)
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    report(summary)
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16, help="operations per run: as many as fit in this time at the seed commit's speed, at least 2")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs and no reference check (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leakguard" / "__init__.py").is_file():
        print(f"error: no leakguard sources under {ROOT / 'src'}; run from a leakguard checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
