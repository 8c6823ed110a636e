"""One child process of the benchmark: a set-up, or a series of operations.

Every measured step runs in a fresh interpreter so that import time is
paid inside set-up and the process high-water RSS belongs to one
workload. The orchestrator (run.py) pins BLAS/OpenMP threads to 1 and
puts the checkout's ``src`` first on PYTHONPATH before starting this.

  worker.py setup  --workload W --seed N --dir D --out F [--trace] [--toy]
  worker.py ops    --workload W --seed N --dir D --out F --seconds S [--trace] [--toy]
  worker.py record --workload W --dir D   (rewrites reference.json for W)

An operation is ``leakguard run`` on the workload config, then
``leakguard compare`` on its result files when there is more than one
scenario. One closed-loop client runs ``workloads.operation_count``
operations: as many as fit in ``--seconds`` at the seed commit's speed,
and at least two.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import shutil
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_leakguard():
    import leakguard
    import leakguard.cli
    import numpy

    src = (ROOT / "src").resolve()
    if src not in Path(leakguard.__file__).resolve().parents:
        raise RuntimeError(f"leakguard imported from {leakguard.__file__}, not from {src}")
    return leakguard.cli, numpy.__version__


def cmd_setup(args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    _import_leakguard()
    if tracer is not None:
        tracing.install(tracer)
    workloads.build_inputs(args.workload, args.seed, args.dir, args.toy, tracer)
    setup_s = time.perf_counter() - start
    out = {"setup_s": setup_s}
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans)
    return out


def run_operation(cli, config_path: Path, config: dict, out_dir: Path, tracer) -> tuple[float, dict]:
    """Run one operation; returns its wall time and the return codes."""
    result_files = [str(out_dir / workloads.result_name(s)) for s in config["scenarios"]]
    calls = [["run", str(config_path), "--out-dir", str(out_dir), "--allow-presplit-sampling"]]
    if len(result_files) > 1:
        calls.append(["compare", *result_files, "--out-dir", str(out_dir)])
    codes = {}
    sink = io.StringIO()
    span = tracer.span("bench.op") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), span:
        start = time.perf_counter()
        for argv in calls:
            inner = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            with inner:
                codes[argv[0]] = cli.main(argv)
            if codes[argv[0]] != 0:
                break
        wall = time.perf_counter() - start
    return wall, codes


def cmd_ops(args) -> dict:
    cli, numpy_version = _import_leakguard()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    config_path = args.dir / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    reference = None if args.toy else workloads.load_reference(args.workload, args.seed)
    ops_root = args.dir / "ops"

    walls, peaks, layers, failures, facts_seen = [], [], [], [], []
    attempted = failed = 0
    for i in range(workloads.operation_count(args.workload, args.seconds)):
        out_dir = ops_root / f"op{i}"
        if tracer is not None:
            tracer.run_id = i
        wall, codes = run_operation(cli, config_path, config, out_dir, tracer)
        walls.append(wall)
        peaks.append(tracing.max_rss_mb())
        facts = workloads.observe(config, out_dir)
        bad = workloads.check(args.workload, config, facts, reference)
        for name, code in codes.items():
            if code != 0:
                bad.setdefault("comparison" if name == "compare" else "run", []).append(
                    f"leakguard {name} exited with {code}"
                )
        ops = workloads.operations(config)
        attempted += len(ops)
        failed += sum(1 for op in ops if op in bad or (op != "comparison" and "run" in bad))
        failures += [f"op{i} {op}: {m}" for op, msgs in bad.items() for m in msgs]
        facts_seen.append(facts)
        if tracer is not None:
            layers.append(tracing.layer_metrics([s for s in tracer.spans if s["run_id"] == i]))
        shutil.rmtree(out_dir, ignore_errors=True)

    out = {
        "walls": walls,
        # Later operations can raise the high-water mark through
        # fragmentation, so the figure is that of a fresh process through
        # exactly one operation, whatever the number of operations run.
        "peak_rss_mb": peaks[0],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "facts": facts_seen,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if tracer is not None:
        tracer.write_jsonl(args.out.with_name("trace.jsonl"))
        out["layers"] = layers
    return out


def cmd_record(args) -> dict:
    """Pin the current program's verdicts and leakage counts per data seed."""
    cli, _ = _import_leakguard()
    table = json.loads(workloads.REFERENCE_PATH.read_text()) if workloads.REFERENCE_PATH.exists() else {}
    entries = {}
    for seed in range(len(workloads.DATA_SEEDS)):
        inputs = args.dir / f"record-{seed}"
        config_path = workloads.build_inputs(args.workload, seed, inputs)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        out_dir = inputs / "out"
        run_operation(cli, config_path, config, out_dir, None)
        facts = workloads.observe(config, out_dir)
        bad = workloads.check(args.workload, config, facts, None)
        if bad:
            raise RuntimeError(f"data seed {workloads.data_seed(seed)} fails its invariants: {bad}")
        entries[str(workloads.data_seed(seed))] = workloads.reference_entry(facts)
        shutil.rmtree(inputs)
        print(f"{args.workload} data seed {workloads.data_seed(seed)} recorded", file=sys.stderr)
    table[args.workload] = entries
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {"recorded": len(entries)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("setup", "ops", "record"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    handler = {"setup": cmd_setup, "ops": cmd_ops, "record": cmd_record}[args.command]
    result = handler(args)
    text = json.dumps(result) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
