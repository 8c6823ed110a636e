"""Command-line entry point.

Subcommands: generate (synthetic dataset CSV), run (execute configured
scenarios), compare (side-by-side metric tables with inflation deltas).
Every run is driven entirely by explicit config and seeds; outputs are
written atomically and never overwritten without --force, and every
subcommand checks all its output paths before it does any work.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import dataset as ds
from .experiment import (
    METRIC_KEYS,
    Placement,
    ScenarioResult,
    ScenarioSpec,
    compare_scenarios,
    run_scenario,
)


class CliError(RuntimeError):
    """Fatal command error; the message names the failing stage."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One file that fully determines an experiment."""

    data: dict
    scenarios: tuple[ScenarioSpec, ...]
    out_dir: str

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("config needs at least one scenario")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique")
        keys = set(self.data)
        if keys not in ({"csv"}, {"csv", "schema"}, {"synthetic"}):
            raise ValueError(
                "data source must be {'csv': path[, 'schema': 'creditcard']} "
                "or {'synthetic': {...}}"
            )
        if self.data.get("schema", "creditcard") != "creditcard":
            raise ValueError(
                f"unknown data schema {self.data['schema']!r}; the only schema is 'creditcard'"
            )

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = ds.as_object("config", d)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        try:
            scenarios = ds.as_object("scenarios", d["scenarios"], list)
            scenarios = tuple(map(ScenarioSpec.from_dict, scenarios))
            data = ds.as_object("data", d["data"])
            if "synthetic" in data:
                ds.as_object("data.synthetic", data["synthetic"])
            return cls(
                data=data,
                scenarios=scenarios,
                out_dir=d.get("out_dir", "results"),
            )
        except KeyError as exc:
            raise ValueError(f"config is missing key {exc}") from exc

    def load_dataset(self) -> ds.TabularDataset:
        if "csv" in self.data:
            schema = ds.CREDITCARD_SCHEMA if "schema" in self.data else None
            return ds.load_csv(self.data["csv"], schema=schema)
        return ds.generate_synthetic_imbalanced(**self.data["synthetic"])


def _load_config(path: Path) -> ExperimentConfig:
    if not path.exists():
        raise CliError(f"config: no such file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"config: {path} line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"config: {path}: {exc}") from exc
    try:
        return ExperimentConfig.from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise CliError(f"config: {path}: {exc}") from exc


def _refuse_existing(paths, force: bool) -> None:
    """Refuse, before anything is written, if any output already exists."""
    for path in paths:
        if path.exists() and not force:
            raise CliError(f"output: {path} exists; pass --force to overwrite")


def _write_atomic(path: Path, force: bool, write) -> None:
    """Call write(tmp) on a sibling temp file, then move it onto path.

    If a step fails or is interrupted, the temp file is removed, and an
    OSError, from making the parents too, becomes a CliError naming path.
    """
    _refuse_existing([path], force)
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(tmp)
        tmp.replace(path)
    except BaseException as exc:
        if tmp.exists():  # not when its parent is missing or a file
            tmp.unlink()
        if isinstance(exc, OSError):
            raise CliError(f"output: {path}: {exc}") from exc
        raise


def _write_text(path: Path, text: str, force: bool) -> None:
    _write_atomic(path, force, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_generate(args) -> int:
    out = Path(args.output)
    _refuse_existing([out], args.force)
    try:
        data = ds.generate_synthetic_imbalanced(
            n_rows=args.n_rows,
            positive_fraction=args.positive_fraction,
            n_features=args.n_features,
            class_separation=args.class_separation,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(f"generate: {exc}") from exc
    _write_atomic(out, args.force, lambda tmp: ds.save_csv(data, tmp))
    counts = ds.class_distribution(data)[0]
    print(f"wrote {out}: {data.n_rows} rows, {counts[1]} positive ({counts[1] / data.n_rows:.4%})")
    return 0


def cmd_run(args) -> int:
    """Run the scenarios in config order on the calling thread, where each
    may fork and thread inside (see dataset._parallelism); the first
    failure ends the run before any later scenario starts."""
    config = _load_config(Path(args.config))
    presplit = [
        s.name
        for s in config.scenarios
        if s.placement == Placement.SAMPLING_BEFORE_SPLIT
    ]
    if presplit and not args.allow_presplit_sampling:
        raise CliError(
            "config: scenario(s) "
            + ", ".join(presplit)
            + " sample before the split, which leaks test information; "
            "pass --allow-presplit-sampling to run them anyway"
        )

    out_dir = Path(args.out_dir) if args.out_dir else Path(config.out_dir)
    paths = [out_dir / f"{s.name}-{s.split.seed}.result.json" for s in config.scenarios]
    _refuse_existing(paths, args.force)

    try:
        data = config.load_dataset()
    except Exception as exc:
        raise CliError(f"data loading: {exc}") from exc

    for spec, path in zip(config.scenarios, paths):
        try:
            result = run_scenario(data, spec)
        except Exception as exc:
            raise CliError(f"scenario '{spec.name}': {exc}") from exc
        _write_text(path, _json_text(result.to_dict()), args.force)
        m = result.metrics
        print(
            f"{spec.name}: f1={m.f1:.4f} recall={m.recall:.4f} "
            f"precision={m.precision:.4f} auc={m.auc:.4f} "
            f"verdict={result.leakage.verdict.value} -> {path}"
        )
    return 0


def format_table(report: dict) -> str:
    """comparison.txt: the text table of a compare_scenarios document."""
    headers = ["scenario", "placement"] + list(METRIC_KEYS) + ["verdict"]
    rows = []
    for entry in report["table"]:
        row = [entry["name"], entry["placement"]]
        for key in METRIC_KEYS:
            value = entry[key]
            row.append(f"{value:.4f}" if key == "mcc" else f"{value * 100:.2f}%")
        row.append(entry["verdict"])
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if report["inflation"]:
        lines.append("")
        lines.append("inflation (pre-split minus post-split, percentage points):")
        for entry in report["inflation"]:
            deltas = ", ".join(
                f"{k}={entry['deltas'][k] * 100:+.2f}" for k in METRIC_KEYS
            )
            lines.append(f"  {entry['minuend']} vs {entry['subtrahend']}: {deltas}")
    if report["leaky_outperforming_clean"]:
        lines.append("")
        lines.append(
            "warning: leaky scenario(s) outperform every clean one on f1: "
            + ", ".join(report["leaky_outperforming_clean"])
        )
    lines.append("")
    lines.append("all scores are positive-class metrics, not macro averages")
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    json_path = Path(args.out_dir) / "comparison.json"
    text_path = Path(args.out_dir) / "comparison.txt"
    _refuse_existing([json_path, text_path], args.force)
    results = []
    for path in args.results:
        p = Path(path)
        if not p.exists():
            raise CliError(f"compare: no such result file: {p}")
        try:
            results.append(ScenarioResult.from_dict(json.loads(p.read_text(encoding="utf-8"))))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CliError(f"compare: {p}: {exc}") from exc
    try:
        report = compare_scenarios(results)
    except ValueError as exc:
        raise CliError(f"compare: {exc}") from exc
    text = format_table(report)
    _write_text(json_path, _json_text(report), args.force)
    _write_text(text_path, text, args.force)
    print(text, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument(
        "--force", action="store_true", help="overwrite existing output files"
    )

    parser = argparse.ArgumentParser(
        prog="leakguard",
        description="leakage-guarded experiments for imbalanced binary classification",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate",
        parents=[force],
        allow_abbrev=False,
        help="write a synthetic dataset CSV",
    )
    p_gen.add_argument("--n-rows", type=int, default=20000)
    p_gen.add_argument("--positive-fraction", type=float, default=0.01)
    p_gen.add_argument("--n-features", type=int, default=10)
    p_gen.add_argument("--class-separation", type=float, default=1.2)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--output", required=True, help="destination CSV path")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser(
        "run", parents=[force], allow_abbrev=False, help="run all configured scenarios"
    )
    p_run.add_argument("config", help="experiment config JSON path")
    p_run.add_argument(
        "--out-dir", default=None, help="directory for result files (default: config out_dir)"
    )
    p_run.add_argument(
        "--allow-presplit-sampling",
        action="store_true",
        help="acknowledge that sampling before the split leaks and run anyway",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare",
        parents=[force],
        allow_abbrev=False,
        help="compare scenario result files",
    )
    p_cmp.add_argument("results", nargs="+", help="*.result.json paths")
    p_cmp.add_argument("--out-dir", default=".", help="directory for output files")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
