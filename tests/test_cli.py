import hashlib
import json
import threading
from types import SimpleNamespace

import pytest

from leakguard import cli
from leakguard import dataset as ds
from leakguard.cli import ExperimentConfig, main
from leakguard.experiment import run_scenario


def run_cli(*argv):
    return main(list(argv))


def assert_usage_error(capsys, *argv, message):
    """argparse rejects the command line: exit 2 before any handler runs."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# Flags that `run` takes but `generate` and `compare` never read.
RUN_ONLY_FLAGS = [
    ["--workers", "2"],
    ["--allow-presplit-sampling"],
]


def base_config(tmp_path, out_dir="results", with_presplit=False):
    model = {
        "learning_rate": 0.3,
        "n_estimators": 5,
        "max_depth": 3,
        "lambda_l2": 1.0,
        "alpha_l1": 0.0,
        "positive_class_weight": 1.0,
        "n_bins": 64,
        "min_child_weight": 1.0,
    }
    split = {"test_fraction": 0.2, "seed": 42, "stratified": True}
    pipeline = [{"kind": "smote", "sampling_strategy": 1.0, "k_neighbors": 5, "seed": 7}]
    scenarios = [
        {
            "name": "baseline",
            "placement": "no_sampling",
            "pipeline": None,
            "preprocessing": "guarded",
            "split": split,
            "model": model,
            "threshold": 0.5,
        },
        {
            "name": "smote-post",
            "placement": "sampling_after_split",
            "pipeline": pipeline,
            "preprocessing": "guarded",
            "split": split,
            "model": model,
            "threshold": 0.5,
        },
    ]
    if with_presplit:
        scenarios.append(
            {
                "name": "smote-pre",
                "placement": "sampling_before_split",
                "pipeline": pipeline,
                "preprocessing": "guarded",
                "split": split,
                "model": model,
                "threshold": 0.5,
            }
        )
    config = {
        "data": {
            "synthetic": {
                "n_rows": 600,
                "positive_fraction": 0.05,
                "n_features": 4,
                "class_separation": 1.5,
                "seed": 11,
            }
        },
        "out_dir": str(tmp_path / out_dir),
        "scenarios": scenarios,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path, config


class TestGenerate:
    def test_writes_csv_deterministically(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["generate", "--n-rows", "200", "--positive-fraction", "0.1",
                "--n-features", "3", "--seed", "5"]
        assert run_cli(*args, "--output", str(a)) == 0
        assert f"wrote {a}: 200 rows, 20 positive (10.0000%)" in capsys.readouterr().out
        assert run_cli(*args, "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_gives_the_positive_share_when_positives_are_the_majority(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        args = ["generate", "--n-rows", "1000", "--positive-fraction", "0.7", "--output", str(out)]
        assert run_cli(*args) == 0
        assert f"wrote {out}: 1000 rows, 700 positive (70.0000%)" in capsys.readouterr().out

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        args = ["generate", "--n-rows", "100", "--positive-fraction", "0.1",
                "--output", str(out)]
        assert run_cli(*args) == 0
        assert run_cli(*args) == 2
        assert "--force" in capsys.readouterr().err
        assert run_cli(*args, "--force") == 0

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        common = ["generate", "--n-rows", "100", "--positive-fraction", "0.1"]
        assert run_cli(*common, "--seed", "5", "--output", str(a)) == 0
        assert run_cli(*common, "--seed", "6", "--output", str(b)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_non_finite_separation_rejected(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run_cli("generate", "--class-separation", "nan", "--output", str(out)) == 2
        assert "generate: class_separation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys, failure):
        def failing_save_csv(data, path):
            path.write_text("Class\n0\n")
            raise failure

        monkeypatch.setattr(ds, "save_csv", failing_save_csv)
        out = tmp_path / "data.csv"
        args = ("generate", "--n-rows", "100", "--positive-fraction", "0.1", "--output", str(out))
        if isinstance(failure, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run_cli(*args)
        else:
            assert run_cli(*args) == 2
            assert f"error: output: {out}: disk full" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("blocker", ["output-is-a-directory", "parent-is-a-file"])
    def test_unwritable_output_fails_naming_the_output(self, tmp_path, capsys, blocker):
        if blocker == "output-is-a-directory":
            blocked = out = tmp_path / "data.csv"
            out.mkdir()
        else:
            blocked = tmp_path / "file"
            blocked.write_text("kept\n")
            out = blocked / "data.csv"
        args = ("generate", "--n-rows", "100", "--positive-fraction", "0.1", "--output", str(out))
        assert run_cli(*args, "--force") == 2
        assert f"error: output: {out}: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [blocked]
        assert list(out.iterdir()) == [] if out.is_dir() else blocked.read_text() == "kept\n"

    @pytest.mark.parametrize("flag", RUN_ONLY_FLAGS + [["--out-dir", "x"]])
    def test_unread_flags_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "data.csv"
        assert_usage_error(
            capsys, "generate", "--output", str(out), *flag,
            message="unrecognized arguments",
        )
        assert not out.exists()


def test_subcommands_are_generate_run_and_compare(capsys):
    parser = cli._build_parser()
    assert "{generate,run,compare}" in parser.format_usage()
    run = parser._subparsers._group_actions[0].choices["run"]
    options = [a.option_strings or [a.dest] for a in run._actions if a.dest != "help"]
    assert sorted(options) == sorted([
        ["config"], ["--out-dir"], ["--workers"], ["--allow-presplit-sampling"], ["--force"],
    ])
    assert_usage_error(capsys, "stats", "--input", "x.csv", message="invalid choice")


class TestRun:
    def test_runs_scenarios_and_writes_results(self, tmp_path):
        config_path, config = base_config(tmp_path)
        assert run_cli("run", str(config_path)) == 0
        out_dir = tmp_path / "results"
        baseline = out_dir / "baseline-42.result.json"
        post = out_dir / "smote-post-42.result.json"
        assert baseline.exists() and post.exists()
        doc = json.loads(post.read_text())
        assert doc["scenario"]["name"] == "smote-post"
        assert doc["leakage"]["verdict"] == "clean"
        assert doc["metrics"]["f1"] >= 0.0
        assert doc["seeds"]["split"] == 42

    def test_loaded_data_is_fingerprinted_once(self, tmp_path, monkeypatch):
        config_path, config = base_config(tmp_path)
        config["scenarios"].append(dict(config["scenarios"][1], name="smote-post-again"))
        config_path.write_text(json.dumps(config))
        hashed_rows = []

        def counting_sha256(row):
            hashed_rows.append(len(row))
            return hashlib.sha256(row)

        monkeypatch.setattr(ds, "hashlib", SimpleNamespace(sha256=counting_sha256))
        assert run_cli("run", str(config_path)) == 0
        # Three scenarios, one hash over the loaded dataset's rows.
        fresh = ExperimentConfig.from_dict(config).load_dataset()
        assert len(hashed_rows) == fresh.n_rows
        for spec in config["scenarios"]:
            path = tmp_path / "results" / f"{spec['name']}-42.result.json"
            assert json.loads(path.read_text())["data_fingerprint"] == fresh.fingerprint

    def test_refuses_presplit_without_flag(self, tmp_path, capsys):
        config_path, _ = base_config(tmp_path, with_presplit=True)
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "smote-pre" in err and "--allow-presplit-sampling" in err

    def test_presplit_allowed_with_flag_and_marked_leaky(self, tmp_path):
        config_path, _ = base_config(tmp_path, with_presplit=True)
        assert run_cli("run", str(config_path), "--allow-presplit-sampling") == 0
        doc = json.loads((tmp_path / "results" / "smote-pre-42.result.json").read_text())
        assert doc["leakage"]["verdict"] == "leaky"
        assert doc["leakage"]["synthetic_rows_in_test"] > 0

    def test_rerun_needs_force(self, tmp_path):
        config_path, _ = base_config(tmp_path)
        assert run_cli("run", str(config_path)) == 0
        assert run_cli("run", str(config_path)) == 2
        assert run_cli("run", str(config_path), "--force") == 0

    def test_existing_later_output_refused_before_loading(self, tmp_path, monkeypatch, capsys):
        config_path, _ = base_config(tmp_path)
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        (out_dir / "smote-post-42.result.json").write_text("old\n")

        def no_loading(config):
            raise AssertionError("data loaded before the outputs were checked")

        monkeypatch.setattr(ExperimentConfig, "load_dataset", no_loading)
        assert run_cli("run", str(config_path)) == 2
        assert "smote-post-42.result.json exists" in capsys.readouterr().err
        assert [p.name for p in out_dir.iterdir()] == ["smote-post-42.result.json"]

    def test_workers_do_not_change_results(self, tmp_path):
        config_path, _ = base_config(tmp_path)
        assert run_cli("run", str(config_path), "--out-dir", str(tmp_path / "w1")) == 0
        assert run_cli(
            "run", str(config_path), "--out-dir", str(tmp_path / "w4"), "--workers", "4"
        ) == 0
        for name in ("baseline-42", "smote-post-42"):
            a = json.loads((tmp_path / "w1" / f"{name}.result.json").read_text())
            b = json.loads((tmp_path / "w4" / f"{name}.result.json").read_text())
            a.pop("wall_time"), b.pop("wall_time")
            assert a == b

    @pytest.mark.parametrize("workers, on_main_thread", [("1", True), ("2", False)])
    def test_one_worker_runs_scenarios_on_the_calling_thread(
        self, tmp_path, monkeypatch, workers, on_main_thread
    ):
        """With one worker a scenario may fork and thread inside; with more,
        the scenarios run on pool threads."""
        config_path, _ = base_config(tmp_path)
        threads = []

        def recording(data, spec):
            threads.append(threading.current_thread() is threading.main_thread())
            return run_scenario(data, spec)

        monkeypatch.setattr(cli, "run_scenario", recording)
        assert run_cli("run", str(config_path), "--workers", workers) == 0
        assert threads == [on_main_thread, on_main_thread]

    def test_failure_cancels_queued_scenarios(self, tmp_path, monkeypatch, capsys):
        config_path, config = base_config(tmp_path)
        # 0.01 is below the data's 5:95 ratio, so undersampling must fail.
        under = [{"kind": "random_under", "sampling_strategy": 0.01, "seed": 3}]
        config["scenarios"].insert(0, dict(config["scenarios"][1], name="bad-under", pipeline=under))
        config_path.write_text(json.dumps(config))
        started = []

        def recording(data, spec):
            started.append(spec.name)
            return run_scenario(data, spec)

        monkeypatch.setattr(cli, "run_scenario", recording)
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "scenario 'bad-under': stage 'sampling after split'" in err
        assert started == ["bad-under"]
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_must_be_positive(self, tmp_path, capsys, workers):
        config_path, _ = base_config(tmp_path)
        assert_usage_error(
            capsys, "run", str(config_path), "--workers", workers,
            message="--workers: must be at least 1",
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "flag", [["--allow"], ["--work", "3"], ["--out", "x"], ["--for"]]
    )
    def test_abbreviated_flags_rejected(self, tmp_path, capsys, flag):
        config_path, _ = base_config(tmp_path)
        assert_usage_error(
            capsys, "run", str(config_path), *flag, message="unrecognized arguments"
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "in_scenario,key,value",
        [(True, "treshold", 0.9), (True, "preprocesing", "paper_faithful"), (False, "outdir", "x")],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, in_scenario, key, value):
        config_path, config = base_config(tmp_path)
        (config["scenarios"][0] if in_scenario else config)[key] = value
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "config:" in err and key in err
        assert not (tmp_path / "results").exists()

    def test_model_seed_rejected(self, tmp_path, capsys):
        config_path, config = base_config(tmp_path)
        config["scenarios"][0]["model"]["seed"] = 0
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "config:" in err and "seed" in err

    def test_float_model_depth_rejected(self, tmp_path, capsys):
        config_path, config = base_config(tmp_path)
        config["scenarios"][0]["model"]["max_depth"] = 2.5
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "config:" in err and "max_depth" in err

    def test_nan_learning_rate_rejected_before_loading(self, tmp_path, capsys):
        config_path, config = base_config(tmp_path)
        config["scenarios"][0]["model"]["learning_rate"] = float("nan")
        config_path.write_text(json.dumps(config))  # writes the NaN token json.loads accepts
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "config:" in err and "learning_rate" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("split", "stratified", "false"), ("split", "seed", 1.5), ("pipeline", "k_neighbors", 2.5)],
    )
    def test_spec_field_types_rejected(self, tmp_path, capsys, section, key, value):
        config_path, config = base_config(tmp_path)
        scenario = config["scenarios"][1]
        (scenario["pipeline"][0] if section == "pipeline" else scenario["split"])[key] = value
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "config:" in err and key in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("class_separation", float("nan")), ("seed", True), ("n_rows", 600.0)],
    )
    def test_synthetic_data_fields_checked(self, tmp_path, capsys, key, value):
        config_path, config = base_config(tmp_path)
        config["data"]["synthetic"][key] = value
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        assert f"data loading: {key}" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_seed_override_is_not_an_option(self, tmp_path, capsys):
        config_path, _ = base_config(tmp_path)
        assert_usage_error(
            capsys, "run", str(config_path), "--seed-override", "1",
            message="unrecognized arguments",
        )
        assert not (tmp_path / "results").exists()

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "data": {\n')
        assert run_cli("run", str(bad)) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["directory", "latin-1"])
    def test_unreadable_config_fails_naming_the_config(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        if config == "directory":
            path.mkdir()
        else:
            path.write_bytes('{"data": "caf\u00e9"}'.encode("latin-1"))
        assert run_cli("run", str(path)) == 2
        assert f"error: config: {path}: " in capsys.readouterr().err

    def test_non_string_out_dir_rejected(self, tmp_path, capsys):
        config_path, config = base_config(tmp_path)
        config["out_dir"] = 5
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "error: config:" in err and "out_dir must be a string, got 5" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda c: [c], "config must be a JSON object, got [{"),
            (lambda c: {**c, "data": ["csv"]}, "data must be a JSON object, got ['csv']"),
            (lambda c: {**c, "scenarios": ["abc"]}, "scenario must be a JSON object, got 'abc'"),
            (lambda c: {**c, "data": {"synthetic": [1, 2]}},
             "data.synthetic must be a JSON object, got [1, 2]"),
            (lambda c: {**c, "scenarios": [{**c["scenarios"][0], "split": [1]}]},
             "split must be a JSON object, got [1]"),
            (lambda c: {**c, "scenarios": [{**c["scenarios"][0], "model": None}]},
             "model must be a JSON object, got None"),
            (lambda c: {**c, "scenarios": [{**c["scenarios"][1], "pipeline": {"kind": "smote"}}]},
             "pipeline must be a JSON array, got {'kind': 'smote'}"),
            (lambda c: {**c, "scenarios": [{**c["scenarios"][1], "pipeline": ["smote"]}]},
             "pipeline.0 must be a JSON object, got 'smote'"),
            (lambda c: {**c, "scenarios": [{**c["scenarios"][0], "pipeline": {}}]},
             "pipeline must be a JSON array, got {}"),
            (lambda c: {**c, "scenarios": {"a": 1}}, "scenarios must be a JSON array, got {'a': 1}"),
            (lambda c: {**c, "scenarios": "abc"}, "scenarios must be a JSON array, got 'abc'"),
        ],
        ids=["top-level", "data", "scenario", "data-synthetic", "split", "model",
             "pipeline", "pipeline-step", "empty-object-pipeline", "scenarios-object",
             "scenarios-string"],
    )
    def test_non_object_config_value_names_the_field(self, tmp_path, capsys, build, message):
        config_path, config = base_config(tmp_path)
        config_path.write_text(json.dumps(build(config)))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert f"error: config: {config_path}: {message}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_missing_key_reports_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"synthetic": {}}}))
        assert run_cli("run", str(bad)) == 2
        assert "scenarios" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b"])
    def test_scenario_name_cannot_leave_out_dir(self, tmp_path, capsys, name):
        config_path, config = base_config(tmp_path, out_dir="out/results")
        config["scenarios"][0]["name"] = name
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "config:" in err and "name" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_duplicate_scenario_names_rejected(self, tmp_path, capsys):
        config_path, config = base_config(tmp_path)
        config["scenarios"][1]["name"] = "baseline"
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 2
        assert "unique" in capsys.readouterr().err


class TestRunFromCsv:
    """`run` with a {"csv": path} data source: the loading path that the
    synthetic configs above never take."""

    def csv_config(self, tmp_path, csv_path, **data):
        config_path, config = base_config(tmp_path)
        config["data"] = {"csv": str(csv_path), **data}
        config_path.write_text(json.dumps(config))
        return config_path

    def test_csv_source_gives_the_synthetic_source_results(self, tmp_path):
        synthetic_path, config = base_config(tmp_path, out_dir="synthetic")
        assert run_cli("run", str(synthetic_path)) == 0
        source = config["data"]["synthetic"]
        csv_path = tmp_path / "data.csv"
        assert run_cli(
            "generate", "--n-rows", str(source["n_rows"]),
            "--positive-fraction", str(source["positive_fraction"]),
            "--n-features", str(source["n_features"]),
            "--class-separation", str(source["class_separation"]),
            "--seed", str(source["seed"]), "--output", str(csv_path),
        ) == 0
        csv_dir = tmp_path / "from-csv"
        config_path = self.csv_config(tmp_path, csv_path)
        assert run_cli("run", str(config_path), "--out-dir", str(csv_dir)) == 0
        for spec in config["scenarios"]:
            name = f"{spec['name']}-42.result.json"
            a = json.loads((tmp_path / "synthetic" / name).read_text())
            b = json.loads((csv_dir / name).read_text())
            a.pop("wall_time")
            b.pop("wall_time")
            assert a == b

    def test_missing_csv_fails_before_writing(self, tmp_path, capsys):
        config_path = self.csv_config(tmp_path, tmp_path / "no.csv")
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "error: data loading: no such file" in err and "no.csv" in err
        assert not (tmp_path / "results").exists()

    def test_creditcard_schema_mismatch_names_the_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text('"a,b",Class\n1.0,0\n2.0,1\n')
        config_path = self.csv_config(tmp_path, csv_path, schema="creditcard")
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "error: data loading: header mismatch" in err
        assert "missing column(s): Amount, Time, V1," in err
        assert "unexpected column(s): a,b" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "content",
        ["f1,Class\n1.0,0\n", "f1,Class\n", "Class\n0\n1\n"],
        ids=["one-row", "header-only", "labels-only"],
    )
    def test_too_small_input_fails_before_writing(self, tmp_path, capsys, content):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(content)
        config_path = self.csv_config(tmp_path, csv_path)
        assert run_cli("run", str(config_path)) == 2
        err = capsys.readouterr().err
        assert "error: scenario 'baseline': stage 'train/test split':" in err
        assert not (tmp_path / "results").exists()


class TestCompare:
    def make_results(self, tmp_path):
        config_path, _ = base_config(tmp_path, with_presplit=True)
        assert run_cli("run", str(config_path), "--allow-presplit-sampling") == 0
        out = tmp_path / "results"
        return [
            str(out / "smote-pre-42.result.json"),
            str(out / "smote-post-42.result.json"),
        ]

    def test_comparison_outputs(self, tmp_path, capsys):
        paths = self.make_results(tmp_path)
        cmp_dir = tmp_path / "cmp"
        assert run_cli("compare", *paths, "--out-dir", str(cmp_dir)) == 0
        stdout = capsys.readouterr().out
        assert "smote-pre" in stdout and "smote-post" in stdout
        doc = json.loads((cmp_dir / "comparison.json").read_text())
        assert doc["names"] == ["smote-pre", "smote-post"]
        assert len(doc["inflation"]) == 1
        text = (cmp_dir / "comparison.txt").read_text()
        assert "verdict" in text
        assert "positive-class" in text

    def test_tampered_verdict_refused(self, tmp_path, capsys):
        paths = self.make_results(tmp_path)
        pre = tmp_path / "results" / "smote-pre-42.result.json"
        doc = json.loads(pre.read_text())
        assert doc["leakage"]["verdict"] == "leaky"
        doc["leakage"]["verdict"] = "clean"
        pre.write_text(json.dumps(doc))
        assert run_cli("compare", *paths, "--out-dir", str(tmp_path / "cmp")) == 2
        err = capsys.readouterr().err
        assert "compare:" in err and str(pre) in err
        assert "leakage.verdict: stored value is not what the result's primary facts give" in err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["metrics"].update(f1=0.999), "metrics.f1"),
            (lambda d: d.update(test_class_counts={"0": 1, "1": 1}), "test_class_counts"),
            (lambda d: d["leakage"].update(synthetic_rows_in_test=0, verdict="clean"),
             "synthetic_rows_in_test"),
            (lambda d: d["scenario"].update(threshold="0.5"), "threshold"),
            (lambda d: d["leakage"].update(synthetic_rows_in_test=-5), "synthetic_rows_in_test"),
            (lambda d: d["scenario"]["pipeline"][0].update(sampling_strategy=True),
             "sampling_strategy"),
            (lambda d: d.update(train_class_counts=[]), "train_class_counts must be a JSON object"),
            (lambda d: d.update(test_labels=None), "test_labels must be a JSON array"),
            (lambda d: d["test_labels"].__setitem__(0, True), "test_labels.0"),
            (lambda d: d["test_labels"].__setitem__(0, 0.0), "test_labels.0"),
            (lambda d: d["test_scores"].__setitem__(1, "0.5"), "test_scores.1"),
            (lambda d: d["test_scores"].__setitem__(1, float("inf")), "test_scores.1"),
            (lambda d: d.update(scenario=[]), "scenario must be a JSON object"),
            (lambda d: d.update(leakage=[]), "leakage must be a JSON object"),
            (lambda d: d.update(test_provenance_counts=[]),
             "test_provenance_counts must be a JSON object"),
            (lambda d: d.update(data_fingerprint=[1]), "data_fingerprint"),
            (lambda d: d.update(data_fingerprint="AB" * 32), "data_fingerprint"),
            (lambda d: d.update(data_fingerprint="ab"), "data_fingerprint"),
            (lambda d: d["train_class_counts"].update({"0": -7}), "train_class_counts.0"),
            (lambda d: d["train_class_counts"].update({"1": "x"}), "train_class_counts.1"),
            (lambda d: d["train_class_counts"].update({"2": 0}), "train_class_counts"),
            (lambda d: d["train_class_counts"].pop("1"), "train_class_counts"),
            (lambda d: d.update(wall_time="x"), "wall_time"),
            (lambda d: d.update(wall_time=-1.0), "wall_time"),
            (lambda d: d["test_provenance_counts"].update(
                duplicate=d["test_provenance_counts"]["synthetic"] + 3, synthetic=-3),
             "test_provenance_counts.synthetic"),
            (lambda d: d["test_provenance_counts"].update(bogus=0), "test_provenance_counts"),
            (lambda d: d["test_provenance_counts"].pop("duplicate"), "test_provenance_counts"),
            (lambda d: d["test_provenance_counts"].update(
                original=float(d["test_provenance_counts"]["original"])),
             "test_provenance_counts.original"),
            (lambda d: d["test_provenance_counts"].update(
                duplicate=True, synthetic=d["test_provenance_counts"]["synthetic"] - 1),
             "test_provenance_counts.duplicate"),
            (lambda d: d["scenario"].update(preprocessing="paper_faithful"),
             "leakage.scaler_fitted_on_full_data"),
            (lambda d: d["seeds"].update(split=43), "seeds.split"),
            (lambda d: d.update(note="hand-edited"), "note"),
        ],
        ids=["f1", "class-counts", "zeroed-synthetic", "string-threshold", "negative-count",
             "bool-strategy", "list-train-counts", "null-labels", "bool-label", "float-label",
             "string-score", "infinite-score", "list-scenario", "list-leakage",
             "list-provenance-counts", "list-fingerprint",
             "upper-hex-fingerprint", "short-fingerprint", "negative-train-count",
             "string-train-count", "extra-train-class", "missing-train-class",
             "string-wall-time", "negative-wall-time", "negative-provenance-count",
             "extra-provenance-kind", "missing-provenance-kind", "float-provenance-count",
             "bool-provenance-count", "unfaithful-scaler-flag", "split-seed", "unknown-key"],
    )
    def test_malformed_result_file_refused(self, tmp_path, capsys, edit, message):
        paths = self.make_results(tmp_path)
        pre = tmp_path / "results" / "smote-pre-42.result.json"
        doc = json.loads(pre.read_text())
        edit(doc)
        pre.write_text(json.dumps(doc))
        assert run_cli("compare", *paths, "--out-dir", str(tmp_path / "cmp")) == 2
        err = capsys.readouterr().err
        assert f"compare: {pre}: " in err and message in err
        assert not (tmp_path / "cmp").exists()

    def test_paper_faithful_result_relabelled_clean_refused(self, tmp_path, capsys):
        config_path, config = base_config(tmp_path)
        config["scenarios"][0]["preprocessing"] = "paper_faithful"
        config_path.write_text(json.dumps(config))
        assert run_cli("run", str(config_path)) == 0
        out = tmp_path / "results"
        faithful = out / "baseline-42.result.json"
        doc = json.loads(faithful.read_text())
        leakage = doc["leakage"]
        assert leakage.pop("scaler_fitted_on_full_data") is True
        # The scaler saw the test rows, and nothing else tripped the verdict.
        assert leakage == {"synthetic_rows_in_test": 0, "duplicate_pairs_across_split": 0,
                           "class_count_change": 0, "verdict": "leaky"}
        leakage.update(scaler_fitted_on_full_data=False, verdict="clean")
        faithful.write_text(json.dumps(doc))
        paths = [str(faithful), str(out / "smote-post-42.result.json")]
        assert run_cli("compare", *paths, "--out-dir", str(tmp_path / "cmp")) == 2
        err = capsys.readouterr().err
        assert f"compare: {faithful}: leakage.scaler_fitted_on_full_data: " in err
        assert not (tmp_path / "cmp").exists()

    def test_existing_later_output_leaves_nothing_written(self, tmp_path, capsys):
        paths = self.make_results(tmp_path)
        cmp_dir = tmp_path / "cmp"
        cmp_dir.mkdir()
        (cmp_dir / "comparison.txt").write_text("old\n")
        assert run_cli("compare", *paths, "--out-dir", str(cmp_dir)) == 2
        assert "comparison.txt exists" in capsys.readouterr().err
        assert [p.name for p in cmp_dir.iterdir()] == ["comparison.txt"]
        assert run_cli("compare", *paths, "--out-dir", str(cmp_dir), "--force") == 0
        assert (cmp_dir / "comparison.json").exists()

    def test_missing_result_file(self, tmp_path, capsys):
        assert run_cli("compare", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)) == 2
        assert "no such result" in capsys.readouterr().err

    def test_result_path_that_is_a_directory(self, tmp_path, capsys):
        paths = self.make_results(tmp_path)
        capsys.readouterr()
        cmp_dir = tmp_path / "cmp"
        assert run_cli("compare", paths[0], str(tmp_path), "--out-dir", str(cmp_dir)) == 2
        assert f"error: compare: {tmp_path}: " in capsys.readouterr().err
        assert not cmp_dir.exists()

    @pytest.mark.parametrize("flag", RUN_ONLY_FLAGS)
    def test_unread_flags_rejected(self, tmp_path, capsys, flag):
        assert_usage_error(
            capsys, "compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"), *flag,
            message="unrecognized arguments",
        )


class TestConfigValidation:
    def test_unknown_schema_rejected(self, tmp_path):
        _, config = base_config(tmp_path)
        config["data"] = {"csv": "x.csv", "schema": "creditcrd"}
        with pytest.raises(ValueError, match="'creditcrd'"):
            ExperimentConfig.from_dict(config)

    def test_data_source_shape_validated(self, tmp_path):
        _, config = base_config(tmp_path)
        config["data"] = {"csv": "x.csv", "synthetic": {}}
        with pytest.raises(ValueError, match="data source"):
            ExperimentConfig.from_dict(config)
