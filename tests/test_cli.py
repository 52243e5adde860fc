from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import banditriage
import banditriage.policy as policy_module
from banditriage.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _atomic, build_parser, main
from banditriage.policy import PolicyConfig
from banditriage.records import REQUIRED_COLUMNS, load_cohort
from banditriage.scoring import load_model
from banditriage.simulate import run_replay
from banditriage.synthgen import builtin_scenario_path


def run(argv: list[str]) -> int:
    return main(argv)


def run_subprocess(argv: list[str], preamble: str = "") -> subprocess.CompletedProcess:
    """``main(argv)`` in a fresh interpreter (its own logging setup), after
    running ``preamble``."""
    src = str(Path(banditriage.__file__).resolve().parents[1])
    script = ("import sys\n" + preamble + "from banditriage.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def small_cohort_csv(workdir) -> Path:
    code = run(["synth", "--scenario", "oracle", "--out", "cohort.csv",
                "--out-dir", str(workdir), "--seed", "5", "--quiet"])
    assert code == EXIT_OK
    return workdir / "cohort.csv"


@pytest.fixture
def small_model(workdir, small_cohort_csv) -> Path:
    code = run(["train", "--cohort", str(small_cohort_csv), "--weeks", "1-2",
                "--kind", "linear", "--out", "model.txt",
                "--out-dir", str(workdir), "--seed", "5", "--quiet"])
    assert code == EXIT_OK
    return workdir / "model.txt"


def raw_rows(n_bad_dates: int = 0) -> str:
    lines = [",".join(REQUIRED_COLUMNS)]
    for i in range(6):
        date = "bogus" if i < n_bad_dates else f"2020-03-{9 + i:02d}"
        lines.append(f"{date},1,0,0,0,1,positive,female,Contact with confirmed")
    return "\n".join(lines) + "\n"


class TestIngest:
    def test_happy_path(self, workdir):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(), encoding="utf-8")
        code = run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK
        assert (workdir / "cohort.csv").exists()
        assert (workdir / "rejections.tsv").read_text(encoding="utf-8") == ""
        manifest = json.loads((workdir / "ingest.manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert str(workdir / "cohort.csv") in manifest["artifacts"]

    def test_bad_rows_still_succeed(self, workdir):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(n_bad_dates=2), encoding="utf-8")
        code = run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK
        report = (workdir / "rejections.tsv").read_text(encoding="utf-8")
        assert len(report.splitlines()) == 2

    def test_missing_column_is_data_error(self, workdir, capsys):
        raw = workdir / "raw.csv"
        raw.write_text("test_date,cough\n2020-03-11,1\n", encoding="utf-8")
        code = run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "fever" in err

    def test_unreadable_text_is_data_error(self, workdir, capsys):
        # a cell past the csv module's field size limit (in a row, in the
        # header), and bytes that are not UTF-8
        row = "2020-03-11,0,0,0,0,0,negative,{},Other\n"
        header = ",".join(REQUIRED_COLUMNS) + "\n"
        (workdir / "big.csv").write_text(header + row.format("x" * 200_000), encoding="utf-8")
        (workdir / "bighead.csv").write_text("x" * 200_000 + "," + header + row.format("male"),
                                             encoding="utf-8")
        (workdir / "latin1.csv").write_bytes((header + row.format("männlich")).encode("latin-1"))
        for name in ("big.csv", "bighead.csv", "latin1.csv"):
            code = run(["ingest", "--input", str(workdir / name), "--out-dir", str(workdir),
                        "--quiet"])
            assert code == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("error: data:") and "unreadable as delimited text" in err

    def test_quoted_line_break_is_data_error(self, workdir, capsys):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows().replace(",female,", ',"fe\nmale",', 1), encoding="utf-8")
        code = run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {raw}: line 2: a quoted field runs past")
        assert "Traceback" not in err
        assert not (workdir / "cohort.csv").exists()

    def test_missing_required_flag_is_usage_error(self, workdir, capsys):
        assert run(["ingest", "--out-dir", str(workdir)]) == EXIT_USAGE
        assert "error: usage:" in capsys.readouterr().err

    def test_malformed_window_date_is_usage_error(self, workdir, capsys):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(), encoding="utf-8")
        code = run(["ingest", "--input", str(raw), "--window-start", "2020-13-01",
                    "--window-end", "2020-12-31", "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: usage: argument --window-start:" in err and "Traceback" not in err
        assert "2020-13-01" in err
        assert not (workdir / "cohort.csv").exists()

    def test_reversed_window_is_usage_error_before_reading(self, workdir, capsys):
        # the input does not exist: the flags are refused before it is opened
        code = run(["ingest", "--input", str(workdir / "missing.csv"),
                    "--window-start", "2020-12-31", "--window-end", "2020-01-01",
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: usage:")
        assert "2020-12-31" in err and "2020-01-01" in err
        assert not (workdir / "ingest.manifest.json").exists()

    def test_input_not_mutated(self, workdir):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(), encoding="utf-8")
        before = hashlib.sha256(raw.read_bytes()).hexdigest()
        run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"])
        assert hashlib.sha256(raw.read_bytes()).hexdigest() == before


class TestSynthTrainSimulate:
    def test_synth_builtin_and_file(self, workdir):
        assert (workdir / "cohort.csv").exists() is False
        code = run(["synth", "--scenario", "default", "--out", "cohort.csv",
                    "--out-dir", str(workdir), "--seed", "1", "--quiet"])
        assert code == EXIT_OK
        assert (workdir / "cohort.csv").stat().st_size > 0

    def test_unknown_scenario_is_data_error(self, workdir, capsys):
        assert run(["synth", "--scenario", "wat", "--out-dir", str(workdir),
                    "--quiet"]) == EXIT_DATA

    def test_seed_flag_overrides_scenario_seed(self, workdir):
        for seed, name in (("21", "a.csv"), ("22", "b.csv")):
            assert run(["synth", "--scenario", "oracle", "--out", name,
                        "--out-dir", str(workdir), "--seed", seed, "--quiet"]) == EXIT_OK
        a = (workdir / "a.csv").read_text(encoding="utf-8")
        b = (workdir / "b.csv").read_text(encoding="utf-8")
        assert a != b

    def test_train_and_reload(self, workdir, small_model):
        text = small_model.read_text(encoding="utf-8")
        assert text.startswith("banditriage-model v1")
        assert "manifest train.manifest.json" in text

    def test_train_on_empty_weeks_is_data_error(self, workdir, small_cohort_csv):
        code = run(["train", "--cohort", str(small_cohort_csv), "--weeks", "40-41",
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA

    def test_simulate_outputs(self, workdir, small_cohort_csv, small_model):
        policy = workdir / "p.policy"
        policy.write_text(
            "[policy]\ncapacity = 100\nexploration_fraction = 0.3\n"
            "sampler = uniform_random\n",
            encoding="utf-8",
        )
        code = run(["simulate", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model), "--policy", str(policy),
                    "--out-dir", str(workdir), "--seed", "2", "--quiet"])
        assert code == EXIT_DATA  # model trained on weeks 1-2: replay overlaps
        code = run(["simulate", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model), "--policy", str(policy),
                    "--weeks", "3-6",
                    "--out-dir", str(workdir), "--seed", "2", "--quiet"])
        assert code == EXIT_OK
        trace_lines = (workdir / "trace.jsonl").read_text().splitlines()
        header = json.loads(trace_lines[0])
        assert header["policy"]["capacity"] == 100
        summary = (workdir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("# manifest: simulate.manifest.json")
        assert summary[1].split(",")[0] == "period"
        selections = (workdir / "selections.csv").read_text().splitlines()
        assert selections[1] == "record_id,period,channel,arm,score"
        # exploit + explore counts match the trace
        assert len(selections) - 2 == sum(
            json.loads(l)["pool_size"] >= 0 and
            len(json.loads(l)["exploit_ids"]) + len(json.loads(l)["explore_ids"])
            for l in trace_lines[1:]
        )


class TestTrainFlags:
    def test_huge_regularization_gives_finite_weights_and_no_warning(self, small_cohort_csv):
        # In a fresh interpreter, so a numpy RuntimeWarning would reach stderr.
        out = small_cohort_csv.parent
        proc = run_subprocess(["train", "--cohort", str(small_cohort_csv), "--weeks", "1-2",
                               "--regularization", "1e308", "--out-dir", str(out), "--quiet"])
        assert proc.returncode == EXIT_OK and proc.stderr == ""
        model = load_model(out / "model.txt")
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias)

    def test_class_weighting_flag_is_gone(self, workdir, small_cohort_csv, capsys):
        assert run(["train", "--cohort", str(small_cohort_csv), "--class-weighting", "none",
                    "--out-dir", str(workdir), "--quiet"]) == EXIT_USAGE
        cfg = workdir / "run.config"
        cfg.write_text("class_weighting = none\n", encoding="utf-8")
        assert run(["train", "--cohort", str(small_cohort_csv), "--config", str(cfg),
                    "--out-dir", str(workdir), "--quiet"]) == EXIT_DATA
        assert f"{cfg}: unknown option 'class_weighting'" in capsys.readouterr().err

    def test_iteration_cap_logs_a_warning(self, workdir, small_cohort_csv, capsys):
        assert run(["train", "--cohort", str(small_cohort_csv), "--weeks", "1-2",
                    "--epochs", "1", "--out-dir", str(workdir)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.count("WARNING") == 1 and "cap of 1 Newton iteration" in err
        assert run(["train", "--cohort", str(small_cohort_csv), "--weeks", "1-2",
                    "--out-dir", str(workdir)]) == EXIT_OK
        assert "WARNING" not in capsys.readouterr().err


class TestPolicyFile:
    @pytest.mark.parametrize("text, message", [
        ("[policy]\ncapacity = 100\nexploraton_fraction = 0.4\n",
         "unknown key 'exploraton_fraction' in [policy]"),
        ("[policy]\ncapacity = 100\nseed = 1\n", "unknown key 'seed' in [policy]"),
        ("[policy]\nexploration_fraction = 0.4\n", "[policy] needs a capacity"),
    ])
    def test_bad_policy_file_is_data_error(self, workdir, small_cohort_csv, capsys,
                                           text, message):
        policy = workdir / "p.policy"
        policy.write_text(text, encoding="utf-8")
        code = run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(policy), "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and message in err
        assert not (workdir / "out").exists()


class TestCapacityFlags:
    """--k and --k-list entries below 1 are usage errors, caught before any work."""

    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--rule-based", "--k", "-5"],
        ["bootstrap", "--rule-based", "--k", "0"],
        ["sweep", "--rule-based", "--k-list", "300,-100"],
        ["report", "--recall-table", "--model", "model.txt", "--k-list", "-100"],
        ["report", "--models", "rule_based", "--k-list", "100,0"],
        ["report", "--crossover", "--weeks-a", "1", "--weeks-b", "2", "--weeks", "3",
         "--k-list", ","],
    ])
    def test_capacity_below_one_is_usage_error(self, workdir, small_cohort_csv, capsys,
                                               argv):
        code = run(argv + ["--cohort", str(small_cohort_csv),
                           "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: usage:" in err and "capacit" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    def test_capacity_from_config_is_checked(self, workdir, small_cohort_csv, capsys):
        cfg = workdir / "run.config"
        cfg.write_text("k = -5\n", encoding="utf-8")
        code = run(["bootstrap", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--config", str(cfg), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        assert "capacity must be >= 1" in capsys.readouterr().err

    def test_capacity_past_float_range_is_data_error(self, workdir, small_cohort_csv, capsys):
        # floor(rho * capacity) cannot be formed in floats; it used to end in exit 3.
        huge = "1" + "0" * 400
        policy = workdir / "huge.policy"
        policy.write_text(f"[policy]\ncapacity = {huge}\nexploration_fraction = 0.3\n",
                          encoding="utf-8")
        for argv, named in ((["sweep", "--rule-based", "--k-list", f"300,{huge}"], ""),
                            (["simulate", "--rule-based", "--policy", str(policy)], str(policy))):
            code = run(argv + ["--cohort", str(small_cohort_csv),
                               "--out-dir", str(workdir / "out"), "--quiet"])
            err = capsys.readouterr().err
            assert code == EXIT_DATA, err
            assert err.startswith(f"error: data: {named}") and "capacity must not exceed" in err

    @pytest.mark.parametrize("argv", [
        ["report", "--recall-table", "--model", "model.txt", "--k-list", "300,300"],
        ["report", "--crossover", "--weeks-a", "1", "--weeks-b", "2", "--weeks", "3",
         "--k-list", "300,100,300"],
        ["sweep", "--rule-based", "--rho-list", "0.3,0.30", "--k-list", "300"],
        ["sweep", "--rule-based", "--rho-list", "0,-0", "--k-list", "300"],
        ["sweep", "--rule-based", "--rho-list", "0.3", "--k-list", "300,300"],
    ])
    def test_repeated_list_entry_is_usage_error(self, workdir, small_cohort_csv, capsys, argv):
        # A repeat used to write a duplicate row, or one column for two entries.
        code = run(argv + ["--cohort", str(small_cohort_csv),
                           "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: usage:" in err and "without repeats" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("entry", ["k_list = 300,300", "rho_list = 0.5,0.5"])
    def test_repeated_list_entry_from_config_is_data_error(self, workdir, small_cohort_csv,
                                                            capsys, entry):
        cfg = workdir / "run.config"
        cfg.write_text(entry + "\n", encoding="utf-8")
        code = run(["sweep", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--config", str(cfg), "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        assert "without repeats" in capsys.readouterr().err
        assert not (workdir / "out").exists()


class TestFlagValues:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--rule-based", "--policy", "p.policy", "--retrain-every", "-2"],
        ["bootstrap", "--rule-based", "--k", "100", "--level", "1.5"],
        ["bootstrap", "--rule-based", "--k", "100", "--level", "nan"],
        ["bootstrap", "--rule-based", "--k", "100", "--replicates", "1"],
        ["bootstrap", "--rule-based", "--k", "100", "--seed", "-1"],
        ["bootstrap", "--rule-based", "--k", "100", "--seed", str(2**64)],
        ["train", "--epochs", "0"],
        ["train", "--regularization", "0"],
        ["train", "--regularization", "nan"],
        ["sweep", "--rule-based", "--rho-list", "0.3,1.5"],
        ["sweep", "--rule-based", "--rho-list", "nan"],
        ["sweep", "--rule-based", "--rho-list", ","],
        ["train", "--weeks", "0-3"],
        ["bootstrap", "--rule-based", "--k", "100", "--weeks", "1-99999999999"],
    ], ids=lambda argv: " ".join(argv[2:] if argv[1] == "--rule-based" else argv[1:]))
    def test_bad_value_is_usage_error_before_reading(self, workdir, capsys, argv):
        # The cohort does not exist: the flag is rejected before it is read.
        code = run(argv + ["--cohort", str(workdir / "missing.csv"),
                           "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: usage:" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    def test_week_list_must_be_strictly_ascending(self, workdir, small_cohort_csv, small_model,
                                                  capsys):
        # A descending list used to replay week 8 before week 4, and a repeat
        # counted its week twice.
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 50\nexploration_fraction = 0.3\n",
                          encoding="utf-8")
        common = ["--cohort", str(small_cohort_csv), "--model", str(small_model),
                  "--out-dir", str(workdir / "out"), "--quiet"]
        for argv in (["simulate", "--policy", str(policy), "--weeks", "8,4",
                      "--retrain-every", "1"],
                     ["bootstrap", "--k", "10", "--weeks", "4,4,5"],
                     ["bootstrap", "--k", "10", "--weeks", "3-5,5"]):
            assert run(argv + common) == EXIT_USAGE, argv
            err = capsys.readouterr().err
            assert "error: usage:" in err and "strictly ascending" in err
        assert not (workdir / "out").exists()
        cfg = workdir / "run.config"
        cfg.write_text("weeks = 5,5\n", encoding="utf-8")
        assert run(["bootstrap", "--k", "10", "--config", str(cfg), *common]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: data: {cfg}: ")
        assert run(["bootstrap", "--k", "10", "--weeks", "3,4-5", *common]) == EXIT_OK

    @pytest.mark.parametrize("delimiter", ["", ",,", "\\t"])
    def test_ingest_delimiter_must_be_one_character(self, workdir, capsys, delimiter):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(), encoding="utf-8")
        code = run(["ingest", "--input", str(raw), f"--delimiter={delimiter}",
                    "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        assert "delimiter must be one character" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("entry", ["retrain_every = -2", "epochs = 0", "level = 1.5",
                                       "replicates = 1", "rho_list = 0.3,2"])
    def test_bad_value_from_config_is_data_error(self, workdir, small_cohort_csv, capsys,
                                                 entry):
        subcommand = {"retrain_every": "simulate", "epochs": "train",
                      "rho_list": "sweep"}.get(entry.split()[0], "bootstrap")
        extra = {"simulate": ["--rule-based", "--policy", "p.policy"], "train": [],
                 "sweep": ["--rule-based"], "bootstrap": ["--rule-based", "--k", "100"]}
        cfg = workdir / "run.config"
        cfg.write_text(entry + "\n", encoding="utf-8")
        code = run([subcommand, *extra[subcommand], "--cohort", str(small_cohort_csv),
                    "--config", str(cfg), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(cfg) in err


class TestWindowAndModelFlags:
    """--window-start, --window-end and --models are checked by their argparse
    types, before any input is read: a bad value is a usage error on the
    command line and a data error naming the file and key in --config."""

    CASES = [
        (["ingest", "--input"], "window_start", "2020-13-01",
         "date must be an ISO date (YYYY-MM-DD), got '2020-13-01'"),
        (["ingest", "--input"], "window_end", "2020-12-32",
         "date must be an ISO date (YYYY-MM-DD), got '2020-12-32'"),
        (["report", "--cohort"], "models", "m.txt,sub/m.txt",
         "entries 'm.txt' and 'sub/m.txt' share the name 'm'"),
        (["report", "--cohort"], "models", ", ,", "model list must be non-empty"),
    ]
    IDS = ["window-start", "window-end", "models-clash", "models-blank"]

    @pytest.mark.parametrize("argv, key, value, message", CASES, ids=IDS)
    def test_bad_value_is_usage_error_before_reading(self, workdir, capsys, argv, key, value,
                                                     message):
        # The input does not exist: the flag is rejected before it is opened.
        flag = "--" + key.replace("_", "-")
        code = run(argv + [str(workdir / "missing.csv"), f"{flag}={value}",
                           "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: usage: argument {flag}: {message}" in err and "Traceback" not in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("argv, key, value, message", CASES, ids=IDS)
    def test_bad_config_entry_is_data_error_before_reading(self, workdir, capsys, argv, key,
                                                           value, message):
        cfg = workdir / "run.config"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        code = run(argv + [str(workdir / "missing.csv"), "--config", str(cfg),
                           "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {cfg}: {key}: {message}")
        assert not (workdir / "out").exists()

    def test_blank_models_entries_are_skipped(self, workdir, small_cohort_csv, small_model):
        tables = []
        for models in ("rule_based,model.txt", " rule_based,, model.txt ,"):
            out = workdir / str(len(tables))
            assert run(["report", "--cohort", str(small_cohort_csv), "--models", models,
                        "--k-list", "100", "--out-dir", str(out), "--quiet"]) == EXIT_OK
            tables.append((out / "model_comparison.csv").read_text().splitlines()[1:])
        assert tables[0] == tables[1]
        assert [line.split(",")[0] for line in tables[0][1:]] == ["rule_based", "model"]


class TestMalformedFiles:
    @pytest.mark.parametrize("line", ['[1, 2]', '"period"', '{"type": "period"}',
                                      '{"type": "period", "pool_size": 5}', "{not json"])
    def test_bad_trace_line_is_data_error_naming_it(self, workdir, capsys, line):
        trace = workdir / "trace.jsonl"
        trace.write_text('{"type": "header"}\n' + line + "\n", encoding="utf-8")
        code = run(["report", "--trace", str(trace), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {trace}:2: bad trace record")

    def test_duplicate_policy_section_is_data_error(self, workdir, small_cohort_csv, capsys):
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 5\n[policy]\ncapacity = 6\n", encoding="utf-8")
        code = run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(policy), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        assert "bad policy file" in capsys.readouterr().err

    def test_duplicate_scenario_option_is_data_error(self, workdir, capsys):
        scenario = workdir / "s.scenario"
        scenario.write_text("[generator]\nseed = 1\nseed = 2\n", encoding="utf-8")
        code = run(["synth", "--scenario", str(scenario), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        assert "bad scenario file" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("n_per_week = 1000\n", "", "[generator] needs a n_per_week"),
        ("[coefficients]", "[shfit]\nshift_week = 3\n[coefficients]", "unknown section [shfit]"),
        ("seed = 7\n", "seed = 7\nunknown_rat = 0.1\n", "unknown key 'unknown_rat' in [generator]"),
        ("seed = 7\n", "seed = -1\n", "seed must lie in [0, 2**64), got -1"),
        ("seed = 7\n", "seed: 7\n", "bad scenario file"),
    ], ids=["missing-n_per_week", "misspelt-section", "misspelt-key", "negative-seed",
            "colon-delimiter"])
    def test_bad_scenario_entry_is_data_error_naming_it(self, workdir, capsys, old, new, message):
        text = builtin_scenario_path("oracle").read_text(encoding="utf-8")
        assert old in text
        scenario = workdir / "s.scenario"
        scenario.write_text(text.replace(old, new, 1), encoding="utf-8")
        code = run(["synth", "--scenario", str(scenario), "--out-dir", str(workdir / "out"),
                    "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(scenario) in err and message in err

    @pytest.mark.parametrize("text, message", [
        ("[policy]\ncapacity = 3OO\n", "[policy] capacity = '3OO': invalid literal"),
        ("[policy]\ncapacity = 10\n[arm a]\npredicate = cough=1\nalpha = nan\n",
         "arm 'a': Beta pseudo-counts must be finite and > 0, got alpha=nan"),
        ("[policy]\ncapacity = 10\nstrict_arm_coverage = maybe\n",
         "[policy] strict_arm_coverage = 'maybe': a switch takes"),
        ("[policy]\ncapacity: 10\n", "bad policy file"),
    ], ids=["capacity-3OO", "alpha-nan", "bad-switch", "colon-delimiter"])
    def test_bad_policy_entry_is_data_error_naming_it(self, workdir, small_cohort_csv, capsys,
                                                      text, message):
        policy = workdir / "p.policy"
        policy.write_text(text, encoding="utf-8")
        code = run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(policy), "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(policy) in err and message in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("flag", ["--policy", "--scenario", "--mapping", "--config",
                                      "--model", "--models", "--trace"])
    def test_non_utf8_file_is_data_error_naming_it(self, workdir, small_cohort_csv, capsys,
                                                   flag):
        latin1 = workdir / "latin1.txt"
        latin1.write_bytes(b"caf\xe9\n")
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(), encoding="utf-8")
        cohort = ["--cohort", str(small_cohort_csv)]
        argv = {
            "--policy": ["simulate", *cohort, "--rule-based"],
            "--scenario": ["synth"],
            "--mapping": ["ingest", "--input", str(raw)],
            "--config": ["synth", "--scenario", "oracle"],
            "--model": ["bootstrap", *cohort, "--k", "10"],
            "--models": ["report", *cohort],
            "--trace": ["report"],
        }[flag]
        code = run(argv + [flag, str(latin1), "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(latin1) in err and "Traceback" not in err


    @pytest.mark.parametrize("line, value", [
        *[("bias", value) for value in ("nan", "inf", "-inf")],
        *[("weight", value) for value in ("nan", "inf", "-inf")],
        ("base_dim", "8"),
    ])
    def test_bad_model_number_is_data_error_naming_it(self, workdir, small_cohort_csv,
                                                       small_model, capsys, line, value):
        # A NaN weight would score every record NaN and rank at random; a
        # model over other than the 9 features cannot score a cohort.
        lines = small_model.read_text(encoding="utf-8").splitlines()
        if line == "weight":
            lines[-1] = value
        else:
            lines = [f"{line} {value}" if entry.startswith(f"{line} ") else entry
                     for entry in lines]
        small_model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(["bootstrap", "--cohort", str(small_cohort_csv), "--model", str(small_model),
                    "--k", "300", "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {small_model}: ") and "Traceback" not in err
        assert ("base_dim" if line == "base_dim" else "finite") in err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("line, value", [
        ("weights", "x"), ("weight", "abc"), ("kind", "bogus"),
    ])
    def test_unparsable_model_entry_names_its_file(self, workdir, small_cohort_csv,
                                                   small_model, capsys, line, value):
        # report --models reads several files; the message says which is bad.
        lines = small_model.read_text(encoding="utf-8").splitlines()
        if line == "weight":
            lines[-1] = value
        else:
            lines = [f"{line} {value}" if entry.startswith(f"{line} ") else entry
                     for entry in lines]
        bad = workdir / "bad.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(["report", "--cohort", str(small_cohort_csv), "--k-list", "100",
                    "--models", f"{small_model},{bad}", "--out-dir", str(workdir / "out"),
                    "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {bad}: ") and repr(value) in err
        assert "Traceback" not in err and not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "bootstrap", "report"])
    @pytest.mark.parametrize("case, message", [
        ("trained-weeks-1,x", "invalid literal for int() with base 10: 'x'"),
        ("linear-45-weights", "linear model needs 9 weights, got 45"),
    ], ids=["trained-weeks-1,x", "linear-45-weights"])
    def test_bad_model_header_is_data_error_naming_it(self, workdir, small_cohort_csv,
                                                      small_model, capsys, command, case,
                                                      message):
        # Every command that reads a model file reads its header the same way.
        text = small_model.read_text(encoding="utf-8")
        if case == "linear-45-weights":
            assert "\nkind linear\n" in text and "\nweights 9\n" in text
            text = text.replace("\nweights 9\n", "\nweights 45\n") + "0.0\n" * 36
        else:
            assert "\ntrained_weeks 1,2\n" in text
            text = text.replace("\ntrained_weeks 1,2\n", "\ntrained_weeks 1,x\n")
        bad = workdir / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        (workdir / "p.policy").write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        argv = {
            "simulate": ["--model", str(bad), "--policy", "p.policy", "--weeks", "3-4"],
            "sweep": ["--model", str(bad)],
            "bootstrap": ["--model", str(bad), "--k", "10"],
            "report": ["--models", f"rule_based,{bad}", "--k-list", "100"],
        }[command]
        code = run([command, "--cohort", str(small_cohort_csv), *argv,
                    "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {bad}: ") and message in err
        assert "Traceback" not in err and not (workdir / "out").exists()


class TestWithoutScipy:
    def test_bootstrap_runs_with_scipy_blocked(self, workdir, small_cohort_csv):
        # numpy is the only runtime dependency; this fails if scipy comes back.
        proc = run_subprocess(
            ["bootstrap", "--cohort", str(small_cohort_csv),
             "--rule-based", "--k", "100", "--replicates", "20", "--weeks", "1-2",
             "--out-dir", str(workdir), "--quiet"],
            preamble="sys.modules['scipy'] = None\n")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (workdir / "bootstrap.csv").exists()


class TestLeakageGuard:
    def test_overlap_rejected_and_override(self, workdir, small_cohort_csv, small_model, capsys):
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        code = run(["simulate", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model), "--policy", str(policy),
                    "--weeks", "2-4", "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        assert "overlap" in capsys.readouterr().err
        code = run(["simulate", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model), "--policy", str(policy),
                    "--weeks", "2-4", "--allow-overlap",
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK

    def test_training_weeks_travel_in_the_model_file(self, workdir, small_cohort_csv, capsys):
        code = run(["train", "--cohort", str(small_cohort_csv), "--weeks", "1,3",
                    "--kind", "linear", "--out", "m13.txt", "--out-dir", str(workdir),
                    "--quiet"])
        assert code == EXIT_OK
        assert "\ntrained_weeks 1,3\n" in (workdir / "m13.txt").read_text(encoding="utf-8")
        (workdir / "p.policy").write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        capsys.readouterr()
        code = run(["simulate", "--cohort", str(small_cohort_csv), "--model", "m13.txt",
                    "--policy", "p.policy", "--weeks", "3-4", "--out-dir", str(workdir / "out"),
                    "--quiet"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: data: model was trained on weeks 1,3 which overlap the replay weeks ([3]); "
            "restrict --weeks or pass --allow-overlap\n")
        assert not (workdir / "out").exists()

    def test_rule_based_start_needs_no_guard(self, workdir, small_cohort_csv):
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        code = run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(policy), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK


class TestModelChoice:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--policy", "p.policy"],
        ["sweep"],
        ["bootstrap", "--k", "10"],
    ], ids=lambda argv: argv[0])
    def test_model_with_rule_based_is_usage_error(self, workdir, small_cohort_csv, small_model,
                                                  capsys, argv):
        # The model was trained on weeks 1-2, which simulate would replay:
        # the usage error comes before that overlap check.
        (workdir / "p.policy").write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        capsys.readouterr()
        code = run([*argv, "--cohort", str(small_cohort_csv), "--model", str(small_model),
                    "--rule-based", "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: usage: --model and --rule-based exclude each other\n")
        assert not (workdir / "out").exists()


class TestSweepBootstrapReport:
    def test_correlate_table(self, workdir, small_cohort_csv):
        code = run(["correlate", "--cohort", str(small_cohort_csv),
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK
        lines = (workdir / "correlations.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# manifest: correlate.manifest.json"
        assert lines[1].split(",")[0] == "week"
        assert lines[-1].startswith("median,")

    def test_sweep_table(self, workdir, small_cohort_csv, small_model):
        code = run(["sweep", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model),
                    "--rho-list", "0.3,0.7", "--k-list", "50,100",
                    "--out-dir", str(workdir), "--seed", "3", "--quiet"])
        assert code == EXIT_OK
        lines = (workdir / "sweep.csv").read_text().splitlines()
        assert lines[1] == "exploration_fraction,capacity,mean_recall"
        assert len(lines) == 2 + 4

    def test_sweep_without_exploration_is_the_model_comparison(self, workdir, small_cohort_csv,
                                                               small_model):
        # At rho = 0 no slot explores, so each cell is the exploit recall the
        # model comparison reports; 2000 covers every pool of 1000.
        ks = ["50", "100", "2000"]
        common = ["--cohort", str(small_cohort_csv), "--k-list", ",".join(ks),
                  "--out-dir", str(workdir), "--quiet"]
        assert run(["sweep", "--model", str(small_model), "--rho-list", "0,0.5",
                    *common]) == EXIT_OK
        assert run(["report", "--models", str(small_model), *common]) == EXIT_OK
        sweep = list(csv.reader((workdir / "sweep.csv").read_text().splitlines()[2:]))
        header, row = csv.reader((workdir / "model_comparison.csv").read_text().splitlines()[1:])
        assert [(k, recall) for rho, k, recall in sweep if rho == "0.0"] == [
            (k, row[header.index(f"recall@{k}")]) for k in ks]

    def test_bootstrap_outputs(self, workdir, small_cohort_csv, small_model, capsys):
        code = run(["bootstrap", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model), "--k", "100",
                    "--out-dir", str(workdir), "--seed", "4", "--quiet"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "recall@100" in out and "95% CI" in out
        lines = (workdir / "bootstrap.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "k"

    @pytest.mark.parametrize("level, printed", [("0.29", "29% CI"), ("0.57", "57% CI"),
                                                ("0.955", "95.5% CI")])
    def test_bootstrap_prints_its_level(self, workdir, small_cohort_csv, small_model, capsys,
                                        level, printed):
        # A truncated percentage printed 0.29 as 28% and 0.955 as 95%.
        code = run(["bootstrap", "--cohort", str(small_cohort_csv),
                    "--model", str(small_model), "--k", "100", "--level", level,
                    "--replicates", "20", "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK
        assert f", {printed} (" in capsys.readouterr().out

    def test_report_from_cohort_and_crossover(self, workdir):
        code = run(["synth", "--scenario", "regime_shift", "--out", "shift.csv",
                    "--out-dir", str(workdir), "--seed", "6", "--quiet"])
        assert code == EXIT_OK
        code = run(["report", "--cohort", str(workdir / "shift.csv"),
                    "--crossover", "--weeks-a", "10-12", "--weeks-b", "21-23",
                    "--weeks", "24-26", "--k-list", "100,2000",
                    "--out-dir", str(workdir), "--seed", "6", "--quiet"])
        assert code == EXIT_OK
        assert (workdir / "weekly_counts.csv").exists()
        assert (workdir / "weekly_correlations.csv").exists()
        lines = (workdir / "crossover.csv").read_text().splitlines()
        assert lines[1] == "k,recall_a,recall_b"
        assert len(lines) == 4

    def test_report_model_comparison(self, workdir, small_cohort_csv, small_model):
        code = run(["report", "--cohort", str(small_cohort_csv),
                    "--models", f"rule_based,{small_model}", "--k-list", "100,300",
                    "--out-dir", str(workdir), "--seed", "7", "--quiet"])
        assert code == EXIT_OK
        lines = (workdir / "model_comparison.csv").read_text().splitlines()
        assert lines[1] == "model,recall@100,f1@100,recall@300,f1@300"
        assert lines[2].startswith("rule_based,")
        assert lines[3].startswith("model,")  # stem of model.txt
        assert len(lines) == 4

    def test_report_models_sharing_a_stem_is_usage_error(
        self, workdir, small_cohort_csv, small_model, capsys
    ):
        for sub in ("a", "b"):
            (workdir / sub).mkdir()
            (workdir / sub / "model.txt").write_bytes(small_model.read_bytes())
        code = run(["report", "--cohort", str(small_cohort_csv),
                    "--models", f"{workdir / 'a' / 'model.txt'},{workdir / 'b' / 'model.txt'}",
                    "--k-list", "100", "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "a/model.txt" in err and "b/model.txt" in err and "Traceback" not in err
        assert not (workdir / "out").exists()  # nothing written before the check

    def test_report_from_trace(self, workdir, small_cohort_csv, small_model):
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        run(["simulate", "--cohort", str(small_cohort_csv), "--model", str(small_model),
             "--policy", str(policy), "--weeks", "3-6",
             "--out-dir", str(workdir), "--seed", "2", "--quiet"])
        code = run(["report", "--trace", str(workdir / "trace.jsonl"),
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK
        lines = (workdir / "trace_summary.csv").read_text().splitlines()
        assert lines[1].split(",")[:3] == ["period", "pool", "positives"]

    def test_report_without_subject_is_usage_error(self, workdir):
        assert run(["report", "--out-dir", str(workdir), "--quiet"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (["--cohort", "@", "--crossover", "--weeks-a", "1", "--weeks-b", "2"],
         "--crossover needs --weeks-a, --weeks-b and --weeks"),
        (["--cohort", "@", "--recall-table"], "--recall-table needs --model"),
        (["--trace", "t.jsonl", "--recall-table", "--model", "m.txt"],
         "--recall-table needs --cohort"),
        (["--trace", "t.jsonl", "--models", "rule_based"], "--models needs --cohort"),
        (["--trace", "t.jsonl", "--crossover", "--weeks-a", "1", "--weeks-b", "2",
          "--weeks", "3"], "--crossover needs --cohort"),
    ], ids=["crossover-weeks", "recall-table-model", "recall-table-cohort", "models-cohort",
            "crossover-cohort"])
    def test_report_flag_rules_checked_before_any_work(self, workdir, small_cohort_csv,
                                                        capsys, argv, message):
        # "@" is a real cohort; the trace and model files do not exist.
        argv = [str(small_cohort_csv) if a == "@" else a for a in argv]
        code = run(["report", *argv, "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_crossover_overlap_is_data_error(self, workdir):
        run(["synth", "--scenario", "oracle", "--out", "c.csv",
             "--out-dir", str(workdir), "--seed", "1", "--quiet"])
        code = run(["report", "--cohort", str(workdir / "c.csv"), "--crossover",
                    "--weeks-a", "1-2", "--weeks-b", "3-4", "--weeks", "4-5",
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("argv", [
        ["--models", "not_a_model.txt"],
        ["--crossover", "--weeks-a", "1-2", "--weeks-b", "3-4", "--weeks", "4-5"],
    ], ids=["bad-models-file", "crossover-overlap"])
    def test_report_data_error_leaves_no_artifact(self, workdir, small_cohort_csv, argv):
        (workdir / "not_a_model.txt").write_text("not a model\n", encoding="utf-8")
        code = run(["report", "--cohort", str(small_cohort_csv), *argv,
                    "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        assert not (workdir / "out").exists()


class TestConfigFile:
    def test_config_supplies_defaults_cli_wins(self, workdir):
        cfg = workdir / "run.config"
        cfg.write_text("scenario = oracle\nout = from_config.csv\n", encoding="utf-8")
        code = run(["synth", "--config", str(cfg), "--out-dir", str(workdir),
                    "--seed", "1", "--quiet"])
        assert code == EXIT_OK
        assert (workdir / "from_config.csv").exists()
        code = run(["synth", "--config", str(cfg), "--out", "explicit.csv",
                    "--out-dir", str(workdir), "--seed", "1", "--quiet"])
        assert code == EXIT_OK
        assert (workdir / "explicit.csv").exists()

    def test_explicit_flag_equal_to_its_default_beats_config(self, workdir):
        cfg = workdir / "c.cfg"
        cfg.write_text("out = fromcfg.csv\nseed = 3\n", encoding="utf-8")
        code = run(["synth", "--scenario", "oracle", "--config", str(cfg),
                    "--out", "synthetic.csv", "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK
        assert (workdir / "synthetic.csv").exists()
        assert not (workdir / "fromcfg.csv").exists()
        # the config-only value still applies
        manifest = json.loads((workdir / "synth.manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_abbreviated_and_equals_flags_count_as_given(self, workdir):
        cfg = workdir / "c.cfg"
        cfg.write_text("out = fromcfg.csv\nscenario = default\n", encoding="utf-8")
        code = run(["synth", "--scen=oracle", "--config", str(cfg), "--out=synthetic.csv",
                    "--out-dir", str(workdir), "--seed", "1", "--quiet"])
        assert code == EXIT_OK
        assert not (workdir / "fromcfg.csv").exists()
        lines = (workdir / "synthetic.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 + 6 * 1000  # comment, header, the oracle's 6 weeks of 1000

    @staticmethod
    def _check_unknown_config_key(workdir, capsys, key):
        cfg = workdir / "run.config"
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        assert run(["synth", "--scenario", "oracle", "--config", str(cfg),
                    "--out-dir", str(workdir), "--quiet"]) == EXIT_DATA
        assert f"{cfg}: unknown option {key!r}" in capsys.readouterr().err

    def test_unknown_config_key_is_data_error(self, workdir, capsys):
        self._check_unknown_config_key(workdir, capsys, "blah")

    def test_help_config_key_is_data_error(self, workdir, capsys):
        # argparse's own --help action is not a settable option
        self._check_unknown_config_key(workdir, capsys, "help")

    @pytest.mark.parametrize("entry, argv, message", [
        ("keep_other_results = ture", ["ingest", "--input"],
         "keep_other_results: a switch takes true/yes/on/1/false/no/off/0, got 'ture'"),
        ("kind = cubic", ["train", "--cohort"], "kind: invalid choice: 'cubic'"),
    ], ids=["misspelt-switch", "bad-choice"])
    def test_bad_entry_is_data_error_before_reading(self, workdir, capsys, entry, argv,
                                                    message):
        cfg = workdir / "run.config"
        cfg.write_text(entry + "\n", encoding="utf-8")
        # The input does not exist: the entry is rejected before it is opened.
        code = run(argv + [str(workdir / "missing.csv"), "--config", str(cfg),
                           "--out-dir", str(workdir / "out"), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {cfg}: ") and message in err
        assert not (workdir / "out").exists()

    def test_switch_values(self, workdir):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows().replace("positive", "other", 2), encoding="utf-8")
        cfg = workdir / "run.config"
        for value, rejected in (("yes", 0), ("TRUE", 0), ("On", 0), ("1", 0), ("no", 2),
                                ("False", 2), ("OFF", 2), ("0", 2)):
            cfg.write_text(f"keep-other-results = {value}\n", encoding="utf-8")
            assert run(["ingest", "--input", str(raw), "--config", str(cfg),
                        "--out-dir", str(workdir), "--quiet"]) == EXIT_OK
            report = (workdir / "rejections.tsv").read_text(encoding="utf-8")
            assert len(report.splitlines()) == rejected, value

    def test_quiet_from_config_silences_info(self, workdir):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(n_bad_dates=2), encoding="utf-8")
        cfg = workdir / "run.config"
        cfg.write_text("quiet = true\n", encoding="utf-8")
        argv = ["ingest", "--input", str(raw), "--out-dir", str(workdir)]
        loud = run_subprocess(argv)
        assert loud.returncode == EXIT_OK and "INFO" in loud.stderr
        quiet = run_subprocess(argv + ["--config", str(cfg)])
        assert quiet.returncode == EXIT_OK
        assert "INFO" not in quiet.stderr and quiet.stderr == ""


class TestInProcessLogging:
    @pytest.mark.parametrize("order", [("quiet", "loud"), ("loud", "quiet")])
    def test_each_call_logs_at_its_own_level(self, workdir, capsys, order):
        raw = workdir / "raw.csv"
        raw.write_text(raw_rows(n_bad_dates=1), encoding="utf-8")
        argv = ["ingest", "--input", str(raw), "--out-dir", str(workdir)]
        for mode in order:
            assert run(argv + (["--quiet"] if mode == "quiet" else [])) == EXIT_OK
            err = capsys.readouterr().err
            assert ("rejected 1 of 6 rows" in err) == (mode == "loud"), (mode, err)


class TestHelpEnumeratesFlags:
    def test_every_flag_documented(self):
        parser = build_parser()
        choices = parser._subparsers._group_actions[0].choices  # noqa: SLF001
        assert set(choices) == {
            "ingest", "synth", "correlate", "train", "simulate",
            "sweep", "bootstrap", "report",
        }
        for name, sub in choices.items():
            help_text = sub.format_help()
            for action in sub._actions:  # noqa: SLF001
                assert action.help, f"{name}: {action.dest} lacks help text"
                for option in action.option_strings:
                    assert option in help_text, f"{name}: {option} not in --help"

    def test_no_subcommand_prints_help(self, capsys):
        assert run([]) == EXIT_USAGE


class TestDeterminism:
    def run_twice_and_compare(self, argv_builder, tmp_path):
        digests = []
        for label in ("one", "two"):
            out = tmp_path / label
            out.mkdir()
            code = run(argv_builder(out))
            assert code == EXIT_OK
            files = sorted(
                p for p in out.rglob("*")
                if p.is_file() and not p.name.endswith("manifest.json")
            )
            digests.append([(p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                            for p in files])
        assert digests[0] == digests[1]
        assert digests[0], "no artifacts compared"

    def test_synth_deterministic(self, tmp_path):
        self.run_twice_and_compare(
            lambda out: ["synth", "--scenario", "oracle", "--out-dir", str(out),
                         "--seed", "9", "--quiet"],
            tmp_path,
        )

    def test_train_deterministic(self, tmp_path, small_cohort_csv):
        self.run_twice_and_compare(
            lambda out: ["train", "--cohort", str(small_cohort_csv), "--weeks", "1-2",
                         "--out-dir", str(out), "--seed", "9", "--quiet"],
            tmp_path,
        )

    def test_sweep_does_not_depend_on_the_seed(self, workdir, small_cohort_csv, small_model,
                                               capsys):
        # The sweep is an exact expectation, so no random number is drawn and
        # --seed changes no byte of its table or of what it prints.
        written = []
        for seed in ("1", "2"):
            out = workdir / f"seed{seed}"
            capsys.readouterr()
            assert run(["sweep", "--cohort", str(small_cohort_csv), "--model", str(small_model),
                        "--rho-list", "0,0.3,0.7,1", "--k-list", "50,100,2000",
                        "--out-dir", str(out), "--seed", seed, "--quiet"]) == EXIT_OK
            written.append(((out / "sweep.csv").read_bytes(), capsys.readouterr().out))
        assert written[0] == written[1]
        assert written[0][1].count("mean_recall=") == 12

    def test_report_tables_do_not_depend_on_the_seed(self, workdir):
        # Every recall table is an exact expectation over tie orders, so no
        # random number is drawn and --seed changes no byte of it.
        common = ["--out-dir", str(workdir), "--seed", "42", "--quiet"]
        assert run(["synth", "--scenario", "default", "--out", "cohort.csv", *common]) == EXIT_OK
        assert run(["train", "--cohort", "cohort.csv", "--weeks", "1-3", "--out", "model.txt",
                    *common]) == EXIT_OK
        tables = ("weekly_recall.csv", "model_comparison.csv", "crossover.csv")
        written = []
        for seed in ("1", "2"):
            out = workdir / f"seed{seed}"
            assert run(["report", "--cohort", "cohort.csv", "--recall-table",
                        "--model", "model.txt", "--models", "rule_based,model.txt",
                        "--crossover", "--weeks-a", "1-2", "--weeks-b", "3", "--weeks", "4-8",
                        "--k-list", "100,600,2100", "--out-dir", str(out), "--seed", seed,
                        "--quiet"]) == EXIT_OK
            written.append([(out / name).read_bytes() for name in tables])
        for name, one, two in zip(tables, *written):
            assert one == two, name


class TestGoldenArtifacts:
    """sha256 of each artifact of two small replays, pinned so that a change
    to the selection or trace code that alters a byte of them fails here."""

    THOMPSON_POLICY = (
        "[policy]\ncapacity = 200\nexploration_fraction = 0.6\nsampler = thompson\n"
        "strict_arm_coverage = true\n"
        "[arm contacts]\npredicate = contact_with_confirmed=1\nalpha = 2\nbeta = 1\n"
        "[arm fever]\npredicate = fever=1\n"
        "[arm others]\npredicate = contact_with_confirmed=0\nalpha = 1\nbeta = 3\n"
    )
    #: policy text, simulate flags and the sha256 of each artifact
    RUNS = {
        "uniform": ("[policy]\ncapacity = 120\nexploration_fraction = 0.4\n",
                    ["--retrain-every", "1", "--seed", "9"], {
                        "trace.jsonl":
                            "91ec7299902d7664fae81bae1c9cb99f719b9a98de4535772b7955ae45a241b1",
                        "summary.csv":
                            "a96a5fd78d8d683cc7aa7018f578fb44ae4520196fe6815cefe8cb1c707e80dc",
                        "selections.csv":
                            "377c25ea14bdc8b41fc284194338d50491adcd18ef5180127cea875f1a670604",
                    }),
        "thompson": (THOMPSON_POLICY, ["--retrain-every", "2", "--weeks", "2-6", "--seed", "4"], {
                        "trace.jsonl":
                            "b4873dbd7fc8ae38e4a4c7828a6960b86615626cdd03e6e9f9095ed45355f38a",
                        "summary.csv":
                            "849980b1e9d6c7e6fb6a4040cdcf4a919e059be3c501df613317afb5d97dee57",
                        "selections.csv":
                            "be6cb79b6ebf525e7db473cecbdc70acec7cfc6b3d53e5622d9099a795a41b5d",
                    }),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_simulate_artifacts_are_pinned(self, workdir, small_cohort_csv, name):
        text, flags, digests = self.RUNS[name]
        (workdir / "p.policy").write_text(text, encoding="utf-8")
        out = workdir / name
        assert run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(workdir / "p.policy"), *flags,
                    "--out-dir", str(out), "--quiet"]) == EXIT_OK
        assert {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                for artifact in digests} == digests

    #: argv of each metric command ({cohort} and {model} filled in) and the
    #: sha256 of each artifact. The rule ties heavily on the oracle cohort,
    #: so these also pin the tie-order mean of the recall tables.
    METRIC_RUNS = {
        "correlate": (["correlate", "--cohort", "{cohort}"], {
            "correlations.csv":
                "12e2709b3ca0688e89f2016777096ae1a2f038a9582639d67f8a3dd0f67cc5fd"}),
        "sweep": (["sweep", "--cohort", "{cohort}", "--rule-based", "--rho-list", "0,0.3,1",
                   "--k-list", "100,250,1000"], {
            "sweep.csv": "0ea188aa3df3b8c3a191c672b057240a1a9b28ca0e95450d4eabab82cbeb74e6"}),
        "bootstrap_rule": (["bootstrap", "--cohort", "{cohort}", "--rule-based", "--k", "150",
                            "--replicates", "40", "--seed", "3"], {
            "bootstrap.csv": "4f15806d2e3eab0abd3d60b6777f44cb2e8f6070d6f2688b59c75a03d2d67d47"}),
        "bootstrap_model": (["bootstrap", "--cohort", "{cohort}", "--model", "{model}",
                             "--k", "150", "--replicates", "40", "--weeks", "3-6", "--seed", "3"], {
            "bootstrap.csv": "8759b8c6eed8d3130197600040c0974258b1d85cdb003ea47f626ebd67693090"}),
        "report": (["report", "--cohort", "{cohort}", "--recall-table", "--model", "{model}",
                    "--models", "rule_based,{model}", "--crossover", "--weeks-a", "1-2",
                    "--weeks-b", "3-4", "--weeks", "5-6", "--k-list", "100,250,400"], {
            "weekly_counts.csv":
                "8d56ba18699db8e59931ef95d8fdbebf9e4303795d205ebc0571b732483fe01b",
            "weekly_correlations.csv":
                "3d7f488517bb24582132370f3f95705c72a30d6742a24d9dc220284ee491d932",
            "weekly_recall.csv":
                "2987e560aab15614fe48ead21e0a01ce3d00e8d5bbabb14822aa6bbb7faccc88",
            "model_comparison.csv":
                "85a5fd501153915265ea443e6606f5f4042bd450a0623d9b6aee7180a37523b2",
            "crossover.csv":
                "d341e070b924e7c10b0aad18475f450ad46820ee00a6c0b313a6b858b6fe130f"}),
    }

    def test_metric_artifacts_are_pinned(self, workdir, small_cohort_csv, small_model):
        for name, (argv, digests) in self.METRIC_RUNS.items():
            out = workdir / name
            argv = [a.format(cohort=small_cohort_csv, model=small_model) for a in argv]
            assert run([*argv, "--out-dir", str(out), "--quiet"]) == EXIT_OK, name
            assert {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                    for artifact in digests} == digests, name


class TestSelectionsCsv:
    def test_selections_are_the_csv_writer_over_the_picks(self, workdir, small_cohort_csv,
                                                          monkeypatch):
        # Arm names that need quoting, and zero scores of both signs: the
        # zero scores of female patterns read -0.0, which keeps its sign.
        score_matrix = policy_module.score_matrix

        def signed_zeros(model, X):
            scores = score_matrix(model, X)
            return np.where((scores == 0) & (X % 2 == 1), -0.0, scores)

        monkeypatch.setattr(policy_module, "score_matrix", signed_zeros)
        path = workdir / "p.policy"
        path.write_text("[policy]\ncapacity = 150\nexploration_fraction = 0.5\n"
                        "sampler = thompson\n[arm a,b]\npredicate = contact_with_confirmed=1\n"
                        '[arm say "hi"]\npredicate = contact_with_confirmed=0\n', encoding="utf-8")
        assert run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(path), "--weeks", "2-5", "--retrain-every", "0",
                    "--seed", "6", "--out-dir", str(workdir / "out"), "--quiet"]) == EXIT_OK

        policy = PolicyConfig.from_file(path)
        trace = run_replay(load_cohort(small_cohort_csv)[0], None, policy, retrain_every=0,
                           weeks=[2, 3, 4, 5], seed=6)
        expected = io.StringIO()
        expected.write("# manifest: simulate.manifest.json\n")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["record_id", "period", "channel", "arm", "score"])
        for p in trace.periods:
            sel = p.selection
            arms = [""] * sel.n_exploit + [policy.arms[a].name if a >= 0 else ""
                                           for a in sel.arm.tolist()]
            for j, (record, score) in enumerate(zip(p.record_ids.tolist(), sel.scores.tolist())):
                writer.writerow([record, p.period, "exploit" if j < sel.n_exploit else "explore",
                                 arms[j], repr(score)])
        written = (workdir / "out" / "selections.csv").read_text(encoding="utf-8")
        assert written == expected.getvalue()
        assert '"a,b"' in written and '"say ""hi"""' in written
        assert {"0.0", "-0.0"} <= {line.rsplit(",", 1)[1] for line in written.splitlines()[2:]}


class TestRecordIds:
    def test_ids_are_data_rows_of_the_cohort_file(self, workdir, small_cohort_csv):
        # A record's id is its 0-based data row: comment and blank lines
        # between the rows number nothing.
        lines = small_cohort_csv.read_text(encoding="utf-8").splitlines()
        header, rows = lines[1], lines[2:]
        with_gaps = ["# a comment", header]
        for i, line in enumerate(rows):
            with_gaps.append(line)
            if i % 5 == 0:
                with_gaps.append("# between rows" if i % 2 else "")
        cohort = workdir / "gaps.csv"
        cohort.write_text("\n".join(with_gaps) + "\n", encoding="utf-8")
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 60\nexploration_fraction = 0.5\n"
                          "sampler = thompson\n[arm contacts]\n"
                          "predicate = contact_with_confirmed=1\n[arm others]\n"
                          "predicate = contact_with_confirmed=0\n", encoding="utf-8")
        assert run(["simulate", "--cohort", str(cohort), "--rule-based", "--policy", str(policy),
                    "--weeks", "2-5", "--out-dir", str(workdir / "out"), "--seed", "3",
                    "--quiet"]) == EXIT_OK

        result = header.split(",").index("corona_result")
        positive = [row.split(",")[result] == "positive" for row in rows]
        trace = (workdir / "out" / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        periods = [json.loads(line) for line in trace[1:]]
        revealed = {int(i): label for p in periods for i, label in p["revealed"].items()}
        assert len(revealed) == 4 * 60 and any(revealed.values())
        assert all(label == positive[i] for i, label in revealed.items())
        selections = (workdir / "out" / "selections.csv").read_text().splitlines()[2:]
        assert sorted(int(line.split(",")[0]) for line in selections) == sorted(revealed)

    def test_uncovered_candidates_are_named_by_record_id(self, workdir, capsys):
        # Week 12's rows come first, so week 11's pool positions are not its ids.
        rows = [("2020-03-16", "Other"), ("2020-03-17", "Abroad"),
                ("2020-03-09", "Contact with confirmed"), ("2020-03-10", "Other"),
                ("2020-03-11", "Abroad"), ("2020-03-12", "Contact with confirmed")]
        cohort = workdir / "c.csv"
        cohort.write_text("\n".join([",".join(REQUIRED_COLUMNS)] + [
            f"{day},0,0,0,0,0,negative,male,{indication}" for day, indication in rows]) + "\n",
            encoding="utf-8")
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 2\nexploration_fraction = 1\n"
                          "sampler = thompson\nstrict_arm_coverage = true\n[arm contacts]\n"
                          "predicate = contact_with_confirmed=1\n", encoding="utf-8")
        assert run(["simulate", "--cohort", str(cohort), "--rule-based", "--policy", str(policy),
                    "--weeks", "11", "--out-dir", str(workdir / "out"), "--quiet"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: data: 2 pool candidates match no arm (first: [3, 4])\n")


class TestMissingWeeks:
    @pytest.fixture
    def default_cohort(self, workdir):
        # the default scenario spans weeks 1-8
        assert run(["synth", "--scenario", "default", "--out", "cohort.csv",
                    "--out-dir", str(workdir), "--seed", "1", "--quiet"]) == EXIT_OK
        return workdir / "cohort.csv"

    def test_simulate_past_the_cohort(self, workdir, default_cohort, capsys):
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        code = run(["simulate", "--cohort", str(default_cohort), "--rule-based",
                    "--policy", str(policy), "--weeks", "4-12",
                    "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "week 9" in err
        assert "Traceback" not in err

    def test_bootstrap_past_the_cohort(self, workdir, default_cohort, capsys):
        code = run(["bootstrap", "--cohort", str(default_cohort), "--rule-based",
                    "--k", "50", "--weeks", "4-12", "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "week 9" in err
        assert "Traceback" not in err


class TestEmptyCohort:
    @pytest.mark.parametrize("argv", [
        ["report", "--recall-table", "--model", "model.txt"],
        ["report", "--models", "rule_based"],
        ["bootstrap", "--rule-based", "--k", "10"],
        ["sweep", "--rule-based"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_no_weeks_to_evaluate_is_data_error(self, workdir, small_model, capsys, argv):
        # A header-only file loads as a cohort without weeks.
        (workdir / "empty.csv").write_text(",".join(REQUIRED_COLUMNS) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = run([*argv, "--cohort", "empty.csv", "--out-dir", str(workdir / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: data: no weeks to evaluate\n"
        assert not (workdir / "out").exists()


class TestBootstrapWithoutPositives:
    def test_one_error_line_before_any_draw(self, workdir, capsys):
        # Every replicate of an all-negative cohort would be skipped.
        lines = [",".join(REQUIRED_COLUMNS)]
        lines += [f"2020-03-{9 + 7 * (i % 2):02d},1,0,0,0,0,negative,male,Other"
                  for i in range(40)]
        (workdir / "negative.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = run(["bootstrap", "--cohort", "negative.csv", "--rule-based", "--k", "5",
                    "--out-dir", str(workdir / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: data: no positives in the evaluated weeks, so recall is undefined\n")
        assert not (workdir / "out").exists()


class TestByteOrderMark:
    def test_bom_export_ingests_like_plain(self, workdir, small_cohort_csv, capsys):
        # the synthetic cohort minus its "# manifest" comment line
        text = "".join(small_cohort_csv.read_text(encoding="utf-8").splitlines(True)[1:])
        (workdir / "plain.csv").write_text(text, encoding="utf-8")
        (workdir / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
        capsys.readouterr()
        outputs = {}
        for name in ("plain", "bom"):
            code = run(["ingest", "--input", str(workdir / f"{name}.csv"),
                        "--out-dir", str(workdir / name), "--quiet"])
            assert code == EXIT_OK
            outputs[name] = (capsys.readouterr().out.split(" -> ")[0],
                             (workdir / name / "cohort.csv").read_bytes())
        assert outputs["bom"] == outputs["plain"]
        assert outputs["plain"][0].startswith("accepted ")


class TestAtomicWrites:
    def test_existing_tmp_file_survives(self, workdir):
        bystander = workdir / "cohort.csv.tmp"
        bystander.write_text("not ours\n", encoding="utf-8")
        assert run(["synth", "--scenario", "oracle", "--out", "cohort.csv",
                    "--out-dir", str(workdir), "--seed", "1", "--quiet"]) == EXIT_OK
        assert bystander.read_text(encoding="utf-8") == "not ours\n"
        assert (workdir / "cohort.csv").read_text(encoding="utf-8").startswith("# manifest")
        assert sorted(p.name for p in workdir.glob("*.tmp")) == ["cohort.csv.tmp"]

    def test_failed_write_leaves_target_and_no_temp(self, workdir):
        target = workdir / "out.csv"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with _atomic(target) as tmp:
                tmp.write_text("half", encoding="utf-8")
                raise RuntimeError("writer failed")
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(workdir.glob("*.tmp")) == []


class TestManifestSeed:
    def manifest_seed(self, workdir, subcommand):
        return json.loads((workdir / f"{subcommand}.manifest.json").read_text())["seed"]

    def test_synth_records_scenario_seed(self, workdir):
        common = ["synth", "--scenario", "default", "--out-dir", str(workdir), "--quiet"]
        assert run(common) == EXIT_OK
        assert self.manifest_seed(workdir, "synth") == 20200311
        assert run(common + ["--seed", "5"]) == EXIT_OK
        assert self.manifest_seed(workdir, "synth") == 5

    def test_train_and_simulate_record_effective_seed(self, workdir, small_cohort_csv):
        policy = workdir / "p.policy"
        policy.write_text("[policy]\ncapacity = 50\n", encoding="utf-8")
        calls = {
            "train": ["train", "--cohort", str(small_cohort_csv), "--weeks", "1-2",
                      "--kind", "linear", "--out", "m.txt"],
            "simulate": ["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                         "--policy", str(policy), "--weeks", "3-4"],
        }
        for subcommand, argv in calls.items():
            common = argv + ["--out-dir", str(workdir), "--quiet"]
            assert run(common) == EXIT_OK
            assert self.manifest_seed(workdir, subcommand) == 0
            assert run(common + ["--seed", "8"]) == EXIT_OK
            assert self.manifest_seed(workdir, subcommand) == 8


class TestTraceSummary:
    def test_report_trace_equals_simulate_summary(self, workdir, small_cohort_csv):
        policy = workdir / "p.policy"
        policy.write_text(
            "[policy]\ncapacity = 600\nexploration_fraction = 0.3\n", encoding="utf-8"
        )
        assert run(["simulate", "--cohort", str(small_cohort_csv), "--rule-based",
                    "--policy", str(policy), "--out-dir", str(workdir),
                    "--seed", "2", "--quiet"]) == EXIT_OK
        assert run(["report", "--trace", str(workdir / "trace.jsonl"),
                    "--out-dir", str(workdir), "--quiet"]) == EXIT_OK
        summary = (workdir / "summary.csv").read_text(encoding="utf-8").splitlines()
        traced = (workdir / "trace_summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0].startswith("# manifest") and traced[0].startswith("# manifest")
        assert traced[1:] == summary[1:]
        assert len(summary) > 3


class TestIsoYears:
    def write_raw(self, workdir, dates) -> Path:
        lines = [",".join(REQUIRED_COLUMNS)]
        lines += [f"{d},1,0,0,0,1,positive,female,Other" for d in dates]
        raw = workdir / "raw.csv"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return raw

    def test_ingest_spanning_two_iso_years_is_data_error(self, workdir, capsys):
        raw = self.write_raw(workdir, ["2020-12-21", "2020-12-28", "2021-01-06"])
        code = run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "2020, 2021" in err
        assert "--window-start" in err and "Traceback" not in err
        assert not (workdir / "cohort.csv").exists()

    def test_window_selects_one_iso_year(self, workdir):
        raw = self.write_raw(workdir, ["2020-12-21", "2020-12-28", "2021-01-06"])
        code = run(["ingest", "--input", str(raw), "--window-start", "2020-12-01",
                    "--window-end", "2020-12-31", "--out-dir", str(workdir), "--quiet"])
        assert code == EXIT_OK

    def test_year_end_dates_of_one_iso_week_load_as_week_53(self, workdir):
        raw = self.write_raw(workdir, ["2020-12-28", "2021-01-01"])
        assert run(["ingest", "--input", str(raw), "--out-dir", str(workdir), "--quiet"]) == EXIT_OK
        assert run(["report", "--cohort", str(workdir / "cohort.csv"),
                    "--out-dir", str(workdir), "--quiet"]) == EXIT_OK
        counts = (workdir / "weekly_counts.csv").read_text(encoding="utf-8").splitlines()
        assert counts[1:] == ["week,tests,positives", "53,2,2"]
