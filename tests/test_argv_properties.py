"""Property tests for the command line.

Every subcommand, given hostile flag values on the command line or as
``key = value`` lines of a ``--config`` file, runs (exit 0) or stops with a
usage error (exit 1) or a data error (exit 2). It never ends in an internal
error (exit 3). A config value its flag rejects is a data error naming the
config file, and a valid value gives the same artifacts from either place."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditriage.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, UsageError, build_parser, main

TINY_SCENARIO = """[generator]
n_per_week = 60
weeks = 1-4
seed = 3

[prevalence]
cough = 0.3
fever = 0.2
sore_throat = 0.1
shortness_of_breath = 0.1
head_ache = 0.2
contact_with_confirmed = 0.2
abroad = 0.1
other_indication = 0.7
female = 0.5

[coefficients]
intercept = -1.5
contact_with_confirmed = 2.0
head_ache = 1.0
"""

#: A valid argv per subcommand, as flag -> value; "@name" is an input file.
VALID = {
    "ingest": {"--input": "@cohort.csv"},
    "synth": {"--scenario": "@tiny.scenario"},
    "correlate": {"--cohort": "@cohort.csv"},
    "train": {"--cohort": "@cohort.csv", "--weeks": "1-2", "--epochs": "2"},
    "simulate": {"--cohort": "@cohort.csv", "--model": "@model.txt",
                 "--policy": "@uniform.policy", "--weeks": "3-4"},
    "sweep": {"--cohort": "@cohort.csv", "--model": "@model.txt", "--rho-list": "0.3,0.6",
              "--k-list": "10"},
    "bootstrap": {"--cohort": "@cohort.csv", "--model": "@model.txt", "--k": "10",
                  "--weeks": "3-4", "--replicates": "5"},
    "report": {"--trace": "@trace.jsonl", "--cohort": "@cohort.csv", "--model": "@model.txt",
               "--k-list": "10,20"},
}

#: More valid values per subcommand, beyond VALID's; "" marks a switch.
MORE_VALID = {
    "ingest": {"--null-policy": "drop", "--keep-other-results": "", "--delimiter": ",",
               "--out": "ingested.csv"},
    "synth": {"--out": "synthetic.csv"},
    "correlate": {"--out": "corr.csv"},
    "train": {"--kind": "linear", "--regularization": "0.001"},
    "simulate": {"--retrain-every": "0", "--retrain-kind": "linear", "--allow-overlap": ""},
    "sweep": {"--out": "s.csv"},  # not --rule-based: VALID gives --model
    "bootstrap": {"--level": "0.9"},
    "report": {"--recall-table": "", "--models": "rule_based", "--weeks": "3-4"},
}

NUMBERS = ["", "-1", "0", "nan", "-inf", "0.5", "1e308", "3,-1"]
#: The last is past the float range, so a capacity of it cannot be split in floats.
HUGE = [str(2**64), "9" * 30, "1" + "0" * 400]
WEEK_RANGES = ["", "5-3", "1-", "-2", "a-b", ",", "3,,x", "0-4", "54", "1-99999999999",
               "8,4", "5,5"]
TEXT = ["", "-1", "nan", ",,", "5-3", "\\t"]
#: Flags whose value is an amount of work: a huge one is a long run, not an error path.
WORK_COUNTS = {"--epochs", "--replicates"}
#: Values of a switch in a config file; a switch takes true/yes/on/1/false/no/off/0 in any case.
SWITCH_VALUES = ["true", "YES", "On", "1", "False", "no", "OFF", "0", "ture", "", "onn", "2"]


def _subparser(subcommand: str):
    return build_parser()._subparsers._group_actions[0].choices[subcommand]  # noqa: SLF001


def _flags(subcommand: str, files: list[str]) -> tuple[dict[str, list[str]], list[str]]:
    """Hostile values per flag that takes one, and the switches, of a
    subcommand: week flags get malformed ranges, typed flags bad numbers, and
    the rest (paths, names, the delimiter) bad files and text."""
    actions = [a for a in _subparser(subcommand)._actions  # noqa: SLF001
               if a.option_strings and a.dest != "help"]
    values = {}
    for a in actions:
        if a.nargs is not None:
            continue
        if "weeks" in a.dest:
            pool = WEEK_RANGES
        elif a.type is not None or a.choices:
            pool = NUMBERS + ([] if a.option_strings[-1] in WORK_COUNTS else HUGE)
        else:
            pool = files + TEXT
        values[a.option_strings[-1]] = pool
    return values, [a.option_strings[-1] for a in actions if a.nargs == 0]


def _rejected_on_command_line(subcommand: str, flag: str, value: str) -> bool:
    """Whether the flag's own type and choices refuse ``value``."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            build_parser().parse_args([subcommand, f"{flag}={value}"])
    except UsageError:
        return True
    return False


def _hostile_files(work: Path) -> list[str]:
    """A missing path, a directory, a non-UTF-8 file and an INI file with a
    duplicate section and option, all made afresh in ``work``."""
    (work / "a_directory").mkdir()
    (work / "latin1.csv").write_bytes(b"test_date,cough\n2020-03-11,\xe9\xff\n")
    (work / "dup.ini").write_text(
        "[policy]\ncapacity = 5\ncapacity = 6\n[policy]\n[generator]\n[generator]\n",
        encoding="utf-8")
    return [str(work / name) for name in ("missing.csv", "a_directory", "latin1.csv", "dup.ini")]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("argv")
    (base / "tiny.scenario").write_text(TINY_SCENARIO, encoding="utf-8")
    (base / "uniform.policy").write_text(
        "[policy]\ncapacity = 20\nexploration_fraction = 0.3\n", encoding="utf-8")
    common = ["--out-dir", str(base), "--seed", "1", "--quiet"]
    for argv in (["synth", "--scenario", str(base / "tiny.scenario"), "--out", "cohort.csv"],
                 ["train", "--cohort", str(base / "cohort.csv"), "--weeks", "1-2",
                  "--out", "model.txt"],
                 ["simulate", "--cohort", str(base / "cohort.csv"), "--model",
                  str(base / "model.txt"), "--policy", str(base / "uniform.policy"),
                  "--weeks", "3-4"]):
        assert main(argv + common) == EXIT_OK
    return base


def _via(data, flag: str) -> bool:
    """Draw whether ``flag`` arrives in the --config file instead of argv."""
    return flag != "--config" and data.draw(st.booleans(), label=f"{flag} via --config")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hostile_flag_values_exit_usage_or_data_error(inputs, data):
    subcommand = data.draw(st.sampled_from(sorted(VALID)), label="subcommand")
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        work = Path(tmp)
        hostile, switches = _flags(subcommand, _hostile_files(work))
        argv = {flag: str(inputs / value[1:]) if value.startswith("@") else value
                for flag, value in VALID[subcommand].items()}
        argv["--out-dir"] = str(work / "out")
        config, refused = {}, False
        for flag in data.draw(st.lists(st.sampled_from(sorted(hostile)), min_size=1, max_size=2,
                                       unique=True), label="hostile flags"):
            value = data.draw(st.sampled_from(hostile[flag]), label=flag)
            if _via(data, flag):
                argv.pop(flag, None)
                config[flag] = value
                refused |= _rejected_on_command_line(subcommand, flag, value)
            else:
                argv[flag] = value
        on = []
        for flag in data.draw(st.lists(st.sampled_from(switches), max_size=2, unique=True),
                              label="switches"):
            if _via(data, flag):
                config[flag] = data.draw(st.sampled_from(SWITCH_VALUES), label=flag)
                refused |= config[flag].lower() not in ("true", "yes", "on", "1",
                                                        "false", "no", "off", "0")
            else:
                on.append(flag)
        cfg = work / "run.config"
        if config:
            cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in config.items()),
                           encoding="utf-8")
            argv["--config"] = str(cfg)
        command_line = [subcommand, *(f"{flag}={value}" for flag, value in argv.items()), *on]
        parses = not any(_rejected_on_command_line(subcommand, flag, value)
                         for flag, value in argv.items())
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(command_line)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err.getvalue()
    assert "error: internal" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
    if refused and parses:
        # The command line is fine, so the config file is read and refused.
        assert code == EXIT_DATA, err.getvalue()
        assert err.getvalue().startswith(f"error: data: {cfg}: "), err.getvalue()


#: Every (subcommand, typed flag, huge value) triple: the property above
#: draws one triple an example, so it can miss a single failing one.
HUGE_CASES = [(subcommand, flag, value) for subcommand in sorted(VALID)
              for flag, pool in _flags(subcommand, [])[0].items() if set(HUGE) <= set(pool)
              for value in HUGE]


@pytest.mark.parametrize("subcommand, flag, value", HUGE_CASES,
                         ids=[f"{s}{f}={len(v)}-digits" for s, f, v in HUGE_CASES])
def test_huge_value_of_each_typed_flag_exits_usage_or_data_error(inputs, subcommand, flag,
                                                                  value):
    argv = {f: str(inputs / v[1:]) if v.startswith("@") else v
            for f, v in VALID[subcommand].items()}
    with tempfile.TemporaryDirectory() as tmp:
        argv |= {"--out-dir": tmp, flag: value}
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([subcommand, *(f"{f}={v}" for f, v in argv.items())])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err.getvalue()
    assert "error: internal" not in err.getvalue()


def _artifacts(out: Path) -> dict[str, bytes | dict]:
    """Every file in ``out`` by name; a manifest without its timestamps and
    config path, and with artifact names for paths."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text(encoding="utf-8"))
            for key in ("started", "finished", "config"):
                del manifest[key]
            manifest["artifacts"] = [Path(a).name for a in manifest["artifacts"]]
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valid_value_from_config_equals_command_line(inputs, data):
    subcommand = data.draw(st.sampled_from(sorted(VALID)), label="subcommand")
    flags = {flag: str(inputs / value[1:]) if value.startswith("@") else value
             for flag, value in {**VALID[subcommand], **MORE_VALID[subcommand],
                                 "--seed": "7", "--quiet": ""}.items()}
    moved = data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True),
                      label="via --config")
    spelling = data.draw(st.sampled_from(["true", "yes", "1", "TRUE"]), label="switch on")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cfg = work / "run.config"
        cfg.write_text("".join(f"{flag[2:]} = {flags[flag] or spelling}\n" for flag in moved),
                       encoding="utf-8")
        runs = []
        for route, config in (("argv", ()), ("config", moved)):
            argv = [subcommand, "--out-dir", str(work / route)]
            argv += ["--config", str(cfg)] if config else []
            argv += [f"{flag}={value}" if value else flag
                     for flag, value in flags.items() if flag not in config]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == EXIT_OK, argv
            runs.append(_artifacts(work / route))
    assert runs[0] == runs[1]
