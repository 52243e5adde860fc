"""Property test for the command line: every subcommand, given hostile flag
values, runs (exit 0) or stops with a usage error (exit 1) or a data error
(exit 2). It never ends in an internal error (exit 3)."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditriage.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main

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

NUMBERS = ["", "-1", "0", "nan", "-inf", "0.5", "1e308", "3,-1"]
HUGE = [str(2**64), "9" * 30]
WEEK_RANGES = ["", "5-3", "1-", "-2", "a-b", ",", "3,,x", "0-4", "54", "1-99999999999"]
TEXT = ["", "-1", "nan", ",,", "5-3", "\\t"]
#: Flags whose value is an amount of work: a huge one is a long run, not an error path.
WORK_COUNTS = {"--epochs", "--replicates"}


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
        for flag in data.draw(st.lists(st.sampled_from(sorted(hostile)), min_size=1, max_size=2,
                                       unique=True), label="hostile flags"):
            argv[flag] = data.draw(st.sampled_from(hostile[flag]), label=flag)
        on = data.draw(st.lists(st.sampled_from(switches), max_size=2, unique=True),
                       label="switches")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([subcommand, *(f"{flag}={value}" for flag, value in argv.items()), *on])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err.getvalue()
    assert "error: internal" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
