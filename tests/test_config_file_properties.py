"""Property: one random edit of a valid scenario or policy file is either
accepted (exit 0) or refused as a data error naming the file (exit 2), never
an internal error. A renamed section or key is always refused, so a misspelt
one cannot silently fall back to its default."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditriage.cli import EXIT_DATA, EXIT_OK, main
from banditriage.synthgen import builtin_scenario_path

POLICY = """[policy]
capacity = 20
exploration_fraction = 0.3
sampler = thompson
retrain_on = exploration_only
strict_arm_coverage = true

[arm contacts]
predicate = contact_with_confirmed=1
alpha = 2
beta = 3

[arm others]
predicate = contact_with_confirmed=0
"""

BASES = {
    **{f"{name}.scenario": builtin_scenario_path(name).read_text(encoding="utf-8")
       for name in ("default", "regime_shift", "oracle")},
    "thompson.policy": POLICY,
}
BAD_VALUES = ["nan", "-1", "1e999", "", "3OO"]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--scenario", "oracle", "--out", "cohort.csv", "--out-dir", str(out),
                 "--seed", "3", "--quiet"]) == EXIT_OK
    return out / "cohort.csv"


@st.composite
def edits(draw) -> tuple[str, str, str]:
    """(base file name, edited text, edit): one section or key renamed, one
    key line dropped, or one value replaced by a bad one."""
    name = draw(st.sampled_from(sorted(BASES)), label="file")
    lines = BASES[name].splitlines()
    sections = [i for i, line in enumerate(lines) if line.startswith("[")]
    keys = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    edit = draw(st.sampled_from(["rename", "drop", "value"]), label="edit")
    i = draw(st.sampled_from(sections + keys if edit == "rename" else keys), label="line")
    if edit == "rename":
        lines[i] = "[x" + lines[i][1:] if i in sections else "x" + lines[i]
    elif edit == "drop":
        del lines[i]
    else:
        lines[i] = lines[i].partition("=")[0] + "= " + draw(st.sampled_from(BAD_VALUES),
                                                            label="value")
    return name, "\n".join(lines) + "\n", edit


@settings(max_examples=200, deadline=None)
@given(edits())
def test_edited_file_is_accepted_or_refused_naming_it(cohort, edited):
    name, text, edit = edited
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        if name.endswith(".scenario"):
            argv = ["synth", "--scenario", str(path)]
        else:
            argv = ["simulate", "--cohort", str(cohort), "--rule-based", "--policy", str(path),
                    "--weeks", "1-2"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out-dir", tmp, "--quiet"])
    assert code in (EXIT_OK, EXIT_DATA), err.getvalue()
    if code == EXIT_DATA:
        assert err.getvalue().startswith("error: data:") and str(path) in err.getvalue()
    if edit == "rename":
        assert code == EXIT_DATA, err.getvalue()
