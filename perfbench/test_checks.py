"""Each output check accepts the program's real artifacts and rejects a
tampered copy. Runs one round of every workload at full size (about a
minute); run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from banditriage import cli  # noqa: E402


@pytest.fixture(scope="session")
def produced(tmp_path_factory):
    """Per workload: inputs and one round's outputs, made once."""
    made = {}

    def get(workload: str) -> checks.Context:
        if workload not in made:
            base = tmp_path_factory.mktemp(workload)
            inputs.make_inputs(workload, 3, base / "in")
            meta = json.loads((base / "in" / "meta.json").read_text(encoding="utf-8"))
            calls, ctx = workloads.plan(workload, base / "in", base / "out", meta)
            for argv in calls:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv
            made[workload] = ctx
        return made[workload]

    return get


def copy_outputs(ctx: checks.Context, dest: Path) -> checks.Context:
    shutil.copytree(ctx.out, dest)
    return workloads.plan(ctx.meta["workload"], ctx.inputs, dest, ctx.meta)[1]


def edit_csv(path: Path, edit) -> None:
    """Apply ``edit(rows)`` to a CSV's rows (comment lines dropped)."""
    rows = checks.read_rows(path)
    edit(rows)
    inputs.write_csv(path, rows[0], rows[1:])


def edit_trace(path: Path, edit) -> None:
    """Apply ``edit(periods)`` to a trace's period objects."""
    header, periods = checks.read_trace(path)
    edit(periods)
    path.write_text("".join(json.dumps(o) + "\n" for o in [header] + periods), encoding="utf-8")


def bump(rows, r, c, delta=1e-6):
    rows[r][c] = repr(float(rows[r][c]) + delta)


def _move_unselected_into_exploit(ctx: checks.Context) -> None:
    """Replace the best exploit pick of the first period with the best
    unselected record, in the trace and in selections.csv."""
    view = checks.read_cohort(ctx.cohort)
    _, weights, bias = checks.read_model(ctx.model)
    _, periods = checks.read_trace(ctx.out / "trace.jsonl")
    p = periods[0]
    pool = checks._pools(view)[p["period"]]
    scores = dict(zip(pool.tolist(), checks.poly2_scores(view.X[pool], weights, bias).tolist()))
    chosen = set(p["exploit_ids"] + p["explore_ids"])
    best = max(p["exploit_ids"], key=scores.get)
    runner_up = max((i for i in scores if i not in chosen), key=scores.get)

    def swap_trace(ps):
        ps[0]["exploit_ids"] = [runner_up if i == best else i for i in ps[0]["exploit_ids"]]
        ps[0]["revealed"] = {str(i): bool(view.y[i]) for i in chosen - {best} | {runner_up}}

    def swap_rows(rows):
        for row in rows[1:]:
            if int(row[0]) == best:
                row[0], row[4] = str(runner_up), repr(scores[runner_up])

    edit_trace(ctx.out / "trace.jsonl", swap_trace)
    edit_csv(ctx.out / "selections.csv", swap_rows)


def _reassign_to_abroad(ctx: checks.Context) -> None:
    view = checks.read_cohort(ctx.cohort)

    def edit(ps):
        rid = next(r for r in ps[0]["arm_assignments"] if view.X[int(r), 6] == 0)
        ps[0]["arm_assignments"][rid] = "abroad"

    edit_trace(ctx.out / "trace.jsonl", edit)


def _drop_explore_pick(ps):
    rid = ps[0]["explore_ids"].pop()
    ps[0]["arm_assignments"].pop(str(rid), None)


def _overlap_channels(ps):
    ps[0]["exploit_ids"][0] = ps[0]["explore_ids"][0]


def _drop_rejection(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")


def _relabel_rejection(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row, _ = lines[0].split("\t", 1)
    lines[0] = f"{row}\tcough='x': unmappable symptom value\n"
    path.write_text("".join(lines), encoding="utf-8")


def _flip_symptom(rows):
    rows[5][1] = "0" if rows[5][1] == "1" else "1"


def _blank_first_defined(rows):
    rows[1][rows[1].index(next(v for v in rows[1][1:] if v))] = ""


def _set_bootstrap_low(rows):
    rows[1][3:6] = ["0.01", "0.0", "0.02"]


def _unbracket(rows):
    rows[1][4] = repr(float(rows[1][3]) + 0.1)


def _decreasing_crossover(rows):
    rows[1][1], rows[2][1] = rows[2][1], rows[1][1]


def _zero_rule_recall(rows):
    rows[1][rows[0].index("recall@1000")] = "0.0"


def _file(name, edit):
    return lambda ctx: edit(ctx.out / name)


def _csv(name, edit):
    return lambda ctx: edit_csv(ctx.out / name, edit)


def _trace(edit):
    return lambda ctx: edit_trace(ctx.out / "trace.jsonl", edit)


def _flip_revealed(ps):
    rid = next(iter(ps[0]["revealed"]))
    ps[0]["revealed"][rid] = not ps[0]["revealed"][rid]


# (workload, check, tamper, a fragment of the message the check must give)
TAMPERS = [
    ("walkthrough", "walkthrough_correlations", _csv("correlations.csv", lambda r: bump(r, 1, 1)),
     "differ from numpy Pearson"),
    ("walkthrough", "walkthrough_correlations",
     _csv("weekly_correlations.csv", _blank_first_defined), "undefined cells differ"),
    ("walkthrough", "replay_selection", _trace(_overlap_channels), "channels overlap"),
    ("walkthrough", "replay_recall",
     _trace(lambda ps: ps[1].update(recall=ps[1]["recall"] + 0.01)), "!= recount"),
    ("walkthrough", "replay_exploit_order", _move_unselected_into_exploit,
     "unselected record outscores"),
    ("walkthrough", "walkthrough_beats_random", _csv("bootstrap.csv", _set_bootstrap_low),
     "random rate"),
    ("walkthrough", "walkthrough_bootstrap", _csv("bootstrap.csv", _unbracket),
     "does not bracket"),
    ("walkthrough", "walkthrough_crossover", _csv("crossover.csv", _decreasing_crossover),
     "decreases with k"),
    ("thompson_pool", "thompson_arm_predicates", _reassign_to_abroad, "does not satisfy arm"),
    ("thompson_pool", "replay_selection", _trace(_drop_explore_pick), "shortfall"),
    ("thompson_pool", "replay_recall", _trace(_flip_revealed), "revealed labels differ"),
    ("thompson_pool", "thompson_posteriors",
     _trace(lambda ps: ps[0]["arm_posteriors"]["contact"].__setitem__(0, 99.0)), "posteriors"),
    ("thompson_pool", "replay_exploit_order", _move_unselected_into_exploit,
     "unselected record outscores"),
    ("bulk_ingest", "bulk_rejections", _file("rejections.tsv", _drop_rejection),
     "spoiled rows accepted"),
    ("bulk_ingest", "bulk_rejections", _file("rejections.tsv", _relabel_rejection),
     "rejected for"),
    ("bulk_ingest", "bulk_cohort", _csv("cohort.csv", _flip_symptom),
     "differ from the canonical"),
    ("bulk_ingest", "bulk_weekly_counts",
     _csv("weekly_counts.csv", lambda r: r[1].__setitem__(2, str(int(r[1][2]) + 1))),
     "weekly_counts.csv differs"),
    ("bulk_ingest", "bulk_correlations", _csv("weekly_correlations.csv", lambda r: bump(r, 2, 1)),
     "differ from numpy Pearson"),
    ("bulk_ingest", "bulk_rule_recall", _csv("model_comparison.csv", _zero_rule_recall),
     "outside the tie-break bounds"),
]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_real_outputs_pass(produced, workload):
    ctx = produced(workload)
    for check in checks.CHECKS[workload]:
        check(ctx)
    assert 0.0 < checks.MEAN_RECALL[workload](ctx) < 1.0


@pytest.mark.parametrize("workload,check,tamper,message", TAMPERS,
                         ids=[f"{w}-{c}-{i}" for i, (w, c, _, _) in enumerate(TAMPERS)])
def test_tampered_output_fails(produced, tmp_path, workload, check, tamper, message):
    ctx = copy_outputs(produced(workload), tmp_path / "out")
    tamper(ctx)
    with pytest.raises(checks.CheckFailed, match=re.escape(message)):
        getattr(checks, check)(ctx)


def test_changed_byte_breaks_identity(produced, tmp_path):
    ctx = copy_outputs(produced("thompson_pool"), tmp_path / "out")
    path = ctx.out / "summary.csv"
    path.write_bytes(path.read_bytes().replace(b"0.", b"1.", 1))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_artifacts(produced("thompson_pool").out, ctx.out)


def test_every_check_has_a_tamper():
    tampered = {(w, c) for w, c, _, _ in TAMPERS}
    for workload, funcs in checks.CHECKS.items():
        for f in funcs:
            assert (workload, f.__name__) in tampered, (workload, f.__name__)


def test_metric_names_match_benchmark_json():
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    import tracing

    traced = set(tracing.TIME_METRICS + tracing.COUNT_METRICS) | {
        "import.total_s", "import.scipy_s", "import.numpy_s", "scoring.sgd_steps_per_s",
        "cli.artifact_bytes", "trace.wall_s", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
