"""Command-line surface: ingest, synth, correlate, train, simulate, sweep,
bootstrap, report.

:func:`main` owns a run: it merges ``--config`` entries into the flag
defaults, then hands the subcommand its :class:`Manifest`, and writes that
manifest once the subcommand returns (a failed run writes none). Subcommands
write their data artifacts atomically (temp file + rename) through the
manifest; artifacts reference the manifest by name.
All randomness flows from the ``--seed`` flag through labeled sub-seeds
(:mod:`banditriage.seeds`), so a repeated command line reproduces its outputs
byte for byte. Manifests are the one exception: they carry wall-clock
timestamps.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import sys
import uuid
from dataclasses import replace
from datetime import date, datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import (
    MetricError,
    bootstrap_ci,
    model_comparison_table,
    weekly_correlations,
    weekly_recall_table,
)
from .policy import PolicyConfig, PolicyError
from .records import (
    DataError,
    ValueMapping,
    load_cohort,
    read_text,
    switch,
    write_cohort_csv,
    write_csv,
)
from .scoring import (
    DegenerateTrainingError,
    ModelKind,
    TrainConfig,
    load_model,
    model_metadata,
    rule_based_model,
    save_model,
)
from .simulate import (
    OverlapError,
    run_replay,
    summary_row,
    sweep_exploration,
    train_eval_split_experiment,
    train_on_weeks,
)
from .synthgen import generate_cohort, resolve_scenario

log = logging.getLogger("banditriage")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; the contract here is exit 1."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Small IO helpers: atomic writes, manifest bookkeeping.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _atomic(path: Path):
    """Yield a new, uniquely named temp path beside the target; on success
    rename it over the target, on failure remove it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Manifest:
    """Run metadata: subcommand, inputs/outputs, seed, version, timestamps."""

    def __init__(self, args: argparse.Namespace):
        self.subcommand = args.subcommand
        self.seed = args.seed
        self.config_path = args.config
        self.out_dir = Path(args.out_dir)
        self.path = self.out_dir / f"{self.subcommand}.manifest.json"
        self.inputs: list[str] = []
        self.artifacts: list[str] = []
        self.started = datetime.now(timezone.utc).isoformat()

    @property
    def name(self) -> str:
        return self.path.name

    def note_input(self, path) -> None:
        if path is not None:
            self.inputs.append(str(path))

    @contextlib.contextmanager
    def artifact(self, name: str):
        """Yield the temp path to write artifact ``name`` to (a relative name
        lies in the out dir); on success it replaces the artifact, which the
        manifest then lists."""
        path = self.out_dir / name
        with _atomic(path) as tmp:
            yield tmp
        self.artifacts.append(str(path))

    def write_csv(self, name: str, header: list | None, rows: list, **layout) -> Path:
        """Write a CSV artifact that names this manifest; ``layout`` passes
        ``order`` and ``ids`` to :func:`records.write_csv`. Without a header the
        rows are dicts sharing their keys, and the first row's keys head it."""
        if header is None:
            header, rows = list(rows[0]), [list(r.values()) for r in rows]
        with self.artifact(name) as tmp:
            write_csv(tmp, header, rows, comment=f"manifest: {self.name}", **layout)
        return self.out_dir / name

    def write(self) -> None:
        payload = {
            "subcommand": self.subcommand,
            "version": __version__,
            "seed": self.seed,
            "config": str(self.config_path) if self.config_path else None,
            "inputs": self.inputs,
            "artifacts": self.artifacts,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
        }
        with _atomic(self.path) as tmp:
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _week_range(text: str) -> list[int]:
    """argparse type of the week flags: '10-12' -> [10, 11, 12]; '16' -> [16];
    comma lists allowed. Weeks are ISO week numbers, 1 to 53, strictly
    ascending, so no week is named twice."""
    weeks: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        try:
            a, b = int(lo), int(hi if sep else lo)
        except ValueError:
            a, b = 0, 0
        if not (weeks[-1] if weeks else 0) < a <= b <= 53:
            raise argparse.ArgumentTypeError(
                f"bad week range {text!r} (want strictly ascending ISO weeks 1-53, "
                f"e.g. 10-12 or 10,11,12)")
        weeks.extend(range(a, b + 1))
    return weeks


def _checked(what: str, convert, accept, want: str):
    """An argparse type: ``convert`` the text, then require ``accept`` of the
    value, so a bad flag value is a usage error before any input is read."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{what} must be {want}, got {text!r}")
        return value

    return parse


def _list_of(item, what: str):
    """An argparse type: comma-separated values of the ``item`` type, at least
    one and none repeated (a repeat would make a duplicate row or column)."""
    return _checked(f"{what} list", lambda text: [item(x) for x in text.split(",") if x.strip()],
                    lambda v: v and len(set(v)) == len(v), "non-empty, without repeats")


_seed = _checked("seed", int, lambda s: 0 <= s < 2**64, "an integer in [0, 2**64)")
_capacity = _checked("capacity", int, lambda k: k >= 1, ">= 1")
_capacity_list = _list_of(_capacity, "capacity")
_fraction_list = _list_of(_checked("exploration fraction", float, lambda x: 0 <= x <= 1,
                                   "in [0, 1]"), "exploration fraction")
_cadence = _checked("retrain cadence", int, lambda n: n >= 0, ">= 0")
_epochs = _checked("iteration cap", int, lambda n: n >= 1, ">= 1")
_regularization = _checked("regularization", float, lambda x: 0 < x < math.inf,
                           "a finite number > 0")
_replicates = _checked("replicate count", int, lambda n: n >= 2, ">= 2")
_level = _checked("confidence level", float, lambda x: 0 < x < 1, "in (0, 1)")
_delimiter = _checked("delimiter", str, lambda d: len(d) == 1, "one character")
_date = _checked("date", date.fromisoformat, lambda d: True, "an ISO date (YYYY-MM-DD)")


def _model_entries(text: str) -> dict[str, str]:
    """argparse type of --models: its entries by table name (file stem or
    rule_based), which must be distinct; blank entries are skipped."""
    entries: dict[str, str] = {}
    for entry in filter(None, (e.strip() for e in text.split(","))):
        name = "rule_based" if entry == "rule_based" else Path(entry).stem
        if name in entries:
            raise argparse.ArgumentTypeError(
                f"entries {entries[name]!r} and {entry!r} share the name {name!r} and would "
                "make one row; rename one file")
        entries[name] = entry
    if not entries:
        raise argparse.ArgumentTypeError(f"model list must be non-empty, got {text!r}")
    return entries


def _parse_study_window(args) -> tuple[date, date] | None:
    start, end = args.window_start, args.window_end
    if not (start or end):
        return None
    if not (start and end):
        raise UsageError("--window-start and --window-end go together")
    if start > end:
        raise UsageError(f"--window-start {start} is after --window-end {end}")
    return start, end


def _load_cohort_arg(args, manifest: Manifest):
    manifest.note_input(args.cohort)
    cohort, _ = load_cohort(args.cohort)
    return cohort


def _load_model_arg(args, manifest: Manifest):
    if getattr(args, "rule_based", False):
        if args.model:
            raise UsageError("--model and --rule-based exclude each other")
        return rule_based_model()
    if not args.model:
        raise UsageError("need --model PATH or --rule-based")
    manifest.note_input(args.model)
    return load_model(args.model)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_ingest(args, manifest: Manifest) -> None:
    window = _parse_study_window(args)
    manifest.note_input(args.input)
    mapping = ValueMapping.default()
    if args.mapping:
        manifest.note_input(args.mapping)
        mapping = ValueMapping.from_file(args.mapping)

    cohort, report = load_cohort(
        args.input,
        mapping,
        delimiter=args.delimiter,
        keep_other_results=args.keep_other_results,
        null_policy=args.null_policy,
        study_window=window,
    )
    with manifest.artifact(args.out) as tmp:
        write_cohort_csv(cohort, tmp, header_comment=f"manifest: {manifest.name}")
    with manifest.artifact(args.report) as tmp:
        report.write(tmp)
    print(f"accepted {report.n_accepted} of {report.n_rows} rows "
          f"({report.n_rejected} rejected) -> {manifest.out_dir / args.out}")


def cmd_synth(args, manifest: Manifest) -> None:
    params = replace(resolve_scenario(args.scenario), seed=args.seed)
    cohort = generate_cohort(params)
    with manifest.artifact(args.out) as tmp:
        write_cohort_csv(cohort, tmp, header_comment=f"manifest: {manifest.name}")
    positives = sum(c for c in cohort.positives_by_week().values())
    print(f"generated {len(cohort)} records over weeks {params.weeks[0]}-{params.weeks[1]} "
          f"({positives} positive) -> {manifest.out_dir / args.out}")


def cmd_correlate(args, manifest: Manifest) -> None:
    cohort = _load_cohort_arg(args, manifest)
    table = weekly_correlations(cohort)
    manifest.write_csv(args.out, None, table.rows())
    medians = table.median_by_feature()
    for name, value in sorted(medians.items(), key=lambda kv: -np.nan_to_num(kv[1], nan=-2.0)):
        shown = "undefined" if np.isnan(value) else f"{value:+.3f}"
        print(f"{name:24s} {shown}")


def cmd_train(args, manifest: Manifest) -> None:
    cohort = _load_cohort_arg(args, manifest)
    config = TrainConfig(regularization=args.regularization, epochs=args.epochs)
    model, labels = train_on_weeks(cohort, args.weeks or list(cohort.weeks), ModelKind(args.kind),
                                   config)
    weeks, y = list(labels), np.concatenate(list(labels.values()))
    with manifest.artifact(args.out) as tmp:
        save_model(model, tmp, manifest=manifest.name, trained_weeks=",".join(map(str, weeks)))
    print(f"trained {args.kind} model on {len(y)} records ({int(y.sum())} positive, "
          f"weeks {weeks[0]}-{weeks[-1]}) -> {manifest.out_dir / args.out}")


def cmd_simulate(args, manifest: Manifest) -> None:
    cohort = _load_cohort_arg(args, manifest)
    model = _load_model_arg(args, manifest)
    manifest.note_input(args.policy)
    policy = PolicyConfig.from_file(args.policy)
    if args.model and not args.allow_overlap:
        trained = model_metadata(args.model).get("trained_weeks", "-")
        if trained not in ("-", ""):
            trained_set = {int(w) for w in trained.split(",")}
            replay_set = set(args.weeks or cohort.weeks)
            overlap = sorted(trained_set & replay_set)
            if overlap:
                raise OverlapError(
                    f"model was trained on weeks {trained} which overlap the replay "
                    f"weeks ({overlap}); restrict --weeks or pass --allow-overlap"
                )
    trace = run_replay(
        cohort,
        model,
        policy,
        retrain_every=args.retrain_every,
        retrain_kind=ModelKind(args.retrain_kind),
        weeks=args.weeks,
        seed=args.seed,
    )

    with manifest.artifact(args.out_trace) as tmp:
        periods = trace.to_jsonl(tmp, manifest=manifest.name)
    manifest.write_csv(args.out_summary, None, [summary_row(p) for p in periods])

    arm_names = ["", "", *(arm.name for arm in policy.arms)]  # at arm index + 2
    suffixes, order = [], []
    for p in trace.periods:
        sel = p.selection
        # Scores come from a few hundred patterns, so a period's picks share
        # few (channel, arm, score) suffixes: each distinct one is formatted
        # once, keyed by the score's bits so that -0.0 keeps its sign. Arm
        # index -2 marks an exploit pick.
        arm = np.concatenate([np.full(sel.n_exploit, -2), sel.arm]) + 2
        _, score = np.unique(sel.scores.view(np.int64), return_inverse=True)
        _, first, which = np.unique(score * len(arm_names) + arm, return_index=True,
                                    return_inverse=True)
        order.append(which + len(suffixes))
        suffixes += zip(repeat(p.period), np.where(arm[first], "explore", "exploit").tolist(),
                        map(arm_names.__getitem__, arm[first].tolist()),
                        map(repr, sel.scores[first].tolist()))
    manifest.write_csv(args.out_selections, ["record_id", "period", "channel", "arm", "score"],
                       suffixes, order=np.concatenate(order),
                       ids=np.concatenate([p.record_ids for p in trace.periods]))

    mean_recall = float(np.mean([p.recall for p in trace.periods]))
    print(
        f"replayed {len(trace.periods)} periods, revealed {trace.revealed_count()} labels, "
        f"mean recall {mean_recall:.3f} -> {manifest.out_dir / args.out_trace}"
    )


def cmd_sweep(args, manifest: Manifest) -> None:
    cohort = _load_cohort_arg(args, manifest)
    model = _load_model_arg(args, manifest)
    rows = sweep_exploration(cohort, model, args.rho_list, args.k_list, seed=args.seed)
    manifest.write_csv(
        args.out, ["exploration_fraction", "capacity", "mean_recall"],
        [[r["exploration_fraction"], r["capacity"], repr(r["mean_recall"])] for r in rows])
    for r in rows:
        print(f"rho={r['exploration_fraction']:<5} capacity={r['capacity']:<7} "
              f"mean_recall={r['mean_recall']:.3f}")


def cmd_bootstrap(args, manifest: Manifest) -> None:
    cohort = _load_cohort_arg(args, manifest)
    model = _load_model_arg(args, manifest)
    result = bootstrap_ci(
        cohort,
        model,
        args.k,
        replicates=args.replicates,
        level=args.level,
        weeks=args.weeks,
        seed=args.seed,
    )
    manifest.write_csv(
        args.out, ["k", "replicates", "level", "mean", "lo", "hi", "skipped_replicates"],
        [[result.k, len(result.replicate_means), result.level,
          repr(result.mean), repr(result.lo), repr(result.hi), result.skipped_replicates]])
    print(f"recall@{args.k}: mean {result.mean:.3f}, "
          f"{args.level * 100:g}% CI ({result.lo:.3f}, {result.hi:.3f})")


def cmd_report(args, manifest: Manifest) -> None:
    if not (args.trace or args.cohort):
        raise UsageError("report needs --trace and/or --cohort")
    for flag in ("recall_table", "models", "crossover"):
        if getattr(args, flag) and not args.cohort:
            raise UsageError(f"--{flag.replace('_', '-')} needs --cohort")
    if args.recall_table and not args.model:
        raise UsageError("--recall-table needs --model")
    if args.crossover and not (args.weeks_a and args.weeks_b and args.weeks):
        raise UsageError("--crossover needs --weeks-a, --weeks-b and --weeks (evaluation)")

    # Every input is read and every table computed before the first write, so
    # a data error leaves no artifact behind.
    tables: list[tuple[str, list | None, list]] = []
    messages: list[str] = []

    def queue(name: str, header: list | None, rows: list) -> Path:
        tables.append((name, header, rows))
        return manifest.out_dir / name

    if args.trace:
        manifest.note_input(args.trace)
        summary = []
        # Lines split as a text-mode file splits them.
        lines = io.StringIO(read_text(args.trace, DataError, "trace file"), newline=None)
        for line_number, line in enumerate(lines, 1):
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("not a JSON object")
                if obj.get("type") == "period":
                    summary.append(summary_row(obj))
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{args.trace}:{line_number}: bad trace record "
                                f"({type(exc).__name__}: {exc})") from None
        if not summary:
            raise DataError(f"{args.trace}: no period records")
        out = queue("trace_summary.csv", None, summary)
        messages.append(f"trace summary ({len(summary)} periods) -> {out}")

    if args.cohort:
        cohort = _load_cohort_arg(args, manifest)
        counts = [
            [w, int(len(cohort.week_ids(w))), int(cohort.week_labels(w).sum())]
            for w in cohort.weeks
        ]
        out_counts = queue("weekly_counts.csv", ["week", "tests", "positives"], counts)
        out_corr = queue("weekly_correlations.csv", None, weekly_correlations(cohort).rows())
        messages.append(f"cohort report ({len(counts)} weeks) -> {out_counts}, {out_corr}")

        ks = args.k_list or [1000, 2000, 3000, 4000, 5000]
        if args.recall_table:
            model = load_model(args.model)
            manifest.note_input(args.model)
            rows_d = weekly_recall_table(cohort, model, ks, weeks=args.weeks)
            messages.append(f"weekly recall table -> {queue('weekly_recall.csv', None, rows_d)}")

        if args.models:
            named = {}
            for name, entry in args.models.items():
                named[name] = rule_based_model() if entry == "rule_based" else load_model(entry)
                manifest.note_input(None if entry == "rule_based" else entry)
            rows_m = model_comparison_table(cohort, named, ks, weeks=args.weeks)
            out = queue("model_comparison.csv", None, rows_m)
            messages.append(f"model comparison ({len(rows_m)} models) -> {out}")

        if args.crossover:
            rows_x = train_eval_split_experiment(
                cohort,
                args.weeks_a,
                args.weeks_b,
                args.weeks,
                args.k_list or [100, 300, 1000, 3000],
            )
            out = queue("crossover.csv", ["k", "recall_a", "recall_b"],
                        [[r["k"], repr(r["recall_a"]), repr(r["recall_b"])] for r in rows_x])
            messages.append(f"crossover table -> {out}")

    for table in tables:
        manifest.write_csv(*table)
    for message in messages:
        print(message)


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--seed", type=_seed, default=None, metavar="U64",
                        help="master seed; every random stream derives from it")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="key = value file supplying defaults for this subcommand's flags")
    parser.add_argument("--out-dir", default=".", metavar="PATH",
                        help="directory for output files (default: current directory)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational logging")


def build_parser() -> _Parser:
    parser = _Parser(prog="banditriage",
                     description="Budget-constrained test prioritization with bandit exploration.")
    parser.add_argument("--version", action="version", version=f"banditriage {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse and validate a raw CSV into a cohort file")
    _add_common(p)
    p.add_argument("--input", default=None, help="raw delimited text file with a header row")
    p.set_defaults(required_flags=("input",))
    p.add_argument("--mapping", default=None, help="value-mapping file (overlays the defaults)")
    p.add_argument("--out", default="cohort.csv", help="cohort output file name")
    p.add_argument("--report", default="rejections.tsv",
                   help="rejection report (row<TAB>reason per rejected row)")
    p.add_argument("--delimiter", type=_delimiter, default=",", help="field delimiter (1 char)")
    p.add_argument("--keep-other-results", action="store_true",
                   help="retain result='other' rows as negatives instead of excluding them")
    p.add_argument("--null-policy", choices=["as_absent", "drop"], default="as_absent",
                   help="treat unknown symptoms as absent, or drop such rows")
    p.add_argument("--window-start", type=_date, default=None,
                   help="study window start date (ISO)")
    p.add_argument("--window-end", type=_date, default=None, help="study window end date (ISO)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic cohort from a scenario file")
    _add_common(p)
    p.add_argument("--scenario", default=None,
                   help="scenario file path or builtin name (default, regime_shift, oracle)")
    p.set_defaults(required_flags=("scenario",))
    p.add_argument("--out", default="synthetic.csv", help="output cohort file name")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("correlate", help="weekly feature-label correlation table")
    _add_common(p)
    p.add_argument("--cohort", default=None, help="cohort CSV (from ingest or synth)")
    p.set_defaults(required_flags=("cohort",))
    p.add_argument("--out", default="correlations.csv", help="output table file name")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("train", help="fit a margin ranker on selected weeks")
    _add_common(p)
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.set_defaults(required_flags=("cohort",))
    p.add_argument("--weeks", type=_week_range, default=None,
                   help="training weeks, e.g. 10-12 (default: all)")
    p.add_argument("--kind", choices=["linear", "poly2"], default="poly2", help="model family")
    p.add_argument("--out", default="model.txt", help="model output file name")
    p.add_argument("--regularization", type=_regularization, default=1e-4, help="L2 strength > 0")
    p.add_argument("--epochs", type=_epochs, default=20,
                   help="cap on Newton iterations (>= 1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="replay a cohort under a policy, period by period")
    _add_common(p)
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.set_defaults(required_flags=("cohort", "policy"))
    p.add_argument("--model", default=None, help="initial model file")
    p.add_argument("--rule-based", action="store_true",
                   help="cold-start from the fixed 2/1/1 rule instead of --model")
    p.add_argument("--policy", default=None, help="policy configuration file")
    p.add_argument("--weeks", type=_week_range, default=None,
                   help="periods to replay, e.g. 11-19 (default: all)")
    p.add_argument("--retrain-every", type=_cadence, default=1,
                   help="retraining cadence in periods (>= 0); 0 keeps the model static")
    p.add_argument("--retrain-kind", choices=["linear", "poly2"], default="poly2",
                   help="model family used at retraining")
    p.add_argument("--allow-overlap", action="store_true",
                   help="permit replaying weeks the initial model was trained on "
                        "(off by default: that leaks evaluation labels)")
    p.add_argument("--out-trace", default="trace.jsonl", help="full trace output (JSON lines)")
    p.add_argument("--out-summary", default="summary.csv", help="per-period summary CSV")
    p.add_argument("--out-selections", default="selections.csv",
                   help="per-record selection CSV (record_id, period, channel, arm, score)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="recall across exploration fractions and capacities")
    _add_common(p)
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.set_defaults(required_flags=("cohort",))
    p.add_argument("--model", default=None, help="model file (static during the sweep)")
    p.add_argument("--rule-based", action="store_true", help="sweep the fixed rule instead")
    p.add_argument("--rho-list", type=_fraction_list, default="0.3,0.4,0.5,0.6,0.7",
                   help="comma-separated exploration fractions, each in [0, 1]")
    p.add_argument("--k-list", type=_capacity_list, default="1000",
                   help="comma-separated capacities, each >= 1")
    p.add_argument("--out", default="sweep.csv", help="output table file name")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bootstrap",
                       help="percentile bootstrap confidence interval on mean weekly recall")
    _add_common(p)
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.set_defaults(required_flags=("cohort", "k"))
    p.add_argument("--model", default=None, help="model file")
    p.add_argument("--rule-based", action="store_true", help="use the fixed rule")
    p.add_argument("--k", type=_capacity, default=None, help="tests per week (>= 1)")
    p.add_argument("--replicates", type=_replicates, default=200, help="replicate count (>= 2)")
    p.add_argument("--level", type=_level, default=0.95, help="confidence level, in (0, 1)")
    p.add_argument("--weeks", type=_week_range, default=None,
                   help="weeks to evaluate, e.g. 13-16 (default: all)")
    p.add_argument("--out", default="bootstrap.csv", help="output file name")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("report", help="emit plot-ready CSV tables from a trace or cohort")
    _add_common(p)
    p.add_argument("--trace", default=None, help="trace JSONL from simulate")
    p.add_argument("--cohort", default=None, help="cohort CSV")
    p.add_argument("--model", default=None, help="model file (for --recall-table)")
    p.add_argument("--recall-table", action="store_true",
                   help="with --cohort and --model: per-week recall at each capacity")
    p.add_argument("--models", type=_model_entries, default=None,
                   help="with --cohort: comma list of model files (or rule_based) for a "
                        "per-model mean recall/F1 comparison table")
    p.add_argument("--crossover", action="store_true",
                   help="train on --weeks-a and --weeks-b, compare recall on --weeks")
    p.add_argument("--weeks-a", type=_week_range, default=None,
                   help="first training range, e.g. 10-12")
    p.add_argument("--weeks-b", type=_week_range, default=None,
                   help="second training range, e.g. 21-23")
    p.add_argument("--weeks", type=_week_range, default=None,
                   help="evaluation weeks, e.g. 24-26")
    p.add_argument("--k-list", type=_capacity_list, default=None,
                   help="comma-separated capacities, each >= 1")
    p.set_defaults(func=cmd_report)

    return parser


def _config_defaults(subparser: argparse.ArgumentParser, path: str) -> dict:
    """The entries of --config file ``path`` as defaults for ``subparser``'s
    flags, each converted and checked by its flag's own type and choices."""
    actions = {a.dest: a for a in subparser._actions  # noqa: SLF001
               if a.option_strings and a.dest not in ("help", "version")}
    defaults = {}
    for line_number, line in enumerate(read_text(path, DataError, "config file").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{line_number}: expected key = value")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        action = actions.get(key)
        if action is None:
            raise DataError(f"{path}: unknown option {key!r} for this subcommand")
        if action.nargs == 0:  # a switch
            try:
                defaults[key] = switch(raw)
            except ValueError as exc:
                raise DataError(f"{path}: {key}: {exc}, got {raw!r}") from None
            continue
        try:
            defaults[key] = subparser._get_value(action, raw)  # noqa: SLF001
            subparser._check_value(action, defaults[key])  # noqa: SLF001
        except argparse.ArgumentError as exc:
            raise DataError(f"{path}: {key}: {exc.message}") from None
    return defaults


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # The run's log records go to stderr at the run's level; the logger is
    # restored on return, so in-process runs each get their own verbosity.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved_level = log.level
    log.addHandler(handler)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_help()
            return EXIT_USAGE
        if args.config:
            # Config entries become the flags' defaults, so a flag given on the
            # command line (abbreviated, as --flag=value, or at its default) wins.
            subparser = parser._subparsers._group_actions[0].choices[args.subcommand]  # noqa: SLF001
            subparser.set_defaults(**_config_defaults(subparser, args.config))
            args = parser.parse_args(argv)
        log.setLevel(logging.ERROR if args.quiet else logging.INFO)
        for flag in getattr(args, "required_flags", ()):
            if getattr(args, flag) is None:
                raise UsageError(
                    f"the following arguments are required: --{flag.replace('_', '-')}"
                )
        if args.seed is None:
            # The effective seed: a scenario carries its own, everything else uses 0.
            args.seed = resolve_scenario(args.scenario).seed if args.subcommand == "synth" else 0
        manifest = Manifest(args)
        args.func(args, manifest)
        manifest.write()
        return EXIT_OK
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, PolicyError, MetricError, DegenerateTrainingError, ValueError,
            OSError) as exc:  # ScenarioError and OverlapError are ValueErrors
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        log.removeHandler(handler)
        log.setLevel(saved_level)


if __name__ == "__main__":
    sys.exit(main())
