"""Per-layer spans and counts for the traced benchmark run.

:class:`Tracer` wraps the public functions of each banditriage module at
every binding the program calls through (``cli.train`` and
``simulate.train`` are one function), records a span (name, start, end,
parent) per call and counts at the same boundaries. Per-row functions such
as ``parse_record`` or ``featurize`` are not wrapped. A layer's self time is
its spans' time minus their child spans.
"""

from __future__ import annotations

import inspect
import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_load(c, fn, result, args, kwargs):
    c["records.rows_read"] += result[1].n_rows
    c["records.rows_rejected"] += result[1].n_rejected


def _count_train(c, fn, result, args, kwargs):
    from banditriage.scoring import TrainConfig

    a = _bound(fn, args, kwargs)
    c["scoring.train_calls"] += 1
    c["scoring.sgd_steps"] += len(a["X"]) * (a["config"] or TrainConfig()).epochs


def _count_thompson(c, fn, result, args, kwargs):
    c["policy.thompson_slots"] += _bound(fn, args, kwargs)["k"]
    c["policy.thompson_filled"] += len(result[0])


def _count_replay(c, fn, result, args, kwargs):
    c["simulate.periods"] += len(result.periods)
    c["simulate.retrains"] += len(result.lineage) - 1
    c["simulate.retrains_skipped"] += sum(
        e.startswith("retrain skipped") for p in result.periods for e in p.events)


#: (module, attribute path, metric its self time adds to, counter or None).
#: A span is named module.path.
TARGETS = (
    ("cli", "main", "cli.self_s", None),
    ("records", "load_cohort", "records.load_s", _count_load),
    ("records", "Cohort.from_records", "records.cohort_build_s", None),
    ("records", "Cohort.subset_weeks", "records.cohort_build_s", None),
    ("records", "write_cohort_csv", "records.write_s",
     lambda c, fn, r, a, k: c.update({"records.rows_written": len(a[0])})),
    ("synthgen", "generate_cohort", "synthgen.generate_s",
     lambda c, fn, r, a, k: c.update({"synthgen.records": len(r)})),
    ("scoring", "train", "scoring.train_s", _count_train),
    ("scoring", "score_matrix", "scoring.score_s",
     lambda c, fn, r, a, k: c.update({"scoring.rows_scored": len(r)})),
    ("policy", "select", "policy.select_s",
     lambda c, fn, r, a, k: c.update({"policy.select_calls": 1})),
    ("policy", "rank_candidates", "policy.rank_s", None),
    ("policy", "thompson_allocate", "policy.thompson_s", _count_thompson),
    ("simulate", "run_replay", "simulate.replay_self_s", _count_replay),
    ("simulate", "sweep_exploration", "simulate.sweep_s", None),
    ("simulate", "train_eval_split_experiment", "simulate.crossover_s", None),
    ("evaluate", "bootstrap_ci", "evaluate.bootstrap_s",
     lambda c, fn, r, a, k: c.update(
         {"evaluate.bootstrap_replicates": _bound(fn, a, k)["replicates"]})),
    ("evaluate", "weekly_correlations", "evaluate.correlate_s", None),
    ("evaluate", "weekly_recall_at_k", "evaluate.recall_table_s", None),
    ("evaluate", "mean_weekly_recall", "evaluate.recall_table_s", None),
    ("evaluate", "weekly_recall_table", "evaluate.recall_table_s", None),
    ("evaluate", "model_comparison_table", "evaluate.recall_table_s", None),
)

SPAN_METRIC = {f"{module}.{path}": metric for module, path, metric, _ in TARGETS}
TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))
COUNT_METRICS = (
    "records.rows_read", "records.rows_rejected", "records.rows_written", "synthgen.records",
    "scoring.train_calls", "scoring.sgd_steps", "scoring.rows_scored", "policy.select_calls",
    "policy.thompson_slots", "policy.thompson_filled", "simulate.periods", "simulate.retrains",
    "simulate.retrains_skipped", "evaluate.bootstrap_replicates",
)


class Tracer:
    """Context manager: wraps the targets on entry and restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = perf_counter()
            if counter is not None:
                counter(self.counts, fn, result, args, kwargs)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("banditriage.") and m]
        for module_name, path, _, counter in TARGETS:
            owner = sys.modules[f"banditriage.{module_name}"]
            span = f"{module_name}.{path}"
            if "." in path:  # a method of a class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(span, raw.__func__, counter)))
                else:
                    setattr(cls, attr, self._wrap(span, raw, counter))
                self._restore.append((cls, attr, raw))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(span, fn, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Self time per metric name, plus the counts."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[SPAN_METRIC[name]] += (end - start) - child[idx]
        out.update({name: float(self.counts[name]) for name in COUNT_METRICS})
        train_s = out["scoring.train_s"]
        out["scoring.sgd_steps_per_s"] = out["scoring.sgd_steps"] / train_s if train_s else 0.0
        return out


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def top_level_import_s(stderr: str, package: str) -> float:
    """Seconds of `-X importtime` output spent in ``package`` (and its
    submodules), counting each outermost entry of the package once."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    # Entries are printed children first; walking backwards, the open entry
    # of lower indentation is an entry's parent.
    total, stack = 0, []
    for cumulative, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(n == package or n.startswith(package + ".") for _, n in stack)
        if (name == package or name.startswith(package + ".")) and not inside:
            total += cumulative
        stack.append((depth, name))
    return total / 1e6


def import_metrics(python: str, env: dict, repeats: int) -> dict[str, float]:
    """Medians over ``repeats`` runs of ``python -X importtime``."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import banditriage.cli"],
                              env=env, capture_output=True, text=True, check=True)
        for metric, package in (("import.total_s", "banditriage"), ("import.scipy_s", "scipy"),
                                ("import.numpy_s", "numpy")):
            samples[metric].append(top_level_import_s(proc.stderr, package))
    return {k: statistics.median(v) for k, v in samples.items()}
