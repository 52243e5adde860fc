"""Period-by-period replay of a cohort under a testing policy.

Each week: score the pool, select per policy, reveal labels only for the
selected records, add their (pattern code, label) counts to the labeled
store, and retrain on the store at period boundaries per the cadence. The
model active in period t was trained only on labels revealed before t;
traces carry enough lineage to assert that. The exploration sweep is the
exact mean of static replays.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .evaluate import ranked_recall
from .policy import (PolicyConfig, Selection, UncoveredCandidateError, select, split_budget,
                     update_arm)
from .records import Cohort, pattern_counts
from .scoring import (PATTERN_CODES, DegenerateTrainingError, ModelKind, RiskModel, TrainConfig,
                      rule_based_model, train)
from .seeds import derive_seed

log = logging.getLogger(__name__)


class OverlapError(ValueError):
    """Evaluation weeks intersect a training range (label leakage)."""


@dataclass(frozen=True)
class ModelVersion:
    version: int
    model: RiskModel
    trained_on: str  # human-readable training-set description
    source_periods: tuple[int, ...]  # periods whose labels fed this version
    n_labeled: int
    n_positive: int


@dataclass
class PeriodRecord:
    period: int
    pool_size: int
    pool_positives: int
    selection: Selection
    record_ids: np.ndarray  # of the picks, in the selection's pick order
    labels: np.ndarray  # the picks' revealed labels, in the same order
    recall: float
    precision: float | None
    f1: float | None
    model_version: int
    arm_posteriors: dict[str, tuple[float, float]] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)


@dataclass
class SimulationTrace:
    seed: int
    policy: PolicyConfig
    retrain_every: int
    periods: list[PeriodRecord] = field(default_factory=list)
    lineage: list[ModelVersion] = field(default_factory=list)

    def revealed_count(self) -> int:
        return sum(len(p.labels) for p in self.periods)

    def header_dict(self, manifest: str = "-") -> dict:
        return {
            "type": "header",
            "manifest": manifest,
            "seed": self.seed,
            "retrain_every": self.retrain_every,
            "policy": {
                "capacity": self.policy.capacity,
                "exploration_fraction": self.policy.exploration_fraction,
                "sampler": self.policy.sampler.value,
                "retrain_on": self.policy.retrain_on,
                "arms": [
                    {
                        "name": a.name,
                        "predicate": a.predicate.to_text(),
                        "alpha": a.alpha,
                        "beta": a.beta,
                    }
                    for a in self.policy.arms
                ],
            },
            "lineage": [
                {
                    "version": v.version,
                    "kind": v.model.kind.value,
                    "trained_on": v.trained_on,
                    "source_periods": list(v.source_periods),
                    "n_labeled": v.n_labeled,
                    "n_positive": v.n_positive,
                }
                for v in self.lineage
            ],
        }

    def period_dicts(self) -> list[dict]:
        """One JSON object per period: the trace's record of that period, its
        field names sorted. Keys that are data follow the run: ``revealed``
        maps each pick's record id (as text) to its label in pick order, the
        exploit picks by rank and then the explore picks by draw;
        ``arm_assignments`` maps each explore pick that an arm drew to the
        arm's name in draw order; ``arm_posteriors`` lists the arms in the
        policy's order."""
        periods = []
        for p in self.periods:
            sel = p.selection
            explore, drawn = p.record_ids[sel.n_exploit:], sel.arm >= 0
            periods.append(dict(sorted({
                **_period_fields(p),
                "arm_assignments": dict(zip(map(str, explore[drawn].tolist()), [
                    self.policy.arms[i].name for i in sel.arm[drawn].tolist()])),
                "exploit_ids": p.record_ids[:sel.n_exploit].tolist(),
                "explore_ids": explore.tolist(),
                "revealed": dict(zip(map(str, p.record_ids.tolist()), p.labels.tolist())),
            }.items())))
        return periods

    def to_jsonl(self, path, *, manifest: str = "-") -> list[dict]:
        """One JSON object per line: a header with its keys sorted at every
        level, then one record per period, the ``json.dumps`` of its
        :meth:`period_dicts` object. Each period's line is formatted from its
        picks as it is written: each pick's id becomes text once, and no
        per-pick dict is built. Returns each period's :func:`summary_row`."""
        arm_names = [json.dumps(arm.name) for arm in self.policy.arms]
        rows = []
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(self.header_dict(manifest), sort_keys=True) + "\n")
            for p in self.periods:
                sel, fields = p.selection, _period_fields(p)
                ids = list(map(str, p.record_ids.tolist()))
                explore, drawn = ids[sel.n_exploit:], sel.arm >= 0
                parts = {key: json.dumps(value) for key, value in fields.items()} | {
                    "arm_assignments": _json_object(compress(explore, drawn.tolist()), map(
                        arm_names.__getitem__, sel.arm[drawn].tolist())),
                    "exploit_ids": "[%s]" % ", ".join(ids[:sel.n_exploit]),
                    "explore_ids": "[%s]" % ", ".join(explore),
                    "revealed": _json_object(ids, map(("false", "true").__getitem__,
                                                      p.labels.tolist())),
                }
                keys = sorted(parts)
                fh.write(_json_object(keys, map(parts.__getitem__, keys)) + "\n")
                rows.append(summary_row({**fields, "exploit_ids": p.record_ids[:sel.n_exploit],
                                         "explore_ids": explore}))
        return rows


def _json_object(keys: Iterable[str], values: Iterable[str]) -> str:
    """A JSON object's text from its keys, none of which needs escaping, and
    its values' JSON texts, in the order given."""
    return "{%s}" % ", ".join(map('"{}": {}'.format, keys, values))


def _period_fields(p: PeriodRecord) -> dict:
    """A period's trace fields that do not list its picks."""
    return {
        "arm_posteriors": p.arm_posteriors,
        "events": p.events,
        "explore_shortfall": p.selection.explore_shortfall,
        "f1": p.f1,
        "model_version": p.model_version,
        "period": p.period,
        "pool_positives": p.pool_positives,
        "pool_size": p.pool_size,
        "precision": p.precision,
        "recall": p.recall,
        "type": "period",
    }


def summary_row(period: dict) -> dict:
    """The summary CSV row of one trace period object: an entry of
    :meth:`SimulationTrace.period_dicts`, or the same object read back from
    a trace file. It reads the period's scalar fields and the lengths of its
    ``exploit_ids`` and ``explore_ids``, none of the keyed fields."""
    return {
        "period": period["period"],
        "pool": period["pool_size"],
        "positives": period["pool_positives"],
        "k_exploit": len(period["exploit_ids"]),
        "k_explore": len(period["explore_ids"]),
        "recall": period["recall"],
        "precision": "" if period["precision"] is None else period["precision"],
        "f1": "" if period["f1"] is None else period["f1"],
        "model_version": period["model_version"],
    }


def run_replay(
    cohort: Cohort,
    model0: RiskModel | None,
    policy: PolicyConfig,
    *,
    retrain_every: int = 1,
    retrain_kind: ModelKind = ModelKind.POLY2,
    weeks: Sequence[int] | None = None,
    seed: int = 0,
) -> SimulationTrace:
    """Replay the cohort week by week under the policy.

    ``model0`` is the cold-start scorer (the fixed rule when omitted).
    ``retrain_every`` is the cadence in periods; 0 never retrains (static
    model); each retrain fits ``retrain_kind`` under the default
    :class:`TrainConfig`. The labeled store is one running (pattern code,
    label) count table, which the picks' counts enter per
    ``policy.retrain_on``: both channels, or the exploration channel only.
    Retraining failure on a single-class store keeps the current model and
    logs an event; a surveillance loop must not halt on a degenerate week.
    Per-period metrics are computed against the period pool's full ground
    truth, each a single division of the period's hits h, picks k and pool
    positives P: recall h/P, precision h/k and F1 2h/(k + P), the rule of
    the recall tables. A pool without positives reads recall 0.0 (logged),
    and an empty selection has no precision or F1 (None). A strict-coverage
    :class:`UncoveredCandidateError` names the uncovered records by their ids.
    """
    if retrain_every < 0:
        raise ValueError(f"retrain_every must be >= 0, got {retrain_every}")
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    if not weeks:
        raise ValueError("cohort has no weeks to replay")

    model = model0 if model0 is not None else rule_based_model()
    trace = SimulationTrace(seed=seed, policy=policy, retrain_every=retrain_every)
    trace.lineage.append(
        ModelVersion(
            version=0,
            model=model,
            trained_on="initial model (provided or rule-based cold start)",
            source_periods=(),
            n_labeled=0,
            n_positive=0,
        )
    )
    version = 0

    arm_states = policy.arms
    store = np.zeros((len(PATTERN_CODES), 2), dtype=np.int64)
    labeled_periods: list[int] = []

    for step, period in enumerate(weeks, start=1):
        ids = cohort.week_ids(period)
        patterns = cohort.week_patterns(period)
        y = cohort.week_labels(period)
        events: list[str] = []

        try:
            selection = select(patterns, model, policy, arm_states=arm_states,
                               seed=derive_seed(seed, "period", period))
        except UncoveredCandidateError as exc:  # name the records, not their pool positions
            raise UncoveredCandidateError(ids[exc.candidates]) from None
        if selection.explore_shortfall:
            events.append(f"explore shortfall {selection.explore_shortfall}")

        rows = selection.positions
        labels = y[rows]
        hits, k, positives = int(labels.sum()), len(rows), int(y.sum())
        if not positives:
            log.warning("recall undefined: week %s has no positives; reporting 0.0", period)

        # Period-end bookkeeping: arm posteriors, labeled store, retraining.
        drawn = selection.arm >= 0
        arm = selection.arm[drawn]
        tested = np.bincount(arm, minlength=len(arm_states)).tolist()
        found = np.bincount(arm[labels[selection.n_exploit:][drawn]],
                            minlength=len(arm_states)).tolist()
        arm_states = [update_arm(state, pos, n - pos)
                      for state, pos, n in zip(arm_states, found, tested)]

        if policy.retrain_on == "exploration_only":
            rows = rows[selection.n_exploit:]
        if len(rows):
            store += pattern_counts(patterns[rows], y[rows])
            labeled_periods.append(period)

        trace.periods.append(
            PeriodRecord(
                period=period,
                pool_size=len(ids),
                pool_positives=positives,
                selection=selection,
                record_ids=ids[selection.positions],
                labels=labels,
                recall=hits / positives if positives else 0.0,
                precision=hits / k if k else None,
                f1=2 * hits / (k + positives) if k else None,
                model_version=version,
                arm_posteriors={s.name: (s.alpha, s.beta) for s in arm_states},
                events=events,
            )
        )

        is_last = step == len(weeks)
        if retrain_every and step % retrain_every == 0 and not is_last and labeled_periods:
            try:
                model = train(store, retrain_kind)
            except DegenerateTrainingError:
                trace.periods[-1].events.append(
                    "retrain skipped: labeled store is single-class; model carried over"
                )
                log.warning("period %s: retrain skipped on single-class store", period)
            else:
                version += 1
                trace.lineage.append(
                    ModelVersion(
                        version=version,
                        model=model,
                        trained_on=(
                            f"{policy.retrain_on} labels revealed in periods "
                            f"{labeled_periods[0]}..{labeled_periods[-1]}"
                        ),
                        source_periods=tuple(labeled_periods),
                        n_labeled=int(store.sum()),
                        n_positive=int(store[:, 1].sum()),
                    )
                )
    return trace


def sweep_exploration(
    cohort: Cohort,
    model: RiskModel,
    rhos: Sequence[float],
    capacities: Sequence[int],
    *,
    weeks: Sequence[int] | None = None,
) -> list[dict]:
    """Expected mean weekly recall for each (exploration fraction, capacity)
    pair when :func:`~banditriage.policy.select` tests each week's pool under
    the fixed model with uniform exploration, as a static replay would.

    A cell splits its capacity into k_x exploit and k_e explore slots
    (:func:`~banditriage.policy.split_budget`). The exploit recall r_x is the
    tie-order mean of :func:`~banditriage.evaluate.ranked_recall` at k_x. The
    explore picks are a uniform sample of the n - k_x rows left, a count no
    tie order changes, so each finds a share 1/(n - k_x) of the positives
    left: recall is r_x + k_e·(1 - r_x)/(n - k_x). A pool of at most the
    capacity is tested in full and reads 1.0; a week without positives reads
    0.0. Each week's count table is grouped once for the whole grid; no random
    number is drawn. Rows: {"exploration_fraction", "capacity", "mean_recall"}.
    """
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    cells = [(float(rho), int(capacity), *split_budget(int(capacity), float(rho)))
             for rho in rhos for capacity in capacities]
    exploit, _ = ranked_recall(cohort, model, [k_x for _, _, k_x, _ in cells], weeks=weeks)
    # In floats, as a capacity may pass int64.
    n, positives = np.array([[c.sum(), c[:, 1].sum()] for c in map(cohort.week_counts, weeks)],
                            dtype=float).T
    rows = []
    for (rho, capacity, k_x, k_e), r_x in zip(cells, exploit):
        # n - k_x >= 1 wherever the pool exceeds the capacity; elsewhere it is masked.
        recall = np.where(n <= capacity, 1.0, r_x + k_e * (1.0 - r_x) / np.maximum(n - k_x, 1))
        rows.append({"exploration_fraction": rho, "capacity": capacity,
                     "mean_recall": float(np.mean(np.where(positives > 0, recall, 0.0)))})
    return rows


def train_on_weeks(cohort: Cohort, weeks: Sequence[int], kind: ModelKind,
                   config: TrainConfig | None = None) -> RiskModel:
    """A model fitted on the summed count tables (:meth:`Cohort.week_counts`)
    of those of ``weeks`` that the cohort holds, which become the model's
    ``trained_weeks``.

    Raises ValueError if none of the weeks holds a record.
    """
    wanted = set(weeks)
    trained = [w for w in cohort.weeks if w in wanted]
    if not trained:
        raise ValueError(f"no records in training weeks {list(weeks)}")
    model = train(sum(map(cohort.week_counts, trained)), kind, config)
    return replace(model, trained_weeks=tuple(trained))


def train_eval_split_experiment(
    cohort: Cohort,
    train_weeks_a: Sequence[int],
    train_weeks_b: Sequence[int],
    eval_weeks: Sequence[int],
    capacities: Sequence[int],
) -> list[dict]:
    """Train one poly2 model per time frame, compare recall@k on later weeks.

    Rows: {"k", "recall_a", "recall_b"} with recall averaged over the
    evaluation weeks. Evaluation weeks may not intersect either training
    range (that would leak evaluation labels into training).
    """
    a, b, ev = sorted(set(train_weeks_a)), sorted(set(train_weeks_b)), sorted(set(eval_weeks))
    if not a or not b or not ev:
        raise ValueError("week ranges must be non-empty")
    overlap = set(a + b) & set(ev)
    if overlap:
        raise OverlapError(f"evaluation weeks overlap a training range: {sorted(overlap)}")

    model_a = train_on_weeks(cohort, a, ModelKind.POLY2)
    model_b = train_on_weeks(cohort, b, ModelKind.POLY2)
    recall_a, _ = ranked_recall(cohort, model_a, capacities, weeks=ev)
    recall_b, _ = ranked_recall(cohort, model_b, capacities, weeks=ev)
    return [{"k": int(k), "recall_a": float(np.mean(ra)), "recall_b": float(np.mean(rb))}
            for k, ra, rb in zip(capacities, recall_a, recall_b)]
