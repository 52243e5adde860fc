"""Period-by-period replay of a cohort under a testing policy.

Each week: score the pool, select per policy, reveal labels only for the
selected records, fold the revealed labels into the labeled store, and
retrain at period boundaries per the cadence. The model active in period t
was trained only on labels revealed before t; traces carry enough lineage
to assert that.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evaluate import f1_at_k, precision_at_k, ranked_recall, recall_at_k
from .policy import PolicyConfig, Sampler, Selection, UncoveredCandidateError, select, update_arm
from .records import Cohort
from .scoring import (
    DegenerateTrainingError,
    ModelKind,
    RiskModel,
    TrainConfig,
    rule_based_model,
    train,
)
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
        """One JSON object per period: the trace's record of that period. Its
        keys are in sorted order at every level, record ids sorted as text
        (id 10 before id 9), so it dumps as ``sort_keys`` would write it."""
        periods = []
        for p in self.periods:
            sel = p.selection
            explore, drawn = p.record_ids[sel.n_exploit:], sel.arm >= 0
            periods.append({
                "arm_assignments": _text_keyed(
                    explore[drawn], [self.policy.arms[i].name for i in sel.arm[drawn].tolist()]),
                "arm_posteriors": dict(sorted(p.arm_posteriors.items())),
                "events": p.events,
                "exploit_ids": p.record_ids[:sel.n_exploit].tolist(),
                "explore_ids": explore.tolist(),
                "explore_shortfall": sel.explore_shortfall,
                "f1": p.f1,
                "model_version": p.model_version,
                "period": p.period,
                "pool_positives": p.pool_positives,
                "pool_size": p.pool_size,
                "precision": p.precision,
                "recall": p.recall,
                "revealed": _text_keyed(p.record_ids, p.labels.tolist()),
                "type": "period",
            })
        return periods

    def to_jsonl(self, path, *, manifest: str = "-") -> list[dict]:
        """One JSON object per line, keys sorted: a header, then one record
        per period. Returns the period objects written (:meth:`period_dicts`)."""
        periods = self.period_dicts()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(self.header_dict(manifest), sort_keys=True) + "\n")
            for obj in periods:
                fh.write(json.dumps(obj) + "\n")
        return periods


_POWERS_OF_TEN = 10 ** np.arange(20, dtype=np.uint64)


def _text_keyed(ids: np.ndarray, values: list) -> dict[str, object]:
    """``values`` keyed by the distinct ``ids`` (row numbers, so >= 0) as
    text, in text order: the digits padded with zeros to one width, the
    shorter first on a tie (1 < 10 < 2)."""
    size = ids.astype(np.uint64)
    digits = np.searchsorted(_POWERS_OF_TEN[1:], size, side="right")  # one less than its digits
    padded = size * _POWERS_OF_TEN[digits.max(initial=0) - digits]
    order = np.lexsort((digits, padded))
    return dict(zip(map(str, ids[order].tolist()), map(values.__getitem__, order.tolist())))


def summary_row(period: dict) -> dict:
    """The summary CSV row of one trace period object: an entry of
    :meth:`SimulationTrace.period_dicts`, or the same object read back from
    a trace file."""
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
    :class:`TrainConfig`. Labels enter the labeled store per
    ``policy.retrain_on``: both channels, or the exploration channel only.
    Retraining failure on a single-class store keeps the current model and
    logs an event; a surveillance loop must not halt on a degenerate week.
    Per-period metrics are computed against the period pool's full ground
    truth. A strict-coverage :class:`UncoveredCandidateError` names the
    uncovered records by their ids.
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
    labeled_patterns: list[np.ndarray] = []
    labeled_y: list[np.ndarray] = []
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
        rec = recall_at_k(rows, y)
        if len(rows):
            prec = precision_at_k(rows, y)
            f1 = f1_at_k(rows, y)
        else:
            prec = None
            f1 = None

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
            labeled_patterns.append(patterns[rows])
            labeled_y.append(y[rows])
            labeled_periods.append(period)

        trace.periods.append(
            PeriodRecord(
                period=period,
                pool_size=len(ids),
                pool_positives=int(y.sum()),
                selection=selection,
                record_ids=ids[selection.positions],
                labels=labels,
                recall=rec,
                precision=prec,
                f1=f1,
                model_version=version,
                arm_posteriors={s.name: (s.alpha, s.beta) for s in arm_states},
                events=events,
            )
        )

        is_last = step == len(weeks)
        if retrain_every and step % retrain_every == 0 and not is_last and labeled_patterns:
            y_train = np.concatenate(labeled_y)
            try:
                model = train(np.concatenate(labeled_patterns), y_train, retrain_kind)
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
                        n_labeled=len(y_train),
                        n_positive=int(y_train.sum()),
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
    seed: int = 0,
) -> list[dict]:
    """Mean per-period recall for each (exploration fraction, capacity) pair.

    The model stays fixed across the grid; exploration is uniform random.
    Rows: {"exploration_fraction", "capacity", "mean_recall"}.
    """
    rows = []
    for rho in rhos:
        for capacity in capacities:
            policy = PolicyConfig(
                capacity=int(capacity),
                exploration_fraction=float(rho),
                sampler=Sampler.UNIFORM_RANDOM,
            )
            trace = run_replay(
                cohort,
                model,
                policy,
                retrain_every=0,
                weeks=weeks,
                seed=derive_seed(seed, "sweep", repr(float(rho)), int(capacity)),
            )
            rows.append(
                {
                    "exploration_fraction": float(rho),
                    "capacity": int(capacity),
                    "mean_recall": float(np.mean([p.recall for p in trace.periods])),
                }
            )
    return rows


def train_on_weeks(cohort: Cohort, weeks: Sequence[int], kind: ModelKind,
                   config: TrainConfig | None = None) -> tuple[RiskModel, dict[int, np.ndarray]]:
    """A model fitted on the cohort's records of ``weeks``, and the labels of
    those records by week, for the weeks of the cohort among ``weeks``.

    Raises ValueError if none of the weeks holds a record.
    """
    wanted = set(weeks)
    trained = [w for w in cohort.weeks if w in wanted]
    if not trained:
        raise ValueError(f"no records in training weeks {list(weeks)}")
    patterns = np.concatenate([cohort.week_patterns(w) for w in trained])
    labels = {w: cohort.week_labels(w) for w in trained}
    return train(patterns, np.concatenate(list(labels.values())), kind, config), labels


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

    model_a, _ = train_on_weeks(cohort, a, ModelKind.POLY2)
    model_b, _ = train_on_weeks(cohort, b, ModelKind.POLY2)
    recall_a, _ = ranked_recall(cohort, model_a, capacities, weeks=ev)
    recall_b, _ = ranked_recall(cohort, model_b, capacities, weeks=ev)
    return [{"k": int(k), "recall_a": float(np.mean(ra)), "recall_b": float(np.mean(rb))}
            for k, ra, rb in zip(capacities, recall_a, recall_b)]
