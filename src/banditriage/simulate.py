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

from .evaluate import f1_at_k, mean_weekly_recall, precision_at_k, recall_at_k
from .policy import PolicyConfig, Sampler, Selection, select, update_arm
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
    revealed: dict[int, bool]
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
        return sum(len(p.revealed) for p in self.periods)

    def selected_count(self) -> int:
        return sum(len(p.selection.all_ids) for p in self.periods)

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
        """One JSON object per period: the trace's record of that period."""
        return [
            {
                "type": "period",
                "period": p.period,
                "pool_size": p.pool_size,
                "pool_positives": p.pool_positives,
                "exploit_ids": list(p.selection.exploit_ids),
                "explore_ids": list(p.selection.explore_ids),
                "arm_assignments": {str(k): v for k, v in p.selection.arm_assignments.items()},
                "explore_shortfall": p.selection.explore_shortfall,
                "revealed": {str(k): bool(v) for k, v in p.revealed.items()},
                "recall": p.recall,
                "precision": p.precision,
                "f1": p.f1,
                "model_version": p.model_version,
                "arm_posteriors": p.arm_posteriors,
                "events": p.events,
            }
            for p in self.periods
        ]

    def to_jsonl(self, path, *, manifest: str = "-") -> None:
        """One JSON object per line: a header, then one record per period."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for obj in [self.header_dict(manifest)] + self.period_dicts():
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


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
    train_config: TrainConfig | None = None,
    weeks: Sequence[int] | None = None,
    seed: int = 0,
) -> SimulationTrace:
    """Replay the cohort week by week under the policy.

    ``model0`` is the cold-start scorer (the fixed rule when omitted).
    ``retrain_every`` is the cadence in periods; 0 never retrains (static
    model). Labels enter the labeled store per ``policy.retrain_on``: both
    channels, or the exploration channel only. Retraining failure on a
    single-class store keeps the current model and logs an event; a
    surveillance loop must not halt on a degenerate week. Per-period metrics
    are computed against the period pool's full ground truth.
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
    labeled_X: list[np.ndarray] = []
    labeled_y: list[np.ndarray] = []
    labeled_periods: list[int] = []

    for step, period in enumerate(weeks, start=1):
        ids = cohort.week_ids(period)
        X = cohort.week_features(period)
        y = cohort.week_labels(period)
        row_of = {rid: row for row, rid in enumerate(ids.tolist())}
        events: list[str] = []

        selection = select(
            ids, X, model, policy, arm_states=arm_states, seed=derive_seed(seed, "period", period)
        )
        if selection.explore_shortfall:
            events.append(f"explore shortfall {selection.explore_shortfall}")

        rows = np.array([row_of[rid] for rid in selection.all_ids], dtype=np.int64)
        revealed = {rid: bool(v) for rid, v in zip(selection.all_ids, y[rows].tolist())}

        rec = recall_at_k(rows, y)
        if len(rows):
            prec = precision_at_k(rows, y)
            f1 = f1_at_k(rows, y)
        else:
            prec = None
            f1 = None

        # Period-end bookkeeping: arm posteriors, labeled store, retraining.
        new_states = []
        for state in arm_states:
            assigned = [
                rid for rid, arm in selection.arm_assignments.items() if arm == state.name
            ]
            pos = sum(1 for rid in assigned if revealed[rid])
            new_states.append(update_arm(state, pos, len(assigned) - pos))
        arm_states = new_states

        if policy.retrain_on == "exploration_only":
            rows = rows[len(selection.exploit_ids):]
        if len(rows):
            labeled_X.append(X[rows])
            labeled_y.append(y[rows])
            labeled_periods.append(period)

        trace.periods.append(
            PeriodRecord(
                period=period,
                pool_size=len(ids),
                pool_positives=int(y.sum()),
                selection=selection,
                revealed=revealed,
                recall=rec,
                precision=prec,
                f1=f1,
                model_version=version,
                arm_posteriors={s.name: (s.alpha, s.beta) for s in arm_states},
                events=events,
            )
        )

        is_last = step == len(weeks)
        if retrain_every and step % retrain_every == 0 and not is_last and labeled_X:
            X_train = np.vstack(labeled_X)
            y_train = np.concatenate(labeled_y)
            try:
                model = train(X_train, y_train, retrain_kind, train_config)
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


def train_eval_split_experiment(
    cohort: Cohort,
    train_weeks_a: Sequence[int],
    train_weeks_b: Sequence[int],
    eval_weeks: Sequence[int],
    capacities: Sequence[int],
    *,
    kind: ModelKind = ModelKind.POLY2,
    train_config: TrainConfig | None = None,
    seed: int = 0,
) -> list[dict]:
    """Train one model per time frame, compare recall@k on later weeks.

    Rows: {"k", "recall_a", "recall_b"} with recall averaged over the
    evaluation weeks. Evaluation weeks may not intersect either training
    range (that would leak evaluation labels into training).
    """
    a, b, ev = set(train_weeks_a), set(train_weeks_b), set(eval_weeks)
    if not a or not b or not ev:
        raise ValueError("week ranges must be non-empty")
    overlap = (a | b) & ev
    if overlap:
        raise OverlapError(f"evaluation weeks overlap a training range: {sorted(overlap)}")

    def fit(weeks: list[int]) -> RiskModel:
        sub = cohort.subset_weeks(weeks)
        if len(sub) == 0:
            raise ValueError(f"no records in training weeks {weeks}")
        X = np.vstack([sub.week_features(w) for w in sub.weeks])
        y = np.concatenate([sub.week_labels(w) for w in sub.weeks])
        return train(X, y, kind, train_config)

    model_a = fit(sorted(a))
    model_b = fit(sorted(b))
    rows = []
    for k in capacities:
        rows.append(
            {
                "k": int(k),
                "recall_a": mean_weekly_recall(
                    cohort, model_a, k, weeks=sorted(ev),
                    seed=derive_seed(seed, "eval", repr(sorted(a))),
                ),
                "recall_b": mean_weekly_recall(
                    cohort, model_b, k, weeks=sorted(ev),
                    seed=derive_seed(seed, "eval", repr(sorted(b))),
                ),
            }
        )
    return rows
