"""Metrics and statistics: recall/precision/F1 at capacity, per-week Pearson
feature correlations, and bootstrap confidence intervals on mean weekly recall.

The bootstrap resamples each week's pool with replacement to its original
size (per-record, stratified by week), re-ranks the resample with uniform
tie-breaks, and reports the percentile interval of the replicate means
(Efron & Tibshirani, *An Introduction to the Bootstrap*, 1993, ch. 13). It
draws each week's resample as counts of its (rank group, label) cells, the
same law as a row resample at a cost independent of the pool size. The
trained model is never refit inside a replicate: the interval measures
ranking variance under resampling, not training variance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .records import FEATURE_NAMES, N_FEATURES, Cohort
from .policy import dense_rank, rank_candidates
from .scoring import RiskModel, score_matrix
from .seeds import derive_seed

log = logging.getLogger(__name__)


class MetricError(Exception):
    """A metric is undefined for the given inputs."""


def _hits(selected: Sequence[int] | np.ndarray, labels: np.ndarray) -> int:
    """Positives among the selected pool positions; positions must be distinct."""
    selected = np.asarray(selected, dtype=np.int64)
    outside = selected[(selected < 0) | (selected >= len(labels))]
    if len(outside):
        raise MetricError(f"selected positions outside the pool: {sorted(outside.tolist())[:5]}")
    return int(np.count_nonzero(labels[selected]))


def recall_at_k(selected: Sequence[int] | np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the pool's positives captured by the selection.

    ``labels`` is the pool's boolean ground truth and ``selected`` holds
    distinct positions in it. A pool without positives yields 0.0 (logged):
    dropping such periods silently would bias means upward.
    """
    labels = np.asarray(labels, dtype=bool)
    hits = _hits(selected, labels)
    positives = int(np.count_nonzero(labels))
    if not positives:
        log.warning("recall undefined: pool has no positives; reporting 0.0")
        return 0.0
    return hits / positives


def precision_at_k(selected: Sequence[int] | np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the selection that is positive. Empty selection is undefined."""
    if len(selected) == 0:
        raise MetricError("precision undefined for an empty selection")
    return _hits(selected, np.asarray(labels, dtype=bool)) / len(selected)


def f1_at_k(selected: Sequence[int] | np.ndarray, labels: np.ndarray) -> float:
    """Harmonic mean 2PR/(P+R); 0.0 when P + R == 0."""
    p = precision_at_k(selected, labels)
    r = recall_at_k(selected, labels)
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Sample Pearson correlation; constant inputs are an error, not a 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricError(f"need equal-length 1-D sequences, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise MetricError("need at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise MetricError("correlation undefined for a constant sequence")
    return float((xc @ yc) / math.sqrt(sx * sy))


@dataclass
class CorrelationTable:
    """Per-week, per-feature Pearson correlation with the positive label.

    Cells where the feature (or the label) is constant within the week are
    NaN and excluded from the per-feature median.
    """

    weeks: tuple[int, ...]
    features: tuple[str, ...]
    values: np.ndarray  # (n_weeks, n_features), NaN marks undefined cells

    def median_by_feature(self) -> dict[str, float]:
        out = {}
        for j, name in enumerate(self.features):
            column = self.values[:, j]
            defined = column[~np.isnan(column)]
            out[name] = float(np.median(defined)) if len(defined) else float("nan")
        return out

    def rows(self) -> list[dict]:
        """The table's CSV rows: one per week, then the ``median`` row; an
        undefined cell is empty."""
        medians = self.median_by_feature()
        table = [*zip(self.weeks, self.values), ("median", [medians[f] for f in self.features])]
        return [{"week": week, **{f: "" if np.isnan(v) else repr(float(v))
                                  for f, v in zip(self.features, values)}}
                for week, values in table]


def weekly_correlations(cohort: Cohort) -> CorrelationTable:
    """Correlate every feature with the positive label, week by week:
    feature j of a record is bit 8 - j of its pattern code."""
    weeks = cohort.weeks
    values = np.full((len(weeks), N_FEATURES), np.nan)
    for i, week in enumerate(weeks):
        patterns = cohort.week_patterns(week)
        y = cohort.week_labels(week).astype(float)
        for j in range(N_FEATURES):
            try:
                values[i, j] = pearson((patterns >> (N_FEATURES - 1 - j)) & 1, y)
            except MetricError:
                pass  # constant cell: stays NaN, excluded from the median
    return CorrelationTable(weeks=weeks, features=FEATURE_NAMES, values=values)


# ---------------------------------------------------------------------------
# Ranked-selection recall over weeks, and the bootstrap interval on its mean.
# ---------------------------------------------------------------------------


def ranked_recall(
    cohort: Cohort,
    model: RiskModel,
    ks: Sequence[int],
    *,
    weeks: Sequence[int] | None = None,
    seed: int = 0,
    stream: tuple[str, ...] = ("week",),
) -> tuple[np.ndarray, np.ndarray]:
    """recall@k and F1@k when the model's top k of each week's pool is tested,
    as two arrays indexed [capacity, week] over ``ks`` and ``weeks``.

    Each pool is scored and ranked once, its ties broken by the stream
    ``derive_seed(seed, *stream, week)``, and capacity k takes the first k
    of that ranking. :func:`top_k` draws one permutation whatever k is, so
    each prefix is the selection a ranking cut at k alone would make. The
    F1 of an empty selection is 0.0, and so are both metrics of a week
    without positives, which is logged once.
    """
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    recall = np.zeros((len(ks), len(weeks)))
    f1 = np.zeros_like(recall)
    for i, week in enumerate(weeks):
        labels = cohort.week_labels(week)
        if not labels.any():
            log.warning("recall undefined: week %s has no positives; reporting 0.0", week)
            continue
        ranked = rank_candidates(score_matrix(model, cohort.week_patterns(week)),
                                 derive_seed(seed, *stream, week))
        for j, k in enumerate(ks):
            recall[j, i] = recall_at_k(ranked[:k], labels)
            f1[j, i] = f1_at_k(ranked[:k], labels) if k else 0.0
    return recall, f1


def weekly_recall_at_k(cohort: Cohort, model: RiskModel, k: int, *,
                       weeks: Sequence[int] | None = None, seed: int = 0) -> dict[int, float]:
    """recall@k per week when the model's top-k of each week's pool is tested."""
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    recall, _ = ranked_recall(cohort, model, [k], weeks=weeks, seed=seed)
    return dict(zip(weeks, recall[0].tolist()))


def mean_weekly_recall(cohort: Cohort, model: RiskModel, k: int, *,
                       weeks: Sequence[int] | None = None, seed: int = 0) -> float:
    recall, _ = ranked_recall(cohort, model, [k], weeks=weeks, seed=seed)
    return float(np.mean(recall[0]))


@dataclass
class BootstrapResult:
    mean: float
    lo: float
    hi: float
    level: float
    k: int
    replicate_means: list[float] = field(default_factory=list)
    skipped_replicates: int = 0


def _week_cells(rank: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """A week's non-empty (rank group, label) cells, best group first: each
    cell's share of the pool, whether it is positive, and the cell index
    where its group starts and ends."""
    cell, counts = np.unique(rank.astype(np.int64) * 2 + y, return_counts=True)
    cell, counts = cell[::-1], counts[::-1]
    group = cell >> 1
    start = np.searchsorted(-group, -group, side="left")
    stop = np.searchsorted(-group, -group, side="right")
    return counts / len(y), (cell & 1).astype(np.int64), start, stop


def bootstrap_ci(
    cohort: Cohort,
    model: RiskModel,
    k: int,
    replicates: int = 200,
    level: float = 0.95,
    *,
    weeks: Sequence[int] | None = None,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile bootstrap confidence interval on mean weekly recall@k.

    Each replicate resamples every week's pool with replacement to its
    original size and takes the top-k recall of the resample, ties broken
    uniformly at random; the interval runs between the (1 - level)/2 and
    (1 + level)/2 quantiles of the R replicate means, so its width estimates
    the sampling spread of the recall and does not shrink as R grows.
    ``mean`` is the replicate mean.

    The replicate is drawn in cell space, not row by row. Recall depends
    only on how many resampled rows fall in each (rank group, label) cell
    of the week, and on how many positives a uniform tie-break puts first
    in the group the capacity cuts. So each week draws its cell counts with
    one ``rng.multinomial`` over its cells, best group first, and, when the
    cut splits a group holding both labels, the positives among the group's
    first m rows with one ``rng.hypergeometric``. That is the law of a row
    resample followed by a uniform shuffle, at a cost that does not depend
    on the pool size. Replicates are seeded by replicate index, so a
    parallel run would reproduce the serial result. A week whose draw holds
    no positives reads 0.0 and draws no tie-break; a replicate with no
    positives in any week is skipped and counted.
    """
    if replicates < 2:
        raise MetricError("need at least 2 bootstrap replicates")
    if not 0.0 < level < 1.0:
        raise MetricError("confidence level must lie in (0, 1)")
    if k < 0:
        raise MetricError(f"k must be >= 0, got {k}")
    weeks = tuple(weeks) if weeks is not None else cohort.weeks

    # Scores per record are fixed by the model: group each week once.
    per_week = []
    for week in weeks:
        y = cohort.week_labels(week)
        rank = dense_rank(score_matrix(model, cohort.week_patterns(week)))
        per_week.append((len(y), *_week_cells(rank, y)))

    means: list[float] = []
    skipped = 0
    for r in range(replicates):
        rng = np.random.default_rng(derive_seed(seed, "bootstrap", r))
        week_recalls = []
        any_positive = False
        for n, share, positive, start, stop in per_week:
            drawn = rng.multinomial(n, share)
            hits = (drawn * positive).cumsum()  # positives in the cells up to each
            positives = int(hits[-1])
            if not positives:
                week_recalls.append(0.0)
                continue
            any_positive = True
            taken = drawn.cumsum()
            cut = taken.searchsorted(k, side="right")  # the cell of row k + 1
            if cut == len(taken):
                week_recalls.append(1.0)
                continue
            a, b = start[cut], stop[cut]
            before, found = (int(taken[a - 1]), int(hits[a - 1])) if a else (0, 0)
            pos = int(hits[b - 1]) - found
            neg = int(taken[b - 1]) - before - pos
            m = k - before  # rows taken from the cut group
            if m and pos and neg:
                found += int(rng.hypergeometric(pos, neg, m))
            elif not neg:
                found += m
            week_recalls.append(found / positives)
        if not any_positive:
            skipped += 1
            log.warning("bootstrap replicate %d skipped: no positives in any week", r)
            continue
        means.append(float(np.mean(week_recalls)))

    if len(means) < 2:
        raise MetricError("fewer than 2 usable bootstrap replicates")
    lo, hi = np.quantile(means, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return BootstrapResult(
        mean=float(np.mean(means)),
        lo=float(lo),
        hi=float(hi),
        level=level,
        k=k,
        replicate_means=means,
        skipped_replicates=skipped,
    )


def weekly_recall_table(cohort: Cohort, model: RiskModel, ks: Sequence[int], *,
                        weeks: Sequence[int] | None = None, seed: int = 0) -> list[dict]:
    """Rows keyed by week with one recall column per capacity."""
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    recall, _ = ranked_recall(cohort, model, ks, weeks=weeks, seed=seed)
    return [{"week": week, "n_tests": int(len(cohort.week_ids(week))),
             **{f"recall@{k}": r for k, r in zip(ks, column)}}
            for week, column in zip(weeks, recall.T.tolist())]


def model_comparison_table(cohort: Cohort, models: Mapping[str, RiskModel], ks: Sequence[int],
                           *, weeks: Sequence[int] | None = None, seed: int = 0) -> list[dict]:
    """One row per model: mean weekly recall and F1 at each capacity."""
    rows = []
    for name, model in models.items():
        recall, f1 = ranked_recall(cohort, model, ks, weeks=weeks, seed=seed,
                                   stream=("cmp", name))
        row: dict = {"model": name}
        for k, r, f in zip(ks, recall, f1):
            # One 1-D mean per capacity: a mean over an axis of the 2-D array
            # adds the weeks in another order, which can change the last bit.
            row[f"recall@{k}"] = float(np.mean(r))
            row[f"f1@{k}"] = float(np.mean(f))
        rows.append(row)
    return rows
