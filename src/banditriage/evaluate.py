"""Metrics and statistics: recall and F1 at capacity, per-week feature
correlations, and bootstrap confidence intervals on mean weekly recall.

Every metric reads a week as its pattern-count table, not its rows, and is a
ratio of integer counts, divided once. Recall and F1 at capacity k are exact
means over tie orders, read off the table's cells under the model's scores of
the 512 codes; no tie-break is drawn. Weekly correlations are phi coefficients.

The bootstrap resamples each week's pool with replacement to its original
size (per-record, stratified by week), draws the resample as counts of the
same cells, reads its recall by the same rule, and reports the percentile
interval of the replicate means (Efron & Tibshirani, *An Introduction to the
Bootstrap*, 1993, ch. 13). The trained model is never refit inside a
replicate: the interval measures ranking variance under resampling, not
training variance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .records import FEATURE_NAMES, N_FEATURES, PATTERN_FEATURES, Cohort
from .scoring import PATTERN_CODES, RiskModel, score_matrix
from .seeds import derive_seed

log = logging.getLogger(__name__)


class MetricError(Exception):
    """A metric is undefined for the given inputs."""


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


#: Row c holds the features of pattern code c, as integers.
_PATTERN_BITS = PATTERN_FEATURES.astype(np.int64)


def weekly_correlations(cohort: Cohort) -> CorrelationTable:
    """Correlate every feature with the positive label, week by week.

    Both columns are 0/1, so Pearson's r is the phi coefficient of the
    feature's 2×2 table with the label (Yule, 1912). A week of n records and
    P positives, n1 of them showing the feature and n11 of those positive,
    reads r = (n·n11 - n1·P) / (√(n1(n - n1))·√(P(n - P))), with every count
    read off the week's (pattern code, label) count table. The
    counts and products are exact integers; the two roots are taken apart,
    as their product passes int64 in a week of 2**17 records. A cell whose
    denominator is 0, where the feature or the label is constant in the
    week, is NaN.
    """
    weeks = cohort.weeks
    values = np.full((len(weeks), N_FEATURES), np.nan)
    for i, week in enumerate(weeks):
        counts = cohort.week_counts(week)
        n, p = int(counts.sum()), int(counts[:, 1].sum())
        n1, n11 = counts.sum(axis=1) @ _PATTERN_BITS, counts[:, 1] @ _PATTERN_BITS
        denominator = np.sqrt(n1 * (n - n1)) * np.sqrt(p * (n - p))
        np.divide(n * n11 - n1 * p, denominator, out=values[i], where=denominator > 0)
    return CorrelationTable(weeks=weeks, features=FEATURE_NAMES, values=values)


# ---------------------------------------------------------------------------
# Ranked-selection recall over weeks, and the bootstrap interval on its mean.
# ---------------------------------------------------------------------------


def score_cells(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """A pool's (score group, label) cells: one [negatives, positives] row
    per group of equal scores, best group first, where unit u of the pool (a
    code of a count table, or a record) scores ``scores[u]`` and holds
    ``counts[u]`` rows. Units with no rows make no group. Equal scores (-0.0
    and 0.0 included) share a group; NaN scores form the last group, as
    :func:`banditriage.policy.rank_candidates` ranks them last."""
    present = counts.any(axis=1)
    values, group = np.unique(-scores[present], return_inverse=True)  # NaN last, as one value
    cells = np.zeros((len(values), 2), dtype=np.int64)
    np.add.at(cells, group, counts[present])
    return cells


def _expected_recall(cells: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """recall@k and F1@k when the first k rows of a pool with this
    :func:`score_cells` table are tested, each the mean over every order of
    its ties. ``cells`` is one table, cut at every entry of ``k``, or a
    stack of tables, one a pool, each cut at its entry of ``k``. No k
    exceeds its pool's size.

    Row k falls in group g, of n_g rows and p_g positives, and m of them are
    taken. Every tie order takes the positives of the groups above g, and
    takes m·p_g/n_g of g's positives on average. So E[hits] is their sum,
    recall is E[hits]/P and F1 is 2·E[hits]/(k + P), since F1 is linear in
    the hits. Both are single divisions of integers, so each is the exact
    value rounded once. Both read 0.0 for a pool without positives.
    """
    cells = cells.reshape(-1, *cells.shape[-2:])
    taken = np.pad(cells.sum(axis=2).cumsum(axis=1), ((0, 0), (1, 0)))  # rows above each group
    found = np.pad(cells[:, :, 1].cumsum(axis=1), ((0, 0), (1, 0)))
    pool = np.arange(len(taken))
    g = np.count_nonzero(taken[:, 1:] < k[:, None], axis=1)  # the first group reaching row k
    # An empty group (a bootstrap draw) is cut only at k = 0, where m = 0.
    n_g = np.maximum(taken[pool, g + 1] - taken[pool, g], 1)
    hits = found[pool, g] * n_g + (k - taken[pool, g]) * (found[pool, g + 1] - found[pool, g])
    total = np.maximum(found[:, -1], 1)
    return hits / (n_g * total), 2 * hits / (n_g * (k + total))  # hits is n_g·E[hits]


def ranked_recall(
    cohort: Cohort,
    model: RiskModel,
    ks: Sequence[int],
    *,
    weeks: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """recall@k and F1@k when the model's top k of each week's pool is tested,
    as two arrays indexed [capacity, week] over ``ks`` and ``weeks``.

    Each is the exact mean over every order of the pool's tied scores (see
    :func:`_expected_recall`), read off the week's :func:`score_cells` under
    the model's 512 code scores, once whatever the capacities; no random
    number is drawn. Both metrics of a week without positives are 0.0, logged once.
    """
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    if not weeks:
        raise MetricError("no weeks to evaluate")
    if any(k < 0 for k in ks):
        raise MetricError(f"k must be >= 0, got {min(ks)}")
    recall = np.zeros((len(ks), len(weeks)))
    f1 = np.zeros_like(recall)
    scores = score_matrix(model, PATTERN_CODES)
    for i, week in enumerate(weeks):
        counts = cohort.week_counts(week)
        if not counts[:, 1].any():
            log.warning("recall undefined: week %s has no positives; reporting 0.0", week)
            continue
        capped = np.array([min(k, int(counts.sum())) for k in ks], dtype=np.int64)
        recall[:, i], f1[:, i] = _expected_recall(score_cells(scores, counts), capped)
    return recall, f1


def weekly_recall_at_k(cohort: Cohort, model: RiskModel, k: int, *,
                       weeks: Sequence[int] | None = None) -> dict[int, float]:
    """recall@k per week when the model's top-k of each week's pool is tested."""
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    recall, _ = ranked_recall(cohort, model, [k], weeks=weeks)
    return dict(zip(weeks, recall[0].tolist()))


def mean_weekly_recall(cohort: Cohort, model: RiskModel, k: int, *,
                       weeks: Sequence[int] | None = None) -> float:
    recall, _ = ranked_recall(cohort, model, [k], weeks=weeks)
    return float(np.mean(recall[0]))


#: Replicates drawn at a time by :func:`bootstrap_ci`, which bounds its memory.
_REPLICATE_BLOCK = 256


@dataclass
class BootstrapResult:
    mean: float
    lo: float
    hi: float
    level: float
    k: int
    replicate_means: list[float] = field(default_factory=list)
    skipped_replicates: int = 0


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
    original size and takes the top-k recall of the resample; the interval
    runs between the (1 - level)/2 and (1 + level)/2 quantiles of the R
    replicate means, so its width estimates the sampling spread of the
    recall and does not shrink as R grows. ``mean`` is the replicate mean.

    The replicate is drawn in cell space, not row by row. Recall depends
    only on how many resampled rows fall in each of the week's
    :func:`score_cells`, so each week draws its cell counts with one
    ``rng.multinomial``, the law of a row resample. It reads the recall off
    them by the tables' rule, the mean over tie orders, in place of drawing
    a tie order (Rao-Blackwellisation: Blackwell, 1947), so the replicate
    keeps the mean of a row resample followed by a uniform shuffle. A
    replicate thus draws once per week whatever k is, at a cost that does
    not depend on the pool size. Replicates are seeded by replicate index,
    so a parallel run would reproduce the serial result. A week whose draw
    holds no positives reads 0.0; a replicate with no positives in any week
    is skipped and counted, and one warning gives the count. Weeks with no
    positive at all raise :class:`MetricError` before any draw.
    """
    if replicates < 2:
        raise MetricError("need at least 2 bootstrap replicates")
    if not 0.0 < level < 1.0:
        raise MetricError("confidence level must lie in (0, 1)")
    if k < 0:
        raise MetricError(f"k must be >= 0, got {k}")
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    if not weeks:
        raise MetricError("no weeks to evaluate")

    # Scores per code are fixed by the model: group each week's table once.
    # Only the non-empty cells (each group's positive, then negative) are drawn.
    scores, per_week, n_positive = score_matrix(model, PATTERN_CODES), [], 0
    for week in weeks:
        cells = score_cells(scores, cohort.week_counts(week))[:, ::-1].ravel()
        n, nonempty = int(cells.sum()), np.flatnonzero(cells)
        per_week.append((n, len(cells), nonempty, cells[nonempty] / n))
        n_positive += int(cells[::2].sum())
    if not n_positive:
        raise MetricError("no positives in the evaluated weeks, so recall is undefined")

    means: list[float] = []
    skipped = 0
    for first in range(0, replicates, _REPLICATE_BLOCK):
        block = range(first, min(first + _REPLICATE_BLOCK, replicates))
        rngs = [np.random.default_rng(derive_seed(seed, "bootstrap", r)) for r in block]
        recalls = np.empty((len(block), len(per_week)))  # one replicate a row
        any_positive = np.zeros(len(block), dtype=bool)
        for w, (n, size, nonempty, share) in enumerate(per_week):
            drawn = np.zeros((len(block), size), dtype=np.int64)
            drawn[:, nonempty] = [rng.multinomial(n, share) for rng in rngs]
            drawn = drawn.reshape(len(block), -1, 2)
            any_positive |= drawn[:, :, 0].any(axis=1)
            recalls[:, w] = _expected_recall(drawn[:, :, ::-1], np.full(len(block), min(k, n)))[0]
        for used, mean in zip(any_positive, recalls.mean(axis=1).tolist()):
            if used:
                means.append(mean)
            else:
                skipped += 1
    if skipped:
        log.warning("%d of %d bootstrap replicates skipped: no positives in any week",
                    skipped, replicates)

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
                        weeks: Sequence[int] | None = None) -> list[dict]:
    """Rows keyed by week with one recall column per capacity."""
    weeks = tuple(weeks) if weeks is not None else cohort.weeks
    recall, _ = ranked_recall(cohort, model, ks, weeks=weeks)
    return [{"week": week, "n_tests": int(cohort.week_counts(week).sum()),
             **{f"recall@{k}": r for k, r in zip(ks, column)}}
            for week, column in zip(weeks, recall.T.tolist())]


def model_comparison_table(cohort: Cohort, models: Mapping[str, RiskModel], ks: Sequence[int],
                           *, weeks: Sequence[int] | None = None) -> list[dict]:
    """One row per model: mean weekly recall and F1 at each capacity."""
    rows = []
    for name, model in models.items():
        recall, f1 = ranked_recall(cohort, model, ks, weeks=weeks)
        row: dict = {"model": name}
        for k, r, f in zip(ks, recall, f1):
            # One 1-D mean per capacity: a mean over an axis of the 2-D array
            # adds the weeks in another order, which can change the last bit.
            row[f"recall@{k}"] = float(np.mean(r))
            row[f"f1@{k}"] = float(np.mean(f))
        rows.append(row)
    return rows
