"""Ranked-selection metrics against a reference computation.

The reference below is independent of the cell counts. It scores each
record's feature row on its own and keeps pools as dicts and sets over
record ids. When the model's top k of a pool is tested, ties in uniform
random order, a record is tested with probability 1 if its score beats the
group of tied scores that row k falls in, m/n_g if it is in that group (m of
the group's n_g rows are taken), and 0 otherwise. Expected hits sum those
probabilities over the positives as exact fractions, and the tables must
reproduce the reference exactly (the same floats). The bootstrap draws its
resamples as cell counts, not rows, and takes the mean over tie orders, so it
matches its row-level reference in mean, and exactly where the law is
degenerate.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from banditriage import records
from banditriage.evaluate import (
    bootstrap_ci,
    mean_weekly_recall,
    model_comparison_table,
    weekly_recall_at_k,
    weekly_recall_table,
)
from banditriage.scoring import ModelKind, TrainConfig, rule_based_model, train
from banditriage.seeds import derive_seed
from banditriage.synthgen import generate_cohort, planted_model

from conftest import row_wise_scores, small_params

N_PER_WEEK = 200
EMPTY_WEEK = 3  # every record of this week is relabelled negative
#: A mean over 8 or more weeks is where numpy's pairwise sum, which the
#: reference's list means use, and a running sum add in different orders.
LONG_WEEKS = (1, 9)


def ref_inclusion(scores, k):
    """Each record's probability of being among the first k of the ranking,
    by record id. Equal scores (-0.0 and 0.0 too) tie, and NaN ranks last."""
    groups = {}
    for record_id, score in scores.items():
        groups.setdefault("nan" if math.isnan(score) else score, []).append(record_id)
    order = sorted((g for g in groups if g != "nan"), reverse=True) + ["nan"] * ("nan" in groups)
    chance, left = {}, k
    for key in order:
        members = groups[key]
        taken = min(left, len(members))
        chance.update(dict.fromkeys(members, Fraction(taken, len(members))))
        left -= taken
    return chance


def ref_metrics(model, cohort, week, k):
    """(recall@k, F1@k) of the week's pool, each an expectation over tie orders."""
    ids = cohort.week_ids(week).tolist()
    X = records.PATTERN_FEATURES[cohort.week_patterns(week)]
    scores = dict(zip(ids, row_wise_scores(model, X).tolist()))
    pool = dict(zip(ids, cohort.week_labels(week).tolist()))
    positives = {i for i, positive in pool.items() if positive}
    if not positives:
        return 0.0, 0.0
    chance = ref_inclusion(scores, k)
    hits = sum(chance[i] for i in positives)
    return (float(hits / len(positives)),
            float(2 * hits / (min(k, len(pool)) + len(positives))))


def ref_weekly_recall(cohort, model, k):
    return {week: ref_metrics(model, cohort, week, k)[0] for week in cohort.weeks}


def ref_comparison(cohort, models, ks):
    rows = []
    for name, model in models.items():
        row = {"model": name}
        for k in ks:
            recalls, f1s = zip(*(ref_metrics(model, cohort, week, k) for week in cohort.weeks))
            row[f"recall@{k}"] = float(np.mean(recalls))
            row[f"f1@{k}"] = float(np.mean(f1s))
        rows.append(row)
    return rows


def ref_bootstrap_means(cohort, model, k, replicates, seed):
    """Replicate means of a row resample with a float sort of every
    resample's scores, ties broken by a uniform shuffle. :func:`bootstrap_ci`
    takes the mean over the shuffle in place of drawing it, so its replicate
    means share this mean."""
    per_week = [
        (row_wise_scores(model, records.PATTERN_FEATURES[cohort.week_patterns(w)]),
         cohort.week_labels(w))
        for w in cohort.weeks
    ]
    means = []
    for r in range(replicates):
        rng = np.random.default_rng(derive_seed(seed, "bootstrap", r))
        week_recalls = []
        any_positive = False
        for scores, y in per_week:
            n = len(y)
            idx = rng.integers(0, n, size=n)
            s_res, y_res = scores[idx], y[idx]
            n_pos = int(y_res.sum())
            if n_pos == 0:
                week_recalls.append(0.0)
                continue
            any_positive = True
            perm = rng.permutation(n)
            top = perm[np.argsort(-s_res[perm], kind="stable")][: min(k, n)]
            week_recalls.append(float(y_res[top].sum()) / n_pos)
        if any_positive:
            means.append(float(np.mean(week_recalls)))
    return means


def _with_empty_week(base):
    in_empty_week = np.array([d.isocalendar()[1] == EMPTY_WEEK for d in base.test_date.tolist()])
    out = replace(base, result=np.where(in_empty_week, records.TestResult.NEGATIVE, base.result))
    assert out.week_labels(EMPTY_WEEK).sum() == 0
    return out


def _cohort(weeks, seed):
    return _with_empty_week(
        generate_cohort(small_params(n_per_week=N_PER_WEEK, weeks=weeks, seed=seed)))


def _models(cohort):
    X = np.concatenate([cohort.week_patterns(w) for w in (1, 2)])
    y = np.concatenate([cohort.week_labels(w) for w in (1, 2)])
    return {
        "rule_based": rule_based_model(),  # integer scores: many ties
        "planted": planted_model(small_params()),
        "poly2": train(X, y, ModelKind.POLY2, TrainConfig()),
    }


@pytest.fixture(scope="module")
def cohort():
    return _cohort((1, 4), 23)


@pytest.fixture(scope="module")
def models(cohort):
    return _models(cohort)


KS = (10, 150, N_PER_WEEK, N_PER_WEEK + 50)


# The tables draw nothing, so the parameter varies the cohort instead.
@pytest.mark.parametrize("cohort_seed", [0, 1, 7])
def test_weekly_recall_matches_reference(cohort_seed):
    cohort = _cohort((1, 4), 23 + cohort_seed)
    for model in _models(cohort).values():
        for k in KS:
            assert weekly_recall_at_k(cohort, model, k) == ref_weekly_recall(cohort, model, k)


@pytest.mark.parametrize("cohort_seed", [0, 1, 7])
def test_model_comparison_matches_reference(cohort_seed):
    cohort = _cohort((1, 4), 23 + cohort_seed)
    models = _models(cohort)
    assert model_comparison_table(cohort, models, KS) == ref_comparison(cohort, models, KS)


#: Replicates per side of the mean check, and its bound in standard errors.
LAW_REPLICATES = 2000
LAW_BOUND = 4.0


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("k", [10, N_PER_WEEK, N_PER_WEEK + 50])
def test_bootstrap_replicates_match_reference(cohort, models, seed, k):
    """Where k covers the pool, every week with positives reads 1.0 whatever
    is drawn, so the replicate means equal the reference's exactly. A
    smaller k is checked in mean: the two mean replicate recalls agree within
    LAW_BOUND combined standard errors."""
    for model in models.values():
        if k >= N_PER_WEEK:
            result = bootstrap_ci(cohort, model, k, replicates=12, seed=seed)
            assert result.replicate_means == ref_bootstrap_means(cohort, model, k, 12, seed)
            continue
        got = bootstrap_ci(cohort, model, k, replicates=LAW_REPLICATES, seed=seed).replicate_means
        want = ref_bootstrap_means(cohort, model, k, LAW_REPLICATES, seed)
        se = np.sqrt(np.var(got, ddof=1) / len(got) + np.var(want, ddof=1) / len(want))
        assert abs(np.mean(got) - np.mean(want)) <= LAW_BOUND * se


@pytest.mark.parametrize("cohort_seed", [0, 1, 7])
def test_means_over_many_weeks_match_reference(cohort_seed):
    long_cohort = _cohort(LONG_WEEKS, 29 + cohort_seed)
    models = _models(long_cohort)
    assert model_comparison_table(long_cohort, models, KS) == ref_comparison(
        long_cohort, models, KS
    )
    for model in models.values():
        for k in KS:
            reference = ref_weekly_recall(long_cohort, model, k)
            assert mean_weekly_recall(long_cohort, model, k) == float(
                np.mean(list(reference.values()))
            )


def test_week_without_positives_reads_zero_and_is_logged_once(cohort, models, caplog):
    rows = weekly_recall_table(cohort, models["planted"], KS)
    empty = next(row for row in rows if row["week"] == EMPTY_WEEK)
    assert all(empty[f"recall@{k}"] == 0.0 for k in KS)
    warnings = [r.getMessage() for r in caplog.records if "no positives" in r.getMessage()]
    assert warnings == [f"recall undefined: week {EMPTY_WEEK} has no positives; reporting 0.0"]
