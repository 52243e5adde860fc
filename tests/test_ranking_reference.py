"""Ranked-selection metrics against a reference computation.

The reference below is the earlier, independent implementation: each caller
scored each record's feature row on its own, did its own seeded shuffle,
stable argsort and top-k step, and counted recall through dict/set pools
over record ids. The shared top-k primitive
must reproduce it exactly (same random draws, same floats). The bootstrap
draws its resamples as cell counts, not rows, so it matches its row-level
reference in law, and exactly where the law is degenerate.
"""

from __future__ import annotations

from dataclasses import replace

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


def ref_rank(model, ids, X, seed):
    scores = row_wise_scores(model, X)
    rng = np.random.default_rng(derive_seed(seed, "rank"))
    perm = rng.permutation(len(ids))
    order = np.argsort(-scores[perm], kind="stable")
    return ids[perm[order]]


def ref_recall(selected, pool):
    positives = {i for i, positive in pool.items() if positive}
    if not positives:
        return 0.0
    return len(selected & positives) / len(positives)


def ref_f1(selected, pool):
    positives = {i for i, positive in pool.items() if positive}
    p = len(selected & positives) / len(selected)
    r = ref_recall(selected, pool)
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def ref_selected(model, cohort, week, k, seed):
    ids = cohort.week_ids(week)
    ranked = ref_rank(model, ids, records.PATTERN_FEATURES[cohort.week_patterns(week)], seed)
    pool = dict(zip(ids.tolist(), cohort.week_labels(week).tolist()))
    return set(ranked[: min(k, len(ranked))].tolist()), pool


def ref_weekly_recall(cohort, model, k, seed):
    out = {}
    for week in cohort.weeks:
        selected, pool = ref_selected(model, cohort, week, k, derive_seed(seed, "week", week))
        out[week] = ref_recall(selected, pool)
    return out


def ref_comparison(cohort, models, ks, seed):
    rows = []
    for name, model in models.items():
        row = {"model": name}
        for k in ks:
            recalls, f1s = [], []
            for week in cohort.weeks:
                selected, pool = ref_selected(
                    model, cohort, week, k, derive_seed(seed, "cmp", name, week)
                )
                recalls.append(ref_recall(selected, pool))
                f1s.append(ref_f1(selected, pool) if selected else 0.0)
            row[f"recall@{k}"] = float(np.mean(recalls))
            row[f"f1@{k}"] = float(np.mean(f1s))
        rows.append(row)
    return rows


def ref_bootstrap_means(cohort, model, k, replicates, seed):
    """Replicate means of a row resample with a float sort of every
    resample's scores, ties broken by a uniform shuffle: the law that
    :func:`bootstrap_ci`'s cell draws must follow."""
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


@pytest.fixture(scope="module")
def cohort():
    return _with_empty_week(
        generate_cohort(small_params(n_per_week=N_PER_WEEK, weeks=(1, 4), seed=23)))


@pytest.fixture(scope="module")
def long_cohort():
    return _with_empty_week(
        generate_cohort(small_params(n_per_week=N_PER_WEEK, weeks=LONG_WEEKS, seed=29)))


@pytest.fixture(scope="module")
def models(cohort):
    X = np.concatenate([cohort.week_patterns(w) for w in (1, 2)])
    y = np.concatenate([cohort.week_labels(w) for w in (1, 2)])
    return {
        "rule_based": rule_based_model(),  # integer scores: many ties
        "planted": planted_model(small_params()),
        "poly2": train(X, y, ModelKind.POLY2, TrainConfig()),
    }


KS = (10, 150, N_PER_WEEK, N_PER_WEEK + 50)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_weekly_recall_matches_reference(cohort, models, seed):
    for model in models.values():
        for k in KS:
            assert weekly_recall_at_k(cohort, model, k, seed=seed) == ref_weekly_recall(
                cohort, model, k, seed
            )


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_model_comparison_matches_reference(cohort, models, seed):
    assert model_comparison_table(cohort, models, KS, seed=seed) == ref_comparison(
        cohort, models, KS, seed
    )


#: Replicates per side of the law check, and its bound in standard errors.
LAW_REPLICATES = 2000
LAW_BOUND = 4.0


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("k", [10, N_PER_WEEK, N_PER_WEEK + 50])
def test_bootstrap_replicates_match_reference(cohort, models, seed, k):
    """Where k covers the pool, every week with positives reads 1.0 whatever
    is drawn, so the replicate means equal the reference's exactly. A
    smaller k is checked in law: the two mean replicate recalls agree within
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


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_means_over_many_weeks_match_reference(long_cohort, models, seed):
    assert model_comparison_table(long_cohort, models, KS, seed=seed) == ref_comparison(
        long_cohort, models, KS, seed
    )
    for model in models.values():
        for k in KS:
            reference = ref_weekly_recall(long_cohort, model, k, seed)
            assert mean_weekly_recall(long_cohort, model, k, seed=seed) == float(
                np.mean(list(reference.values()))
            )


def test_week_without_positives_reads_zero_and_is_logged_once(cohort, models, caplog):
    rows = weekly_recall_table(cohort, models["planted"], KS, seed=0)
    empty = next(row for row in rows if row["week"] == EMPTY_WEEK)
    assert all(empty[f"recall@{k}"] == 0.0 for k in KS)
    warnings = [r.getMessage() for r in caplog.records if "no positives" in r.getMessage()]
    assert warnings == [f"recall undefined: week {EMPTY_WEEK} has no positives; reporting 0.0"]
