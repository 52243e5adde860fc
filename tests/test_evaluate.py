from __future__ import annotations

import itertools
import logging
import math
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditriage.evaluate import (
    MetricError,
    _expected_recall,
    bootstrap_ci,
    f1_at_k,
    mean_weekly_recall,
    pearson,
    precision_at_k,
    ranked_recall,
    recall_at_k,
    score_cells,
    weekly_correlations,
    weekly_recall_at_k,
    weekly_recall_table,
)
from banditriage.policy import rank_candidates
from banditriage.records import FEATURE_NAMES
from banditriage.scoring import rule_based_model, score_matrix
from banditriage.seeds import derive_seed
from banditriage.synthgen import generate_cohort, planted_model, resolve_scenario

from conftest import small_params


# Pool labels by position: positions 0-3 positive, 4-7 negative.
POOL = np.array([True, True, True, True, False, False, False, False])


class TestRecall:
    def test_three_of_four_positives(self):
        assert recall_at_k([0, 1, 2, 4], POOL) == 0.75

    def test_empty_selection(self):
        assert recall_at_k([], POOL) == 0.0

    def test_no_positives_logs_zero(self, caplog):
        with caplog.at_level("WARNING"):
            value = recall_at_k([0], np.array([False, False]))
        assert value == 0.0
        assert "no positives" in caplog.text

    def test_selected_outside_pool(self):
        with pytest.raises(MetricError):
            recall_at_k([99], POOL)
        with pytest.raises(MetricError):
            recall_at_k([-1], POOL)

    def test_monotone_under_superset_growth(self):
        rng = np.random.default_rng(0)
        prev = 0.0
        chosen: list[int] = []
        for i in rng.permutation(len(POOL)):
            chosen.append(int(i))
            now = recall_at_k(chosen, POOL)
            assert now >= prev
            prev = now


class TestPrecisionF1:
    def test_perfect(self):
        assert precision_at_k([0, 1, 2, 3], POOL) == 1.0
        assert f1_at_k([0, 1, 2, 3], POOL) == 1.0

    def test_zero_precision_gives_zero_f1(self):
        assert precision_at_k([4, 5], POOL) == 0.0
        assert f1_at_k([4, 5], POOL) == 0.0

    def test_empty_selection_undefined(self):
        with pytest.raises(MetricError):
            precision_at_k([], POOL)

    def test_published_operating_point(self):
        # precision 0.672 with recall 0.344 must combine to F1 ~ 0.455
        # (the capacity-1000 operating point reported for the pairwise model).
        p, r = 0.672, 0.344
        assert 2 * p * r / (p + r) == pytest.approx(0.455, abs=1e-3)

    def test_f1_identity_against_independent_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            take = rng.integers(1, len(POOL) + 1)
            selected = rng.choice(len(POOL), size=take, replace=False).tolist()
            p = precision_at_k(selected, POOL)
            r = recall_at_k(selected, POOL)
            f1 = f1_at_k(selected, POOL)
            # independent recomputation from raw counts
            tp = len(set(selected) & {0, 1, 2, 3})
            expect = 0.0 if tp == 0 else 2 * (tp / len(selected)) * (tp / 4) / (
                tp / len(selected) + tp / 4
            )
            assert f1 == pytest.approx(expect, abs=1e-12)
            if p + r > 0:
                assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestPearson:
    def test_identical_sequences(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negated_sequences(self):
        x = np.array([1.0, 2.0, 5.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_is_an_error(self):
        with pytest.raises(MetricError):
            pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(MetricError):
            pearson([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.random(200)
        y = 0.4 * x + rng.random(200)
        base = pearson(x, y)
        assert pearson(y, x) == pytest.approx(base, abs=1e-12)
        assert pearson(3.0 * x + 2.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.5 * y - 9.0) == pytest.approx(base, abs=1e-12)

    def test_length_checks(self):
        with pytest.raises(MetricError):
            pearson([1.0], [2.0])
        with pytest.raises(MetricError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestWeeklyCorrelations:
    def test_single_week_median_equals_value(self):
        cohort = generate_cohort(small_params(weeks=(2, 2), n_per_week=2000))
        table = weekly_correlations(cohort)
        assert table.weeks == (2,)
        medians = table.median_by_feature()
        for j, name in enumerate(table.features):
            cell = table.values[0, j]
            if np.isnan(cell):
                assert np.isnan(medians[name])
            else:
                assert medians[name] == cell

    def test_zero_coefficient_feature_near_zero_median(self):
        j = FEATURE_NAMES.index("sore_throat")
        medians = []
        for seed in range(20):
            cohort = generate_cohort(
                small_params(weeks=(1, 2), n_per_week=5000, seed=700 + seed)
            )
            table = weekly_correlations(cohort)
            medians.append(abs(table.median_by_feature()["sore_throat"]))
        assert np.median(medians) < 0.05

    def test_constant_feature_marked_undefined(self):
        cohort = generate_cohort(
            small_params(
                weeks=(1, 1),
                n_per_week=500,
                feature_prevalence=np.array([0.3, 0.3, 0.0, 0.3, 0.3, 0.1, 0.1, 0.8, 0.5]),
            )
        )
        table = weekly_correlations(cohort)
        j = FEATURE_NAMES.index("sore_throat")
        assert np.isnan(table.values[0, j])

    def test_csv_write(self):
        cohort = generate_cohort(small_params(weeks=(1, 2), n_per_week=300))
        rows = weekly_correlations(cohort).rows()
        assert list(rows[0])[0] == "week"
        assert [r["week"] for r in rows] == [1, 2, "median"]


class TestBootstrap:
    def test_constant_statistic_collapses_interval(self):
        # Capacity covers the whole weekly pool, so every replicate's recall
        # is exactly 1.0 and the interval must collapse to the mean.
        cohort = generate_cohort(small_params(weeks=(1, 2), n_per_week=200))
        model = planted_model(small_params())
        res = bootstrap_ci(cohort, model, k=200, replicates=10, seed=4)
        assert res.lo == res.mean == res.hi == 1.0

    def test_interval_brackets_mean(self):
        params = small_params(n_per_week=800)
        cohort = generate_cohort(params)
        model = planted_model(params)
        res = bootstrap_ci(cohort, model, k=80, replicates=10, seed=4)
        assert res.lo <= res.mean <= res.hi
        assert 0.0 <= res.lo and res.hi <= 1.0
        assert len(res.replicate_means) == 10

    def test_interval_is_percentile_of_replicate_means(self):
        params = small_params(n_per_week=500)
        cohort = generate_cohort(params)
        model = planted_model(params)
        res = bootstrap_ci(cohort, model, k=50, replicates=50, level=0.9, seed=3)
        lo, hi = np.quantile(res.replicate_means, [0.05, 0.95])
        assert (res.lo, res.hi) == pytest.approx((lo, hi), rel=1e-12)
        assert res.mean == np.mean(res.replicate_means)

    def test_width_converges_to_positive_value(self):
        # The interval estimates the recall's sampling spread, which does not
        # depend on the replicate count: more replicates refine its width
        # instead of shrinking it toward zero.
        params = small_params(n_per_week=500)
        cohort = generate_cohort(params)
        model = planted_model(params)
        widths_100, widths_300 = [], []
        for seed in range(20):
            w100 = bootstrap_ci(cohort, model, k=50, replicates=100, seed=seed)
            w300 = bootstrap_ci(cohort, model, k=50, replicates=300, seed=seed)
            widths_100.append(w100.hi - w100.lo)
            widths_300.append(w300.hi - w300.lo)
        assert np.median(widths_300) > 0.0
        assert abs(np.median(widths_100) / np.median(widths_300) - 1.0) <= 0.25

    def test_zero_positive_replicates_skipped(self):
        # One tiny week with a single positive: some resamples miss it
        # entirely and must be skipped and counted.
        from conftest import make_record
        from banditriage.records import Cohort, TestResult
        from datetime import date

        recs = [make_record(test_date=date(2020, 3, 9)) for i in range(5)]
        recs[0] = make_record(test_date=date(2020, 3, 9),
                              result=TestResult.POSITIVE)
        cohort = Cohort.from_records(recs)
        model = planted_model(small_params())
        res = bootstrap_ci(cohort, model, k=2, replicates=50, seed=1)
        assert res.skipped_replicates > 0
        assert len(res.replicate_means) + res.skipped_replicates == 50

    def test_skipped_replicates_logged_once(self, caplog):
        from conftest import make_record
        from banditriage.records import Cohort, TestResult

        recs = [make_record(result=TestResult.POSITIVE)] + [make_record()] * 4
        cohort = Cohort.from_records(recs)
        with caplog.at_level(logging.WARNING, logger="banditriage.evaluate"):
            res = bootstrap_ci(cohort, planted_model(small_params()), k=2, replicates=50, seed=1)
        assert [r.getMessage() for r in caplog.records] == [
            f"{res.skipped_replicates} of 50 bootstrap replicates skipped: "
            "no positives in any week"]

    def test_weeks_without_positives_raise_before_drawing(self):
        from conftest import make_record
        from banditriage.records import Cohort

        cohort = Cohort.from_records([make_record()] * 5)
        with pytest.raises(MetricError, match="no positives in the evaluated weeks"):
            bootstrap_ci(cohort, planted_model(small_params()), k=2, replicates=50, seed=1)

    def test_parameter_validation(self):
        cohort = generate_cohort(small_params(weeks=(1, 1), n_per_week=50))
        model = planted_model(small_params())
        with pytest.raises(MetricError):
            bootstrap_ci(cohort, model, k=5, replicates=1)
        with pytest.raises(MetricError):
            bootstrap_ci(cohort, model, k=5, level=1.5)

    def test_zero_capacity_reads_zero(self):
        params = small_params(n_per_week=300)
        cohort = generate_cohort(params)
        res = bootstrap_ci(cohort, planted_model(params), k=0, replicates=10, seed=2)
        assert res.replicate_means == [0.0] * 10
        assert res.lo == res.mean == res.hi == 0.0

    @pytest.mark.parametrize("k", [1, 150, 300, 450, 1000])
    def test_separated_ranking_reads_min_k_p_over_p_of_drawn_counts(self, k):
        # Every positive outranks every negative, so no group holds both
        # labels and a replicate draws one multinomial per week over its
        # (score, label) cells, best first: recall@k is min(k, P)/P of the
        # positives P drawn, and 0.0 when none is.
        params = resolve_scenario("oracle")
        cohort = generate_cohort(params)
        model = planted_model(params)
        cells = []
        for week in cohort.weeks:
            y = cohort.week_labels(week)
            _, group, counts = np.unique(-score_matrix(model, cohort.week_patterns(week)),
                                         return_inverse=True, return_counts=True)
            positive = np.zeros(len(counts), bool)
            positive[group] = y
            cells.append((len(y), counts / len(y), positive))
        expected = []
        for r in range(20):
            rng = np.random.default_rng(derive_seed(5, "bootstrap", r))
            recalls = []
            for n, share, positive in cells:
                drawn = int(rng.multinomial(n, share)[positive].sum())
                recalls.append(min(k, drawn) / drawn if drawn else 0.0)
            expected.append(float(np.mean(recalls)))
        res = bootstrap_ci(cohort, model, k, replicates=20, seed=5)
        assert res.replicate_means == expected

    @pytest.mark.parametrize("k", [1, 20])
    def test_tied_pool_reads_k_over_n_whatever_the_drawn_labels(self, k):
        # Every record has the same features, so each week is one group of
        # two cells, positives first: a replicate draws their counts, and the
        # k rows a tie order puts first hold k/n of the drawn positives on
        # average, which is the week's recall.
        from conftest import make_record
        from banditriage.records import Cohort, TestResult

        recs = [make_record(test_date=date(2020, 3, 9 + 7 * (i // 50)),
                            result=TestResult.POSITIVE if i % 5 == 0 else TestResult.NEGATIVE)
                for i in range(100)]
        cohort = Cohort.from_records(recs)
        expected = []
        for r in range(30):
            rng = np.random.default_rng(derive_seed(3, "bootstrap", r))
            recalls = []
            for _ in cohort.weeks:
                pos, _ = rng.multinomial(50, np.array([10, 40]) / 50)
                recalls.append(k / 50 if pos else 0.0)
            expected.append(float(np.mean(recalls)))
        res = bootstrap_ci(cohort, planted_model(small_params()), k, replicates=30, seed=3)
        assert res.replicate_means == expected

    def test_seeded_replicates_reproducible(self):
        params = small_params(n_per_week=300)
        cohort = generate_cohort(params)
        model = planted_model(params)
        a = bootstrap_ci(cohort, model, k=30, seed=9)
        b = bootstrap_ci(cohort, model, k=30, seed=9)
        assert a.replicate_means == b.replicate_means


class TestPerfectRankerLaw:
    def test_oracle_scenario_exact_recall(self):
        # Saturated planted predictor: labels are a deterministic function of
        # the features and the predictor separates them, so weekly recall@K
        # is exactly min(K, P_w)/P_w.
        params = resolve_scenario("oracle")
        cohort = generate_cohort(params)
        model = planted_model(params)
        positives = cohort.positives_by_week()
        for k in (50, 200, 1000):
            per_week = weekly_recall_at_k(cohort, model, k)
            for week, got in per_week.items():
                assert got == min(k, positives[week]) / positives[week]


class TestWeeklyRecallTable:
    def test_rows_and_columns(self):
        params = small_params()
        cohort = generate_cohort(params)
        model = planted_model(params)
        rows = weekly_recall_table(cohort, model, ks=[10, 40])
        assert [r["week"] for r in rows] == list(cohort.weeks)
        for row in rows:
            assert set(row) == {"week", "n_tests", "recall@10", "recall@40"}
            assert row["recall@10"] <= row["recall@40"]  # monotone in capacity

    def test_each_column_is_weekly_recall_at_its_capacity(self):
        params = small_params()
        cohort = generate_cohort(params)
        model = planted_model(params)
        ks = [1, 25, 120, 400, 900]  # the pools hold 400 candidates
        rows = weekly_recall_table(cohort, model, ks=ks)
        for k in ks:
            column = {row["week"]: row[f"recall@{k}"] for row in rows}
            assert column == weekly_recall_at_k(cohort, model, k)

    def test_mean_weekly_recall_matches_table(self):
        params = small_params()
        cohort = generate_cohort(params)
        model = planted_model(params)
        rows = weekly_recall_table(cohort, model, ks=[25])
        mean = mean_weekly_recall(cohort, model, 25)
        assert mean == pytest.approx(np.mean([r["recall@25"] for r in rows]))

    def test_negative_k_rejected(self):
        # A prefix [:-5] would quietly mean "all but 5".
        cohort = generate_cohort(small_params(weeks=(1, 1), n_per_week=50))
        with pytest.raises(MetricError, match="k must be >= 0"):
            ranked_recall(cohort, rule_based_model(), [10, -5])
        with pytest.raises(MetricError, match="k must be >= 0"):
            weekly_recall_table(cohort, rule_based_model(), [-1])


# Scores with ties, -0.0 against 0.0, +-inf and NaN.
_SCORE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]),
                   st.floats(allow_nan=True, allow_infinity=True))


def _order_key(i, scores):
    """Best first with NaN last; -0.0 and 0.0 tie."""
    s = scores[i]
    return (math.isnan(s), 0.0 if math.isnan(s) else -s)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SCORE, min_size=1, max_size=4), st.data())
def test_exact_metrics_are_the_mean_over_every_tie_order(values, data):
    # Every permutation of the rows, stably sorted by score, is a tie order,
    # and each tie order arises from equally many permutations.
    n = data.draw(st.integers(1, 7))
    scores = [data.draw(st.sampled_from(values)) for _ in range(n)]
    labels = [data.draw(st.booleans()) for _ in range(n)]
    ks = list(range(n + 3))
    hit_sums = [0] * len(ks)
    orders = 0
    for perm in itertools.permutations(range(n)):
        ranked = sorted(perm, key=lambda i: _order_key(i, scores))
        prefix = list(itertools.accumulate((labels[i] for i in ranked), initial=0))
        for j, k in enumerate(ks):
            hit_sums[j] += prefix[min(k, n)]
        orders += 1
    positives = sum(labels)
    want_recall = [float(Fraction(h, orders * positives)) if positives else 0.0
                   for h in hit_sums]
    want_f1 = [float(Fraction(2 * h, orders * (min(k, n) + positives))) if positives else 0.0
               for k, h in zip(ks, hit_sums)]
    recall, f1 = _expected_recall(*score_cells(np.array(scores), np.array(labels)),
                                  np.minimum(ks, n))
    assert recall.tolist() == want_recall
    assert f1.tolist() == want_f1


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCORE, min_size=1, max_size=60), st.data(), st.integers(0, 2**32 - 1))
def test_score_cells_group_as_rank_candidates_ranks(values, data, seed):
    # A pool's scores drawn with repeats, ranked by the selection's seeded
    # ranking: its runs of equal scores (NaN equal to NaN) are the cells'
    # groups, in order, with their positive and negative counts.
    scores = np.array(data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=200)))
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                         max_size=len(scores))))
    order = [_order_key(i, scores.tolist()) for i in range(len(scores))]
    runs = []
    for _, members in itertools.groupby(rank_candidates(scores, seed).tolist(),
                                        key=order.__getitem__):
        members = list(members)
        positives = int(labels[members].sum())
        runs.append((positives, len(members) - positives))
    rows, positives = score_cells(scores, labels)
    assert list(zip(positives.tolist(), (rows - positives).tolist())) == runs


def test_untied_pool_reads_its_sorted_prefix():
    # 40,000 distinct scores: every group holds one row, so recall@k is the
    # share of positives among the k best rows.
    rng = np.random.default_rng(3)
    scores = rng.permutation(40_000) / 7.0
    labels = rng.random(40_000) < 0.1
    ks = np.array([0, 1, 500, 39_999, 40_000, 40_001])
    recall, _ = _expected_recall(*score_cells(scores, labels), np.minimum(ks, 40_000))
    best_first = labels[np.argsort(-scores)]
    assert recall.tolist() == [best_first[:k].sum() / labels.sum() for k in ks]
