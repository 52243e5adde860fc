from __future__ import annotations

import itertools
import logging
import math
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditriage.evaluate import (
    MetricError,
    _expected_recall,
    bootstrap_ci,
    mean_weekly_recall,
    ranked_recall,
    score_cells,
    weekly_correlations,
    weekly_recall_at_k,
    weekly_recall_table,
)
from banditriage.policy import ArmPredicate, ArmSpec, PolicyConfig, Sampler, rank_candidates
from banditriage.records import FEATURE_NAMES, Cohort, Indication, TestResult, pattern_counts
from banditriage.scoring import KIND_FEATURES, ModelKind, RiskModel, rule_based_model, score_matrix
from banditriage.seeds import derive_seed
from banditriage.simulate import PeriodRecord, run_replay
from banditriage.synthgen import generate_cohort, planted_model, resolve_scenario

from conftest import small_params


#: The Monday of ISO week 10 of 2020.
MONDAY = date(2020, 3, 2)
#: Largest |cell - np.corrcoef| measured over 3,000 random cohorts of 1 to 400
#: records a week, and over 60 weeks of 2 to 2**17 records with 1 or n - 1
#: positives or feature holders among them, was 4.7e-15.
CORRELATION_TOL = 1e-14


def cohort_of_weeks(weeks: list[tuple[np.ndarray, ...]]) -> tuple[Cohort, list]:
    """A cohort with one ISO week per entry of ``weeks``, each the columns of
    its records (five 0/1 symptom columns, indication, female, positive), and
    each week's (0/1 feature matrix in FEATURE_NAMES order, labels)."""
    symptoms, indication, female, positive = (np.concatenate(c) for c in zip(*weeks))
    week = np.repeat(np.arange(len(weeks)), [len(w[-1]) for w in weeks])
    cohort = Cohort(
        test_date=np.datetime64(MONDAY) + 7 * week,
        symptoms=symptoms, indication=indication, gender=female,
        result=np.where(positive, TestResult.POSITIVE, TestResult.NEGATIVE))
    return cohort, [(np.column_stack([s, *(i == v for v in Indication), f]).astype(float),
                     p.astype(float)) for s, i, f, p in weeks]


def assert_cells_match_corrcoef(cohort: Cohort, weeks: list) -> None:
    """Each cell is numpy's Pearson r within CORRELATION_TOL, and NaN exactly
    where the feature or the label is constant in the week."""
    values = weekly_correlations(cohort).values
    assert values.shape == (len(weeks), len(FEATURE_NAMES))
    for cells, (X, y) in zip(values, weeks):
        for cell, x in zip(cells, X.T):
            if x.min() == x.max() or y.min() == y.max():
                assert np.isnan(cell)
            else:
                assert abs(cell - np.corrcoef(x, y)[0, 1]) <= CORRELATION_TOL


records_st = st.tuples(st.integers(0, 31), st.sampled_from(list(Indication)), st.booleans(),
                       st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(records_st, min_size=1, max_size=40), min_size=1, max_size=3))
@example([[(0b10100, Indication.ABROAD, True, True)]])  # a one-record week
def test_correlations_are_numpy_pearson(weeks):
    columns = [(np.array([[(bits >> (4 - j)) & 1 for j in range(5)] for bits, *_ in week]),
                np.array([indication for _, indication, _, _ in week]),
                np.array([female for *_, female, _ in week]),
                np.array([positive for *_, positive in week])) for week in weeks]
    assert_cells_match_corrcoef(*cohort_of_weeks(columns))


def test_correlations_of_a_balanced_week_past_int64():
    # n1(n - n1)P(n - P) passes 2**63 for every symptom, so a denominator
    # formed as that product in int64 wraps.
    n = 2**17
    rng = np.random.default_rng(17)
    positive = rng.permutation(n) < n // 2
    symptoms = rng.random((n, 5)) < 0.5
    symptoms[:, 0] = positive ^ (rng.random(n) < 0.3)  # cough goes with the label
    week = (symptoms, rng.integers(0, 3, n), rng.random(n) < 0.5, positive)
    for x in symptoms.T:
        n1 = int(x.sum())
        assert n1 * (n - n1) * (n // 2) ** 2 > 2**63
    cohort, weeks = cohort_of_weeks([week])
    assert_cells_match_corrcoef(cohort, weeks)
    assert weekly_correlations(cohort).values[0, 0] > 0.3


# Pool labels by position: positions 0-3 positive, 4-7 negative.
POOL = np.array([True, True, True, True, False, False, False, False])
#: An arm that no record matches: the indications are one-hot.
NOBODY = ArmSpec("nobody", ArmPredicate.from_text("contact_with_confirmed=1 & abroad=1"))


def replay_period(positive, picked) -> PeriodRecord:
    """The one period of a replay of a single week's pool, labelled by
    ``positive``, in which exactly the pool positions ``picked`` are tested:
    the rule-based model scores them 2 (a contact each) and the rest 0. No
    pick is a Thompson draw over an arm that matches nobody."""
    positive = np.asarray(positive, dtype=bool)
    indication = np.full(len(positive), Indication.OTHER)
    indication[list(picked)] = Indication.CONTACT_WITH_CONFIRMED
    cohort, _ = cohort_of_weeks([(np.zeros((len(positive), 5)), indication,
                                  np.zeros(len(positive)), positive)])
    policy = (PolicyConfig(capacity=len(picked)) if len(picked) else
              PolicyConfig(capacity=1, exploration_fraction=1.0, sampler=Sampler.THOMPSON,
                           arms=(NOBODY,)))
    (period,) = run_replay(cohort, None, policy, retrain_every=0, seed=1).periods
    assert sorted(period.selection.positions.tolist()) == sorted(picked)
    return period


def week_correlations(symptoms, positive) -> np.ndarray:
    """The symptoms' cells of a one-week cohort with these symptom columns
    and labels; its other features are constant."""
    n = len(positive)
    cohort, _ = cohort_of_weeks([(np.asarray(symptoms), np.full(n, Indication.OTHER),
                                  np.zeros(n), np.asarray(positive, dtype=bool))])
    return weekly_correlations(cohort).values[0, :5]


class TestRecall:
    """A replay period's recall: its hits over the pool's positives."""

    def test_three_of_four_positives(self):
        assert replay_period(POOL, [0, 1, 2, 4]).recall == 0.75

    def test_empty_selection(self):
        assert replay_period(POOL, []).recall == 0.0

    def test_no_positives_logs_zero(self, caplog):
        with caplog.at_level("WARNING"):
            value = replay_period([False, False], [0]).recall
        assert value == 0.0
        assert "no positives" in caplog.text

    def test_monotone_under_superset_growth(self):
        order = np.random.default_rng(0).permutation(len(POOL)).tolist()
        recalls = [replay_period(POOL, order[:i]).recall for i in range(len(POOL) + 1)]
        assert recalls == sorted(recalls)


class TestPrecisionF1:
    """A replay period's precision h/k and F1 2h/(k + P), from its hits h,
    picks k and pool positives P."""

    def test_perfect(self):
        period = replay_period(POOL, [0, 1, 2, 3])
        assert period.precision == period.f1 == 1.0

    def test_zero_precision_gives_zero_f1(self):
        period = replay_period(POOL, [4, 5])
        assert period.precision == period.f1 == 0.0

    def test_empty_selection_undefined(self):
        period = replay_period(POOL, [])
        assert period.precision is None and period.f1 is None

    def test_published_operating_point(self):
        # Precision 0.672 with recall 0.344 must combine to F1 ~ 0.455 (the
        # capacity-1000 operating point reported for the pairwise model):
        # 3,612 hits among 5,375 picks, with 10,500 positives in the pool.
        positive = np.arange(13_000) < 10_500
        period = replay_period(positive, [*range(3_612), *range(10_500, 12_263)])
        assert (period.precision, period.recall) == (0.672, 0.344)
        assert period.f1 == pytest.approx(0.455, abs=1e-3)

    def test_f1_identity_against_independent_recomputation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            take = rng.integers(1, len(POOL) + 1)
            selected = rng.choice(len(POOL), size=take, replace=False).tolist()
            period = replay_period(POOL, selected)
            p, r, f1 = period.precision, period.recall, period.f1
            # independent recomputation from raw counts
            tp = len(set(selected) & {0, 1, 2, 3})
            expect = 0.0 if tp == 0 else 2 * (tp / len(selected)) * (tp / 4) / (
                tp / len(selected) + tp / 4
            )
            assert f1 == pytest.approx(expect, abs=1e-12)
            if p + r > 0:
                assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestPearson:
    """A weekly correlation cell is the Pearson r of two 0/1 columns."""

    LABELS = np.array([True, False, True, True, False, False, True, False, False])

    def test_identical_sequences(self):
        symptoms = np.column_stack([self.LABELS, ~self.LABELS, *np.eye(3, 9, dtype=bool)])
        assert week_correlations(symptoms, self.LABELS)[0] == pytest.approx(1.0, abs=1e-12)

    def test_negated_sequences(self):
        symptoms = np.column_stack([self.LABELS, ~self.LABELS, *np.eye(3, 9, dtype=bool)])
        assert week_correlations(symptoms, self.LABELS)[1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_is_an_error(self):
        # An undefined cell is NaN, not 0: a constant feature, or a constant label.
        symptoms = np.column_stack([np.ones(9), np.zeros(9), *np.eye(3, 9)])
        assert np.isnan(week_correlations(symptoms, self.LABELS)[:2]).all()
        assert np.isnan(week_correlations(np.eye(9, 5), np.ones(9, dtype=bool))).all()

    def test_symmetry_and_affine_invariance(self):
        # For 0/1 columns the affine maps are the flips x -> 1 - x: flipping
        # the feature or the label negates r, and flipping both keeps it.
        rng = np.random.default_rng(7)
        symptoms = rng.random((200, 5)) < 0.4
        labels = symptoms[:, 0] ^ (rng.random(200) < 0.3)
        base = week_correlations(symptoms, labels)
        for flipped, want in (((~symptoms, labels), -base), ((symptoms, ~labels), -base),
                              ((~symptoms, ~labels), base)):
            np.testing.assert_allclose(week_correlations(*flipped), want, rtol=0,
                                       atol=CORRELATION_TOL)

    def test_length_checks(self):
        # One record cannot vary: every cell of a one-record week is undefined.
        assert np.isnan(week_correlations([[1, 0, 1, 0, 1]], [True])).all()


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


def one_unit_per_row(labels) -> np.ndarray:
    """The [negatives, positives] counts of each record with these labels."""
    labels = np.asarray(labels, dtype=bool)
    return np.column_stack([~labels, labels]).astype(np.int64)


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
    recall, f1 = _expected_recall(score_cells(np.array(scores), one_unit_per_row(labels)),
                                  np.minimum(ks, n))
    assert recall.tolist() == want_recall
    assert f1.tolist() == want_f1


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCORE, min_size=1, max_size=60), st.data(), st.integers(0, 2**32 - 1))
def test_score_cells_group_as_rank_candidates_ranks(values, data, seed):
    # A pool's scores drawn with repeats, ranked by the selection's seeded
    # ranking: its runs of equal scores (NaN equal to NaN) are the cells'
    # groups, in order, with their positive and negative counts. Each drawn
    # value is a code's score, and each row has one of those codes.
    code_scores = np.array(values)
    patterns = np.array(data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1,
                                           max_size=200)))
    scores = code_scores[patterns]
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=len(scores),
                                         max_size=len(scores))))
    order = [_order_key(i, scores.tolist()) for i in range(len(scores))]
    runs = []
    ranked = rank_candidates(code_scores, patterns, len(patterns), seed)
    for _, members in itertools.groupby(ranked.tolist(), key=order.__getitem__):
        members = list(members)
        positives = int(labels[members].sum())
        runs.append((positives, len(members) - positives))
    cells = score_cells(scores, one_unit_per_row(labels))
    assert list(zip(cells[:, 1].tolist(), cells[:, 0].tolist())) == runs


def test_untied_pool_reads_its_sorted_prefix():
    # 40,000 distinct scores: every group holds one row, so recall@k is the
    # share of positives among the k best rows.
    rng = np.random.default_rng(3)
    scores = rng.permutation(40_000) / 7.0
    labels = rng.random(40_000) < 0.1
    ks = np.array([0, 1, 500, 39_999, 40_000, 40_001])
    recall, _ = _expected_recall(score_cells(scores, one_unit_per_row(labels)),
                                 np.minimum(ks, 40_000))
    best_first = labels[np.argsort(-scores)]
    assert recall.tolist() == [best_first[:k].sum() / labels.sum() for k in ks]


# Weights with ties and signed zeros, bounded so that no score overflows.
_WEIGHT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), st.floats(-1e6, 1e6))


@st.composite
def models(draw) -> RiskModel:
    """The fixed rule, or a model of any kind with finite drawn weights."""
    kind = draw(st.sampled_from(ModelKind))
    if kind is ModelKind.RULE_BASED and draw(st.booleans()):
        return rule_based_model()
    width = KIND_FEATURES[kind].shape[1]
    weights = draw(st.lists(_WEIGHT, min_size=width, max_size=width), label="weights")
    return RiskModel(kind, np.array(weights), draw(_WEIGHT, label="bias"))


@settings(max_examples=200, deadline=None)
@given(models(), st.lists(st.integers(0, 511), min_size=1, max_size=12), st.data())
def test_code_cells_equal_row_cells(model, values, data):
    # A pool's cells grouped from its count table over the 512 code scores
    # are the cells grouped from its rows' scores, one unit a row.
    codes = np.array(data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=200)))
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=len(codes),
                                         max_size=len(codes))))
    by_code = score_cells(score_matrix(model, np.arange(512)), pattern_counts(codes, labels))
    by_row = score_cells(score_matrix(model, codes), one_unit_per_row(labels))
    assert by_code.dtype == by_row.dtype and by_code.tolist() == by_row.tolist()
