from __future__ import annotations

import math
import re

import numpy as np
import pytest

from banditriage.evaluate import pearson
from banditriage.records import FEATURE_NAMES
from banditriage.scoring import ModelKind
from banditriage.synthgen import (
    GeneratorParams,
    RiskCoefficients,
    ScenarioError,
    builtin_scenario_path,
    generate_cohort,
    load_scenario,
    planted_model,
    resolve_scenario,
    sigmoid,
)
from banditriage.records import cohort_to_rows

from conftest import feature_array, small_params


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def stack_features(cohort):
    return np.vstack([cohort.week_features(w) for w in cohort.weeks])


def stack_labels(cohort):
    return np.concatenate([cohort.week_labels(w) for w in cohort.weeks])


class TestGenerateCohort:
    def test_empty_when_n_zero(self):
        cohort = generate_cohort(small_params(n_per_week=0))
        assert len(cohort) == 0

    def test_base_rate_matches_binomial_oracle(self):
        # intercept=logit(0.1), all coefficients zero: positives ~ Binomial(10000, 0.1),
        # so the count must land within 3 standard deviations (3*30) of 1000.
        params = small_params(
            n_per_week=10_000,
            weeks=(1, 1),
            coefficients=RiskCoefficients(weights=np.zeros(9), intercept=logit(0.1)),
            seed=5,
        )
        positives = stack_labels(generate_cohort(params)).sum()
        assert 910 <= positives <= 1090

    def test_zero_coefficient_symptom_uncorrelated(self):
        # sore_throat carries no weight; its sample correlation with the label
        # stays small across 20 seeds (Monte Carlo oracle). Symptoms are
        # generated independently, so no indirect path exists.
        j = FEATURE_NAMES.index("sore_throat")
        rs = []
        for seed in range(20):
            params = small_params(n_per_week=10_000, weeks=(1, 1), seed=100 + seed)
            cohort = generate_cohort(params)
            rs.append(abs(pearson(stack_features(cohort)[:, j], stack_labels(cohort))))
        assert max(rs) < 0.05

    def test_byte_identical_for_same_params(self):
        a = generate_cohort(small_params(unknown_rate=0.3))
        b = generate_cohort(small_params(unknown_rate=0.3))
        assert cohort_to_rows(a) == cohort_to_rows(b)

    def test_different_seed_differs(self):
        a = generate_cohort(small_params(seed=1))
        b = generate_cohort(small_params(seed=2))
        assert cohort_to_rows(a) != cohort_to_rows(b)

    def test_coefficient_ordering_recovered_by_correlation(self):
        # Planted symptom weights separated by gaps of 0.5 at equal prevalence:
        # the sample correlation ordering recovers the coefficient ordering.
        weights = feature_array(
            cough=2.5, fever=2.0, sore_throat=1.5, shortness_of_breath=1.0, head_ache=0.5,
        )
        prevalence = feature_array(
            cough=0.3, fever=0.3, sore_throat=0.3, shortness_of_breath=0.3, head_ache=0.3,
            contact_with_confirmed=0.05, abroad=0.05, other_indication=0.9, female=0.5,
        )
        for seed in range(20):
            params = GeneratorParams(
                n_per_week=10_000,
                weeks=(1, 1),
                feature_prevalence=prevalence,
                coefficients=RiskCoefficients(weights=weights, intercept=-3.0),
                seed=200 + seed,
            )
            cohort = generate_cohort(params)
            X, y = stack_features(cohort), stack_labels(cohort)
            rs = [pearson(X[:, j], y) for j in range(5)]
            assert rs == sorted(rs, reverse=True), f"seed {seed}: {rs}"

    def test_unknown_rate_masks_symptoms(self):
        cohort = generate_cohort(small_params(unknown_rate=1.0))
        from banditriage.records import TriState

        assert (cohort.symptoms == TriState.UNKNOWN).all()

    def test_regime_shift_changes_correlation(self):
        base = RiskCoefficients(
            weights=feature_array(contact_with_confirmed=3.0), intercept=-2.5
        )
        alt = RiskCoefficients(
            weights=feature_array(head_ache=3.0), intercept=-2.5
        )
        params = small_params(
            n_per_week=5000, weeks=(1, 2), coefficients=base, regime_shift=(2, alt)
        )
        cohort = generate_cohort(params)
        j_contact = FEATURE_NAMES.index("contact_with_confirmed")
        j_ha = FEATURE_NAMES.index("head_ache")
        pre_X, pre_y = cohort.week_features(1), cohort.week_labels(1).astype(float)
        post_X, post_y = cohort.week_features(2), cohort.week_labels(2).astype(float)
        assert pearson(pre_X[:, j_contact], pre_y) > 0.3
        assert abs(pearson(post_X[:, j_contact], post_y)) < 0.1
        assert pearson(post_X[:, j_ha], post_y) > 0.3
        assert abs(pearson(pre_X[:, j_ha], pre_y)) < 0.1


class TestDefaultScenarioShape:
    def test_correlation_ordering_matches_observed_real_data_shape(self):
        # The shipped default scenario plants coefficients so that the sample
        # correlation ordering reproduces the shape seen on real test data:
        # contact strongest positive, other-indication strongly negative,
        # abroad and gender near zero.
        from banditriage.evaluate import weekly_correlations

        cohort = generate_cohort(resolve_scenario("default"))
        medians = weekly_correlations(cohort).median_by_feature()
        ordered = [name for name, _ in sorted(medians.items(), key=lambda kv: -kv[1])]
        assert ordered[0] == "contact_with_confirmed"
        assert ordered[1] == "head_ache"
        assert ordered[-1] == "other_indication"
        assert medians["other_indication"] < -0.15
        assert abs(medians["abroad"]) < 0.05
        assert abs(medians["female"]) < 0.05

    def test_positivity_near_seven_percent(self):
        cohort = generate_cohort(resolve_scenario("default"))
        rate = sum(cohort.positives_by_week().values()) / len(cohort)
        assert 0.05 < rate < 0.13


class TestPlantedModel:
    def test_uses_active_regime(self):
        alt = RiskCoefficients(weights=feature_array(fever=9.0), intercept=0.0)
        params = small_params(regime_shift=(3, alt))
        pre = planted_model(params, week=2)
        post = planted_model(params, week=3)
        assert pre.kind is ModelKind.LINEAR
        assert pre.weights[1] != post.weights[1]
        assert post.weights[1] == 9.0

    def test_default_is_base_regime(self):
        params = small_params()
        m = planted_model(params)
        assert np.array_equal(m.weights, params.coefficients.weights)
        assert m.bias == params.coefficients.intercept


class TestValidation:
    def test_bad_prevalence(self):
        with pytest.raises(ValueError):
            small_params(feature_prevalence=feature_array(cough=1.5, other_indication=1.0))

    def test_empty_week_range(self):
        with pytest.raises(ValueError):
            small_params(weeks=(5, 4))

    def test_negative_n(self):
        with pytest.raises(ValueError):
            small_params(n_per_week=-1)

    def test_bad_unknown_rate(self):
        with pytest.raises(ValueError):
            small_params(unknown_rate=1.5)

    @pytest.mark.parametrize("overrides, message", [
        ({"seed": -1}, "seed must lie in [0, 2**64)"),
        ({"seed": 2**64}, "seed must lie in [0, 2**64)"),
        ({"year": 0}, "year 0, week 4"),
        ({"year": 9999, "weeks": (50, 52)}, "year 9999, week 52"),
        ({"feature_prevalence": feature_array(cough=math.nan, other_indication=1.0)},
         "prevalence rates"),
        ({"feature_prevalence": feature_array(abroad=math.inf, other_indication=1.0)},
         "prevalence rates"),
    ], ids=["seed-negative", "seed-2**64", "year-0", "year-9999-week-52", "prevalence-nan",
            "indication-inf"])
    def test_out_of_range_values(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            small_params(**overrides)

    @pytest.mark.parametrize("weights, intercept", [
        (feature_array(cough=math.nan), 0.0), (feature_array(), math.inf),
    ], ids=["weight-nan", "intercept-inf"])
    def test_coefficients_must_be_finite(self, weights, intercept):
        with pytest.raises(ValueError, match="finite"):
            RiskCoefficients(weights=weights, intercept=intercept)


class TestSigmoid:
    def test_saturates_exactly_in_float64(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        assert 0.0 < sigmoid(0.0) == 0.5


class TestScenarioFiles:
    @pytest.mark.parametrize("name", ["default", "oracle", "regime_shift"])
    def test_builtin_scenarios_load(self, name):
        params = resolve_scenario(name)
        assert params.n_per_week > 0

    def test_unknown_builtin(self):
        with pytest.raises(ScenarioError):
            builtin_scenario_path("nope")

    def test_file_round_trip(self, tmp_path):
        text = """
[generator]
n_per_week = 50
weeks = 2-3
seed = 9
unknown_rate = 0.1

[prevalence]
cough = 0.2
fever = 0.2
sore_throat = 0.2
shortness_of_breath = 0.2
head_ache = 0.2
contact_with_confirmed = 0.1
abroad = 0.1
other_indication = 0.8
female = 0.5

[coefficients]
intercept = -2.0
cough = 1.0

[shift]
shift_week = 3
intercept = -4.0
cough = 0.0
fever = 2.0
"""
        path = tmp_path / "s.scenario"
        path.write_text(text, encoding="utf-8")
        params = load_scenario(path)
        assert params.n_per_week == 50
        assert params.weeks == (2, 3)
        assert params.unknown_rate == pytest.approx(0.1)
        assert params.coefficients.weights[0] == 1.0
        shift_week, alt = params.regime_shift
        assert shift_week == 3
        assert alt.intercept == -4.0
        assert alt.weights[0] == 0.0  # overridden
        assert alt.weights[1] == 2.0  # added
        generate_cohort(params)  # must be generable

    def test_missing_section(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("[generator]\nn_per_week = 5\nweeks = 1-1\n", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_feature_rejected(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(
            "[generator]\nn_per_week = 5\nweeks = 1-1\n[prevalence]\nage = 0.5\n"
            "[coefficients]\nintercept = 0\n",
            encoding="utf-8",
        )
        with pytest.raises(ScenarioError, match="age"):
            load_scenario(path)

    def test_scenario_output_round_trips_through_ingestion(self, tmp_path):
        from banditriage.records import load_cohort, write_cohort_csv

        cohort = generate_cohort(resolve_scenario("oracle"))
        path = tmp_path / "c.csv"
        write_cohort_csv(cohort, path)
        loaded, report = load_cohort(path)
        assert report.n_rejected == 0
        assert len(loaded) == len(cohort)
