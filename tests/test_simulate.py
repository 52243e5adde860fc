from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from banditriage.evaluate import mean_weekly_recall
from banditriage.policy import ArmPredicate, ArmSpec, PolicyConfig, Sampler
from banditriage.records import Cohort, TestResult
from banditriage.scoring import ModelKind
from banditriage.simulate import (
    OverlapError,
    _text_keyed,
    run_replay,
    summary_row,
    sweep_exploration,
    train_eval_split_experiment,
    train_on_weeks,
)
from banditriage.synthgen import generate_cohort, planted_model, resolve_scenario

from conftest import make_record, pool_model, pool_policy, small_params, traced_peak


def uniform_policy(capacity, rho=0.0, **kv):
    return PolicyConfig(capacity=capacity, exploration_fraction=rho,
                        sampler=Sampler.UNIFORM_RANDOM, **kv)


class TestRunReplay:
    def test_oracle_model_exact_recall_law(self):
        params = resolve_scenario("oracle")
        params = replace(params, n_per_week=500, weeks=(1, 4), seed=21)
        cohort = generate_cohort(params)
        positives = cohort.positives_by_week()
        for capacity in (60, 300):
            trace = run_replay(
                cohort, planted_model(params), uniform_policy(capacity),
                retrain_every=0, seed=5,
            )
            for p in trace.periods:
                expected = min(capacity, positives[p.period]) / positives[p.period]
                assert p.recall == expected

    def test_period_metrics_are_ratios_of_counts(self, caplog):
        # Week 2 loses its positives. The Thompson arm matches nobody (the
        # indications are one-hot), so at rho = 1 its selections are empty.
        cohort = generate_cohort(small_params(n_per_week=300, weeks=(1, 4), seed=8))
        week_2 = np.zeros(len(cohort), dtype=bool)
        week_2[cohort.week_ids(2)] = True
        cohort = replace(cohort, result=np.where(week_2, TestResult.NEGATIVE, cohort.result))
        nobody = ArmSpec("nobody", ArmPredicate.from_text(
            "contact_with_confirmed=1 & abroad=1"))
        policies = [uniform_policy(60, 0.3), uniform_policy(300),
                    PolicyConfig(capacity=50, exploration_fraction=1.0,
                                 sampler=Sampler.THOMPSON, arms=(nobody,))]
        seen = set()
        with caplog.at_level("WARNING"):
            for policy in policies:
                for p in run_replay(cohort, None, policy, retrain_every=1, seed=3).periods:
                    h, k, P = int(p.labels.sum()), len(p.labels), p.pool_positives
                    assert P == cohort.week_labels(p.period).sum()
                    assert p.recall == (float(Fraction(h, P)) if P else 0.0)
                    if k:
                        assert p.precision == float(Fraction(h, k))
                        assert p.f1 == float(Fraction(2 * h, k + P))
                        if h:  # the harmonic mean of precision and recall
                            assert p.f1 == pytest.approx(2 * p.precision * p.recall
                                                         / (p.precision + p.recall), abs=1e-12)
                    else:
                        assert p.precision is None and p.f1 is None
                    seen.add((bool(h), bool(k), bool(P), k == p.pool_size))
        # hits, a full pool, no positive in the pool, an empty selection
        assert {(True, True, True, False), (True, True, True, True), (False, True, False, False),
                (False, False, True, False), (False, False, False, False)} <= seen
        assert "recall undefined: week 2 has no positives; reporting 0.0" in caplog.text

    def test_identical_runs_identical_traces(self, tmp_path):
        cohort = generate_cohort(small_params())
        policy = uniform_policy(60, 0.4)
        a = run_replay(cohort, None, policy, retrain_every=1, seed=3)
        b = run_replay(cohort, None, policy, retrain_every=1, seed=3)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.to_jsonl(pa)
        b.to_jsonl(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_label_hiding(self):
        cohort = generate_cohort(small_params())
        trace = run_replay(cohort, None, uniform_policy(50, 0.5), seed=1)
        assert trace.revealed_count() == 50 * len(trace.periods)
        for p in trace.periods:
            rows = p.selection.positions
            assert np.array_equal(p.record_ids, cohort.week_ids(p.period)[rows])
            assert np.array_equal(p.labels, cohort.week_labels(p.period)[rows])

    def test_no_leakage_in_lineage(self):
        cohort = generate_cohort(small_params())
        trace = run_replay(cohort, None, uniform_policy(80, 0.5), retrain_every=1, seed=2)
        by_version = {v.version: v for v in trace.lineage}
        assert by_version[0].source_periods == ()
        for p in trace.periods:
            sources = by_version[p.model_version].source_periods
            assert all(s < p.period for s in sources)
        assert len(trace.lineage) > 1  # retraining actually happened

    def test_static_model_when_cadence_zero(self):
        cohort = generate_cohort(small_params())
        trace = run_replay(cohort, None, uniform_policy(50, 0.5), retrain_every=0, seed=2)
        assert [p.model_version for p in trace.periods] == [0] * len(trace.periods)
        assert len(trace.lineage) == 1

    def test_cold_start_is_rule_based(self):
        cohort = generate_cohort(small_params())
        trace = run_replay(cohort, None, uniform_policy(30), retrain_every=0, seed=2)
        assert trace.lineage[0].model.kind is ModelKind.RULE_BASED

    def test_retrain_failure_not_fatal(self):
        # All-negative cohort: the labeled store never has two classes, so
        # every retrain attempt must be skipped and the model carried over.
        import datetime

        recs = [make_record(test_date=datetime.date.fromisocalendar(2020, week, 1))
                for week in (10, 11, 12) for _ in range(30)]
        cohort = Cohort.from_records(recs)
        trace = run_replay(cohort, None, uniform_policy(10, 0.5), retrain_every=1, seed=0)
        assert len(trace.lineage) == 1
        assert any("retrain skipped" in e for p in trace.periods for e in p.events)

    def test_exploration_only_store_is_smaller(self):
        cohort = generate_cohort(small_params(n_per_week=600))
        all_labels = run_replay(
            cohort, None, uniform_policy(100, 0.5, retrain_on="all_labeled"),
            retrain_every=1, seed=4,
        )
        explore_only = run_replay(
            cohort, None, uniform_policy(100, 0.5, retrain_on="exploration_only"),
            retrain_every=1, seed=4,
        )
        assert explore_only.lineage[-1].n_labeled < all_labels.lineage[-1].n_labeled

    def test_random_policy_matches_binomial_envelope(self):
        # rho=1 uniform selection: mean recall across periods and runs stays
        # inside the 95% binomial envelope of K/N (light version; the
        # acceptance suite runs the full 100-run variant).
        params = small_params(n_per_week=1000, weeks=(1, 4), seed=77)
        cohort = generate_cohort(params)
        k, n = 100, 1000
        recalls = []
        for run in range(30):
            trace = run_replay(cohort, None, uniform_policy(k, 1.0),
                               retrain_every=0, seed=500 + run)
            recalls.extend(p.recall for p in trace.periods)
        positives = cohort.positives_by_week()
        var = sum(k * (P / n) * (1 - P / n) / P**2 for P in positives.values())
        sigma_mean = math.sqrt(30 * var) / len(recalls)
        assert abs(np.mean(recalls) - k / n) < 1.96 * sigma_mean

    def test_monotone_capacity(self):
        params = small_params()
        cohort = generate_cohort(params)
        model = planted_model(params)
        last = None
        for capacity in (20, 50, 100, 200):
            trace = run_replay(cohort, model, uniform_policy(capacity),
                               retrain_every=0, seed=6)
            mean_recall = np.mean([p.recall for p in trace.periods])
            if last is not None:
                assert mean_recall >= last
            last = mean_recall

    def test_thompson_posteriors_update_at_period_end(self):
        params = small_params(n_per_week=300)
        cohort = generate_cohort(params)
        arms = (
            ArmSpec("contacts", ArmPredicate.from_text("contact_with_confirmed=1")),
            ArmSpec("others", ArmPredicate.from_text("contact_with_confirmed=0")),
        )
        policy = PolicyConfig(capacity=40, exploration_fraction=1.0,
                              sampler=Sampler.THOMPSON, arms=arms)
        trace = run_replay(cohort, None, policy, retrain_every=0, seed=9)
        first = trace.periods[0].arm_posteriors
        # counts folded in: alpha grew by the arm's revealed positives and
        # beta by its negatives
        p = trace.periods[0]
        for i, name in enumerate(("contacts", "others")):
            labels = p.labels[p.selection.n_exploit:][p.selection.arm == i]
            assert first[name] == (1.0 + labels.sum(), 1.0 + len(labels) - labels.sum())
        assert sum(sum(first[name]) for name in first) == 4.0 + 40

    def test_restricted_weeks(self):
        cohort = generate_cohort(small_params())
        trace = run_replay(cohort, None, uniform_policy(30), retrain_every=0,
                           weeks=[2, 3], seed=0)
        assert [p.period for p in trace.periods] == [2, 3]

    def test_trace_jsonl_shape(self, tmp_path):
        cohort = generate_cohort(small_params(n_per_week=100))
        trace = run_replay(cohort, None, uniform_policy(20, 0.5), seed=0)
        path = tmp_path / "t.jsonl"
        trace.to_jsonl(path, manifest="simulate.manifest.json")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["manifest"] == "simulate.manifest.json"
        assert [l["type"] for l in lines[1:]] == ["period"] * len(trace.periods)
        assert lines[1]["pool_size"] == 100

    def test_trace_lines_are_written_with_sorted_keys(self, tmp_path):
        # Ids 0-149 in week 1 mix one-, two- and three-digit ids, whose text
        # order (10 before 9) differs from their numeric order; the arms are
        # listed out of name order.
        cohort = generate_cohort(small_params(n_per_week=150))
        arms = (
            ArmSpec("others", ArmPredicate.from_text("contact_with_confirmed=0")),
            ArmSpec("contacts", ArmPredicate.from_text("contact_with_confirmed=1")),
        )
        policy = PolicyConfig(capacity=60, exploration_fraction=0.5,
                              sampler=Sampler.THOMPSON, arms=arms)
        trace = run_replay(cohort, None, policy, retrain_every=1, seed=4)
        path = tmp_path / "t.jsonl"
        summary = trace.to_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:] == [json.dumps(obj) for obj in trace.period_dicts()]
        assert summary == [summary_row(obj) for obj in trace.period_dicts()]
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)
        first = json.loads(lines[1])
        for key in ("revealed", "arm_assignments"):
            ids = [int(text) for text in first[key]]
            assert ids != sorted(ids) and len(ids) == len(set(ids)) > 0
        assert list(first["arm_posteriors"]) == ["contacts", "others"]


def test_trace_peak_memory_is_bounded_per_pick(tmp_path):
    # Two 25k-row weeks at capacity 6000: each period's line is written as
    # it is formatted, with no per-pick dict. Building every period's
    # object first peaked near 300 bytes a pick.
    cohort = generate_cohort(small_params(n_per_week=25_000, weeks=(1, 2), seed=5))
    trace = run_replay(cohort, pool_model(), pool_policy(), retrain_every=0, seed=7)
    picks = sum(len(p.record_ids) for p in trace.periods)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    _, peak = traced_peak(lambda: trace.to_jsonl(path))
    assert picks == 12_000 and peak <= 160 * picks


@given(st.dictionaries(st.integers(0, 2**63 - 1) | st.integers(0, 200), st.booleans(),
                       max_size=40))
@example({10: False, 1: True, 100: False, 20: True, 2: False, 0: True})  # equal padded digits
def test_text_keyed_sorts_int64_keys_as_text(mapping):
    keyed = _text_keyed(np.fromiter(mapping, np.int64, len(mapping)), list(mapping.values()))
    assert list(keyed) == sorted(map(str, mapping))
    assert keyed == {str(k): v for k, v in mapping.items()}


class TestSweepExploration:
    def test_grid_shape_and_determinism(self):
        params = small_params(n_per_week=300)
        cohort = generate_cohort(params)
        model = planted_model(params)
        rows = sweep_exploration(cohort, model, [0.3, 0.7], [50, 100])
        assert [(r["exploration_fraction"], r["capacity"]) for r in rows] == [
            (0.3, 50), (0.3, 100), (0.7, 50), (0.7, 100)
        ]
        assert rows == sweep_exploration(cohort, model, [0.3, 0.7], [50, 100])

    def test_more_exploration_does_not_help_good_model(self):
        params = small_params(n_per_week=600)
        cohort = generate_cohort(params)
        model = planted_model(params)
        rows = sweep_exploration(cohort, model, [0.0, 0.5, 1.0], [60])
        recalls = [r["mean_recall"] for r in rows]
        assert recalls[0] > recalls[2]  # pure exploit beats pure explore

    def test_capacity_past_int64_tests_every_pool(self):
        params = small_params(n_per_week=50)
        cohort = generate_cohort(params)
        assert all(cohort.positives_by_week().values())
        rows = sweep_exploration(cohort, planted_model(params), [0.0, 0.3], [2**64, 10**30])
        assert [r["mean_recall"] for r in rows] == [1.0] * 4


class TestTrainEvalSplit:
    def test_identical_ranges_identical_columns(self):
        cohort = generate_cohort(small_params(weeks=(1, 6), n_per_week=500))
        rows = train_eval_split_experiment(
            cohort, [1, 2], [1, 2], [5, 6], capacities=[50, 150]
        )
        for row in rows:
            assert row["recall_a"] == row["recall_b"]

    def test_rows_are_mean_weekly_recall_at_each_capacity(self):
        cohort = generate_cohort(small_params(weeks=(1, 6), n_per_week=300))
        ks = [20, 90, 400]
        rows = train_eval_split_experiment(cohort, [2, 1], [3], [6, 4, 5], ks)
        assert [row["k"] for row in rows] == ks
        for weeks, column in (([1, 2], "recall_a"), ([3], "recall_b")):
            model = train_on_weeks(cohort, weeks, ModelKind.POLY2)
            assert [row[column] for row in rows] == [
                mean_weekly_recall(cohort, model, k, weeks=[4, 5, 6]) for k in ks]

    def test_model_carries_the_weeks_it_was_trained_on(self):
        # Asked weeks outside the cohort are not training weeks.
        cohort = generate_cohort(small_params(weeks=(1, 6), n_per_week=200))
        model = train_on_weeks(cohort, [9, 3, 1], ModelKind.LINEAR)
        assert model.trained_weeks == (1, 3)

    def test_overlap_rejected(self):
        cohort = generate_cohort(small_params(weeks=(1, 6), n_per_week=200))
        with pytest.raises(OverlapError):
            train_eval_split_experiment(cohort, [1, 2], [3, 4], [4, 5], [50])

    def test_empty_range_rejected(self):
        cohort = generate_cohort(small_params(weeks=(1, 6), n_per_week=200))
        with pytest.raises(ValueError):
            train_eval_split_experiment(cohort, [], [3], [5], [50])
        with pytest.raises(ValueError):
            # weeks outside the cohort leave no training records
            train_eval_split_experiment(cohort, [40, 41], [3], [5], [50])

    def test_crossover_exists_on_shipped_scenario(self):
        # Single-seed sanity check of the regime-shift construction; the
        # acceptance suite runs the 20-seed version.
        params = resolve_scenario("regime_shift")
        cohort = generate_cohort(replace(params, seed=1005))
        rows = train_eval_split_experiment(
            cohort, range(10, 13), range(21, 24), range(24, 27),
            capacities=[100, 2000],
        )
        assert rows[0]["recall_b"] > rows[0]["recall_a"]
        assert rows[-1]["recall_a"] >= rows[-1]["recall_b"]
