from __future__ import annotations

import numpy as np

from banditriage import evaluate
from banditriage.evaluate import (
    mean_weekly_recall,
    model_comparison_table,
    score_cells,
    weekly_recall_table,
)
from banditriage.scoring import rule_based_model
from banditriage.simulate import train_eval_split_experiment
from banditriage.synthgen import generate_cohort, planted_model

from conftest import small_params


def test_model_comparison_rows_per_model():
    params = small_params(n_per_week=500)
    cohort = generate_cohort(params)
    models = {"rule_based": rule_based_model(), "planted": planted_model(params)}
    rows = model_comparison_table(cohort, models, ks=[50, 150])
    assert [r["model"] for r in rows] == ["rule_based", "planted"]
    for row in rows:
        assert set(row) == {"model", "recall@50", "f1@50", "recall@150", "f1@150"}
        assert 0.0 <= row["f1@50"] <= 1.0
        assert row["recall@50"] <= row["recall@150"]


def test_comparison_recall_matches_mean_weekly_recall():
    params = small_params(n_per_week=500)
    cohort = generate_cohort(params)
    model = planted_model(params)
    rows = model_comparison_table(cohort, {"m": model}, ks=[60])
    # Both paths take the same exact expectation over tie orders.
    assert rows[0]["recall@60"] == mean_weekly_recall(cohort, model, 60)


def test_planted_beats_rule_on_planted_data():
    params = small_params(n_per_week=800)
    cohort = generate_cohort(params)
    rows = model_comparison_table(
        cohort,
        {"rule_based": rule_based_model(), "planted": planted_model(params)},
        ks=[80],
    )
    by_model = {r["model"]: r for r in rows}
    assert by_model["planted"]["recall@80"] >= by_model["rule_based"]["recall@80"]


def test_each_pool_is_ranked_once_per_table(monkeypatch):
    # Every capacity reads the cells of one grouping per (model, week), and
    # each grouping reads the week's count table over the 512 code scores.
    ranked = []

    def counting(scores, counts):
        assert len(scores) == len(counts) == 512
        ranked.append(int(counts.sum()))
        return score_cells(scores, counts)

    monkeypatch.setattr(evaluate, "score_cells", counting)
    params = small_params(weeks=(1, 5), n_per_week=150)
    cohort = generate_cohort(params)
    models = {"rule_based": rule_based_model(), "planted": planted_model(params)}
    ks = [10, 50, 200]
    for table, rankings in (
        (lambda: weekly_recall_table(cohort, models["planted"], ks), 5),
        (lambda: model_comparison_table(cohort, models, ks), 2 * 5),
        (lambda: train_eval_split_experiment(cohort, [1], [2], [3, 4, 5], ks), 2 * 3),
    ):
        ranked.clear()
        table()
        assert ranked == [150] * rankings
