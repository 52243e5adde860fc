"""The exploration sweep against two references.

The first enumerates what :func:`banditriage.policy.select` does to a small
pool with a static model and uniform exploration: every order of the tied
scores gives an exploit set (the first k_x of the ranking), and every
k_e-subset of the rows left is an equally likely explore set. A week's
expected recall is the mean over all of them, kept as an exact ``Fraction``;
the sweep computes it in floats, and must land within ``TOLERANCE`` of it.

The second runs the real selection path: many seeded static replays per
grid cell, whose mean recall the sweep's exact value must match within
``REPLAY_BOUND`` standard errors.
"""

from __future__ import annotations

import math
from collections import Counter
from datetime import date, timedelta
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditriage import records
from banditriage.policy import PolicyConfig, Sampler
from banditriage.records import Cohort, Indication, TestResult
from banditriage.scoring import ModelKind, RiskModel
from banditriage.simulate import run_replay, sweep_exploration
from banditriage.synthgen import generate_cohort, planted_model

from conftest import row_wise_scores, small_params

RHOS = (0.0, 0.3, 0.5, 1.0)
CAPACITIES = tuple(range(1, 9))  # up to one more than the largest pool
#: Over 2,000 random pools of this shape (64,000 cells) the largest
#: |sweep - exact| was 9.9e-17, 0.44 of a unit in the last place of 1.0.
#: The bound is one such unit, 2.2e-16.
TOLERANCE = 2.0**-52
MONDAY = date(2020, 3, 9)  # ISO week 11


def ref_week_recall(scores: list[float], labels: list[bool], capacity: int,
                    rho: float) -> Fraction:
    """A week's expected recall under ``select``: the mean over every tie
    order and every explore subset of the rest. A pool no larger than the
    capacity is tested in full; a pool without positives reads 0."""
    positives = sum(labels)
    if not positives:
        return Fraction(0)
    if len(scores) <= capacity:
        return Fraction(1)
    k_explore = math.floor(rho * capacity)
    k_exploit = capacity - k_explore
    groups = [[i for i, s in enumerate(scores) if s == value]
              for value in sorted(set(scores), reverse=True)]
    exploit_sets = Counter(frozenset([i for group in order for i in group][:k_exploit])
                           for order in product(*map(permutations, groups)))
    hits, draws = 0, 0
    for exploit, orders in exploit_sets.items():
        rest = [i for i in range(len(scores)) if i not in exploit]
        for explore in combinations(rest, k_explore):
            hits += orders * sum(labels[i] for i in (*exploit, *explore))
            draws += orders
    return Fraction(hits, draws * positives)


def cohort_of(weeks: list[list[tuple]]) -> Cohort:
    """One ISO week per entry of ``weeks``; a record is (the present-flags of
    its five symptoms as a 5-bit number, indication, female, positive)."""
    rows = [(MONDAY + timedelta(weeks=w), *record)
            for w, week in enumerate(weeks) for record in week]
    return Cohort(
        test_date=np.array([d for d, *_ in rows], dtype="datetime64[D]"),
        symptoms=np.array([[(bits >> (4 - j)) & 1 for j in range(5)] for _, bits, *_ in rows],
                          dtype=np.int8),
        indication=[indication for _, _, indication, _, _ in rows],
        gender=[int(female) for *_, female, _ in rows],
        result=[TestResult.POSITIVE if positive else TestResult.NEGATIVE
                for *_, positive in rows],
    )


records_st = st.tuples(st.integers(0, 31), st.sampled_from(list(Indication)), st.booleans(),
                       st.booleans())
weeks_st = st.lists(st.lists(records_st, min_size=1, max_size=7), min_size=1, max_size=3)
#: Weights of 0 and 1 give integer scores: few values, so many ties.
weights_st = st.lists(st.sampled_from([0.0, 1.0]), min_size=records.N_FEATURES,
                      max_size=records.N_FEATURES)

ALL_TIED = [0.0] * records.N_FEATURES
SEVEN = [(bits, Indication.OTHER, False, bits % 3 == 0) for bits in range(7)]


@settings(max_examples=60, deadline=None)
@given(weeks_st, weights_st)
@example([SEVEN], ALL_TIED)  # one group of seven tied rows
@example([SEVEN, [(1, Indication.ABROAD, True, False)] * 6], [1.0] * records.N_FEATURES)
def test_each_week_is_the_mean_over_tie_orders_and_explore_draws(weeks, weights):
    cohort = cohort_of(weeks)
    model = RiskModel(kind=ModelKind.LINEAR, weights=np.array(weights), bias=0.0)
    per_week = []
    for week in cohort.weeks:
        X = records.PATTERN_FEATURES[cohort.week_patterns(week)]
        scores = row_wise_scores(model, X).tolist()
        labels = cohort.week_labels(week).tolist()
        rows = sweep_exploration(cohort, model, RHOS, CAPACITIES, weeks=[week])
        for row in rows:
            want = ref_week_recall(scores, labels, row["capacity"],
                                   row["exploration_fraction"])
            assert abs(Fraction(row["mean_recall"]) - want) <= TOLERANCE, row
        per_week.append([row["mean_recall"] for row in rows])
    # Over several weeks each cell is the mean of its per-week values.
    rows = sweep_exploration(cohort, model, RHOS, CAPACITIES)
    assert [row["mean_recall"] for row in rows] == [
        float(np.mean(column)) for column in zip(*per_week)]


#: Seeded replays per grid cell, and the bound on |exact - their mean
#: recall| in standard errors of that mean.
REPLAYS = 200
REPLAY_BOUND = 4.0


@pytest.fixture(scope="module")
def replay_cohort():
    params = small_params(n_per_week=120, weeks=(1, 3), seed=31)
    return generate_cohort(params), planted_model(params)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("capacity", [15, 50, 120])  # 120: each pool is tested in full
def test_exact_value_matches_seeded_replays(replay_cohort, rho, capacity):
    cohort, model = replay_cohort
    policy = PolicyConfig(capacity=capacity, exploration_fraction=rho,
                          sampler=Sampler.UNIFORM_RANDOM)
    (row,) = sweep_exploration(cohort, model, [rho], [capacity])
    means = [np.mean([p.recall for p in run_replay(cohort, model, policy, retrain_every=0,
                                                   seed=seed).periods])
             for seed in range(REPLAYS)]
    se = np.std(means, ddof=1) / math.sqrt(REPLAYS)
    assert abs(row["mean_recall"] - np.mean(means)) <= REPLAY_BOUND * se + 1e-12
