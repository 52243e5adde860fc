from __future__ import annotations

import tracemalloc
from datetime import date

import numpy as np
import pytest

from banditriage.policy import ArmPredicate, ArmSpec, PolicyConfig, Sampler
from banditriage.records import (
    FEATURE_NAMES,
    SYMPTOM_FIELDS,
    Cohort,
    Gender,
    Indication,
    TestResult,
    TriState,
)
from banditriage.scoring import ModelKind, RiskModel, expand_poly2
from banditriage.synthgen import GeneratorParams


def make_record(
    test_date=date(2020, 3, 11),
    result=TestResult.NEGATIVE,
    gender=Gender.MALE,
    indication=Indication.OTHER,
    **symptoms,
):
    """One row tuple in ``records.ROW_FIELDS`` order; symptoms default to absent."""
    assert set(symptoms) <= set(SYMPTOM_FIELDS), symptoms
    return (
        test_date,
        *(symptoms.get(name, TriState.ABSENT) for name in SYMPTOM_FIELDS),
        indication,
        gender,
        result,
    )


def feature_array(**kv) -> np.ndarray:
    """Vector in canonical feature order from keyword entries."""
    return np.array([float(kv.get(name, 0.0)) for name in FEATURE_NAMES])


def codes_of(X) -> np.ndarray:
    """The pattern codes of 0/1 feature rows in canonical order: each row
    read as a binary number, the first feature the most significant bit."""
    X = np.asarray(X, dtype=np.int64)
    return X @ (1 << np.arange(len(FEATURE_NAMES) - 1, -1, -1))


def row_wise_scores(model: RiskModel, X: np.ndarray) -> np.ndarray:
    """Each row's score as the row-wise product ``expand_poly2(x) @ w + b``
    over a 0/1 feature matrix: the reference for ``score_matrix``.

    A BLAS matrix-vector product computes the last few rows of a matrix (and,
    threaded, of each thread's share) by another kernel that may round
    differently, so ``expand_poly2(X) @ w + b`` itself can give equal rows
    scores an ulp apart. Here each row is scored in a block of eight copies
    of itself, which the product's blocked main loop computes.
    """
    E = expand_poly2(X) if model.kind is ModelKind.POLY2 else np.asarray(X, dtype=float)
    return np.array([(np.tile(e, (8, 1)) @ model.weights + model.bias)[0] for e in E])


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pool_policy() -> PolicyConfig:
    """A Thompson policy of capacity 6000 at rho 0.4 over five overlapping arms
    that cover every record, as in the benchmark's Thompson pool."""
    arms = [("contact", "contact_with_confirmed=1", 2.0, 2.0), ("abroad", "abroad=1", 1.0, 2.0),
            ("fever", "fever=1", 1.0, 1.0), ("cough", "cough=1", 1.0, 1.0),
            ("other", "other_indication=1", 1.0, 1.0)]
    return PolicyConfig(capacity=6000, exploration_fraction=0.4, sampler=Sampler.THOMPSON,
                        arms=tuple(ArmSpec(name, ArmPredicate.from_text(text), alpha, beta)
                                   for name, text, alpha, beta in arms),
                        strict_arm_coverage=True)


def pool_model() -> RiskModel:
    """A linear model with a weight on every feature, so that nearly every
    pattern code scores apart."""
    return RiskModel(kind=ModelKind.LINEAR, bias=-3.4, weights=feature_array(
        cough=0.8, fever=0.9, sore_throat=0.65, shortness_of_breath=0.55, head_ache=1.6,
        contact_with_confirmed=2.6, abroad=0.4, female=-0.05))


def small_params(**overrides) -> GeneratorParams:
    """A fast, signal-bearing generator parameterization for unit tests."""
    defaults = dict(
        n_per_week=400,
        weeks=(1, 4),
        feature_prevalence=feature_array(
            cough=0.3, fever=0.25, sore_throat=0.2, shortness_of_breath=0.15,
            head_ache=0.2, contact_with_confirmed=0.1, abroad=0.05,
            other_indication=0.85, female=0.5,
        ),
        coefficients=RiskModel(
            kind=ModelKind.LINEAR,
            weights=feature_array(cough=0.8, fever=0.9, head_ache=1.3,
                                  contact_with_confirmed=2.2),
            bias=-2.5,
        ),
        seed=11,
    )
    defaults.update(overrides)
    return GeneratorParams(**defaults)


@pytest.fixture
def toy_cohort() -> Cohort:
    """Two weeks, four records each, labels hand-picked."""
    recs = []
    specs = [
        # (date, positive?, contact?, cough?)
        (date(2020, 3, 9), True, True, True),
        (date(2020, 3, 10), False, False, True),
        (date(2020, 3, 11), True, True, False),
        (date(2020, 3, 12), False, False, False),
        (date(2020, 3, 16), True, False, True),
        (date(2020, 3, 17), False, True, False),
        (date(2020, 3, 18), False, False, False),
        (date(2020, 3, 19), True, True, True),
    ]
    for i, (d, pos, contact, cough) in enumerate(specs):
        recs.append(
            make_record(
                test_date=d,
                result=TestResult.POSITIVE if pos else TestResult.NEGATIVE,
                indication=Indication.CONTACT_WITH_CONFIRMED if contact else Indication.OTHER,
                cough=TriState.PRESENT if cough else TriState.ABSENT,
            )
        )
    return Cohort.from_records(recs)
