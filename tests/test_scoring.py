from __future__ import annotations

import logging
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditriage.evaluate import mean_weekly_recall
from banditriage.policy import PolicyConfig, select
from banditriage.records import N_FEATURES, PATTERN_FEATURES, pattern_counts
from banditriage.scoring import (
    DegenerateTrainingError,
    KIND_FEATURES,
    ModelKind,
    RiskModel,
    TrainConfig,
    expand_poly2,
    load_model,
    pair_order,
    rule_based_model,
    save_model,
    score_matrix,
    train,
    RULE_WEIGHTS,
)
from banditriage.synthgen import generate_cohort

from conftest import codes_of, feature_array, row_wise_scores, small_params


def score_one(model, fv):
    """A single feature vector's score, through score_matrix on its code."""
    return float(score_matrix(model, codes_of([fv]))[0])


def rule_score(fv):
    return score_one(rule_based_model(), fv)


class TestRuleScore:
    def test_contact_and_cough(self):
        fv = feature_array(contact_with_confirmed=1, cough=1)
        assert rule_score(fv) == 3.0

    def test_all_zero(self):
        assert rule_score(np.zeros(N_FEATURES)) == 0.0

    def test_maximum(self):
        fv = feature_array(contact_with_confirmed=1, cough=1, fever=1)
        assert rule_score(fv) == 4.0

    def test_wrong_dimension(self):
        # Records enter as pattern codes, not as feature rows.
        with pytest.raises(ValueError, match="1-D array of pattern codes"):
            score_matrix(rule_based_model(), np.zeros((1, N_FEATURES), dtype=np.int64))

    def test_range_over_all_binary_inputs(self):
        for bits in range(8):
            fv = feature_array(
                cough=bits & 1, fever=(bits >> 1) & 1,
                contact_with_confirmed=(bits >> 2) & 1,
            )
            assert rule_score(fv) in {0.0, 1.0, 2.0, 3.0, 4.0}


class TestExpandPoly2:
    def test_single_feature_no_pairs(self):
        assert np.array_equal(expand_poly2(np.array([[1.0]])), np.array([[1.0]]))

    def test_three_features(self):
        out = expand_poly2(np.array([[1.0, 0.0, 1.0]]))
        # pairs in lexicographic order: (0,1), (0,2), (1,2)
        assert np.array_equal(out, np.array([[1, 0, 1, 0, 1, 0.0]]))

    def test_base_nine_expands_to_45(self):
        assert expand_poly2(np.zeros((1, 9))).shape == (1, 45)
        assert KIND_FEATURES[ModelKind.POLY2].shape == (512, 45)

    def test_pair_order_is_lexicographic(self):
        assert pair_order(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_binary_closure(self):
        rng = np.random.default_rng(0)
        X = (rng.random((20, 9)) < 0.4).astype(float)
        out = expand_poly2(X)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_matrix_matches_vector(self):
        rng = np.random.default_rng(1)
        X = (rng.random((5, 9)) < 0.5).astype(float)
        out = expand_poly2(X)
        for i in range(5):
            assert np.array_equal(out[i], expand_poly2(X[i : i + 1])[0])

    def test_kind_tables_are_read_only_and_row_exact(self):
        # Products of 0/1 features are exact, so a gathered row is bitwise
        # the row expanded on its own.
        assert KIND_FEATURES[ModelKind.LINEAR] is PATTERN_FEATURES
        assert KIND_FEATURES[ModelKind.RULE_BASED] is PATTERN_FEATURES
        table = KIND_FEATURES[ModelKind.POLY2]
        assert all(not t.flags.writeable for t in KIND_FEATURES.values())
        for code in range(len(PATTERN_FEATURES)):
            row = expand_poly2(PATTERN_FEATURES[code : code + 1])[0]
            assert table[code].tobytes() == row.tobytes()


def separable_dataset(n=200, seed=0):
    """Pattern codes and labels: positives have contact=1, negatives
    contact=0; other features noise."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, N_FEATURES)) < 0.3).astype(float)
    X[:, 5] = (np.arange(n) % 2 == 0).astype(float)
    X[:, 6] = 0.0
    X[:, 7] = 1.0 - X[:, 5]
    y = X[:, 5].astype(bool)
    return codes_of(X), y


def augmented(X: np.ndarray, kind: ModelKind) -> np.ndarray:
    """The rows in the model's feature space, with the bias's constant 1 last."""
    if kind is ModelKind.POLY2:
        X = expand_poly2(X)
    return np.hstack([X, np.ones((len(X), 1))])


def logistic_objective(Xa: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    """Mean log-loss of the margins Xa.w plus lam/2 ||w||^2."""
    z = np.where(y, 1.0, -1.0) * (Xa @ w)
    return float(np.mean(np.logaddexp(0.0, -z))) + 0.5 * lam * float(w @ w)


def logistic_gradient(Xa: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> np.ndarray:
    p = np.exp(-np.logaddexp(0.0, -(Xa @ w)))  # P(positive) = sigmoid(margin)
    return Xa.T @ (p - y) / len(y) + lam * w


# The fit `train` runs over (pattern, label) groups, done row by row instead
# over a 0/1 feature matrix, kept as the oracle it must match: the same damped
# Newton steps and stopping rule, with the gradient and Hessian summed over
# every row.
def _reference_train(
    X: np.ndarray,
    y: np.ndarray,
    kind: ModelKind,
    config: TrainConfig | None = None,
) -> RiskModel:
    config = config or TrainConfig()
    Xa = augmented(np.asarray(X, dtype=float), kind)
    y = np.asarray(y, dtype=float)
    lam = config.regularization
    w = np.zeros(Xa.shape[1])
    for _ in range(config.epochs):
        p = np.exp(-np.logaddexp(0.0, -(Xa @ w)))
        hessian = Xa.T @ (Xa * (p * (1.0 - p))[:, None]) / len(y) + lam * np.eye(len(w))
        newton = np.linalg.solve(hessian, logistic_gradient(Xa, y, w, lam))
        delta = np.abs(Xa @ newton).max()
        step = newton * np.log1p(delta) / delta if delta > 0 else newton
        w = w - step
        if np.abs(step).max() <= 1e-10:
            break
    return RiskModel(kind=kind, weights=w[:-1], bias=float(w[-1]))


@contextmanager
def logged_warnings():
    """The warning records `train` logs inside the block."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("banditriage.scoring")
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


@st.composite
def binary_training_sets(draw):
    """Random pattern codes (2 to 400 records, each feature present with one
    drawn density, or any of the 512 codes alike) and labels of both classes."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, len(PATTERN_FEATURES), n)
    else:
        X = codes_of(rng.random((n, N_FEATURES)) < draw(st.floats(0.05, 0.95)))
    y = rng.random(n) < draw(st.floats(0.05, 0.95))
    y[:2] = (True, False)
    return X.astype(draw(st.sampled_from([np.uint16, np.int64]))), y


KINDS = st.sampled_from([ModelKind.LINEAR, ModelKind.POLY2])
CONFIGS = st.builds(TrainConfig, regularization=st.sampled_from([1e-4, 1e-2, 1.0]),
                    epochs=st.integers(1, 30))


class TestTrain:
    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.POLY2])
    def test_separable_set_is_ranked_perfectly(self, kind):
        X, y = separable_dataset()
        model = train(pattern_counts(X, y), kind, TrainConfig())
        scores = score_matrix(model, X)
        assert scores[y].min() > scores[~y].max()

    def test_same_seed_bitwise_equal(self):
        X, y = separable_dataset(seed=4)
        a = train(pattern_counts(X, y), ModelKind.POLY2, TrainConfig())
        b = train(pattern_counts(X, y), ModelKind.POLY2, TrainConfig())
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_errors(self):
        X, _ = separable_dataset()
        with pytest.raises(DegenerateTrainingError):
            train(pattern_counts(X, np.ones(len(X), dtype=bool)), ModelKind.LINEAR, TrainConfig())

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty training set"):
            train(pattern_counts(np.zeros(0, np.uint16), np.zeros(0, dtype=bool)),
                  ModelKind.LINEAR, TrainConfig())

    def test_rule_based_not_trainable(self):
        X, y = separable_dataset()
        with pytest.raises(ValueError):
            train(pattern_counts(X, y), ModelKind.RULE_BASED, TrainConfig())

    def test_objective_no_worse_than_zero_vector(self):
        # Holds on an easy set and on a sparse noisy one.
        for params_seed in (0, 1):
            cohort = generate_cohort(small_params(seed=params_seed, n_per_week=600))
            X = np.concatenate([cohort.week_patterns(w) for w in cohort.weeks])
            y = np.concatenate([cohort.week_labels(w) for w in cohort.weeks])
            config = TrainConfig()
            model = train(pattern_counts(X, y), ModelKind.POLY2, config)
            Xa = augmented(PATTERN_FEATURES[X], ModelKind.POLY2)
            w_full = np.concatenate([model.weights, [model.bias]])
            trained = logistic_objective(Xa, y, w_full, config.regularization)
            at_zero = logistic_objective(Xa, y, np.zeros(Xa.shape[1]), config.regularization)
            assert trained <= at_zero

    @settings(max_examples=60, deadline=None)
    @given(data=binary_training_sets(), kind=KINDS, config=CONFIGS)
    def test_converged_fit_has_zero_gradient(self, data, kind, config):
        X, y = data
        with logged_warnings() as warnings:
            model = train(pattern_counts(X, y), kind, config)
        assert len(warnings) <= 1
        if not warnings:  # converged within the cap
            w_full = np.concatenate([model.weights, [model.bias]])
            grad = logistic_gradient(augmented(PATTERN_FEATURES[X], kind), y, w_full,
                                     config.regularization)
            assert np.abs(grad).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=binary_training_sets(), kind=KINDS, config=CONFIGS)
    def test_matches_per_row_reference(self, data, kind, config):
        X, y = data
        got = train(pattern_counts(X, y), kind, config)
        want = _reference_train(PATTERN_FEATURES[X], y, kind, config)
        assert np.max(np.abs(got.weights - want.weights)) <= 1e-9
        assert abs(got.bias - want.bias) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=binary_training_sets(), kind=KINDS, config=CONFIGS,
           seed=st.integers(0, 2**32 - 1))
    def test_row_order_does_not_change_weights(self, data, kind, config, seed):
        X, y = data
        order = np.random.default_rng(seed).permutation(len(y))
        a = train(pattern_counts(X, y), kind, config)
        b = train(pattern_counts(X[order], y[order]), kind, config)
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias

    def test_validation_errors(self):
        for regularization in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="regularization"):
                TrainConfig(regularization=regularization)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestScore:
    def test_zero_model_scores_zero(self):
        model = RiskModel(kind=ModelKind.LINEAR, weights=np.zeros(9), bias=0.0)
        assert score_one(model, feature_array(cough=1, other_indication=1)) == 0.0

    def test_linear_with_rule_weights_equals_rule_score(self):
        model = RiskModel(kind=ModelKind.LINEAR, weights=RULE_WEIGHTS.copy(), bias=0.0)
        rng = np.random.default_rng(2)
        for _ in range(30):
            fv = (rng.random(9) < 0.5).astype(float)
            fv[5:8] = 0.0
            fv[5 + rng.integers(3)] = 1.0
            assert score_one(model, fv) == rule_score(fv)

    def test_rule_based_model_matches_rule_score(self):
        model = rule_based_model()
        fv = feature_array(contact_with_confirmed=1, fever=1)
        assert score_one(model, fv) == rule_score(fv) == 3.0

    def test_dimension_mismatch(self):
        # A feature matrix, or codes held as floats, is no array of codes;
        # nor is either, or a table of float or bool counts, a count table.
        model = rule_based_model()
        with pytest.raises(ValueError, match="pattern codes"):
            score_matrix(model, np.zeros((3, N_FEATURES)))
        with pytest.raises(ValueError, match="pattern codes"):
            score_matrix(model, np.zeros(3))
        for table in (np.zeros((3, N_FEATURES), dtype=np.int64), np.zeros(3, dtype=np.int64),
                      np.ones((len(PATTERN_FEATURES), 2)),
                      np.ones((len(PATTERN_FEATURES), 2), dtype=bool)):
            with pytest.raises(ValueError, match=r"want a \(512, 2\) table of integer counts"):
                train(table, ModelKind.LINEAR)

    @pytest.mark.parametrize("code", [-1, 512])
    def test_codes_outside_the_pattern_range_are_refused(self, code):
        # Code -1 would read code 511's row, and 512 would index past the table.
        with pytest.raises(ValueError, match=r"must lie in 0\.\.511"):
            score_matrix(rule_based_model(), np.array([3, code]))
        # A count table holds no such code: a count of -1, or a 513th row, is malformed.
        table = pattern_counts(np.array([3, 4]), np.array([True, False]))
        if code < 0:
            table[3, 1] = code
        else:
            table = np.vstack([table, [[0, 1]]])
        with pytest.raises(ValueError, match="counts must be >= 0" if code < 0 else "want a"):
            train(table, ModelKind.LINEAR)
        with pytest.raises(ValueError, match=r"must lie in 0\.\.511"):
            select(np.array([3, code]), rule_based_model(), PolicyConfig(capacity=1), seed=0)

    def test_ranking_invariant_under_positive_affine_weights(self):
        # Power-of-two scale: exact in binary floating point, so the argsort
        # comparison is not confounded by near-tie rounding collisions.
        X, y = separable_dataset(seed=8)
        base = train(pattern_counts(X, y), ModelKind.LINEAR, TrainConfig())
        scaled = RiskModel(
            kind=ModelKind.LINEAR, weights=base.weights * 4.0, bias=base.bias * 4.0
        )
        s0 = score_matrix(base, X)
        s1 = score_matrix(scaled, X)
        assert np.array_equal(np.argsort(-s0, kind="stable"), np.argsort(-s1, kind="stable"))

    def test_ranking_invariant_under_shift_of_integer_scores(self):
        X, _ = separable_dataset(seed=13)
        base = rule_based_model()
        shifted = RiskModel(
            kind=ModelKind.LINEAR, weights=RULE_WEIGHTS * 2.0, bias=7.0
        )
        s0 = score_matrix(base, X)
        s1 = score_matrix(shifted, X)  # 2*score + 7, exact on integer scores
        assert np.array_equal(np.argsort(-s0, kind="stable"), np.argsort(-s1, kind="stable"))

    def test_monotone_transform_preserves_ranking(self):
        X, _ = separable_dataset(seed=9)
        model = rule_based_model()
        s = score_matrix(model, X)
        transformed = 1.0 / (1.0 + np.exp(-s))  # a monotone calibration
        assert np.array_equal(np.argsort(-s, kind="stable"),
                              np.argsort(-transformed, kind="stable"))


#: Weights from subnormal to 1e300: large and small magnitudes, and no
#: overflow in a sum of 45 terms.
WEIGHT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
                   st.floats(-1e300, 1e300), st.floats(-1e3, 1e3))


@st.composite
def weight_vectors(draw, dim: int) -> np.ndarray:
    """Drawn weights, or normal ones (full-width mantissas, whose sums round)
    scaled by 10**u for u uniform in (-e, e), e drawn from 0 to 300."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(WEIGHT, min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 5, 300]))
    return rng.standard_normal(dim) * 10.0 ** rng.uniform(-spread, spread, dim)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scores_equal_the_row_wise_product(data):
    kind = data.draw(st.sampled_from([ModelKind.LINEAR, ModelKind.POLY2, ModelKind.RULE_BASED]))
    if kind is ModelKind.RULE_BASED:
        model = rule_based_model()
    else:
        dim = KIND_FEATURES[kind].shape[1]
        model = RiskModel(kind=kind, weights=data.draw(weight_vectors(dim)),
                          bias=data.draw(WEIGHT))
    # records drawn from a few of the 512 codes, so that patterns repeat
    patterns = data.draw(st.lists(st.integers(0, len(PATTERN_FEATURES) - 1), min_size=1,
                                  max_size=12))
    codes = np.array(data.draw(st.lists(st.sampled_from(patterns), max_size=300)),
                     dtype=data.draw(st.sampled_from([np.uint16, np.int64])))
    scores = score_matrix(model, codes)
    assert scores.dtype == np.float64 and scores.shape == (len(codes),)
    assert scores.tobytes() == row_wise_scores(model, PATTERN_FEATURES[codes]).tobytes()


class TestRecallMarginGrowsWithSignal:
    def test_poly2_recall_exceeds_random_and_grows(self):
        # Fixed scenario, planted coefficients scaled by 0.75 and 2.0 with
        # intercepts calibrated so positivity stays near 20% at both scales
        # (otherwise the scale would shift the recall denominator, not the
        # signal). The trained ranker beats random at both scales and the
        # margin grows with the planted magnitude. 20-seed medians.
        k = 60  # 10% of the 600-per-week pool; random baseline K/N = 0.1
        medians = {}
        for scale, intercept in ((0.75, -2.3), (2.0, -4.1)):
            recalls = []
            for seed in range(20):
                params = small_params(
                    seed=300 + seed,
                    n_per_week=600,
                    coefficients=RiskModel(
                        kind=ModelKind.LINEAR,
                        weights=small_params().coefficients.weights * scale,
                        bias=intercept,
                    ),
                )
                cohort = generate_cohort(params)
                model = train(sum(map(cohort.week_counts, (1, 2))), ModelKind.POLY2,
                              TrainConfig())
                recalls.append(
                    mean_weekly_recall(cohort, model, k, weeks=(3, 4))
                )
            medians[scale] = float(np.median(recalls))
        assert medians[0.75] > k / 600
        assert medians[2.0] > medians[0.75]


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        X, y = separable_dataset(seed=12)
        model = train(pattern_counts(X, y), ModelKind.POLY2, TrainConfig())
        path = tmp_path / "m.txt"
        save_model(model, path, manifest="train.manifest.json")
        loaded = load_model(path)
        assert loaded.kind is model.kind
        assert loaded.bias == model.bias
        assert np.array_equal(loaded.weights, model.weights)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        # Every finite float survives repr() and float(): -0.0, subnormals
        # and +-1e308 included, so the loaded model is bitwise the saved one.
        # A numpy scalar bias must not be written as its repr "np.float64(...)".
        kind = data.draw(st.sampled_from(
            [ModelKind.LINEAR, ModelKind.POLY2, ModelKind.RULE_BASED]))
        dim = KIND_FEATURES[kind].shape[1]
        finite = st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        weights = np.array(data.draw(st.lists(finite, min_size=dim, max_size=dim)))
        bias = data.draw(st.sampled_from([float, np.float64]))(data.draw(finite))
        model = RiskModel(kind=kind, weights=weights, bias=bias)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.kind is model.kind
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert np.float64(loaded.bias).tobytes() == np.float64(model.bias).tobytes()

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_feature_hash_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(rule_based_model(), path)
        text = path.read_text(encoding="utf-8").replace("feature_hash ", "feature_hash beef")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="feature order"):
            load_model(path)

    @pytest.mark.parametrize("base_dim", ["8", "10", "nine", ""])
    def test_rejects_base_dim_other_than_nine(self, tmp_path, base_dim):
        # The v1 format keeps its base_dim line; a model over any other
        # number of features cannot score a cohort.
        path = tmp_path / "m.txt"
        save_model(rule_based_model(), path)
        text = path.read_text(encoding="utf-8")
        assert "\nbase_dim 9\n" in text
        path.write_text(text.replace("base_dim 9", f"base_dim {base_dim}"), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: base_dim")):
            load_model(path)

    @pytest.mark.parametrize("weeks, line", [((1, 3), "trained_weeks 1,3"),
                                             ((), "trained_weeks -")])
    def test_trained_weeks_round_trip(self, tmp_path, weeks, line):
        path = tmp_path / "m.txt"
        save_model(RiskModel(ModelKind.LINEAR, np.zeros(9), 0.0, trained_weeks=weeks), path)
        assert line in path.read_text(encoding="utf-8").splitlines()
        assert load_model(path).trained_weeks == weeks

    def test_file_without_trained_weeks_loads_with_none(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(RiskModel(ModelKind.LINEAR, np.zeros(9), 0.0, trained_weeks=(2,)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(l for l in lines if not l.startswith("trained_weeks "))
                        + "\n", encoding="utf-8")
        assert load_model(path).trained_weeks == ()

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(rule_based_model(), path)
        path.write_text(path.read_text(encoding="utf-8") + "\n \n\n", encoding="utf-8")
        assert load_model(path).weights.tobytes() == RULE_WEIGHTS.tobytes()

    def test_model_dim_validation(self):
        with pytest.raises(ValueError):
            RiskModel(kind=ModelKind.POLY2, weights=np.zeros(9), bias=0.0)
        RiskModel(kind=ModelKind.POLY2, weights=np.zeros(45), bias=0.0)

    def test_a_model_equals_itself_and_hashes(self):
        # Its weights are an array, so a model compares by identity.
        model, twin = rule_based_model(), rule_based_model()
        assert model == model and model != twin
        assert hash(model) == hash(model)
        assert model in {model} and twin not in {model}
