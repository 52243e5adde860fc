"""Risk scorers: the fixed 2/1/1 rule, a linear margin ranker, and a
pairwise-interaction (degree-2) ranker, fitted by Newton's method on the
L2-regularized logistic loss.

A trained model's score is its margin w.x + b, an estimate of the log-odds
of a positive result. Any monotone calibration of a margin induces the same
ranking, and ranking is the only downstream use, so no calibration step
exists here. Records enter as pattern codes (:data:`PATTERN_FEATURES`), and
each model kind reads its features of a code from one table
(:data:`KIND_FEATURES`).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .records import FEATURE_NAMES, N_FEATURES, PATTERN_FEATURES, pattern_counts, read_text

log = logging.getLogger(__name__)


class ModelKind(Enum):
    RULE_BASED = "rule_based"
    LINEAR = "linear"
    POLY2 = "poly2"


class DegenerateTrainingError(Exception):
    """Training set has fewer than two classes."""


#: The expert rule: contact-with-confirmed weighs 2, cough and fever 1 each.
RULE_WEIGHTS = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
class RiskModel:
    """A scorer over the canonical base feature space (:data:`FEATURE_NAMES`):
    the margin ``features @ weights + bias``, the features being the kind's
    columns of :data:`KIND_FEATURES`. ``trained_weeks`` are the weeks the
    model was fitted on, as :func:`banditriage.simulate.train_on_weeks`
    stamps them and a model file carries them; empty when none are known.

    A weight count other than the kind's, or a bias or weight that is not
    finite, is a ValueError.
    """

    kind: ModelKind
    weights: np.ndarray
    bias: float
    trained_weeks: tuple[int, ...] = ()

    def __post_init__(self):
        expected = KIND_FEATURES[self.kind].shape[1]
        if len(self.weights) != expected:
            raise ValueError(
                f"{self.kind.value} model needs {expected} weights, got {len(self.weights)}")
        if not np.isfinite(np.append(self.weights, self.bias)).all():
            raise ValueError("bias and weights must be finite numbers")


def rule_based_model() -> RiskModel:
    return RiskModel(kind=ModelKind.RULE_BASED, weights=RULE_WEIGHTS.copy(), bias=0.0)


def pair_order(d: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order: the documented
    layout of the interaction block appended by :func:`expand_poly2`."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def expand_poly2(X: np.ndarray) -> np.ndarray:
    """Append all distinct pairwise products to the rows of a base feature matrix.

    Squares are omitted: inputs are binary, so x*x == x adds nothing.
    """
    X = np.asarray(X, dtype=float)
    pairs = pair_order(X.shape[1])
    left = X[:, [i for i, _ in pairs]]
    right = X[:, [j for _, j in pairs]]
    return np.hstack([X, left * right])


#: Each model kind's features of the 512 pattern codes (read-only), one row a
#: code: the base features, and for POLY2 also their pairwise products. A
#: model holds one weight per column; training and scoring read rows here.
KIND_FEATURES = {kind: PATTERN_FEATURES for kind in ModelKind} | {
    ModelKind.POLY2: expand_poly2(PATTERN_FEATURES)}
KIND_FEATURES[ModelKind.POLY2].flags.writeable = False
#: Every pattern code: a model scores these once, and pools and weeks are
#: ranked and grouped by them.
PATTERN_CODES = np.arange(len(PATTERN_FEATURES))


def as_pattern_codes(X) -> np.ndarray:
    """``X`` as an array of pattern codes; raises ValueError unless it is a
    1-D array of integers in 0..511."""
    codes = np.asarray(X)
    if codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise ValueError(f"want a 1-D array of pattern codes, got {codes.dtype} of shape "
                         f"{codes.shape}")
    if len(codes) and not 0 <= codes.min() <= codes.max() < len(PATTERN_FEATURES):
        raise ValueError(f"pattern codes must lie in 0..{len(PATTERN_FEATURES) - 1}")
    return codes


@dataclass(frozen=True)
class TrainConfig:
    regularization: float = 1e-4
    epochs: int = 20  # cap on Newton iterations

    def __post_init__(self):
        if self.regularization <= 0:
            raise ValueError("regularization must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def train(
    X: np.ndarray,
    y: np.ndarray,
    kind: ModelKind,
    config: TrainConfig | None = None,
) -> RiskModel:
    """Fit a log-odds ranker on (pattern code per record, binary label).

    L2-regularized logistic regression: minimize the mean log-loss plus
    lam/2 ||w||^2, the bias being an augmented, regularized constant
    coordinate, by damped Newton's method from w = 0 (IRLS; McCullagh &
    Nelder, *Generalized Linear Models*, 1989, ch. 4).

    ``X`` holds one pattern code per record, so the records fall into at
    most 2 * 192 groups of equal (pattern, label), their nonzero cells of
    :func:`~banditriage.records.pattern_counts` in ascending order. The loss,
    gradient and Hessian are sums over the groups weighted by their record
    counts; each group's features are its code's row of :data:`KIND_FEATURES`.

    Damping: a Newton step n that moves some group's margin by at most
    delta = max_g |x_g.n| is scaled by log(1 + delta)/delta. The log-loss
    has |l'''| <= l'', so along the step the Hessian grows by at most
    e^(t*delta), and this scale minimizes the resulting bound on the
    objective (Sun & Tran-Dinh, *Math. Program.* 2019): every step
    decreases the objective, and the scale tends to 1 near the optimum.

    The fit stops once a step's max-norm is <= 1e-10, or after
    ``config.epochs`` steps with a logged warning. It draws no random
    numbers, and rows enter only through their group counts, so the same
    rows in any order give bitwise-identical weights.
    """
    config = config or TrainConfig()
    if kind not in (ModelKind.LINEAR, ModelKind.POLY2):
        raise ValueError(f"cannot train model kind {kind.value}")
    codes = as_pattern_codes(X)
    positive = np.asarray(y, dtype=bool)
    if len(codes) != len(positive):
        raise ValueError("X must hold one pattern code per label")
    if len(codes) == 0:
        raise ValueError("empty training set")
    if positive.all() or not positive.any():
        raise DegenerateTrainingError("training set contains a single class")
    counts = pattern_counts(codes, positive).ravel()
    groups = np.flatnonzero(counts)
    lam = config.regularization

    x = KIND_FEATURES[kind][groups >> 1]
    x = np.hstack([x, np.ones((len(x), 1))])  # bias as last coordinate
    sign = np.where(groups & 1, 1.0, -1.0)
    share = counts[groups] / len(codes)

    w = np.zeros(x.shape[1])
    for _ in range(config.epochs):
        # Per group, the signed margin z and log(1 + e^z): e^-softplus(z) is
        # sigmoid(-z), which neither overflows nor loses the tails.
        z = sign * (x @ w)
        softplus = np.logaddexp(0.0, z)
        grad = x.T @ (share * sign * -np.exp(-softplus)) + lam * w
        curvature = share * np.exp(-softplus - np.logaddexp(0.0, -z))
        newton = np.linalg.solve((x.T * curvature) @ x + lam * np.eye(len(w)), grad)
        delta = np.abs(x @ newton).max()
        step = newton * (np.log1p(delta) / delta) if delta > 0 else newton
        w -= step
        if np.abs(step).max() <= 1e-10:
            break
    else:
        log.warning("training stopped at the cap of %d Newton iterations before converging",
                    config.epochs)

    return RiskModel(kind=kind, weights=w[:-1], bias=float(w[-1]))


def score_matrix(model: RiskModel, X: np.ndarray) -> np.ndarray:
    """Risk score of every record of ``X``, an array of pattern codes, under
    the model: the rows of the kind's :data:`KIND_FEATURES` table are scored
    once and the scores gathered by code."""
    codes = as_pattern_codes(X)
    return (KIND_FEATURES[model.kind] @ model.weights + model.bias)[codes]


# ---------------------------------------------------------------------------
# Serialization: versioned plain text, full float round-trip via repr().
# ---------------------------------------------------------------------------

_FORMAT_TAG = "banditriage-model v1"


def feature_order_hash() -> str:
    return hashlib.sha256(",".join(FEATURE_NAMES).encode()).hexdigest()[:16]


def save_model(model: RiskModel, path: str | Path, *, manifest: str = "-") -> None:
    lines = [
        _FORMAT_TAG,
        f"manifest {manifest}",
        f"trained_weeks {','.join(map(str, model.trained_weeks)) or '-'}",
        f"kind {model.kind.value}",
        f"base_dim {N_FEATURES}",
        f"feature_hash {feature_order_hash()}",
        f"bias {float(model.bias)!r}",
        f"weights {len(model.weights)}",
    ]
    lines.extend(repr(float(w)) for w in model.weights)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> RiskModel:
    """The model a :func:`save_model` file holds. A malformed file, one for
    another encoding, or a model :class:`RiskModel` refuses is a ValueError
    naming the file. A file without a ``trained_weeks`` line, or with ``-``
    there, holds a model of no training weeks."""
    lines = read_text(path, ValueError, "model file").splitlines()
    if not lines or lines[0] != _FORMAT_TAG:
        raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
    fields, rest = {}, []
    for i, line in enumerate(lines[1:], start=1):
        key, _, value = line.partition(" ")
        fields[key] = value
        if key == "weights":
            rest = lines[i + 1 :]
            break
    for required in ("kind", "base_dim", "feature_hash", "bias", "weights"):
        if required not in fields:
            raise ValueError(f"{path}: missing field {required!r}")
    if fields["feature_hash"] != feature_order_hash():
        raise ValueError(f"{path}: feature order hash mismatch; model is for a different encoding")
    if fields["base_dim"] != str(N_FEATURES):
        raise ValueError(f"{path}: base_dim must be {N_FEATURES}, got {fields['base_dim']!r}")
    weeks = fields.get("trained_weeks", "-")
    try:
        n_weights = int(fields["weights"])
        weights = np.array([float(line) for line in rest[:n_weights]])
        if len(weights) != n_weights:
            raise ValueError(f"expected {n_weights} weight lines")
        trained = () if weeks in ("-", "") else tuple(map(int, weeks.split(",")))
        return RiskModel(ModelKind(fields["kind"]), weights, float(fields["bias"]), trained)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
