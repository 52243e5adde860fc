"""Risk scorers: the fixed 2/1/1 rule, a linear margin ranker, and a
pairwise-interaction (degree-2) ranker, fitted by Newton's method on the
L2-regularized logistic loss.

A trained model's score is its margin w.x + b, an estimate of the log-odds
of a positive result. Any monotone calibration of a margin induces the same
ranking, and ranking is the only downstream use, so no calibration step
exists here.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .records import FEATURE_NAMES, N_FEATURES, read_text

log = logging.getLogger(__name__)


class ModelKind(Enum):
    RULE_BASED = "rule_based"
    LINEAR = "linear"
    POLY2 = "poly2"


class DegenerateTrainingError(Exception):
    """Training set has fewer than two classes."""


#: The expert rule: contact-with-confirmed weighs 2, cough and fever 1 each.
RULE_WEIGHTS = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class RiskModel:
    """A scorer over the canonical base feature space.

    ``weights`` live in the model's own feature space: base features for
    RULE_BASED/LINEAR, base plus pairwise products for POLY2.
    """

    kind: ModelKind
    weights: np.ndarray
    bias: float
    base_dim: int = N_FEATURES

    def __post_init__(self):
        expected = poly2_dim(self.base_dim) if self.kind is ModelKind.POLY2 else self.base_dim
        if len(self.weights) != expected:
            raise ValueError(
                f"{self.kind.value} model over base_dim={self.base_dim} "
                f"needs {expected} weights, got {len(self.weights)}"
            )


def rule_based_model() -> RiskModel:
    return RiskModel(kind=ModelKind.RULE_BASED, weights=RULE_WEIGHTS.copy(), bias=0.0)


def poly2_dim(d: int) -> int:
    return d + d * (d - 1) // 2


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
    if not pairs:
        return X.copy()
    left = X[:, [i for i, _ in pairs]]
    right = X[:, [j for _, j in pairs]]
    return np.hstack([X, left * right])


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
    """Fit a log-odds ranker on (0/1 base feature matrix, binary labels).

    L2-regularized logistic regression: minimize the mean log-loss plus
    lam/2 ||w||^2, the bias being an augmented, regularized constant
    coordinate, by damped Newton's method from w = 0 (IRLS; McCullagh &
    Nelder, *Generalized Linear Models*, 1989, ch. 4).

    Features are 0 or 1, so the rows fall into at most 2**d distinct
    patterns (192 for the cohort features), and into groups of equal
    (pattern, label). The loss, gradient and Hessian are sums over the
    groups weighted by their row counts; only the groups' feature vectors
    are expanded, never the rows'.

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

    Raises ValueError if any entry of X is not 0 or 1.
    """
    config = config or TrainConfig()
    if kind not in (ModelKind.LINEAR, ModelKind.POLY2):
        raise ValueError(f"cannot train model kind {kind.value}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    if len(X) == 0:
        raise ValueError("empty training set")
    if ((X != 0.0) & (X != 1.0)).any():
        raise ValueError("training features must be 0 or 1")
    n, base_dim = X.shape
    positive = np.asarray(y, dtype=bool)
    if positive.all() or not positive.any():
        raise DegenerateTrainingError("training set contains a single class")
    lam = config.regularization

    # Groups: rows equal in features and label, found as the distinct bytes
    # of the packed bits; a group's first row stands for it.
    packed = np.packbits(np.column_stack([X, positive]).astype(bool), axis=1)
    _, first_row, group_rows = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
        return_index=True, return_counts=True)
    x = X[first_row]
    if kind is ModelKind.POLY2:
        x = expand_poly2(x)
    x = np.hstack([x, np.ones((len(x), 1))])  # bias as last coordinate
    sign = np.where(positive[first_row], 1.0, -1.0)
    share = group_rows / n

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

    return RiskModel(kind=kind, weights=w[:-1], bias=float(w[-1]), base_dim=base_dim)


def score_matrix(model: RiskModel, X: np.ndarray) -> np.ndarray:
    """Risk score of every row of a base feature matrix under the model."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.base_dim:
        raise ValueError(
            f"feature matrix of shape {X.shape} does not match model base_dim {model.base_dim}"
        )
    if model.kind is ModelKind.POLY2:
        X = expand_poly2(X)
    return X @ model.weights + model.bias


# ---------------------------------------------------------------------------
# Serialization: versioned plain text, full float round-trip via repr().
# ---------------------------------------------------------------------------

_FORMAT_TAG = "banditriage-model v1"


def feature_order_hash() -> str:
    return hashlib.sha256(",".join(FEATURE_NAMES).encode()).hexdigest()[:16]


def save_model(
    model: RiskModel,
    path: str | Path,
    *,
    manifest: str = "-",
    trained_weeks: str = "-",
) -> None:
    lines = [
        _FORMAT_TAG,
        f"manifest {manifest}",
        f"trained_weeks {trained_weeks}",
        f"kind {model.kind.value}",
        f"base_dim {model.base_dim}",
        f"feature_hash {feature_order_hash()}",
        f"bias {float(model.bias)!r}",
        f"weights {len(model.weights)}",
    ]
    lines.extend(repr(float(w)) for w in model.weights)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_model_file(path: str | Path) -> tuple[dict[str, str], list[str]]:
    """Header fields of a saved model (up to and including ``weights``) and
    the lines that follow the header."""
    lines = read_text(path, ValueError, "model file").splitlines()
    if not lines or lines[0] != _FORMAT_TAG:
        raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
    fields = {}
    for i, line in enumerate(lines[1:], start=1):
        key, _, value = line.partition(" ")
        fields[key] = value
        if key == "weights":
            return fields, lines[i + 1 :]
    return fields, []


def model_metadata(path: str | Path) -> dict[str, str]:
    """Header fields of a saved model (kind, trained_weeks, manifest, ...)."""
    return _read_model_file(path)[0]


def load_model(path: str | Path) -> RiskModel:
    fields, rest = _read_model_file(path)
    for required in ("kind", "base_dim", "feature_hash", "bias", "weights"):
        if required not in fields:
            raise ValueError(f"{path}: missing field {required!r}")
    if fields["feature_hash"] != feature_order_hash():
        raise ValueError(f"{path}: feature order hash mismatch; model is for a different encoding")
    n_weights = int(fields["weights"])
    weight_lines = rest[:n_weights]
    if len(weight_lines) != n_weights:
        raise ValueError(f"{path}: expected {n_weights} weight lines")
    weights = np.array([float(line) for line in weight_lines])
    return RiskModel(
        kind=ModelKind(fields["kind"]),
        weights=weights,
        bias=float(fields["bias"]),
        base_dim=int(fields["base_dim"]),
    )
