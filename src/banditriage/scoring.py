"""Risk scorers: the fixed 2/1/1 rule, a linear margin ranker, and a
pairwise-interaction (degree-2) ranker, trained by deterministic seeded
stochastic subgradient descent on the L2-regularized hinge loss.

Scores are raw margins. Any monotone calibration of a margin induces the
same ranking, and ranking is the only downstream use, so no calibration
step exists here.
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

    @property
    def feature_space_dim(self) -> int:
        return len(self.weights)

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
    epochs: int = 20
    seed: int = 0
    class_weighting: str = "balanced"  # "none" | "balanced"

    def __post_init__(self):
        if self.regularization <= 0:
            raise ValueError("regularization must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.class_weighting not in ("none", "balanced"):
            raise ValueError(f"unknown class_weighting {self.class_weighting!r}")


def hinge_objective(
    X: np.ndarray,
    y_signed: np.ndarray,
    w: np.ndarray,
    lam: float,
    costs: np.ndarray,
    counts: np.ndarray | None = None,
) -> float:
    """lam/2 ||w||^2 + mean(cost * max(0, 1 - y * Xw)) over augmented inputs,
    row i counted ``counts[i]`` times (once each by default)."""
    margins = y_signed * (X @ w)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(w @ w) + float(np.average(costs * hinge, weights=counts))


def _class_costs(y_signed: np.ndarray, weighting: str) -> np.ndarray:
    if weighting == "none":
        return np.ones(len(y_signed))
    n = len(y_signed)
    n_pos = int((y_signed > 0).sum())
    n_neg = n - n_pos
    costs = np.where(y_signed > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return costs


def train(
    X: np.ndarray,
    y: np.ndarray,
    kind: ModelKind,
    config: TrainConfig | None = None,
) -> RiskModel:
    """Fit a margin ranker on (0/1 base feature matrix, binary labels).

    Pegasos (Shalev-Shwartz, Singer & Srebro, ICML 2007): stochastic
    subgradient descent on the L2-regularized hinge loss with step size
    1/(lam*t), one pass per epoch in a seeded shuffle (``rng.permutation``
    of the rows), so identical inputs and config give bitwise-identical
    weights. The bias is trained as an augmented, regularized constant
    coordinate. The returned iterate is the epoch average with the lowest
    regularized objective (never worse than the zero vector).

    The iterate has a closed form, w_t = V_t/(lam*t), where V_t sums
    c*y*x over the violating steps so far (c is the row's class cost).
    Features are 0 or 1, so the rows fall into at most 2**d distinct
    patterns (192 for the cohort features), and into groups of equal
    (pattern, label). Training runs over the groups: Q[g] = y_g*x_g.V is
    kept per group, step t+1 violates iff Q[g] < lam*t (step 1 always
    does: w_0 = 0, margin 0 < 1), and a violation by group h adds
    c_h*y_h*y_g*(x_g.x_h) to every Q[g]. Only the groups' feature vectors
    are expanded, never the rows'.

    The epoch average is lazy. Over an epoch of steps t0+1..t1,
    sum_s V_s/s = V_t0*(H(t1) - H(t0)) + sum over the epoch's violations u
    of c*y*x*(H(t1) - H(u-1)), H being the harmonic partial sums; per group
    that is a count times a tail sum of 1/s, read off with bincount.

    Tie rule: a margin of exactly 1 is not a violation, up to the rounding
    of lam*t. With unit costs (``class_weighting="none"``) Q is an integer
    and can equal lam*t exactly.

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
    costs = _class_costs(np.where(positive, 1.0, -1.0), config.class_weighting)

    # Groups: rows equal in features and label, found as the distinct bytes
    # of the packed bits; a group's first row stands for it.
    packed = np.packbits(np.column_stack([X, positive]).astype(bool), axis=1)
    _, first_row, group_of_row, group_rows = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
        return_index=True, return_inverse=True, return_counts=True)
    x = X[first_row]
    if kind is ModelKind.POLY2:
        x = expand_poly2(x)
    x = np.hstack([x, np.ones((len(x), 1))])  # bias as last coordinate
    sign = np.where(positive[first_row], 1.0, -1.0)
    cost = costs[first_row]
    step = (cost * sign)[:, None] * (x @ x.T) * sign[None, :]  # row h: Q's move on h's violation
    step_rows = list(step)

    rng = np.random.default_rng(config.seed)
    q = np.zeros(len(x))
    violations = np.zeros(len(x))  # per group, before the current epoch
    best_w = np.zeros(x.shape[1])
    best_obj = hinge_objective(x, sign, best_w, lam, cost, group_rows)
    t = 0
    for _ in range(config.epochs):
        # The raw iterate oscillates (class costs inflate subgradient norms);
        # the within-epoch average is the stable candidate.
        order = group_of_row[rng.permutation(n)]
        thresholds = (lam * np.arange(t, t + n, dtype=float)).tolist()
        if t == 0:
            thresholds[0] = np.inf  # step 1: w_0 = 0, so the margin 0 < 1
        hits = []
        for j, g in enumerate(order.tolist()):
            if q[g] < thresholds[j]:
                q += step_rows[g]
                hits.append(j)
        tail = np.cumsum(1.0 / np.arange(t + n, t, -1, dtype=float))[::-1]  # H(t+n) - H(t+j)
        hit_groups = order[hits]
        coef = violations * tail[0] + np.bincount(hit_groups, tail[hits], minlength=len(x))
        violations += np.bincount(hit_groups, minlength=len(x))
        t += n
        w_avg = (coef * cost * sign) @ x / (lam * n)
        obj = hinge_objective(x, sign, w_avg, lam, cost, group_rows)
        if obj < best_obj:
            best_obj = obj
            best_w = w_avg

    return RiskModel(kind=kind, weights=best_w[:-1], bias=float(best_w[-1]), base_dim=base_dim)


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
