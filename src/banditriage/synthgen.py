"""Synthetic cohorts from a planted logistic risk model.

Every experiment and acceptance check can run without the real data export:
features are drawn per-record from configured prevalences, the label from a
Bernoulli on the logistic of a planted linear predictor, optionally switching
to alternate coefficients at a shift week (a regime change). The planted
predictor doubles as an analytically known ranking reference.

Generated cohorts serialize in the exact ingestion CSV schema, so generator
output round-trips through :func:`banditriage.records.load_cohort`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from importlib import resources
from pathlib import Path

import numpy as np

from .records import (
    FEATURE_NAMES,
    N_FEATURES,
    Cohort,
    Gender,
    TestResult,
    TriState,
    read_ini,
)
from .scoring import ModelKind, RiskModel

_INDICATION_SLICE = slice(5, 8)  # contact, abroad, other_indication
_FEMALE_IDX = 8


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GeneratorParams:
    """Inputs for one synthetic cohort.

    ``feature_prevalence`` aligns with the canonical feature order. The three
    indication entries form a categorical distribution (normalized to sum 1);
    the symptom and female entries are independent Bernoulli rates.
    ``unknown_rate`` masks each symptom value to unknown after the label was
    drawn from the true value, mimicking uncollected fields. The planted
    ``coefficients`` (and the ``regime_shift`` alternative) are linear
    models over the base features.
    """

    n_per_week: int
    weeks: tuple[int, int]  # inclusive range
    feature_prevalence: np.ndarray
    coefficients: RiskModel
    regime_shift: tuple[int, RiskModel] | None = None
    unknown_rate: float = 0.0
    seed: int = 0
    year: int = 2020

    def __post_init__(self):
        prev = np.asarray(self.feature_prevalence, dtype=float)
        if prev.shape != (N_FEATURES,):
            raise ValueError(f"need {N_FEATURES} prevalence entries, got shape {prev.shape}")
        if (not np.isfinite(prev).all() or np.any(prev < 0) or np.any(prev[:5] > 1)
                or prev[_FEMALE_IDX] > 1):
            raise ValueError("prevalence rates must lie in [0, 1]")
        if prev[_INDICATION_SLICE].sum() <= 0:
            raise ValueError("indication prevalences must have positive total")
        object.__setattr__(self, "feature_prevalence", prev)
        if self.n_per_week < 0:
            raise ValueError("n_per_week must be >= 0")
        lo, hi = self.weeks
        if lo > hi or lo < 1 or hi > 53:
            raise ValueError(f"weeks range {self.weeks} is empty or outside 1..53")
        if not 0.0 <= self.unknown_rate <= 1.0:
            raise ValueError("unknown_rate must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        try:
            date.fromisocalendar(self.year, hi, 7)  # the last day generated
        except ValueError as exc:
            raise ValueError(f"year {self.year}, week {hi}: {exc}") from None

    def week_list(self) -> list[int]:
        return list(range(self.weeks[0], self.weeks[1] + 1))


def planted_model(params: GeneratorParams, week: int | None = None) -> RiskModel:
    """The generating linear predictor as a scorer (the ranking reference).

    ``week`` selects the regime; default is the base (pre-shift) regime.
    """
    if week is not None and params.regime_shift is not None and week >= params.regime_shift[0]:
        return params.regime_shift[1]
    return params.coefficients


def generate_cohort(params: GeneratorParams) -> Cohort:
    """Draw a cohort, fully determined by ``params`` (including the seed).

    Per week, in fixed draw order: symptom uniforms, one indication uniform,
    female uniform, label uniform, masking uniforms. Labels use the true
    (pre-masking) features. Each week's codes are written straight into the
    cohort's int8 and datetime64 columns.
    """
    rng = np.random.default_rng(params.seed)
    prev = params.feature_prevalence
    ind_probs = prev[_INDICATION_SLICE] / prev[_INDICATION_SLICE].sum()
    ind_cum = np.cumsum(ind_probs)

    weeks, n = params.week_list(), params.n_per_week
    test_date = np.empty(n * len(weeks), "datetime64[D]")
    symptoms = np.empty((len(test_date), 5), np.int8)
    indication, gender, result = (np.empty(len(test_date), np.int8) for _ in range(3))
    for i, week in enumerate(weeks):
        rows = slice(i * n, (i + 1) * n)
        model = planted_model(params, week)
        symptom_u = rng.random((n, 5))
        indication_u = rng.random(n)
        female_u = rng.random(n)
        label_u = rng.random(n)
        mask_u = rng.random((n, 5))

        X = np.zeros((n, N_FEATURES))
        X[:, :5] = symptom_u < prev[:5]
        ind_choice = np.searchsorted(ind_cum, indication_u, side="right")
        ind_choice = np.minimum(ind_choice, 2)
        X[np.arange(n), 5 + ind_choice] = 1.0
        X[:, _FEMALE_IDX] = female_u < prev[_FEMALE_IDX]

        p = sigmoid(X @ model.weights + model.bias)
        positive = label_u < p
        masked = mask_u < params.unknown_rate

        # Record i of the week is dated on weekday 1 + (i % 7).
        monday = np.datetime64(date.fromisocalendar(params.year, week, 1), "D")
        test_date[rows] = monday + np.arange(n) % 7
        # Codes: TriState ABSENT/PRESENT are 0/1, Indication follows the one-hot order.
        symptoms[rows] = np.where(masked, TriState.UNKNOWN, X[:, :5])
        indication[rows] = ind_choice
        gender[rows] = np.where(X[:, _FEMALE_IDX] == 1.0, Gender.FEMALE, Gender.MALE)
        result[rows] = np.where(positive, TestResult.POSITIVE, TestResult.NEGATIVE)

    return Cohort(test_date=test_date, symptoms=symptoms, indication=indication, gender=gender,
                  result=result)


# ---------------------------------------------------------------------------
# Scenario files: INI text, one [generator] block, [prevalence] and
# [coefficients] keyed by feature name, optional [shift] block that overrides
# the base coefficients at and after shift_week.
# ---------------------------------------------------------------------------


class ScenarioError(ValueError):
    pass


def _week_span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    return int(lo), int(hi or lo)


_FEATURE_OVERRIDES = {f"{name}?": float for name in FEATURE_NAMES}
#: Scenario file layout (see :func:`banditriage.records.read_ini`).
_LAYOUT = {
    "generator": {"n_per_week": int, "weeks": _week_span, "seed?": int, "unknown_rate?": float,
                  "year?": int},
    "prevalence": dict.fromkeys(FEATURE_NAMES, float),
    "coefficients": {"intercept": float, **_FEATURE_OVERRIDES},
    "shift?": {"shift_week": int, "intercept?": float, **_FEATURE_OVERRIDES},
}


def _coefficients(values: dict[str, float]) -> RiskModel:
    return RiskModel(ModelKind.LINEAR, np.array([values[f] for f in FEATURE_NAMES]),
                     values["intercept"])


def load_scenario(path: str | Path) -> GeneratorParams:
    """Load a scenario file; any entry outside :data:`_LAYOUT` or a value
    :class:`GeneratorParams` refuses is a :class:`ScenarioError` naming it."""
    ini = read_ini(path, ScenarioError, "scenario file", _LAYOUT)
    base = dict.fromkeys(FEATURE_NAMES, 0.0) | ini["coefficients"]
    try:
        shift = None
        if "shift" in ini:
            shifted = base | ini["shift"]
            shift = (shifted.pop("shift_week"), _coefficients(shifted))
        return GeneratorParams(
            **ini["generator"],
            feature_prevalence=np.array([ini["prevalence"][f] for f in FEATURE_NAMES]),
            coefficients=_coefficients(base),
            regime_shift=shift,
        )
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def builtin_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package ('default', 'regime_shift', 'oracle')."""
    candidate = resources.files("banditriage").joinpath("scenarios", f"{name}.scenario")
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise ScenarioError(f"no builtin scenario named {name!r}")
        return path


def resolve_scenario(name_or_path: str | Path) -> GeneratorParams:
    """Load a scenario by builtin name or by file path."""
    path = Path(name_or_path)
    if path.exists():
        return load_scenario(path)
    return load_scenario(builtin_scenario_path(str(name_or_path)))
