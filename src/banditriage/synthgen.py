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

import configparser
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
    read_text,
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
class RiskCoefficients:
    """Planted log-odds weights over the canonical feature order, plus intercept."""

    weights: np.ndarray
    intercept: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (N_FEATURES,):
            raise ValueError(f"need {N_FEATURES} coefficients, got shape {w.shape}")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class GeneratorParams:
    """Inputs for one synthetic cohort.

    ``feature_prevalence`` aligns with the canonical feature order. The three
    indication entries form a categorical distribution (normalized to sum 1);
    the symptom and female entries are independent Bernoulli rates.
    ``unknown_rate`` masks each symptom value to unknown after the label was
    drawn from the true value, mimicking uncollected fields.
    """

    n_per_week: int
    weeks: tuple[int, int]  # inclusive range
    feature_prevalence: np.ndarray
    coefficients: RiskCoefficients
    regime_shift: tuple[int, RiskCoefficients] | None = None
    unknown_rate: float = 0.0
    seed: int = 0
    year: int = 2020

    def __post_init__(self):
        prev = np.asarray(self.feature_prevalence, dtype=float)
        if prev.shape != (N_FEATURES,):
            raise ValueError(f"need {N_FEATURES} prevalence entries, got shape {prev.shape}")
        if np.any(prev < 0) or np.any(prev[:5] > 1) or prev[_FEMALE_IDX] > 1:
            raise ValueError("prevalence rates must lie in [0, 1]")
        if prev[_INDICATION_SLICE].sum() <= 0:
            raise ValueError("indication prevalences must have positive total")
        object.__setattr__(self, "feature_prevalence", prev)
        if self.n_per_week < 0:
            raise ValueError("n_per_week must be >= 0")
        lo, hi = self.weeks
        if lo > hi or lo < 1 or hi > 52:
            raise ValueError(f"weeks range {self.weeks} is empty or outside 1..52")
        if not 0.0 <= self.unknown_rate <= 1.0:
            raise ValueError("unknown_rate must lie in [0, 1]")

    def week_list(self) -> list[int]:
        return list(range(self.weeks[0], self.weeks[1] + 1))

    def coefficients_for_week(self, week: int) -> RiskCoefficients:
        if self.regime_shift is not None and week >= self.regime_shift[0]:
            return self.regime_shift[1]
        return self.coefficients


def planted_model(params: GeneratorParams, week: int | None = None) -> RiskModel:
    """The generating linear predictor as a scorer (the ranking reference).

    ``week`` selects the regime; default is the base (pre-shift) regime.
    """
    coeffs = params.coefficients if week is None else params.coefficients_for_week(week)
    return RiskModel(kind=ModelKind.LINEAR, weights=coeffs.weights.copy(), bias=coeffs.intercept)


def generate_cohort(params: GeneratorParams) -> Cohort:
    """Draw a cohort, fully determined by ``params`` (including the seed).

    Per week, in fixed draw order: symptom uniforms, one indication uniform,
    female uniform, label uniform, masking uniforms. Labels use the true
    (pre-masking) features.
    """
    rng = np.random.default_rng(params.seed)
    prev = params.feature_prevalence
    ind_probs = prev[_INDICATION_SLICE] / prev[_INDICATION_SLICE].sum()
    ind_cum = np.cumsum(ind_probs)

    dates, symptoms, indication, gender, result = [], [], [], [], []
    for week in params.week_list():
        n = params.n_per_week
        coeffs = params.coefficients_for_week(week)
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

        p = sigmoid(X @ coeffs.weights + coeffs.intercept)
        positive = label_u < p
        masked = mask_u < params.unknown_rate

        # Record i of the week is dated on weekday 1 + (i % 7).
        monday = np.datetime64(date.fromisocalendar(params.year, week, 1), "D")
        dates.append(monday + np.arange(n) % 7)
        # Codes: TriState ABSENT/PRESENT are 0/1, Indication follows the one-hot order.
        symptoms.append(np.where(masked, TriState.UNKNOWN, X[:, :5]))
        indication.append(ind_choice)
        gender.append(np.where(X[:, _FEMALE_IDX] == 1.0, Gender.FEMALE, Gender.MALE))
        result.append(np.where(positive, TestResult.POSITIVE, TestResult.NEGATIVE))

    return Cohort(
        record_id=np.arange(params.n_per_week * len(dates)),
        test_date=np.concatenate(dates),
        symptoms=np.concatenate(symptoms),
        indication=np.concatenate(indication),
        gender=np.concatenate(gender),
        result=np.concatenate(result),
    )


# ---------------------------------------------------------------------------
# Scenario files: INI text, one [generator] block, [prevalence] and
# [coefficients] keyed by feature name, optional [shift] block that overrides
# the base coefficients at and after shift_week.
# ---------------------------------------------------------------------------


class ScenarioError(ValueError):
    pass


def _read_feature_block(section, *, base: dict[str, float], what: str) -> dict[str, float]:
    values = dict(base)
    for key, raw in section.items():
        if key in ("intercept", "shift_week"):
            continue
        if key not in FEATURE_NAMES:
            raise ScenarioError(f"unknown feature {key!r} in [{what}]")
        values[key] = float(raw)
    return values


def load_scenario(path: str | Path) -> GeneratorParams:
    parser = configparser.ConfigParser(interpolation=None)
    text = read_text(path, ScenarioError, "scenario file")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"bad scenario file {path}: {exc}") from exc
    for required in ("generator", "prevalence", "coefficients"):
        if required not in parser:
            raise ScenarioError(f"{path}: missing [{required}] section")

    gen = parser["generator"]
    weeks_raw = gen.get("weeks", "")
    try:
        lo, _, hi = weeks_raw.partition("-")
        weeks = (int(lo), int(hi if hi else lo))
    except ValueError as exc:
        raise ScenarioError(f"{path}: bad weeks range {weeks_raw!r} (want e.g. 1-8)") from exc

    prev_map = _read_feature_block(parser["prevalence"], base={}, what="prevalence")
    missing = [f for f in FEATURE_NAMES if f not in prev_map]
    if missing:
        raise ScenarioError(f"{path}: [prevalence] missing features {missing}")

    coef_section = parser["coefficients"]
    if "intercept" not in coef_section:
        raise ScenarioError(f"{path}: [coefficients] needs an intercept")
    coef_map = _read_feature_block(coef_section, base=dict.fromkeys(FEATURE_NAMES, 0.0), what="coefficients")
    base_coeffs = RiskCoefficients(
        weights=np.array([coef_map[f] for f in FEATURE_NAMES]),
        intercept=float(coef_section["intercept"]),
    )

    shift = None
    if "shift" in parser:
        shift_section = parser["shift"]
        if "shift_week" not in shift_section:
            raise ScenarioError(f"{path}: [shift] needs shift_week")
        alt_map = _read_feature_block(shift_section, base=coef_map, what="shift")
        alt = RiskCoefficients(
            weights=np.array([alt_map[f] for f in FEATURE_NAMES]),
            intercept=float(shift_section.get("intercept", coef_section["intercept"])),
        )
        shift = (int(shift_section["shift_week"]), alt)

    return GeneratorParams(
        n_per_week=gen.getint("n_per_week"),
        weeks=weeks,
        feature_prevalence=np.array([prev_map[f] for f in FEATURE_NAMES]),
        coefficients=base_coeffs,
        regime_shift=shift,
        unknown_rate=gen.getfloat("unknown_rate", 0.0),
        seed=gen.getint("seed", 0),
        year=gen.getint("year", 2020),
    )


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
