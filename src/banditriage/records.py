"""Candidate test records: parsing, validation, featurization, week assignment.

Input is a delimited text file with one row per performed test (the public
"tested individuals" export schema). Rows become immutable :class:`TestRecord`
values; scorers consume the fixed-order binary encoding from :func:`featurize`.
Records are pooled by ISO-8601 week number, the time frame used everywhere
downstream (selection, retraining, metrics).
"""

from __future__ import annotations

import configparser
import csv
import logging
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)


class TriState(Enum):
    """Symptom flag: observed present, observed absent, or not collected."""

    PRESENT = "present"
    ABSENT = "absent"
    UNKNOWN = "unknown"


class Gender(Enum):
    FEMALE = "female"
    MALE = "male"
    UNKNOWN = "unknown"


class Indication(Enum):
    """Reason the test was performed. Closed three-way vocabulary."""

    CONTACT_WITH_CONFIRMED = "contact_with_confirmed"
    ABROAD = "abroad"
    OTHER = "other"


class TestResult(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    OTHER = "other"


SYMPTOM_FIELDS: tuple[str, ...] = (
    "cough",
    "fever",
    "sore_throat",
    "shortness_of_breath",
    "head_ache",
)

#: Canonical feature order shared by every scorer. The three indication
#: entries are a one-hot trio; `female` encodes gender (male/unknown -> 0).
FEATURE_NAMES: tuple[str, ...] = SYMPTOM_FIELDS + (
    "contact_with_confirmed",
    "abroad",
    "other_indication",
    "female",
)

N_FEATURES = len(FEATURE_NAMES)

REQUIRED_COLUMNS: tuple[str, ...] = (
    ("test_date",) + SYMPTOM_FIELDS + ("corona_result", "gender", "test_indication")
)


class DataError(Exception):
    """Base class for ingestion failures."""


class RecordParseError(DataError):
    """A single row could not become a valid record."""

    def __init__(self, column: str, value: str, message: str):
        self.column = column
        self.value = value
        super().__init__(f"{column}={value!r}: {message}")


class CohortFormatError(DataError):
    """The file as a whole is unusable (unreadable, header broken)."""


class MappingFormatError(DataError):
    """A value-mapping file is malformed."""


@dataclass(frozen=True)
class TestRecord:
    """One candidate-period row. Immutable once parsed."""

    record_id: int
    test_date: date
    cough: TriState
    fever: TriState
    sore_throat: TriState
    shortness_of_breath: TriState
    head_ache: TriState
    gender: Gender
    test_indication: Indication
    result: TestResult

    @property
    def is_positive(self) -> bool:
        return self.result is TestResult.POSITIVE

    def symptoms(self) -> tuple[TriState, ...]:
        return tuple(getattr(self, name) for name in SYMPTOM_FIELDS)


def featurize(record: TestRecord) -> np.ndarray:
    """Encode a record in the canonical 9-entry binary order.

    Unknown symptom values encode as 0.0, identical to absent: rows with
    uncollected symptoms are kept and read as "no indication of the symptom"
    rather than dropped (use ``null_policy="drop"`` at load time for the
    strict alternative).
    """
    v = np.zeros(N_FEATURES)
    for i, name in enumerate(SYMPTOM_FIELDS):
        if getattr(record, name) is TriState.PRESENT:
            v[i] = 1.0
    if record.test_indication is Indication.CONTACT_WITH_CONFIRMED:
        v[5] = 1.0
    elif record.test_indication is Indication.ABROAD:
        v[6] = 1.0
    else:
        v[7] = 1.0
    if record.gender is Gender.FEMALE:
        v[8] = 1.0
    return v


def week_of(d: date) -> int:
    """ISO-8601 week number of the date's year (Monday-Sunday weeks)."""
    return d.isocalendar()[1]


# ---------------------------------------------------------------------------
# Value mapping: raw source vocabulary -> canonical enums. The source data may
# use any language or casing; everything beyond the canonical defaults lives
# in a mapping file, not in code.
# ---------------------------------------------------------------------------

_DEFAULT_RESULT = {
    "positive": TestResult.POSITIVE,
    "negative": TestResult.NEGATIVE,
    "other": TestResult.OTHER,
}

_DEFAULT_INDICATION = {
    "contact with confirmed": Indication.CONTACT_WITH_CONFIRMED,
    "contact_with_confirmed": Indication.CONTACT_WITH_CONFIRMED,
    "abroad": Indication.ABROAD,
    "other": Indication.OTHER,
}

_DEFAULT_GENDER = {
    "female": Gender.FEMALE,
    "male": Gender.MALE,
    "unknown": Gender.UNKNOWN,
    "": Gender.UNKNOWN,
}

_DEFAULT_SYMPTOM = {
    "1": TriState.PRESENT,
    "0": TriState.ABSENT,
    "": TriState.UNKNOWN,
    "none": TriState.UNKNOWN,
    "null": TriState.UNKNOWN,
    "na": TriState.UNKNOWN,
}

_MAPPING_TARGETS = {
    "corona_result": {e.value: e for e in TestResult},
    "test_indication": {e.value: e for e in Indication},
    "gender": {e.value: e for e in Gender},
    "symptom": {e.value: e for e in TriState},
}


@dataclass(frozen=True)
class ValueMapping:
    """Raw-string to canonical-value tables, one per field family.

    Lookups are case-insensitive on stripped raw values. A mapping file
    overlays the canonical defaults, so only source-specific vocabulary
    (e.g. non-English raw values) needs to be listed.
    """

    result: Mapping[str, TestResult]
    indication: Mapping[str, Indication]
    gender: Mapping[str, Gender]
    symptom: Mapping[str, TriState]

    @classmethod
    def default(cls) -> "ValueMapping":
        return cls(
            result=dict(_DEFAULT_RESULT),
            indication=dict(_DEFAULT_INDICATION),
            gender=dict(_DEFAULT_GENDER),
            symptom=dict(_DEFAULT_SYMPTOM),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ValueMapping":
        """Load a mapping file: INI sections per field, `raw = canonical` pairs."""
        parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
        parser.optionxform = lambda opt: opt.strip().lower()  # type: ignore[method-assign]
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise CohortFormatError(f"cannot read mapping file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise MappingFormatError(f"bad mapping file {path}: {exc}") from exc

        base = cls.default()
        tables = {
            "corona_result": dict(base.result),
            "test_indication": dict(base.indication),
            "gender": dict(base.gender),
            "symptom": dict(base.symptom),
        }
        for section in parser.sections():
            if section not in _MAPPING_TARGETS:
                raise MappingFormatError(
                    f"unknown mapping section [{section}] "
                    f"(expected one of {sorted(_MAPPING_TARGETS)})"
                )
            canon = _MAPPING_TARGETS[section]
            for raw, target in parser.items(section):
                target = target.strip().lower()
                if target not in canon:
                    raise MappingFormatError(
                        f"[{section}] {raw!r} -> {target!r}: not a canonical value "
                        f"(expected one of {sorted(canon)})"
                    )
                tables[section][raw] = canon[target]
        return cls(
            result=tables["corona_result"],
            indication=tables["test_indication"],
            gender=tables["gender"],
            symptom=tables["symptom"],
        )


def parse_record(
    row: Mapping[str, str],
    mapping: ValueMapping,
    *,
    record_id: int = 0,
    study_window: tuple[date, date] | None = None,
) -> TestRecord:
    """Parse one raw CSV row into a validated record.

    Missing or empty symptom cells become UNKNOWN. Result and indication go
    through the closed vocabulary; anything unmappable raises
    :class:`RecordParseError` carrying the offending column and value.
    """

    def cell(column: str) -> str:
        value = row.get(column)
        return "" if value is None else str(value).strip()

    raw_date = cell("test_date")
    try:
        test_date = date.fromisoformat(raw_date)
    except ValueError as exc:
        raise RecordParseError("test_date", raw_date, "not an ISO-8601 date") from exc
    if study_window is not None:
        lo, hi = study_window
        if not lo <= test_date <= hi:
            raise RecordParseError(
                "test_date", raw_date, f"outside study window {lo}..{hi}"
            )

    symptoms = {}
    for name in SYMPTOM_FIELDS:
        raw = cell(name).lower()
        state = mapping.symptom.get(raw)
        if state is None:
            raise RecordParseError(name, cell(name), "unmappable symptom value")
        symptoms[name] = state

    raw_result = cell("corona_result")
    result = mapping.result.get(raw_result.lower())
    if result is None:
        raise RecordParseError("corona_result", raw_result, "unmappable result value")

    raw_indication = cell("test_indication")
    indication = mapping.indication.get(raw_indication.lower())
    if indication is None:
        raise RecordParseError(
            "test_indication", raw_indication, "unmappable indication value"
        )

    # Gender is lenient: it only feeds one weak feature and UNKNOWN is a
    # first-class state, so unexpected values degrade instead of rejecting.
    gender = mapping.gender.get(cell("gender").lower(), Gender.UNKNOWN)

    return TestRecord(
        record_id=record_id,
        test_date=test_date,
        gender=gender,
        test_indication=indication,
        result=result,
        **symptoms,
    )


# ---------------------------------------------------------------------------
# Cohort: an immutable collection of records pooled by week, with the numeric
# views (ids / features / labels per week) prebuilt so it is cheap and safe to
# share across threads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cohort:
    records: tuple[TestRecord, ...]
    week_index: Mapping[int, int]  # record_id -> week number

    def __post_init__(self):
        seen = set()
        grouped: dict[int, list[TestRecord]] = {}
        for rec in self.records:
            if rec.record_id in seen:
                raise ValueError(f"duplicate record_id {rec.record_id}")
            if rec.record_id not in self.week_index:
                raise ValueError(f"record {rec.record_id} has no week assignment")
            seen.add(rec.record_id)
            grouped.setdefault(self.week_index[rec.record_id], []).append(rec)
        views = {}
        for week, recs in grouped.items():
            ids = np.array([r.record_id for r in recs], dtype=np.int64)
            X = np.stack([featurize(r) for r in recs]) if recs else np.zeros((0, N_FEATURES))
            y = np.array([r.is_positive for r in recs], dtype=bool)
            views[week] = (ids, X, y)
        object.__setattr__(self, "_views", views)

    @classmethod
    def from_records(cls, records: Sequence[TestRecord]) -> "Cohort":
        week_index = {r.record_id: week_of(r.test_date) for r in records}
        return cls(records=tuple(records), week_index=week_index)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def weeks(self) -> tuple[int, ...]:
        return tuple(sorted(self._views))

    def _view(self, week: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        try:
            return self._views[week]
        except KeyError:
            have = ", ".join(str(w) for w in self.weeks) or "none"
            raise DataError(f"week {week} is not in the cohort (its weeks: {have})") from None

    def week_ids(self, week: int) -> np.ndarray:
        return self._view(week)[0]

    def week_features(self, week: int) -> np.ndarray:
        return self._view(week)[1]

    def week_labels(self, week: int) -> np.ndarray:
        return self._view(week)[2]

    def positives_by_week(self) -> dict[int, int]:
        return {w: int(self._views[w][2].sum()) for w in self.weeks}

    def subset_weeks(self, weeks: Iterable[int]) -> "Cohort":
        wanted = set(weeks)
        recs = [r for r in self.records if self.week_index[r.record_id] in wanted]
        idx = {r.record_id: self.week_index[r.record_id] for r in recs}
        return Cohort(records=tuple(recs), week_index=idx)


@dataclass
class LoadReport:
    """Bookkeeping for one ingestion pass: accepted + rejected == input rows."""

    n_rows: int = 0
    n_accepted: int = 0
    rejections: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row_number, reason in self.rejections:
                fh.write(f"{row_number}\t{reason}\n")


def load_cohort(
    path: str | Path,
    mapping: ValueMapping | None = None,
    *,
    delimiter: str = ",",
    keep_other_results: bool = False,
    null_policy: str = "as_absent",
    study_window: tuple[date, date] | None = None,
) -> tuple[Cohort, LoadReport]:
    """Load a delimited text file into a cohort plus a rejection report.

    Row numbers in the report are 1-based over data rows (header excluded).
    record_id is assigned by acceptance order, which equals row order.
    Records with result "other" are neither-label and are excluded by default;
    ``keep_other_results=True`` retains them (they count as negatives
    downstream). ``null_policy="drop"`` rejects rows with any unknown symptom
    instead of reading unknowns as absent.
    """
    if null_policy not in ("as_absent", "drop"):
        raise ValueError(f"null_policy must be 'as_absent' or 'drop', got {null_policy!r}")
    mapping = mapping or ValueMapping.default()

    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark.
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CohortFormatError(f"cannot read {path}: {exc}") from exc

    report = LoadReport()
    records: list[TestRecord] = []
    with fh:
        filtered = (line for line in fh if not line.startswith("#"))
        reader = csv.DictReader(filtered, delimiter=delimiter)
        if reader.fieldnames is None:
            raise CohortFormatError(f"{path}: empty file, no header row")
        header = [h.strip() for h in reader.fieldnames]
        for column in REQUIRED_COLUMNS:
            if column not in header:
                raise CohortFormatError(f"{path}: header is missing column {column!r}")

        next_id = 0
        for row_number, row in enumerate(reader, start=1):
            report.n_rows += 1
            try:
                rec = parse_record(
                    row, mapping, record_id=next_id, study_window=study_window
                )
            except RecordParseError as exc:
                report.rejections.append((row_number, str(exc)))
                continue
            if rec.result is TestResult.OTHER and not keep_other_results:
                report.rejections.append(
                    (row_number, "result 'other' excluded (keep_other_results retains)")
                )
                continue
            if null_policy == "drop" and TriState.UNKNOWN in rec.symptoms():
                report.rejections.append(
                    (row_number, "unknown symptom value (null_policy=drop)")
                )
                continue
            records.append(rec)
            next_id += 1

    report.n_accepted = len(records)
    if report.n_rejected:
        log.info(
            "loaded %d records, rejected %d of %d rows",
            report.n_accepted,
            report.n_rejected,
            report.n_rows,
        )
    return Cohort.from_records(records), report


_OUT_SYMPTOM = {TriState.PRESENT: "1", TriState.ABSENT: "0", TriState.UNKNOWN: ""}
_OUT_INDICATION = {
    Indication.CONTACT_WITH_CONFIRMED: "Contact with confirmed",
    Indication.ABROAD: "Abroad",
    Indication.OTHER: "Other",
}
_OUT_GENDER = {Gender.FEMALE: "female", Gender.MALE: "male", Gender.UNKNOWN: ""}


def cohort_to_rows(cohort: Cohort) -> list[list[str]]:
    rows = []
    for rec in cohort.records:
        rows.append(
            [rec.test_date.isoformat()]
            + [_OUT_SYMPTOM[s] for s in rec.symptoms()]
            + [rec.result.value, _OUT_GENDER[rec.gender], _OUT_INDICATION[rec.test_indication]]
        )
    return rows


def write_cohort_csv(cohort: Cohort, path: str | Path, *, header_comment: str | None = None) -> None:
    """Write a cohort in the exact ingestion schema (round-trips through load_cohort)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(cohort_to_rows(cohort))
