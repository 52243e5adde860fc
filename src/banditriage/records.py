"""Candidate test records: parsing, validation, featurization, week assignment.

Input is a delimited text file with one row per performed test (the public
"tested individuals" export schema). Each accepted row becomes one entry of a
:class:`Cohort`, a frozen set of equal-length numpy columns holding the row's
id, date and categorical codes. Scorers consume the fixed-order binary
encoding (:data:`FEATURE_NAMES`) the cohort derives from those codes. Records
are pooled by ISO-8601 week number, the time frame used everywhere downstream
(selection, retraining, metrics); a cohort therefore lies within one ISO year.
"""

from __future__ import annotations

import configparser
import csv
import logging
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

# The enum values are the codes a cohort stores; the lower-case member names
# are the canonical names that mapping files target.


class TriState(IntEnum):
    """Symptom flag: observed present, observed absent, or not collected."""

    ABSENT = 0
    PRESENT = 1
    UNKNOWN = 2


class Gender(IntEnum):
    MALE = 0
    FEMALE = 1
    UNKNOWN = 2


class Indication(IntEnum):
    """Reason the test was performed. Closed three-way vocabulary, in the
    order of the one-hot feature trio."""

    CONTACT_WITH_CONFIRMED = 0
    ABROAD = 1
    OTHER = 2


class TestResult(IntEnum):
    __test__ = False  # a domain type, not a pytest test class

    NEGATIVE = 0
    POSITIVE = 1
    OTHER = 2


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

#: Layout of the tuple :func:`parse_record` returns and
#: :meth:`Cohort.from_records` takes.
ROW_FIELDS: tuple[str, ...] = (
    ("record_id", "test_date") + SYMPTOM_FIELDS + ("indication", "gender", "result")
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

#: Mapping-file section -> (ValueMapping field, canonical enum).
_SECTIONS = {
    "corona_result": ("result", TestResult),
    "test_indication": ("indication", Indication),
    "gender": ("gender", Gender),
    "symptom": ("symptom", TriState),
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
        return cls(dict(_DEFAULT_RESULT), dict(_DEFAULT_INDICATION), dict(_DEFAULT_GENDER),
                   dict(_DEFAULT_SYMPTOM))

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

        tables = asdict(cls.default())
        for section in parser.sections():
            if section not in _SECTIONS:
                raise MappingFormatError(
                    f"unknown mapping section [{section}] "
                    f"(expected one of {sorted(_SECTIONS)})"
                )
            field_name, enum = _SECTIONS[section]
            canon = {e.name.lower(): e for e in enum}
            for raw, target in parser.items(section):
                target = target.strip().lower()
                if target not in canon:
                    raise MappingFormatError(
                        f"[{section}] {raw!r} -> {target!r}: not a canonical value "
                        f"(expected one of {sorted(canon)})"
                    )
                tables[field_name][raw] = canon[target]
        return cls(**tables)


def parse_record(
    row: Mapping[str, str],
    mapping: ValueMapping,
    *,
    record_id: int = 0,
    study_window: tuple[date, date] | None = None,
) -> tuple:
    """Validate one raw CSV row; return its values in :data:`ROW_FIELDS` order.

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

    symptoms = []
    for name in SYMPTOM_FIELDS:
        state = mapping.symptom.get(cell(name).lower())
        if state is None:
            raise RecordParseError(name, cell(name), "unmappable symptom value")
        symptoms.append(state)

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

    return (record_id, test_date, *symptoms, indication, gender, result)


# ---------------------------------------------------------------------------
# Cohort: equal-length columns, one entry per record in record order, with
# the numeric views (ids / features / labels per week) derived once so it is
# cheap and safe to share across threads.
# ---------------------------------------------------------------------------

_COLUMN_DTYPES = {
    "record_id": np.int64,
    "test_date": "datetime64[D]",
    "symptoms": np.int8,
    "indication": np.int8,
    "gender": np.int8,
    "result": np.int8,
}
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@dataclass(frozen=True, eq=False)
class Cohort:
    """Columns of one cohort, one entry per record in record order. Arrays
    already of their column's dtype are kept, not copied.

    ``symptoms`` holds the :class:`TriState` codes in :data:`SYMPTOM_FIELDS`
    order; unknown symptoms encode as 0.0, identical to absent, so rows with
    uncollected symptoms are kept and read as "no indication of the symptom"
    (``null_policy="drop"`` at load time is the strict alternative).
    """

    record_id: np.ndarray  # int64
    test_date: np.ndarray  # datetime64[D]
    symptoms: np.ndarray  # int8, shape (n, 5): TriState codes
    indication: np.ndarray  # int8 Indication codes
    gender: np.ndarray  # int8 Gender codes
    result: np.ndarray  # int8 TestResult codes

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.record_id)
        if self.symptoms.shape != (n, len(SYMPTOM_FIELDS)) or any(
            len(getattr(self, f.name)) != n for f in fields(self)
        ):
            raise ValueError("cohort columns differ in length")
        ids, counts = np.unique(self.record_id, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate record_id {ids[counts > 1][0]}")

        # ISO calendar once per distinct date.
        days, day_of_record = np.unique(self.test_date, return_inverse=True)
        iso = [d.isocalendar() for d in days.astype(object)]
        years = sorted({y for y, _, _ in iso})
        if len(years) > 1:
            raise DataError(f"dates span ISO years {', '.join(map(str, years))}, but weeks are "
                            "numbered within one; select one year with ingest "
                            "--window-start/--window-end")
        week = np.array([w for _, w, _ in iso], dtype=np.int64)[day_of_record]

        order = np.argsort(week, kind="stable")  # keeps record order within a week
        weeks, starts = np.unique(week[order], return_index=True)
        X = np.zeros((n, N_FEATURES))
        X[:, :5] = self.symptoms[order] == TriState.PRESENT
        X[np.arange(n), 5 + self.indication[order]] = 1.0
        X[:, 8] = self.gender[order] == Gender.FEMALE
        ids = self.record_id[order]
        y = self.result[order] == TestResult.POSITIVE
        ends = [*starts[1:], n]
        views = {int(w): (ids[a:b], X[a:b], y[a:b]) for w, a, b in zip(weeks, starts, ends)}
        object.__setattr__(self, "_week", week)
        object.__setattr__(self, "_views", views)

    @classmethod
    def from_records(cls, records: Sequence[tuple]) -> "Cohort":
        """Build a cohort from row tuples in :data:`ROW_FIELDS` order, as
        :func:`parse_record` returns them."""
        col = {name: [r[i] for r in records] for i, name in enumerate(ROW_FIELDS)}
        return cls(
            record_id=col["record_id"],
            test_date=np.array([d.toordinal() - _EPOCH_ORDINAL for d in col["test_date"]]),
            symptoms=np.array([col[s] for s in SYMPTOM_FIELDS], dtype=np.int8).T.copy(),
            indication=col["indication"],
            gender=col["gender"],
            result=col["result"],
        )

    def __len__(self) -> int:
        return len(self.record_id)

    @property
    def weeks(self) -> tuple[int, ...]:
        return tuple(self._views)

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
        keep = np.isin(self._week, list(weeks))
        return Cohort(**{f.name: getattr(self, f.name)[keep] for f in fields(self)})


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
    records: list[tuple] = []
    symptom_slice = slice(2, 2 + len(SYMPTOM_FIELDS))
    with fh:
        try:
            filtered = (line for line in fh if not line.startswith("#"))
            reader = csv.DictReader(filtered, delimiter=delimiter)
            if reader.fieldnames is None:
                raise CohortFormatError(f"{path}: empty file, no header row")
            header = [h.strip() for h in reader.fieldnames]
            for column in REQUIRED_COLUMNS:
                if column not in header:
                    raise CohortFormatError(f"{path}: header is missing column {column!r}")

            for row_number, row in enumerate(reader, start=1):
                report.n_rows += 1
                try:
                    rec = parse_record(
                        row, mapping, record_id=len(records), study_window=study_window
                    )
                except RecordParseError as exc:
                    report.rejections.append((row_number, str(exc)))
                    continue
                if rec[-1] is TestResult.OTHER and not keep_other_results:
                    report.rejections.append(
                        (row_number, "result 'other' excluded (keep_other_results retains)")
                    )
                    continue
                if null_policy == "drop" and TriState.UNKNOWN in rec[symptom_slice]:
                    report.rejections.append(
                        (row_number, "unknown symptom value (null_policy=drop)")
                    )
                    continue
                records.append(rec)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CohortFormatError(f"{path}: unreadable as delimited text: {exc}") from exc

    report.n_accepted = len(records)
    if report.n_rejected:
        log.info(
            "loaded %d records, rejected %d of %d rows",
            report.n_accepted,
            report.n_rejected,
            report.n_rows,
        )
    return Cohort.from_records(records), report


# Output spellings, indexed by code.
_OUT_SYMPTOM = np.array(["0", "1", ""], dtype=object)
_OUT_RESULT = np.array([e.name.lower() for e in TestResult], dtype=object)
_OUT_GENDER = np.array(["male", "female", ""], dtype=object)
_OUT_INDICATION = np.array(["Contact with confirmed", "Abroad", "Other"], dtype=object)


def cohort_to_rows(cohort: Cohort) -> list[tuple[str, ...]]:
    """The cohort's rows in the ingestion schema (:data:`REQUIRED_COLUMNS`)."""
    columns = [np.datetime_as_string(cohort.test_date, unit="D"), *_OUT_SYMPTOM[cohort.symptoms].T,
               _OUT_RESULT[cohort.result], _OUT_GENDER[cohort.gender],
               _OUT_INDICATION[cohort.indication]]
    return list(zip(*(c.tolist() for c in columns)))


def write_cohort_csv(cohort: Cohort, path: str | Path, *, header_comment: str | None = None) -> None:
    """Write a cohort in the exact ingestion schema (round-trips through load_cohort)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(cohort_to_rows(cohort))
