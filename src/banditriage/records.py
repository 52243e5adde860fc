"""Candidate test records: ingestion, validation, featurization, week assignment.

Input is a delimited text file with one row per performed test (the public
"tested individuals" export schema). :func:`load_cohort` reads it a column at
a time: in bounded chunks of rows, each required column's distinct cells are
validated and coded once, and the codes of the accepted rows go straight into
a :class:`Cohort`, a frozen set of equal-length numpy columns holding the
row's id, date and categorical codes. Scorers consume the fixed-order binary
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
from itertools import islice
from operator import itemgetter
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

#: Layout of the row tuples :meth:`Cohort.from_records` takes.
ROW_FIELDS: tuple[str, ...] = (
    ("record_id", "test_date") + SYMPTOM_FIELDS + ("indication", "gender", "result")
)


class DataError(Exception):
    """Base class for ingestion failures."""


class CohortFormatError(DataError):
    """The file as a whole is unusable (unreadable, header broken)."""


class MappingFormatError(DataError):
    """A value-mapping file is malformed."""


def read_text(path: str | Path, error: type[Exception], what: str) -> str:
    """The UTF-8 text of a small input file; a missing, unreadable or
    non-UTF-8 file raises ``error`` naming it as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


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
        text = read_text(path, CohortFormatError, "mapping file")
        try:
            parser.read_string(text, source=str(path))
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
        """Build a cohort from row tuples in :data:`ROW_FIELDS` order."""
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


#: Data rows validated at a time. It only bounds the raw cells held in
#: memory; the result does not depend on it.
_CHUNK_ROWS = 2048
#: Code of a cell its column rejects; no column codes to it.
_REJECTED = np.iinfo(np.int64).min


def _column_coders(mapping: ValueMapping, study_window: tuple[date, date] | None) -> list:
    """(column, coder) in the order a row's rejection is decided. A coder maps
    a stripped cell to its code, or raises ValueError carrying the reason."""

    def test_date(text: str) -> int:
        try:
            day = date.fromisoformat(text)
        except ValueError:
            raise ValueError("not an ISO-8601 date") from None
        if study_window is not None and not study_window[0] <= day <= study_window[1]:
            raise ValueError(f"outside study window {study_window[0]}..{study_window[1]}")
        return day.toordinal() - _EPOCH_ORDINAL

    def vocabulary(table: Mapping[str, IntEnum], what: str, default=None):
        def code(text: str) -> int:
            value = table.get(text.lower(), default)
            if value is None:
                raise ValueError(f"unmappable {what} value")
            return value
        return code

    return [
        ("test_date", test_date),
        *[(name, vocabulary(mapping.symptom, "symptom")) for name in SYMPTOM_FIELDS],
        ("corona_result", vocabulary(mapping.result, "result")),
        ("test_indication", vocabulary(mapping.indication, "indication")),
        # Gender is lenient: it only feeds one weak feature and UNKNOWN is a
        # first-class state, so unexpected values degrade instead of rejecting.
        ("gender", vocabulary(mapping.gender, "gender", Gender.UNKNOWN)),
    ]


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

    Columns are found by their stripped header names; lines starting with
    ``#`` and blank lines are skipped. Row numbers in the report are 1-based
    over the remaining data rows. Each column's distinct cells are validated
    once, on their stripped text, and a rejected row is reported under its
    first failing column: date (or study window), the symptoms, result,
    indication. Missing or empty symptom cells are UNKNOWN. record_id is
    assigned by acceptance order, which equals row order.
    Records with result "other" are neither-label and are excluded by default;
    ``keep_other_results=True`` retains them (they count as negatives
    downstream). ``null_policy="drop"`` rejects rows with any unknown symptom
    instead of reading unknowns as absent.
    """
    if null_policy not in ("as_absent", "drop"):
        raise ValueError(f"null_policy must be 'as_absent' or 'drop', got {null_policy!r}")
    coders = _column_coders(mapping or ValueMapping.default(), study_window)
    symptom_rows = slice(1, 1 + len(SYMPTOM_FIELDS))
    result_row = 1 + len(SYMPTOM_FIELDS)

    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark.
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CohortFormatError(f"cannot read {path}: {exc}") from exc

    report = LoadReport()
    dates = [np.empty(0, "datetime64[D]")]  # accepted rows, chunk by chunk
    codes = [np.empty((len(coders) - 1, 0), np.int8)]  # the other columns, in coder order
    with fh:
        try:
            reader = csv.reader((line for line in fh if not line.startswith("#")),
                                delimiter=delimiter)
            header = next(reader, None)
            if header is None:
                raise CohortFormatError(f"{path}: empty file, no header row")
            position = {name.strip(): i for i, name in enumerate(header)}
            for column in REQUIRED_COLUMNS:
                if column not in position:
                    raise CohortFormatError(f"{path}: header is missing column {column!r}")
            cell_of = [itemgetter(position[column]) for column, _ in coders]
            width = max(position[column] for column in REQUIRED_COLUMNS) + 1

            rows = filter(None, reader)  # a blank line reads as [] and is no row
            while chunk := list(islice(rows, _CHUNK_ROWS)):
                if min(map(len, chunk)) < width:  # short rows read as empty cells
                    chunk = [r + [""] * (width - len(r)) for r in chunk]
                coded = np.empty((len(coders), len(chunk)), np.int64)
                reasons = []  # per column: raw cell -> rejection reason
                for i, (column, coder) in enumerate(coders):
                    cells = list(map(cell_of[i], chunk))
                    table, why = {}, {}
                    for raw in set(cells):
                        try:
                            table[raw] = coder(raw.strip())
                        except ValueError as exc:
                            table[raw] = _REJECTED
                            why[raw] = f"{column}={raw.strip()!r}: {exc}"
                    coded[i] = np.fromiter(map(table.__getitem__, cells), np.int64, len(cells))
                    reasons.append(why)

                bad = coded == _REJECTED
                failed = bad.any(axis=0)
                other = ~failed & (coded[result_row] == TestResult.OTHER) & (not keep_other_results)
                dropped = (~failed & ~other & (null_policy == "drop")
                           & (coded[symptom_rows] == TriState.UNKNOWN).any(axis=0))
                first_bad = bad.argmax(axis=0)
                for j in np.flatnonzero(failed | other | dropped).tolist():
                    if failed[j]:
                        i = first_bad[j]
                        reason = reasons[i][cell_of[i](chunk[j])]
                    elif other[j]:
                        reason = "result 'other' excluded (keep_other_results retains)"
                    else:
                        reason = "unknown symptom value (null_policy=drop)"
                    report.rejections.append((report.n_rows + j + 1, reason))
                report.n_rows += len(chunk)

                keep = coded[:, ~(failed | other | dropped)]
                dates.append(keep[0].astype("datetime64[D]"))
                codes.append(keep[1:].astype(np.int8))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CohortFormatError(f"{path}: unreadable as delimited text: {exc}") from exc

    test_date, columns = np.concatenate(dates), np.concatenate(codes, axis=1)
    report.n_accepted = len(test_date)
    if report.n_rejected:
        log.info("loaded %d records, rejected %d of %d rows",
                 report.n_accepted, report.n_rejected, report.n_rows)
    symptoms, (result, indication, gender) = columns[:-3].T, columns[-3:]
    return Cohort(np.arange(report.n_accepted), test_date, np.ascontiguousarray(symptoms),
                  indication, gender, result), report


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
