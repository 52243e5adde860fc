"""Candidate test records: ingestion, validation, featurization, week assignment.

Input is a delimited text file with one row per performed test (the public
"tested individuals" export schema), one record per physical line.
:func:`load_cohort` works once per distinct value: it parses each distinct
line once, validates and codes each required column's distinct cells once,
and gathers the codes of the accepted rows into a :class:`Cohort`, a frozen
set of equal-length numpy columns holding the row's date and categorical
codes; a record's id is its 0-based row in the cohort. Scorers consume the
nine binary features (:data:`FEATURE_NAMES`) the cohort derives from those
codes, as one pattern code per record (:data:`PATTERN_FEATURES`). Records
are pooled by ISO-8601 week number, the time frame used everywhere
downstream (selection, retraining, metrics); a cohort therefore lies within
one ISO year, which its first and last dates fix. A cohort is built in
passes over small integer columns: weeks by arithmetic from the Monday of
that year's week 1, pattern codes directly in uint16.
"""

from __future__ import annotations

import configparser
import csv
import logging
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from enum import IntEnum
from itertools import count, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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

#: Row p holds the features of pattern code p. A record's pattern code is
#: sum(x_j * 2**(8 - j)) over its features x_j in FEATURE_NAMES order, so
#: cough is the most significant bit and female the least; ascending codes
#: order patterns as binary numbers read from the first feature.
PATTERN_FEATURES = ((np.arange(2**N_FEATURES)[:, None] >> np.arange(N_FEATURES - 1, -1, -1))
                    & 1).astype(float)
PATTERN_FEATURES.flags.writeable = False


def pattern_counts(codes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The records' (512, 2) int64 count table: code c's negatives, positives in row c."""
    return np.bincount(codes * 2 + np.asarray(labels, dtype=bool),
                       minlength=2 * len(PATTERN_FEATURES)).reshape(-1, 2)


REQUIRED_COLUMNS: tuple[str, ...] = (
    ("test_date",) + SYMPTOM_FIELDS + ("corona_result", "gender", "test_indication")
)

#: Layout of the row tuples :meth:`Cohort.from_records` takes.
ROW_FIELDS: tuple[str, ...] = (
    ("test_date",) + SYMPTOM_FIELDS + ("indication", "gender", "result")
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


def one_of(table: Mapping[str, object], what: str) -> Callable[[str], object]:
    """A converter from text to ``table``'s value for it, in any case; other
    text raises ValueError listing the keys of ``table`` as what ``what`` takes."""

    def convert(text: str):
        try:
            return table[text.lower()]
        except KeyError:
            raise ValueError(f"{what} takes {'/'.join(table)}") from None

    return convert


#: A switch value from its text: the one vocabulary of policy and --config files.
switch = one_of({"true": True, "yes": True, "on": True, "1": True,
                 "false": False, "no": False, "off": False, "0": False}, "a switch")


def read_ini(path: str | Path, error: type[Exception], what: str,
             layout: Mapping[str, Mapping[str, Callable] | Callable]) -> dict[str, dict]:
    """The sections of INI file ``path``, in file order, each a dict of its
    keys' converted values, checked against ``layout``.

    ``layout`` maps a section name to its keys, and each key name to the
    function that converts its value text. A section or key name ending in
    ``?`` may be absent; the others are required. A section name ending in
    `` *`` stands for every section named with that prefix (``arm *`` takes
    ``[arm contacts]``), any number of times. A section given one function
    instead of a key table takes any key and converts every value with it.
    Keys are read lower-cased. Lines are ``key = value``; ``#`` and ``;``
    start comment lines. Any other section or key, a missing one, a value its
    function refuses with ``ValueError`` or ``error``, and malformed INI each
    raise ``error`` naming the file, and the section and key where there is one.
    """
    # No default section: a [DEFAULT] block would feed keys into every other one.
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None,
                                       default_section="")
    try:
        parser.read_string(read_text(path, error, what), source=str(path))
    except configparser.Error as exc:
        raise error(f"bad {what} {path}: {exc}") from None

    def layout_name(section: str) -> str:
        for name in layout:
            if name.rstrip("?") == section or name.endswith(" *") and section.startswith(name[:-1]):
                return name
        want = ", ".join(f"[{name.rstrip('?').replace('*', 'NAME')}]" for name in layout)
        raise error(f"{path}: unknown section [{section}] (want {want})")

    sections = {section: layout_name(section) for section in parser.sections()}
    for name in layout:
        if not name.endswith(("?", " *")) and name not in sections.values():
            raise error(f"{path}: missing [{name}] section")
    out = {}
    for section, name in sections.items():
        given, keys = parser[section], layout[name]
        if callable(keys):
            convert = dict.fromkeys(given, keys)
        else:
            convert = {key.rstrip("?"): fn for key, fn in keys.items()}
            for key in given:
                if key not in convert:
                    raise error(f"{path}: unknown key {key!r} in [{section}]")
            for key in keys:
                if key not in given and not key.endswith("?"):
                    article = "an" if key[0] in "aeiou" else "a"
                    raise error(f"{path}: [{section}] needs {article} {key}")
        out[section] = {}
        for key, raw in given.items():
            try:
                out[section][key] = convert[key](raw)
            except (ValueError, error) as exc:
                raise error(f"{path}: [{section}] {key} = {raw!r}: {exc}") from None
    return out


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
        layout = {f"{section}?": one_of({e.name.lower(): e for e in enum}, "a mapping target")
                  for section, (_, enum) in _SECTIONS.items()}
        tables = asdict(cls.default())
        for section, pairs in read_ini(path, MappingFormatError, "mapping file", layout).items():
            tables[_SECTIONS[section][0]].update(pairs)
        return cls(**tables)


# ---------------------------------------------------------------------------
# Cohort: equal-length columns, one entry per record in record order, with
# the numeric views (rows / pattern codes / labels / count table per week)
# derived once so it is cheap and safe to share across threads.
# ---------------------------------------------------------------------------

_COLUMN_DTYPES = {
    "test_date": "datetime64[D]",
    "symptoms": np.int8,
    "indication": np.int8,
    "gender": np.int8,
    "result": np.int8,
}
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def _iso_year(day) -> int:
    """The ISO year of a day counted from 1970-01-01."""
    return date.fromordinal(int(day) + _EPOCH_ORDINAL).isocalendar()[0]


@dataclass(frozen=True, eq=False)
class Cohort:
    """Columns of one cohort, one entry per record in record order; a
    record's id is its 0-based row. Arrays already of their column's dtype
    are kept, not copied.

    ``symptoms`` holds the :class:`TriState` codes in :data:`SYMPTOM_FIELDS`
    order; unknown symptoms encode as absent, so rows with uncollected
    symptoms are kept and read as "no indication of the symptom"
    (``null_policy="drop"`` at load time is the strict alternative). A
    week's views hold its records' codes in :data:`PATTERN_FEATURES`, built
    in uint16 from the present-flags, the indication and the gender, and
    their :func:`pattern_counts` table, all that a metric reads of a week.

    Weeks are numbered within one ISO year: the years of the first and last
    dates must agree (the ISO year never falls as the date rises), else a
    :class:`DataError` lists the years present. A week's views list its
    records in row order; their rows (:meth:`week_ids`) are int32, as is
    the week arithmetic of the build.
    """

    test_date: np.ndarray  # datetime64[D]
    symptoms: np.ndarray  # int8, shape (n, 5): TriState codes
    indication: np.ndarray  # int8 Indication codes
    gender: np.ndarray  # int8 Gender codes
    result: np.ndarray  # int8 TestResult codes

    def __post_init__(self):
        for name, dtype in _COLUMN_DTYPES.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.test_date)
        if self.symptoms.shape != (n, len(SYMPTOM_FIELDS)) or any(
            len(getattr(self, f.name)) != n for f in fields(self)
        ):
            raise ValueError("cohort columns differ in length")

        # The ISO year never falls as the date rises, so the first and last
        # dates fix it; weeks then count from the Monday of its week 1.
        day = self.test_date.view(np.int64)
        week = np.zeros(0, np.uint8)
        if n:
            year, last = _iso_year(day.min()), _iso_year(day.max())
            if year != last:
                years = sorted(set(map(_iso_year, np.unique(day))))
                raise DataError(f"dates span ISO years {', '.join(map(str, years))}, but weeks "
                                "are numbered within one; select one year with ingest "
                                "--window-start/--window-end")
            # In int32: a date of years 1..9999 counts under 3 million days.
            week = day.astype(np.int32)
            week -= date.fromisocalendar(year, 1, 1).toordinal() - _EPOCH_ORDINAL
            week //= 7
            week += 1
            week = week.astype(np.uint8)

        # Pattern codes: symptoms are bits 8 to 4, indication i bit 3 - i, female
        # bit 0. The present-flags shift in one column at a time, the first
        # symptom first, so that it ends up the most significant.
        pattern = np.zeros(n, np.uint16)
        for column in self.symptoms.T:
            pattern <<= 1
            pattern |= column == TriState.PRESENT
        pattern <<= 4
        pattern |= np.right_shift(np.uint16(8), self.indication.view(np.uint8))
        pattern |= self.gender == Gender.FEMALE

        # A radix sort, which keeps row order in a week; rows are held in int32.
        order = np.argsort(week, kind="stable").astype(np.int32)
        pattern = pattern[order]
        y = self.result[order] == TestResult.POSITIVE
        counts = np.bincount(week)
        ends = np.cumsum(counts)
        bounds = zip((ends - counts).tolist(), ends.tolist())
        views = {w: (order[a:b], pattern[a:b], y[a:b], pattern_counts(pattern[a:b], y[a:b]))
                 for w, (a, b) in enumerate(bounds) if a < b}
        object.__setattr__(self, "_week", week)
        object.__setattr__(self, "_views", views)

    @classmethod
    def from_records(cls, records: Sequence[tuple]) -> "Cohort":
        """Build a cohort from row tuples in :data:`ROW_FIELDS` order."""
        col = {name: [r[i] for r in records] for i, name in enumerate(ROW_FIELDS)}
        return cls(
            test_date=np.array([d.toordinal() - _EPOCH_ORDINAL for d in col["test_date"]]),
            symptoms=np.array([col[s] for s in SYMPTOM_FIELDS], dtype=np.int8).T.copy(),
            indication=col["indication"],
            gender=col["gender"],
            result=col["result"],
        )

    def __len__(self) -> int:
        return len(self.test_date)

    @property
    def weeks(self) -> tuple[int, ...]:
        return tuple(self._views)

    def _view(self, week: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        try:
            return self._views[week]
        except KeyError:
            have = ", ".join(str(w) for w in self.weeks) or "none"
            raise DataError(f"week {week} is not in the cohort (its weeks: {have})") from None

    def week_ids(self, week: int) -> np.ndarray:
        """The rows of the week's records, ascending, in int32."""
        return self._view(week)[0]

    def week_patterns(self, week: int) -> np.ndarray:
        return self._view(week)[1]

    def week_labels(self, week: int) -> np.ndarray:
        return self._view(week)[2]

    def week_counts(self, week: int) -> np.ndarray:
        """The week's :func:`pattern_counts` table."""
        return self._view(week)[3]

    def positives_by_week(self) -> dict[int, int]:
        return {w: int(self._views[w][3][:, 1].sum()) for w in self.weeks}

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


#: Code of a cell its column rejects; no column codes to it.
_REJECTED = np.iinfo(np.int32).min


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


_PARSE_SLICE = 256  # distinct lines per csv pass in _read_rows, which bounds its memory


def _read_rows(path: str | Path, delimiter: str,
               columns: Sequence[str]) -> tuple[list[list[str]], np.ndarray, np.ndarray]:
    """The distinct cells of each of ``columns`` (required columns, found by
    their stripped header names) in a delimited file; for each distinct
    data line j, the number of its cell in column i at ``[i, j]``; and each
    data row's line j, in row order.

    One record per physical line. The header is the first line that is not
    a ``#`` comment; comment lines and blank lines are no rows, and a cell
    missing from a short row is empty. Exports repeat lines and cells, so
    the lines are read once and each distinct line is parsed once, 256 lines
    at a time: only a slice's cells are held as strings, each column keeps
    one string per distinct cell, and a line keeps int32 cell numbers. Lines
    are not deduplicated again by their cells. A quoted field still open at
    a line break would run into the next line: it is a
    :class:`CohortFormatError` naming the line.
    """
    first_line = defaultdict(count().__next__)
    try:
        # utf-8-sig: spreadsheet exports often start with a byte-order mark.
        with open(path, encoding="utf-8-sig", newline="") as fh:
            line_of = np.fromiter(map(first_line.__getitem__, fh), np.int32)
    except OSError as exc:
        raise CohortFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CohortFormatError(f"{path}: unreadable as delimited text: {exc}") from exc
    lines = list(first_line)
    del first_line  # lines holds its keys; keeping it would cost ~60 bytes a line
    comment = np.fromiter(map(str.startswith, lines, repeat("#")), bool, len(lines))
    data_lines = line_of[~comment[line_of]]  # as distinct-line indices, in file order
    if not len(data_lines):
        raise CohortFormatError(f"{path}: empty file, no header row")

    def is_open(line: str) -> bool:  # the line would take in a blank one after it
        return (line.endswith(("\n", "\r"))
                and len(list(csv.reader([line, ""], delimiter=delimiter))) == 1)

    def spanning(j: int) -> CohortFormatError:
        return CohortFormatError(f"{path}: line {np.argmax(line_of == j) + 1}: a quoted field "
                                 "runs past the line break; a record must be one line")

    header, parsed = data_lines[0], np.flatnonzero(~comment)
    try:
        if is_open(lines[header]):
            raise spanning(header)
        position = {name.strip(): i
                    for i, name in enumerate(next(csv.reader([lines[header]], delimiter=delimiter)))}
        for column in REQUIRED_COLUMNS:
            if column not in position:
                raise CohortFormatError(f"{path}: header is missing column {column!r}")
        pad = [""] * (max(position[column] for column in columns) + 1)
        cell_of = [itemgetter(position[column]) for column in columns]
        number = [defaultdict(count().__next__) for _ in columns]  # each column numbers its own
        numbers = np.empty((len(columns), len(parsed)), np.int32)
        for start in range(0, len(parsed), _PARSE_SLICE):
            batch = list(map(lines.__getitem__, parsed[start:start + _PARSE_SLICE].tolist()))
            chunk = list(map(add, csv.reader(batch, delimiter=delimiter), repeat(pad)))
            # An open line takes in the next, so the chunk falls short; the
            # slice's last line has no next one and is checked on its own.
            if len(chunk) < len(batch) or is_open(batch[-1]):
                raise spanning(parsed[start + next(i for i, line in enumerate(batch)
                                                   if is_open(line))])
            for i, cell in enumerate(cell_of):
                numbers[i, start:start + len(chunk)] = np.fromiter(
                    map(number[i].__getitem__, map(cell, chunk)), np.int32, len(chunk))
    except csv.Error as exc:
        raise CohortFormatError(f"{path}: unreadable as delimited text: {exc}") from exc

    parsed_of_line = np.cumsum(~comment, dtype=np.int32) - 1
    # blank: the lines the csv module reads as no cells at all, which are no rows
    parsed_of_line[np.fromiter(map(("\n", "\r", "\r\n").__contains__, lines), bool,
                               len(lines))] = -1
    row_of = parsed_of_line[data_lines[1:]]
    return list(map(list, number)), numbers, row_of[row_of >= 0]


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

    One record per physical line (see :func:`_read_rows`): columns are found
    by their stripped header names; lines starting with ``#`` and blank
    lines are skipped, and a quoted line break is a data error. Row numbers
    in the report are 1-based over the remaining data rows. Each distinct
    line is parsed, and each column's distinct cells validated on their
    stripped text, once. A rejected row is reported under its first failing
    column: date (or study window), the symptoms, result, indication.
    Missing or empty symptom cells are UNKNOWN. A record's id is its row in
    the cohort, so the accepted rows are numbered from 0 in file order.
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
    cells, numbers, row_of = _read_rows(path, delimiter, [column for column, _ in coders])

    # Code the distinct lines: column by column, each distinct cell once.
    coded = np.empty(numbers.shape, np.int32)
    reasons = []  # per column: cell number -> rejection reason
    for i, (column, coder) in enumerate(coders):
        table, why = np.empty(len(cells[i]), np.int32), {}
        for c, raw in enumerate(cells[i]):
            try:
                table[c] = coder(raw.strip())
            except ValueError as exc:
                table[c] = _REJECTED
                why[c] = f"{column}={raw.strip()!r}: {exc}"
        coded[i] = table[numbers[i]]
        reasons.append(why)

    bad = coded == _REJECTED
    failed = bad.any(axis=0)
    other = ~failed & (coded[result_row] == TestResult.OTHER) & (not keep_other_results)
    dropped = (~failed & ~other & (null_policy == "drop")
               & (coded[symptom_rows] == TriState.UNKNOWN).any(axis=0))
    rejected = failed | other | dropped
    first_bad = bad.argmax(axis=0)
    reason_of = {}
    for j in np.flatnonzero(rejected).tolist():
        if failed[j]:
            i = first_bad[j]
            reason_of[j] = reasons[i][numbers[i, j]]
        elif other[j]:
            reason_of[j] = "result 'other' excluded (keep_other_results retains)"
        else:
            reason_of[j] = "unknown symptom value (null_policy=drop)"

    report = LoadReport(n_rows=len(row_of))
    numbers = np.flatnonzero(rejected[row_of])
    report.rejections = list(zip((numbers + 1).tolist(),
                                 map(reason_of.__getitem__, row_of[numbers].tolist())))
    accepted = row_of[~rejected[row_of]]
    report.n_accepted = len(accepted)
    if report.n_rejected:
        log.info("loaded %d records, rejected %d of %d rows",
                 report.n_accepted, report.n_rejected, report.n_rows)
    # Cast the distinct lines' codes, then gather: no row gathers a rejected code.
    test_date, columns = coded[0].astype("datetime64[D]")[accepted], coded[1:].astype(np.int8)
    symptoms, (result, indication, gender) = columns[:-3].T[accepted], columns[-3:, accepted]
    del row_of, accepted, numbers, coded  # the per-line and per-row indices, before the build
    return Cohort(test_date, np.ascontiguousarray(symptoms), indication, gender, result), report


# Output spellings, indexed by code.
_OUT_SYMPTOM = np.array(["0", "1", ""], dtype=object)
_OUT_RESULT = np.array([e.name.lower() for e in TestResult], dtype=object)
_OUT_GENDER = np.array(["male", "female", ""], dtype=object)
_OUT_INDICATION = np.array(["Contact with confirmed", "Abroad", "Other"], dtype=object)


def cohort_to_rows(cohort: Cohort, rows: np.ndarray | slice = slice(None)) -> list[tuple[str, ...]]:
    """The cohort's rows, or those that ``rows`` indexes, in the ingestion
    schema (:data:`REQUIRED_COLUMNS`)."""
    columns = [np.datetime_as_string(cohort.test_date[rows], unit="D"),
               *_OUT_SYMPTOM[cohort.symptoms[rows]].T, _OUT_RESULT[cohort.result[rows]],
               _OUT_GENDER[cohort.gender[rows]], _OUT_INDICATION[cohort.indication[rows]]]
    return list(zip(*(c.tolist() for c in columns)))


class _Lines(list):
    """A file for :func:`csv.writer` that keeps each row's line as an item:
    ``writerow`` makes one ``write`` call per row."""

    write = list.append


_WRITE_SLICE = 1 << 13  # lines per write in write_csv, which bounds its memory


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence], *,
              comment: str | None = None, order: np.ndarray | None = None,
              ids: np.ndarray | None = None) -> None:
    """Write a CSV file, lines ending in LF: a ``# comment`` line when given,
    the header, then the rows, or ``rows[i]`` for each i in ``order`` when
    it is given. Each row is formatted once, however often it is written.
    With ``ids``, line k of the body starts with ``ids[k]`` (non-negative
    ints, which the csv module never quotes) as its first field."""
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(lines[0])
        body = np.array(lines[1:], dtype=object)
        order = np.arange(len(body)) if order is None else order
        for start in range(0, len(order), _WRITE_SLICE):
            part = body[order[start:start + _WRITE_SLICE]].tolist()
            if ids is not None:
                part = map("{},{}".format, ids[start:start + _WRITE_SLICE].tolist(), part)
            fh.write("".join(part))


def write_cohort_csv(cohort: Cohort, path: str | Path, *, header_comment: str | None = None) -> None:
    """Write a cohort in the exact ingestion schema (round-trips through load_cohort).

    Cohorts repeat rows, so each distinct row, keyed by one int64 from its
    date and its eight 3-valued codes, is formatted once.
    """
    key = cohort.test_date.astype(np.int64)
    for codes in (*cohort.symptoms.T, cohort.result, cohort.gender, cohort.indication):
        key = key * 3 + codes
    _, first, order = np.unique(key, return_index=True, return_inverse=True)
    write_csv(path, REQUIRED_COLUMNS, cohort_to_rows(cohort, first), comment=header_comment,
              order=order)
