"""Property tests for ingestion: the cohort CSV round trip is exact, every
input row is either accepted or rejected, and bad input only ever raises
:class:`DataError` (exit 2 at the command line, never an internal error)."""

from __future__ import annotations

import contextlib
import csv
import io
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditriage.cli import EXIT_DATA, EXIT_OK, main
from banditriage.records import (
    FEATURE_NAMES,
    PATTERN_FEATURES,
    REQUIRED_COLUMNS,
    SYMPTOM_FIELDS,
    Cohort,
    CohortFormatError,
    DataError,
    Gender,
    Indication,
    TestResult,
    TriState,
    ValueMapping,
    cohort_to_rows,
    load_cohort,
    write_cohort_csv,
)

COLUMNS = ("test_date", "symptoms", "indication", "gender", "result")


@st.composite
def one_iso_year_rows(draw) -> list[tuple]:
    """Row tuples dated within one ISO year, mixing every code."""
    year = draw(st.integers(1990, 2040))
    last_week = date(year, 12, 28).isocalendar()[1]
    day = st.dates(date.fromisocalendar(year, 1, 1), date.fromisocalendar(year, last_week, 7))
    row = st.tuples(
        day,
        *[st.sampled_from(TriState)] * len(SYMPTOM_FIELDS),
        st.sampled_from(Indication),
        st.sampled_from(Gender),
        st.sampled_from(TestResult),
    )
    return draw(st.lists(row, max_size=40))


def reference_views(rows) -> dict[int, tuple[list, list, list]]:
    """The per-record loop the columnar cohort replaced: group by ISO week in
    record order and encode each record on its own, as its feature vector:
    present symptoms, one-hot indication, female gender. A record's id is
    its row."""
    views: dict[int, tuple[list, list, list]] = {}
    for record_id, (day, *symptoms, indication, gender, result) in enumerate(rows):
        v = [1.0 if s is TriState.PRESENT else 0.0 for s in symptoms] + [0.0] * 4
        v[5 + [Indication.CONTACT_WITH_CONFIRMED, Indication.ABROAD,
               Indication.OTHER].index(indication)] = 1.0
        v[8] = 1.0 if gender is Gender.FEMALE else 0.0
        ids, X, y = views.setdefault(day.isocalendar()[1], ([], [], []))
        ids.append(record_id)
        X.append(v)
        y.append(result is TestResult.POSITIVE)
    return views


@settings(max_examples=80, deadline=None)
@given(one_iso_year_rows())
def test_week_views_equal_the_per_record_encoding(rows):
    cohort = Cohort.from_records(rows)
    expected = reference_views(rows)
    assert cohort.weeks == tuple(sorted(expected))
    for week, (ids, X, y) in expected.items():
        assert cohort.week_ids(week).tolist() == ids
        assert PATTERN_FEATURES[cohort.week_patterns(week)].tolist() == X
        assert cohort.week_labels(week).tolist() == y


@settings(max_examples=80, deadline=None)
@given(one_iso_year_rows().filter(bool))
def test_pattern_codes_ascend_as_binary_numbers_read_from_the_first_feature(rows):
    # `train` fits over its (pattern, label) groups in ascending code order,
    # so this order fixes the order of its sums, and so its weights to the
    # bit: the first feature is the most significant bit and female the least.
    cohort = Cohort.from_records(rows)
    codes = np.unique(np.concatenate([cohort.week_patterns(w) for w in cohort.weeks]))
    features = [tuple(row) for row in PATTERN_FEATURES[codes].tolist()]
    assert features == sorted(features)
    assert codes.tolist() == [sum(int(x) << (len(FEATURE_NAMES) - 1 - j) for j, x in enumerate(f))
                              for f in features]


@settings(max_examples=80, deadline=None)
@given(one_iso_year_rows().map(Cohort.from_records))
def test_cohort_csv_round_trip_is_exact(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        write_cohort_csv(cohort, path, header_comment="manifest: x.json")
        loaded, report = load_cohort(path, keep_other_results=True)
    assert report.n_rejected == 0 and report.n_accepted == len(cohort)
    for column in COLUMNS:
        assert np.array_equal(getattr(loaded, column), getattr(cohort, column)), column
    assert loaded.weeks == cohort.weeks
    for week in cohort.weeks:
        for view in (Cohort.week_ids, Cohort.week_patterns, Cohort.week_labels):
            a, b = view(loaded, week), view(cohort, week)
            assert a.dtype == b.dtype and np.array_equal(a, b)


@st.composite
def repeating_cohorts(draw) -> Cohort:
    """Cohorts of 1-80 records, each a copy of one of a few base rows with at
    most one cell redrawn, so rows repeat or differ in a single column."""
    base = draw(one_iso_year_rows().filter(bool))
    cells = [st.sampled_from([row[0] for row in base]),
             *[st.sampled_from(TriState)] * len(SYMPTOM_FIELDS),
             st.sampled_from(Indication), st.sampled_from(Gender), st.sampled_from(TestResult)]
    rows = []
    for _ in range(draw(st.integers(1, 80))):
        row = list(draw(st.sampled_from(base)))
        j = draw(st.integers(0, len(row)))  # len(row): no cell redrawn
        if j < len(row):
            row[j] = draw(cells[j])
        rows.append(tuple(row))
    return Cohort.from_records(rows)


@settings(max_examples=100, deadline=None)
@given(repeating_cohorts(), st.sampled_from([None, "manifest: x.json"]))
@example(Cohort.from_records([(date(2020, 3, 9), *[TriState.UNKNOWN] * len(SYMPTOM_FIELDS),
                               Indication.ABROAD, Gender.UNKNOWN, TestResult.POSITIVE)]), None)
def test_cohort_csv_is_the_csv_writer_over_its_rows(cohort, comment):
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    writer.writerows(cohort_to_rows(cohort))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        write_cohort_csv(cohort, path, header_comment=comment)
        assert path.read_bytes() == buf.getvalue().encode("utf-8")


_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"),
                max_size=12)
_CELLS = {
    "test_date": st.one_of(st.sampled_from(["2020-03-09", "2020-03-17", "2020-12-31",
                                            "2021-01-01", "2020-02-30", ""]), _TEXT),
    "symptom": st.one_of(st.sampled_from(["1", "0", "", "none", "NULL", " na ", "2"]), _TEXT),
    "corona_result": st.one_of(st.sampled_from(["positive", "Negative", "other", "?"]), _TEXT),
    "gender": st.one_of(st.sampled_from(["female", "MALE", "", "unknown"]), _TEXT),
    "test_indication": st.one_of(
        st.sampled_from(["Contact with confirmed", "abroad", "Other", "??"]), _TEXT),
}
_ROW = st.tuples(*[_CELLS["symptom" if c in SYMPTOM_FIELDS else c] for c in REQUIRED_COLUMNS])


_PAD = st.sampled_from(["", "", "", " "])


@st.composite
def fuzzed_exports(draw) -> tuple[str, int]:
    """Export text and its data-row count. The header may order the columns
    freely, add an ``age_60_and_above`` column and pad names with spaces;
    rows may stop short; ``#`` lines and blank lines may come between rows,
    and a BOM may lead. The lines after the header are drawn with repeats
    from a few distinct ones, the header line among them, so accepted,
    rejected, comment and blank lines all recur, as lines of real exports do."""
    columns = draw(st.permutations(REQUIRED_COLUMNS + ("age_60_and_above",) * draw(st.booleans())))
    out = io.StringIO()
    if draw(st.booleans()):
        out.write("\ufeff")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow([draw(_PAD) + c + draw(_PAD) for c in columns])
    out.write(header.getvalue())
    distinct = [header.getvalue()] if draw(st.booleans()) else []
    for cells in draw(st.lists(_ROW, max_size=12)):
        if draw(st.booleans()):
            distinct.append(draw(st.sampled_from([f"#{draw(_TEXT)}\n", "\n"])))
        by_name = dict(zip(REQUIRED_COLUMNS, cells), age_60_and_above=draw(_TEXT))
        cut = draw(st.integers(0, len(columns))) if draw(st.integers(0, 3)) == 0 else None
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow([by_name[c] for c in columns][:cut])
        distinct.append(line.getvalue())
    n_rows = 0
    if distinct:
        for i in draw(st.lists(st.integers(0, len(distinct) - 1), max_size=40)):
            # A line starting with "#" is a comment, an empty one is blank: neither is a row.
            n_rows += not distinct[i].startswith(("#", "\n"))
            out.write(distinct[i])
    return out.getvalue(), n_rows


@settings(max_examples=150, deadline=None)
@given(fuzzed_exports(), st.booleans(), st.sampled_from(["as_absent", "drop"]))
def test_fuzzed_rows_are_accepted_or_rejected(export, keep_other, null_policy):
    text, n_rows = export
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_text(text, encoding="utf-8")
        try:
            cohort, report = load_cohort(
                path, keep_other_results=keep_other, null_policy=null_policy
            )
        except DataError as exc:  # the one allowed failure: dates of two ISO years
            assert "ISO years" in str(exc)
            return
    assert report.n_rows == n_rows
    assert report.n_accepted + report.n_rejected == n_rows
    assert report.n_accepted == len(cohort)
    assert [number for number, _ in report.rejections] == sorted(
        {number for number, _ in report.rejections})


def reference_record(cell: dict[str, str], keep_other, null_policy, window):
    """The ingest rule for one row of stripped cells: its record as a tuple of
    codes, or its rejection reason (the first failing column names it)."""
    m = ValueMapping.default()
    try:
        day = date.fromisoformat(cell["test_date"])
    except ValueError:
        return f"test_date={cell['test_date']!r}: not an ISO-8601 date"
    if window and not window[0] <= day <= window[1]:
        return f"test_date={cell['test_date']!r}: outside study window {window[0]}..{window[1]}"
    checks = [*((s, m.symptom, "symptom") for s in SYMPTOM_FIELDS),
              ("corona_result", m.result, "result"),
              ("test_indication", m.indication, "indication")]
    for column, table, what in checks:
        if cell[column].lower() not in table:
            return f"{column}={cell[column]!r}: unmappable {what} value"
    symptoms = [m.symptom[cell[s].lower()] for s in SYMPTOM_FIELDS]
    result = m.result[cell["corona_result"].lower()]
    if result is TestResult.OTHER and not keep_other:
        return "result 'other' excluded (keep_other_results retains)"
    if null_policy == "drop" and TriState.UNKNOWN in symptoms:
        return "unknown symptom value (null_policy=drop)"
    return (day, *symptoms, m.indication[cell["test_indication"].lower()],
            m.gender.get(cell["gender"].lower(), Gender.UNKNOWN), result)


def reference_load(text: str, keep_other=False, null_policy="as_absent", window=None) -> list:
    """Each data row's record or rejection reason by :func:`reference_record`,
    the rows read from the whole export text by the csv module at once."""
    lines = [line for line in io.StringIO(text.removeprefix("\ufeff"), newline="")
             if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    position = {name.strip(): i for i, name in enumerate(header)}
    return [reference_record({c: (cells[i] if i < len(cells) else "").strip()
                              for c, i in position.items()}, keep_other, null_policy, window)
            for cells in rows if cells]


def assert_loads_as(cohort, report, expected: list) -> None:
    """The rejections and the accepted records are those of ``expected``."""
    assert report.rejections == [(n, r) for n, r in enumerate(expected, 1) if isinstance(r, str)]
    loaded = zip(cohort.test_date.astype(object), cohort.symptoms.tolist(), cohort.indication,
                 cohort.gender, cohort.result)
    assert [(d, *s, i, g, r) for d, s, i, g, r in loaded] == [
        r for r in expected if isinstance(r, tuple)]


@settings(max_examples=150, deadline=None)
@given(fuzzed_exports(), st.booleans(), st.sampled_from(["as_absent", "drop"]),
       st.sampled_from([None, (date(2020, 3, 10), date(2020, 12, 31))]))
def test_fuzzed_rows_load_as_the_per_row_rule_says(export, keep_other, null_policy, window):
    text, _ = export
    expected = reference_load(text, keep_other, null_policy, window)
    accepted = [r for r in expected if isinstance(r, tuple)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_text(text, encoding="utf-8")
        try:
            cohort, report = load_cohort(path, keep_other_results=keep_other,
                                         null_policy=null_policy, study_window=window)
        except DataError as exc:
            assert "ISO years" in str(exc)
            assert len({r[0].isocalendar()[0] for r in accepted}) > 1
            return
    assert_loads_as(cohort, report, expected)


def sliced_export(open_quote_at: int | None = None) -> tuple[str, int | None]:
    """CRLF export text whose distinct data lines span four 256-line parse
    slices: rows cut short, lines repeated across slices, comment and blank
    lines between them. With ``open_quote_at``, a line whose last field
    opens a quote is placed as that distinct parsed line (the header is
    line 0); the second value is its 1-based line in the file."""
    rng = np.random.default_rng(11)
    choices = [["2020-03-09", "2020-03-10", "2020-03-17", "2020-04-30", "2020-02-30"],
               *[["1", "0", "", "NULL", "2"]] * len(SYMPTOM_FIELDS),
               ["positive", "negative", "other", "?"], ["female", "male", "", "x"],
               ["Contact with confirmed", "abroad", "Other", "??"]]
    header = ",".join(REQUIRED_COLUMNS) + "\r\n"
    lines, seen, open_line = ["# exported\r\n", header], {header}, None
    while len(seen) < 900:
        if len(seen) == open_quote_at and open_line is None:
            line = '2020-03-10,0,0,0,0,0,negative,male,"Abroad\r\n'
            open_line = len(lines) + 1
        elif rng.random() < 0.2:  # a line already seen, maybe slices ago
            line = rng.choice(lines[1:])
        elif rng.random() < 0.1:
            line = rng.choice(["# note\r\n", "\r\n"])
        else:
            cells = [str(rng.choice(c)) for c in choices]
            cut = len(cells) if rng.random() < 0.8 else int(rng.integers(1, len(cells)))
            line = ",".join(cells[:cut]) + "\r\n"
        lines.append(line)
        if not line.startswith("#"):
            seen.add(line)
    return "".join(lines), open_line


def test_rows_spanning_parse_slices_load_as_the_per_row_rule_says(tmp_path):
    text, _ = sliced_export()
    path = tmp_path / "export.csv"
    path.write_bytes(text.encode())
    cohort, report = load_cohort(path, study_window=(date(2020, 3, 9), date(2020, 4, 30)))
    expected = reference_load(text, window=(date(2020, 3, 9), date(2020, 4, 30)))
    assert report.n_rows == len(expected) > 900
    assert_loads_as(cohort, report, expected)


def test_open_quote_in_the_third_parse_slice_names_its_line(tmp_path):
    text, line = sliced_export(open_quote_at=600)  # slice 3 holds parsed lines 512-767
    path = tmp_path / "export.csv"
    path.write_bytes(text.encode())
    with pytest.raises(CohortFormatError, match=f"line {line}: a quoted field runs past"):
        load_cohort(path)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=400))
def test_arbitrary_bytes_raise_only_data_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_bytes(b",".join(c.encode() for c in REQUIRED_COLUMNS) + b"\n" + raw)
        try:
            cohort, report = load_cohort(path)
        except DataError:
            return
    assert report.n_accepted + report.n_rejected == report.n_rows
    assert report.n_accepted == len(cohort)


@settings(max_examples=25, deadline=None)
@given(fuzzed_exports())
def test_fuzzed_ingest_exits_ok_or_data_error(export):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "export.csv"
        path.write_text(export[0], encoding="utf-8")
        code = main(["ingest", "--input", str(path), "--out-dir", tmp, "--quiet"])
    assert code in (EXIT_OK, EXIT_DATA)
    assert "Traceback" not in err.getvalue()
