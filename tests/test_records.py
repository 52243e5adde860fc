from __future__ import annotations

import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from banditriage.records import (
    PATTERN_FEATURES,
    REQUIRED_COLUMNS,
    Cohort,
    CohortFormatError,
    DataError,
    Gender,
    Indication,
    MappingFormatError,
    SYMPTOM_FIELDS,
    TestResult,
    TriState,
    ValueMapping,
    load_cohort,
    write_cohort_csv,
)
from banditriage.synthgen import generate_cohort

from conftest import make_record, small_params, traced_peak

MAPPING = ValueMapping.default()


def row(**kv):
    base = {
        "test_date": "2020-03-11",
        "cough": "0",
        "fever": "0",
        "sore_throat": "0",
        "shortness_of_breath": "0",
        "head_ache": "0",
        "corona_result": "negative",
        "gender": "male",
        "test_indication": "Other",
    }
    base.update(kv)
    return base


def features_of(rec: tuple) -> np.ndarray:
    """One record's feature vector, read from the week view of a one-row cohort."""
    cohort = Cohort.from_records([rec])
    (week,) = cohort.weeks
    return PATTERN_FEATURES[cohort.week_patterns(week)[0]]


def load_row(tmp_path, mapping=MAPPING, study_window=None, **cells):
    """Load a one-row export of ``row(**cells)``."""
    path = write_csv(tmp_path / "one.csv", [row(**cells)])
    return load_cohort(path, mapping, study_window=study_window)


def record_of(cohort: Cohort) -> dict:
    """The one record of ``cohort`` by column name, as enum members."""
    (test_date,) = cohort.test_date.astype(object)
    (symptoms,) = cohort.symptoms
    return {
        "test_date": test_date,
        **{name: TriState(code) for name, code in zip(SYMPTOM_FIELDS, symptoms)},
        "indication": Indication(cohort.indication[0]),
        "gender": Gender(cohort.gender[0]),
        "result": TestResult(cohort.result[0]),
    }


def rejection_of(report) -> str:
    """The one rejection reason of a one-row load."""
    ((number, reason),) = report.rejections
    assert number == 1
    return reason


class TestParseRecord:
    """How one row of an export parses: into codes, or into a rejection."""

    def test_missing_symptom_becomes_unknown(self, tmp_path):
        cohort, _ = load_row(tmp_path, cough="1", fever="",
                             test_indication="Contact with confirmed")
        rec = record_of(cohort)
        assert rec["cough"] is TriState.PRESENT
        assert rec["fever"] is TriState.UNKNOWN
        assert rec["indication"] is Indication.CONTACT_WITH_CONFIRMED

    def test_all_zero_symptoms_absent(self, tmp_path):
        rec = record_of(load_row(tmp_path)[0])
        assert all(rec[s] is TriState.ABSENT for s in SYMPTOM_FIELDS)

    def test_unknown_indication_rejected(self, tmp_path):
        _, report = load_row(tmp_path, test_indication="Mystery")
        assert rejection_of(report) == "test_indication='Mystery': unmappable indication value"

    def test_unknown_result_rejected(self, tmp_path):
        _, report = load_row(tmp_path, corona_result="maybe")
        assert rejection_of(report) == "corona_result='maybe': unmappable result value"

    def test_malformed_date_rejected(self, tmp_path):
        _, report = load_row(tmp_path, test_date="11/03/2020")
        assert rejection_of(report) == "test_date='11/03/2020': not an ISO-8601 date"

    def test_outside_study_window_rejected(self, tmp_path):
        window = (date(2020, 3, 11), date(2020, 5, 10))
        _, report = load_row(tmp_path, test_date="2020-06-01", study_window=window)
        assert rejection_of(report) == (
            "test_date='2020-06-01': outside study window 2020-03-11..2020-05-10")
        cohort, _ = load_row(tmp_path, study_window=window)  # in-window loads
        assert record_of(cohort)["test_date"] == date(2020, 3, 11)

    def test_unmapped_gender_degrades_to_unknown(self, tmp_path):
        assert record_of(load_row(tmp_path, gender="n/a")[0])["gender"] is Gender.UNKNOWN


class TestFeaturize:
    def test_unknown_reads_as_absent(self):
        rec = make_record(fever=TriState.UNKNOWN)
        assert np.array_equal(features_of(rec), np.array([0, 0, 0, 0, 0, 0, 0, 1, 0.0]))

    def test_direct_encoding(self):
        rec = make_record(
            cough=TriState.PRESENT,
            fever=TriState.PRESENT,
            indication=Indication.CONTACT_WITH_CONFIRMED,
            gender=Gender.FEMALE,
        )
        assert np.array_equal(features_of(rec), np.array([1, 1, 0, 0, 0, 1, 0, 0, 1.0]))

    def test_unknown_and_absent_encode_identically(self):
        a = make_record(fever=TriState.UNKNOWN)
        b = make_record(fever=TriState.ABSENT)
        assert np.array_equal(features_of(a), features_of(b))

    @pytest.mark.parametrize("indication", list(Indication), ids=lambda e: f"Indication.{e.name}")
    def test_indication_one_hot_sums_to_one(self, indication):
        v = features_of(make_record(indication=indication))
        assert v[5:8].sum() == 1.0

    def test_values_are_binary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rec = make_record(
                cough=list(TriState)[rng.integers(3)],
                fever=list(TriState)[rng.integers(3)],
                indication=list(Indication)[rng.integers(3)],
                gender=list(Gender)[rng.integers(3)],
            )
            assert set(np.unique(features_of(rec))) <= {0.0, 1.0}

    def test_deterministic(self):
        rec = make_record(cough=TriState.PRESENT)
        assert np.array_equal(features_of(rec), features_of(rec))


def week_of(d: date) -> int:
    """The week a one-record cohort dated ``d`` pools its record into."""
    (week,) = Cohort.from_records([make_record(test_date=d)]).weeks
    return week


class TestWeekOf:
    def test_iso_week_of_march_11(self):
        assert week_of(date(2020, 3, 11)) == 11

    def test_iso_week_of_march_16(self):
        assert week_of(date(2020, 3, 16)) == 12

    def test_same_monday_sunday_span_equal(self):
        assert week_of(date(2020, 3, 9)) == week_of(date(2020, 3, 15)) == 11


def write_csv(path: Path, rows: list[dict]) -> Path:
    lines = [",".join(REQUIRED_COLUMNS)]
    for r in rows:
        lines.append(",".join(r[c] for c in REQUIRED_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCohort:
    def test_valid_file(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row(), row(test_date="2020-03-12"), row()])
        cohort, report = load_cohort(path)
        assert len(cohort) == 3
        assert report.n_rejected == 0
        assert cohort.week_ids(11).tolist() == [0, 1, 2]

    def test_header_names_are_compared_stripped(self, tmp_path):
        # The header as the README spells it, with a space after each comma.
        path = tmp_path / "a.csv"
        path.write_text(", ".join(REQUIRED_COLUMNS) + "\n"
                        "2020-03-11, 1, 0, 0, 0, 1, positive, female, Abroad\n", encoding="utf-8")
        cohort, report = load_cohort(path)
        assert report.n_rows == 1 and report.rejections == []
        assert record_of(cohort) == {
            "test_date": date(2020, 3, 11),
            "cough": TriState.PRESENT, "fever": TriState.ABSENT, "sore_throat": TriState.ABSENT,
            "shortness_of_breath": TriState.ABSENT, "head_ache": TriState.PRESENT,
            "indication": Indication.ABROAD, "gender": Gender.FEMALE,
            "result": TestResult.POSITIVE,
        }

    def test_bad_date_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row(), row(test_date="bogus"), row()])
        cohort, report = load_cohort(path)
        assert len(cohort) == 2
        assert report.n_rejected == 1
        assert report.rejections[0][0] == 2  # 1-based data row number

    def test_missing_column_is_fatal(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("test_date,cough\n2020-03-11,1\n", encoding="utf-8")
        with pytest.raises(CohortFormatError, match="fever"):
            load_cohort(path)

    def test_blank_line_before_header_is_the_header(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row()])
        path.write_text("# a comment\n\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        with pytest.raises(CohortFormatError, match="missing column 'test_date'"):
            load_cohort(path)

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
    @pytest.mark.parametrize("where", ["header", "row", "last row"])
    def test_quoted_line_break_is_fatal(self, tmp_path, newline, where):
        def line(**cells) -> str:
            return ",".join(row(**cells)[c] for c in REQUIRED_COLUMNS) + "\n"

        header = ",".join(REQUIRED_COLUMNS) + "\n"
        text = {"header": header.replace("gender", f'"gen{newline}der"') + line(),
                "row": header + line() + line(gender=f'"fe{newline}male"') + line(),
                # nothing follows the open quote for it to take in
                "last row": header + line() + line(test_indication='"Other')[:-1] + newline,
                }[where]
        path = tmp_path / "a.csv"
        path.write_bytes(text.encode())
        line = 1 if where == "header" else 3
        with pytest.raises(CohortFormatError, match=f"line {line}: a quoted field runs past"):
            load_cohort(path)

    def test_open_quote_without_final_line_break_is_a_cell(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row()])
        last = row(test_indication='"Abroad')
        path.write_text(path.read_text(encoding="utf-8")
                        + ",".join(last[c] for c in REQUIRED_COLUMNS), encoding="utf-8")
        cohort, report = load_cohort(path)
        assert report.n_rows == 2 and report.rejections == []
        assert cohort.indication.tolist() == [Indication.OTHER, Indication.ABROAD]

    def test_repeated_lines_load_as_their_rows(self, tmp_path):
        rows = [row(), row(test_date="x"), row(fever="1"), row(), row(test_date="x"), row()]
        path = write_csv(tmp_path / "a.csv", rows)
        cohort, report = load_cohort(path)
        assert report.rejections == [(2, "test_date='x': not an ISO-8601 date"),
                                     (5, "test_date='x': not an ISO-8601 date")]
        assert cohort.week_ids(11).tolist() == [0, 1, 2, 3]
        assert cohort.symptoms[:, 1].tolist() == [0, 1, 0, 0]

    def test_accepted_plus_rejected_equals_input(self, tmp_path):
        rows = [row(), row(corona_result="other"), row(test_date="x"),
                row(test_indication="??"), row()]
        path = write_csv(tmp_path / "a.csv", rows)
        cohort, report = load_cohort(path)
        assert report.n_accepted == len(cohort)
        assert report.n_accepted + report.n_rejected == report.n_rows == len(rows)

    def test_other_results_excluded_by_default(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row(corona_result="other"), row()])
        cohort, report = load_cohort(path)
        assert len(cohort) == 1
        cohort, report = load_cohort(path, keep_other_results=True)
        assert len(cohort) == 2
        assert cohort.result[0] == TestResult.OTHER
        assert not cohort.week_labels(11)[0]

    def test_null_policy_drop(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row(fever=""), row()])
        cohort, report = load_cohort(path, null_policy="drop")
        assert len(cohort) == 1
        assert report.n_rejected == 1
        assert "null_policy" in report.rejections[0][1]

    def test_bad_null_policy_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row()])
        with pytest.raises(ValueError, match="null_policy"):
            load_cohort(path, null_policy="typo")

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "a.txt"
        lines = [";".join(REQUIRED_COLUMNS), ";".join(row()[c] for c in REQUIRED_COLUMNS)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cohort, _ = load_cohort(path, delimiter=";")
        assert len(cohort) == 1

    def test_rejection_report_format(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [row(test_date="nope")])
        _, report = load_cohort(path)
        out = tmp_path / "rej.tsv"
        report.write(out)
        line = out.read_text(encoding="utf-8").splitlines()[0]
        number, reason = line.split("\t", 1)
        assert number == "1" and "ISO-8601" in reason

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CohortFormatError):
            load_cohort(tmp_path / "missing.csv")


class TestMappingFile:
    def test_overlay_adds_vocabulary(self, tmp_path):
        mf = tmp_path / "extra.mapping"
        mf.write_text(
            "[corona_result]\npositivo = positive\n[test_indication]\nviaje = abroad\n",
            encoding="utf-8",
        )
        mapping = ValueMapping.from_file(mf)
        rec = record_of(load_row(tmp_path, mapping, corona_result="Positivo",
                                 test_indication="viaje")[0])
        assert rec["result"] is TestResult.POSITIVE
        assert rec["indication"] is Indication.ABROAD
        # defaults still present
        assert record_of(load_row(tmp_path, mapping)[0])["result"] is TestResult.NEGATIVE

    def test_bad_canonical_target(self, tmp_path):
        mf = tmp_path / "bad.mapping"
        mf.write_text("[corona_result]\nfoo = sure\n", encoding="utf-8")
        with pytest.raises(MappingFormatError):
            ValueMapping.from_file(mf)

    def test_unknown_section(self, tmp_path):
        mf = tmp_path / "bad.mapping"
        mf.write_text("[age]\n1 = present\n", encoding="utf-8")
        with pytest.raises(MappingFormatError):
            ValueMapping.from_file(mf)

    def test_shipped_default_mapping_parses(self, tmp_path):
        from importlib import resources

        path = resources.files("banditriage").joinpath("mappings", "default.mapping")
        with resources.as_file(path) as p:
            mapping = ValueMapping.from_file(p)
        assert record_of(load_row(tmp_path, mapping)[0])["result"] is TestResult.NEGATIVE

    def test_shipped_hebrew_mapping_covers_raw_export_values(self, tmp_path):
        from importlib import resources

        path = resources.files("banditriage").joinpath("mappings", "hebrew_export.mapping")
        with resources.as_file(path) as p:
            mapping = ValueMapping.from_file(p)
        rec = record_of(load_row(tmp_path, mapping, corona_result="חיובי",
                                 test_indication="מגע עם מאומת", gender="נקבה")[0])
        assert rec["result"] is TestResult.POSITIVE
        assert rec["indication"] is Indication.CONTACT_WITH_CONFIRMED
        assert rec["gender"] is Gender.FEMALE
        # the overlay keeps the English defaults usable too
        assert record_of(load_row(tmp_path, mapping)[0])["result"] is TestResult.NEGATIVE


class TestRoundTrip:
    def test_synthetic_cohort_round_trips(self, tmp_path):
        cohort = generate_cohort(small_params(unknown_rate=0.2))
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path, header_comment="manifest: x.json")
        loaded, report = load_cohort(path)
        assert report.n_rejected == 0
        assert len(loaded) == len(cohort)
        for column in ("test_date", "symptoms", "result", "indication", "gender"):
            assert np.array_equal(getattr(loaded, column), getattr(cohort, column)), column
        assert loaded.weeks == cohort.weeks
        for week in cohort.weeks:
            assert np.array_equal(loaded.week_ids(week), cohort.week_ids(week))
            assert np.array_equal(loaded.week_patterns(week), cohort.week_patterns(week))


    def test_write_peak_memory_is_bounded_per_row(self, tmp_path):
        # The body is written in slices of the row order: a 200k-row cohort
        # peaks near 50 bytes a row, in the distinct-row numbering; one string
        # of the whole file would take over 120.
        n = 200_000
        cohort = generate_cohort(small_params(n_per_week=n // 4, weeks=(1, 4), seed=3))
        path = tmp_path / "cohort.csv"
        tracemalloc.start()
        try:
            write_cohort_csv(cohort, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * n
        loaded, _ = load_cohort(path)
        for column in ("test_date", "symptoms", "result", "indication", "gender"):
            assert np.array_equal(getattr(loaded, column), getattr(cohort, column)), column


class TestCohort:
    def test_week_views(self, toy_cohort):
        assert toy_cohort.weeks == (11, 12)
        assert len(toy_cohort.week_ids(11)) == 4
        assert toy_cohort.week_labels(11).sum() == 2
        assert toy_cohort.week_patterns(12).shape == (4,)

    def test_missing_week_is_data_error(self, toy_cohort):
        for lookup in (toy_cohort.week_ids, toy_cohort.week_patterns, toy_cohort.week_labels):
            with pytest.raises(DataError, match=r"week 13 .*11, 12"):
                lookup(13)

    def test_subset_weeks(self, toy_cohort):
        sub = toy_cohort.subset_weeks([12])
        assert sub.weeks == (12,)
        assert len(sub) == 4

    def test_week_views_keep_record_order_dtypes_and_contiguity(self):
        recs = [
            make_record(test_date=date(2020, 3, 16), cough=TriState.PRESENT),
            make_record(test_date=date(2020, 3, 9), result=TestResult.POSITIVE),
            make_record(test_date=date(2020, 3, 17), gender=Gender.FEMALE),
        ]
        cohort = Cohort.from_records(recs)
        assert cohort.weeks == (11, 12)
        assert cohort.week_ids(12).tolist() == [0, 2]
        features = PATTERN_FEATURES[cohort.week_patterns(12)]
        assert features[:, 0].tolist() == [1.0, 0.0]
        assert features[:, 8].tolist() == [0.0, 1.0]
        assert cohort.week_labels(11).tolist() == [True]
        for week in cohort.weeks:
            views = cohort.week_ids(week), cohort.week_patterns(week), cohort.week_labels(week)
            assert [v.dtype for v in views] == [np.int32, np.uint16, np.bool_]
            assert all(v.flags.c_contiguous for v in views)

    def test_empty_cohort(self):
        cohort = Cohort.from_records([])
        assert len(cohort) == 0 and cohort.weeks == ()
        assert cohort.symptoms.shape == (0, len(SYMPTOM_FIELDS))

    def test_header_only_file_loads_an_empty_cohort(self, tmp_path):
        cohort, report = load_cohort(write_csv(tmp_path / "empty.csv", []))
        assert len(cohort) == 0 and cohort.weeks == ()
        assert report.n_rows == report.n_accepted == report.n_rejected == 0
        assert cohort.subset_weeks([11]).weeks == ()

    def test_build_peak_memory_is_bounded_per_row(self):
        # The build works in small integer passes: a 100k-row cohort peaks
        # near 20 bytes a row, the columns given; an (n, 5) int64 cast alone
        # would take 40.
        n = 100_000
        rng = np.random.default_rng(0)
        columns = dict(
            test_date=np.datetime64("2020-03-09") + np.sort(rng.integers(0, 14, n)),
            symptoms=rng.integers(0, 3, (n, len(SYMPTOM_FIELDS)), dtype=np.int8),
            indication=rng.integers(0, 3, n, dtype=np.int8),
            gender=rng.integers(0, 3, n, dtype=np.int8),
            result=rng.integers(0, 2, n, dtype=np.int8),
        )
        tracemalloc.start()
        try:
            cohort = Cohort(**columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * n
        assert cohort.weeks == (11, 12)
        for week in cohort.weeks:  # record order within a week
            assert (np.diff(cohort.week_ids(week)) > 0).all()

    def test_load_peak_memory_is_bounded_per_line(self, tmp_path):
        # Every data line distinct, so lines share no parse: ingest numbers
        # each line's cells 256 lines at a time, and peaks near 170 bytes a
        # line (measured); keying each row by a tuple of its cells took 445.
        n, start = 50_000, date(2020, 1, 6)
        spelling = ("0", "1", "")
        lines = [",".join(REQUIRED_COLUMNS)]
        for i in range(n):  # 350 days times the 243 symptom codes: no line repeats
            symptoms = ",".join(spelling[i // 350 // 3 ** j % 3] for j in range(5))
            lines.append(f"{date.fromordinal(start.toordinal() + i % 350)},{symptoms},"
                         "negative,female,Other")
        path = tmp_path / "distinct.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            cohort, report = load_cohort(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 300 * n
        assert len(cohort) == report.n_rows == n


    def test_load_peak_memory_of_a_repeating_pool_is_bounded_per_row(self, tmp_path):
        # A 50k-row cohort file whose lines repeat: ingest's per-line and
        # per-row index arrays are released before the cohort is built, and
        # the build counts weeks and orders rows in int32. Building with
        # them alive, in int64, peaked near 48 bytes a row.
        cohort = generate_cohort(small_params(n_per_week=25_000, weeks=(1, 2), seed=5))
        path = tmp_path / "pool.csv"
        write_cohort_csv(cohort, path)
        load_cohort(path)
        (loaded, report), peak = traced_peak(lambda: load_cohort(path))
        assert peak <= 40 * len(cohort)
        assert report.n_accepted == len(loaded) == len(cohort)


class TestIsoYear:
    def test_dates_spanning_two_iso_years_rejected(self):
        recs = [make_record(test_date=date(2020, 12, 21)),
                make_record(test_date=date(2021, 1, 6))]
        with pytest.raises(DataError, match=r"ISO years 2020, 2021.*--window-start/--window-end"):
            Cohort.from_records(recs)

    @pytest.mark.parametrize("days, years", [
        ([date(2018, 6, 1), date(2020, 3, 11), date(2018, 1, 3)], "2018, 2020"),
        ([date(2020, 3, 11), date(2019, 7, 1), date(2018, 6, 1)], "2018, 2019, 2020"),
    ], ids=["none-in-2019", "each-year"])
    def test_error_lists_only_the_iso_years_present(self, days, years):
        recs = [make_record(test_date=d) for i, d in enumerate(days)]
        with pytest.raises(DataError, match=rf"ISO years {years}, but"):
            Cohort.from_records(recs)

    def test_year_end_dates_in_one_iso_week_form_week_53(self):
        # 2021-01-01 is a Friday of ISO week 2020-W53.
        recs = [make_record(test_date=date(2020, 12, 28)),
                make_record(test_date=date(2021, 1, 1))]
        cohort = Cohort.from_records(recs)
        assert cohort.weeks == (53,)
        assert cohort.week_ids(53).tolist() == [0, 1]

    def test_subset_of_one_year_cohort_keeps_weeks(self):
        cohort = generate_cohort(small_params(weeks=(10, 12), n_per_week=20))
        sub = cohort.subset_weeks([10, 12])
        assert sub.weeks == (10, 12)
        # a subset numbers its own rows, so compare the week's records
        assert np.array_equal(sub.week_patterns(12), cohort.week_patterns(12))
        assert np.array_equal(sub.week_labels(12), cohort.week_labels(12))
