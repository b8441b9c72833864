"""Core type, validation, ordering, and serialization behavior."""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.errors import ArdkitError
from ardkit.model import (
    CHUNK_ROWS,
    CSV_COLUMNS,
    BoundaryEdition,
    CellKind,
    CellValue,
    Columns,
    Dataset,
    EMPTY_COLUMNS,
    GeoLevel,
    RecordKey,
    UncertaintyLevel,
    V_KIND,
    V_NEGATIVE,
    V_PERCENTAGE_RANGE,
    Violation,
    Vocabulary,
    canonical_sort,
    csv_rows,
    exact_total,
    _token_problem,
    format_magnitude,
    geography_column,
    parse_geography_column,
    read_csv,
    round_counts,
    validate_dataset,
    write_csv,
)

from conftest import E2016, SA3, make_counts, make_indicator, make_record


class TestEnums:
    def test_only_four_editions(self):
        assert [int(e) for e in BoundaryEdition] == [2006, 2011, 2016, 2021]
        with pytest.raises(ValueError):
            BoundaryEdition(2013)

    def test_editions_are_ordered_by_year(self):
        assert BoundaryEdition.ASGS2006 < BoundaryEdition.ASGS2021

    def test_uncertainty_ordering(self):
        assert UncertaintyLevel.LOW < UncertaintyLevel.MEDIUM < UncertaintyLevel.HIGH
        assert [int(u) for u in UncertaintyLevel] == [0, 1, 2]

    def test_geography_column_naming(self):
        assert geography_column(SA3, E2016) == "SA3CODE_16"
        assert geography_column(GeoLevel.LGA, BoundaryEdition.ASGS2006) == "LGACODE_06"
        assert parse_geography_column("SA3CODE_16") == (SA3, E2016)
        assert parse_geography_column("WEIRD") is None
        assert parse_geography_column("SA3CODE_99") is None


class TestRecordKey:
    def test_equals_and_hashes_as_the_plain_tuple(self):
        key, plain = RecordKey("A", 2016, "0-4", "male"), ("A", 2016, "0-4", "male")
        assert key == plain and hash(key) == hash(plain)
        assert {plain: "found"}[key] == {key: "found"}[plain] == "found"
        assert (key.region, key.calendar_year, key.age_group, key.sex) == plain
        assert key.describe() == "A/2016/0-4/male"


class TestDatasetIndicator:
    def test_stale_indicator_states_the_rows_worst_level(self):
        stale = make_indicator(max_uncertainty=UncertaintyLevel.HIGH)
        levels = (UncertaintyLevel.LOW, UncertaintyLevel.MEDIUM)
        columns = Columns(("A", "B"), (2016, 2016), ("0-4",) * 2, ("male",) * 2, (CellKind.COUNT,) * 2, (1, 2), levels)
        dataset = Dataset(stale, columns, E2016, SA3)
        assert dataset.indicator.max_uncertainty is UncertaintyLevel.MEDIUM
        assert dataset.indicator == make_indicator(max_uncertainty=UncertaintyLevel.MEDIUM)
        assert dataset.with_columns(EMPTY_COLUMNS).indicator.max_uncertainty is UncertaintyLevel.LOW
        assert read_csv(write_csv(dataset), stale).indicator.max_uncertainty is UncertaintyLevel.MEDIUM


class TestCellValue:
    def test_marker_kinds_carry_no_magnitude(self):
        with pytest.raises(ArdkitError):
            CellValue(CellKind.SUPPRESSED, 3.0)
        with pytest.raises(ArdkitError):
            CellValue(CellKind.COUNT, None)

    def test_nan_rejected(self):
        with pytest.raises(ArdkitError):
            CellValue.count(float("nan"))

    def test_fractional_counts_permitted(self):
        assert CellValue.count(2.5).magnitude == 2.5

    def test_fraction_magnitude_rejected(self):
        # Magnitudes are ints or doubles; exact rationals stay in the test oracle.
        with pytest.raises(ArdkitError, match="finite numeric magnitude"):
            CellValue.count(Fraction(1, 2))

    def test_format_magnitude(self):
        assert format_magnitude(30.0) == "30"
        assert format_magnitude(2.5) == "2.5"
        assert format_magnitude(7) == "7"
        assert format_magnitude(2.0**60) == "1.152921504606847e+18"
        assert float(format_magnitude(1 / 3)) == 1 / 3


class TestValidateDataset:
    def test_empty_dataset_is_ok(self):
        dataset = make_counts({})
        assert validate_dataset(dataset) == []

    def test_duplicate_key_reported_at_both_rows(self):
        record = make_record("A", CellValue.count(1))
        dataset = make_counts({}).with_records([record, record])
        violations = validate_dataset(dataset)
        assert [v.rule for v in violations] == ["duplicate-key", "duplicate-key"]
        assert {v.row for v in violations} == {0, 1}

    def test_percentage_out_of_range(self):
        indicator = make_indicator(id="demo.pct", value_kind=CellKind.PERCENTAGE)
        dataset = make_counts({}, indicator=indicator).with_records(
            [make_record("A", CellValue.percentage(120.0))]
        )
        violations = validate_dataset(dataset)
        assert [v.rule for v in violations] == ["percentage-range"]
        assert "120" in violations[0].message

    def test_negative_count(self):
        dataset = make_counts({}).with_records([make_record("A", CellValue.count(-3))])
        assert [v.rule for v in validate_dataset(dataset)] == ["negative-count"]

    def test_unstripped_token(self):
        dataset = make_counts({" 10102 ": 4})
        assert [v.rule for v in validate_dataset(dataset)] == ["bad-token"]

    def test_vocabulary_check(self):
        vocab = Vocabulary(age_groups=frozenset({"0-4"}), sexes=frozenset({"male", "female"}))
        dataset = make_counts({"A": 1}, age="5-9")
        violations = validate_dataset(dataset, vocab)
        assert [v.rule for v in violations] == ["vocabulary"]

    def test_sorting_never_masks_violations(self):
        record = make_record("B", CellValue.count(-1))
        dataset = make_counts({"A": 1}).with_records(
            [*make_counts({"A": 1}).records, record]
        )
        before = {(v.rule, v.message) for v in validate_dataset(dataset)}
        after = {(v.rule, v.message) for v in validate_dataset(canonical_sort(dataset))}
        assert before == after


def row_loop_cell_violations(dataset) -> list[Violation]:
    """Kind, sign and percentage-range violations found row by row: the oracle."""
    value_kind = dataset.indicator.value_kind
    found = []
    for i, (kind, magnitude) in enumerate(zip(dataset.columns.kind, dataset.columns.magnitude)):
        if magnitude is None:
            continue
        if kind is not value_kind:
            found.append(Violation(V_KIND, i, f"cell kind {kind.value} does not match indicator kind {value_kind.value}"))
        if magnitude < 0:
            found.append(Violation(V_NEGATIVE, i, f"negative magnitude {format_magnitude(magnitude)}"))
        if kind is CellKind.PERCENTAGE and not (0 <= magnitude <= 100):
            found.append(Violation(V_PERCENTAGE_RANGE, i, f"percentage out of range: {format_magnitude(magnitude)}"))
    return sorted(found, key=lambda v: (v.row, v.rule, v.message))


DATA_KIND_LIST = [CellKind.COUNT, CellKind.RATE, CellKind.PERCENTAGE]


@st.composite
def cell_columns_datasets(draw):
    """Datasets with unique keys whose cells mix kinds, signs and ranges; often of one kind."""
    value_kind = draw(st.sampled_from(DATA_KIND_LIST))
    one_kind = draw(st.booleans())
    data_kind = st.just(value_kind) if one_kind else st.sampled_from(DATA_KIND_LIST)
    magnitude = st.one_of(
        st.integers(min_value=-3, max_value=150),
        st.floats(min_value=-3, max_value=150, allow_nan=False),
    )
    data = st.tuples(data_kind, magnitude)
    marker = st.tuples(st.sampled_from([CellKind.SUPPRESSED, CellKind.MISSING]), st.none())
    cells = draw(st.lists(st.one_of(data, marker), max_size=30))
    n = len(cells)
    kinds, magnitudes = zip(*cells) if cells else ((), ())
    columns = Columns(
        tuple(f"R{i:02d}" for i in range(n)), (2016,) * n, ("0-4",) * n, ("male",) * n,
        kinds, magnitudes, (UncertaintyLevel.LOW,) * n,
    )
    indicator = make_indicator(id="demo.mixed", value_kind=value_kind)
    return Dataset(indicator, columns, E2016, SA3)


class TestValidateCellsPerColumn:
    @settings(max_examples=300, deadline=None)
    @given(cell_columns_datasets())
    def test_equals_the_row_loop(self, dataset):
        assert validate_dataset(dataset) == row_loop_cell_violations(dataset)


class TestCanonicalSort:
    def test_sorts_and_is_idempotent(self):
        dataset = make_counts({"B": 2, "A": 1, "C": 3})
        reversed_ds = dataset.with_records(tuple(reversed(dataset.records)))
        sorted_once = canonical_sort(reversed_ds)
        assert [r.key.region for r in sorted_once.records] == ["A", "B", "C"]
        assert canonical_sort(sorted_once) == sorted_once

    def test_shuffled_copies_serialize_identically(self):
        dataset = make_counts({f"R{i}": i for i in range(20)})
        rng = random.Random(3)
        records = list(dataset.records)
        rng.shuffle(records)
        shuffled = dataset.with_records(records)
        assert write_csv(canonical_sort(shuffled)) == write_csv(canonical_sort(dataset))


class TestCsvRoundTrip:
    def test_header_and_markers(self):
        dataset = make_counts(
            {"A": CellValue.count(5), "B": CellValue.suppressed(), "C": CellValue.missing()}
        )
        text = write_csv(dataset)
        lines = text.splitlines()
        assert lines[0] == "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY"
        assert lines[1] == "A,2016,0-4,male,5,0"
        assert lines[2] == "B,2016,0-4,male,S,0"
        assert lines[3] == "C,2016,0-4,male,,0"
        assert text.endswith("\n") and "\r" not in text

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=999),
                st.one_of(
                    st.integers(min_value=0, max_value=10**6),
                    st.floats(min_value=0, max_value=10**6, allow_nan=False),
                    st.none(),
                    st.just("S"),
                ),
                st.sampled_from([UncertaintyLevel.LOW, UncertaintyLevel.MEDIUM, UncertaintyLevel.HIGH]),
            ),
            max_size=30,
            unique_by=lambda t: t[0],
        )
    )
    def test_cell_values_round_trip_losslessly(self, rows):
        records = []
        for i, (code, magnitude, level) in enumerate(rows):
            if magnitude is None:
                value = CellValue.missing(level)
            elif magnitude == "S":
                value = CellValue.suppressed(level)
            else:
                value = CellValue.count(magnitude, level)
            records.append(make_record(f"R{code:03d}", value))
        dataset = canonical_sort(make_counts({}).with_records(records))
        back = read_csv(write_csv(dataset), dataset.indicator)
        assert len(back.records) == len(dataset.records)
        for got, want in zip(back.records, dataset.records):
            assert got.key == want.key
            assert got.value.kind is want.value.kind
            assert got.value.uncertainty is want.value.uncertainty
            if want.value.is_data:
                assert float(got.value.magnitude) == float(want.value.magnitude)


    def test_oversized_field_is_an_error_naming_its_line(self):
        # csv's field size limit is kept; a longer field is a bad user file, not a crash.
        header = ",".join((geography_column(SA3, E2016), *CSV_COLUMNS))
        text = f"{header}\nA,2016,0-4,male,9,0\nA,2016,0-4,{'m' * 200_000},9,0\n"
        with pytest.raises(ArdkitError, match=r"^line 3: field larger than field limit \(131072\)$"):
            read_csv(text, make_indicator())


class TestCsvRows:
    @pytest.mark.parametrize("bad_line", [2, 255, 256, 257, 600])
    def test_rows_before_an_unreadable_line_come_first(self, bad_line):
        # Rows are read in chunks; a chunk cut short by a bad line still hands out the rows before it.
        lines = [f"r{n},x" for n in range(1, 700)]
        lines[bad_line - 1] = "a\rb,x"  # a bare carriage return in an unquoted field
        rows = csv_rows("\n".join(lines) + "\n")
        got = []
        with pytest.raises(ArdkitError, match=rf"^line {bad_line}: new-line character seen in unquoted field"):
            got.extend(rows)
        assert got == [[f"r{n}", "x"] for n in range(1, bad_line)]

    def test_rows_are_csv_reader_rows(self):
        text = 'a,"b\nc"\n\n"q""x",\r\nlast'
        assert list(csv_rows(text)) == list(csv.reader(io.StringIO(text))) == [["a", "b\nc"], [], ['q"x', ""], ["last"]]


def csv_writer_rendering(dataset):
    """The reference rendering: one `csv.writer` row per record."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([geography_column(dataset.level, dataset.edition), *CSV_COLUMNS])
    for record in dataset.records:
        value = record.value
        if value.kind is CellKind.SUPPRESSED:
            rendered = "S"
        elif value.kind is CellKind.MISSING:
            rendered = ""
        else:
            rendered = format_magnitude(value.magnitude)
        key = record.key
        writer.writerow([key.region, key.calendar_year, key.age_group, key.sex, rendered, int(value.uncertainty)])
    return out.getvalue()


ANY_TOKEN = st.one_of(st.text(max_size=5), st.text(alphabet=',"\r\n a', max_size=5))
VALID_TOKEN = st.one_of(st.text(min_size=1, max_size=5), st.text(alphabet='"a b\'', min_size=1, max_size=5)).filter(
    lambda token: _token_problem(token) is None
)
LEVELS = st.sampled_from(list(UncertaintyLevel))


def cells(magnitudes):
    return st.one_of(
        st.tuples(magnitudes, LEVELS).map(lambda t: CellValue.count(*t)),
        LEVELS.map(CellValue.suppressed),
        LEVELS.map(CellValue.missing),
    )


def datasets(tokens, magnitudes):
    record = st.builds(make_record, tokens, cells(magnitudes), year=st.integers(-3000, 3000), age=tokens, sex=tokens)
    return st.lists(record, max_size=25).map(lambda records: make_counts({}).with_records(records))


class TestWriteCsvQuoting:
    @settings(max_examples=300, deadline=None)
    @given(
        datasets(
            ANY_TOKEN,
            st.one_of(
                st.integers(min_value=-(10**20), max_value=10**20),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )
    def test_equals_csv_writer(self, dataset):
        assert write_csv(dataset) == csv_writer_rendering(dataset)

    @settings(max_examples=300, deadline=None)
    @given(
        datasets(
            VALID_TOKEN,
            st.one_of(
                st.integers(min_value=-(2**53), max_value=2**53),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )
    def test_read_back(self, dataset):
        assert read_csv(write_csv(dataset), dataset.indicator) == dataset

    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7])
    def test_lines_joined_a_chunk_at_a_time(self, rows):
        # Tokens that need quoting and every cell kind fall on both sides of each chunk boundary.
        tokens = ["a", 'q"x', "a,b", "r\nn", "A/2016"]
        values = [CellValue.count(7), CellValue.suppressed(), CellValue.missing(UncertaintyLevel.HIGH)]
        records = [
            make_record(tokens[i % 5], values[i % 3], year=2000 + i % 7, age=tokens[i % 3], sex=tokens[i % 4])
            for i in range(rows)
        ]
        dataset = make_counts({}).with_records(records)
        text = write_csv(dataset)
        assert text == csv_writer_rendering(dataset)
        assert len(list(csv.reader(io.StringIO(text)))) == rows + 1


class TestExactTotal:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(10**30), max_value=10**30),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        )
    )
    def test_equals_the_sum_of_fractions(self, magnitudes):
        total = exact_total(magnitudes)
        assert type(total) is Fraction
        assert total == sum(map(Fraction, magnitudes), Fraction(0))

    # A small pool, so that values repeat: equal values of different types
    # (5 and 5.0, 0 and -0.0) share a count, and repeats of a tiny or huge
    # magnitude must keep their exact weight.
    POOL = (2**53 + 1, 2**60 + 3, -(2**70) - 1, -7, 5, 5.0, 0, -0.0, 5e-324, -5e-324, *(0.3 * k for k in range(1, 8)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(POOL), max_size=80))
    def test_repeated_values_equal_the_sum_of_fractions(self, magnitudes):
        total = exact_total(magnitudes)
        assert type(total) is Fraction
        assert total == sum(map(Fraction, magnitudes), Fraction(0))


class TestRoundCounts:
    def test_totals_preserved_per_stratum(self):
        dataset = make_counts({"A": 10.4, "B": 20.4, "C": 30.2})
        rounded = round_counts(dataset)
        values = [r.value.magnitude for r in rounded.records]
        assert all(isinstance(v, int) for v in values)
        assert sum(values) == 61  # round(61.0)

    def test_largest_remainders_win(self):
        dataset = make_counts({"A": 1.7, "B": 1.7, "C": 1.6})
        rounded = round_counts(dataset)
        by_code = {r.key.region: r.value.magnitude for r in rounded.records}
        assert sum(by_code.values()) == 5
        assert by_code["C"] == 1  # smallest remainder floors

    def test_integers_unchanged(self):
        dataset = make_counts({"A": 5, "B": 0})
        rounded = round_counts(dataset)
        assert {r.key.region: r.value.magnitude for r in rounded.records} == {"A": 5, "B": 0}
