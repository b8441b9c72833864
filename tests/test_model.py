"""Core type, validation, ordering, and serialization behavior."""

from __future__ import annotations

import csv
import enum
import io
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.errors import ArdkitError
from ardkit.model import (
    _ascii_int,
    CHUNK_ROWS,
    CSV_COLUMNS,
    BoundaryEdition,
    CellKind,
    Columns,
    Dataset,
    EMPTY_COLUMNS,
    Indicator,
    GeoLevel,
    UncertaintyLevel,
    V_KIND,
    V_NEGATIVE,
    V_PERCENTAGE_RANGE,
    Violation,
    Vocabulary,
    canonical_sort,
    check_cell,
    csv_rows,
    describe_key,
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

from conftest import (
    E2016,
    SA3,
    count,
    make_counts,
    make_dataset,
    make_indicator,
    make_row,
    missing,
    percentage,
    rate,
    suppressed,
)


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


class TestIndicatorId:
    @pytest.mark.parametrize("bad", ["", "demo.count\n", "demo/count", " demo", 7])
    def test_one_rule_for_every_indicator(self, bad):
        # `$` of a schema pattern matches before a final newline; the constructor's full match does not.
        message = f"indicator id {bad!r} may hold only letters, digits, '.', '_' and '-'"
        with pytest.raises(ArdkitError) as caught:
            make_indicator(id=bad)
        assert str(caught.value) == message
        with pytest.raises(ArdkitError) as caught:
            Indicator.from_json({**make_indicator().to_json(), "id": bad})
        assert str(caught.value) == message


class TestAsciiInt:
    @pytest.mark.parametrize("text, value", [("7", 7), ("-7", -7), ("0", 0), ("-0", 0), ("02016", 2016)])
    def test_decimal_digits_with_an_optional_minus(self, text, value):
        assert _ascii_int(text) == value

    @pytest.mark.parametrize("text", [" 7\n", " 7", "7 ", "7\n", "+7", "--7", "- 7", "", "-", "7_0", "٧", "７", "7.0"])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(ValueError):
            _ascii_int(text)


class TestCellValue:
    """A cell is a (kind, magnitude, uncertainty) triple that `check_cell` accepts."""

    def test_marker_kinds_carry_no_magnitude(self):
        with pytest.raises(ArdkitError):
            check_cell(CellKind.SUPPRESSED, 3.0, UncertaintyLevel.LOW)
        with pytest.raises(ArdkitError):
            check_cell(CellKind.COUNT, None, UncertaintyLevel.LOW)

    def test_nan_rejected(self):
        with pytest.raises(ArdkitError):
            check_cell(CellKind.COUNT, float("nan"), UncertaintyLevel.LOW)

    def test_fractional_counts_permitted(self):
        assert count(2.5) == (CellKind.COUNT, 2.5, UncertaintyLevel.LOW)

    def test_fraction_magnitude_rejected(self):
        # Magnitudes are ints or doubles; exact rationals stay in the test oracle.
        with pytest.raises(ArdkitError, match="finite numeric magnitude"):
            check_cell(CellKind.COUNT, Fraction(1, 2), UncertaintyLevel.LOW)

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
        row = make_row("A", count(1))
        dataset = make_dataset([row, row])
        violations = validate_dataset(dataset)
        assert [v.rule for v in violations] == ["duplicate-key", "duplicate-key"]
        assert {v.row for v in violations} == {0, 1}

    def test_percentage_out_of_range(self):
        indicator = make_indicator(id="demo.pct", value_kind=CellKind.PERCENTAGE)
        dataset = make_dataset([make_row("A", percentage(120.0))], indicator=indicator)
        violations = validate_dataset(dataset)
        assert [v.rule for v in violations] == ["percentage-range"]
        assert "120" in violations[0].message

    def test_negative_count(self):
        dataset = make_dataset([make_row("A", count(-3))])
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
        dataset = make_dataset([make_row("A", count(1)), make_row("B", count(-1))])
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
        reversed_ds = dataset.with_columns(Columns(*(column[::-1] for column in dataset.columns)))
        sorted_once = canonical_sort(reversed_ds)
        assert sorted_once.columns.region == ("A", "B", "C")
        assert canonical_sort(sorted_once) == sorted_once

    def test_shuffled_copies_serialize_identically(self):
        dataset = make_counts({f"R{i}": i for i in range(20)})
        rng = random.Random(3)
        order = list(range(20))
        rng.shuffle(order)
        shuffled = dataset.with_columns(dataset.columns.take(order))
        assert write_csv(canonical_sort(shuffled)) == write_csv(canonical_sort(dataset))


class TestCsvRoundTrip:
    def test_header_and_markers(self):
        dataset = make_counts(
            {"A": count(5), "B": suppressed(), "C": missing()}
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
        built = []
        for code, magnitude, level in rows:
            if magnitude is None:
                value = missing(level)
            elif magnitude == "S":
                value = suppressed(level)
            else:
                value = count(magnitude, level)
            built.append(make_row(f"R{code:03d}", value))
        dataset = canonical_sort(make_dataset(built))
        got, want = read_csv(write_csv(dataset), dataset.indicator).columns, dataset.columns
        assert got[:4] == want[:4]
        assert got.kind == want.kind
        assert got.uncertainty == want.uncertainty
        as_float = [None if m is None else float(m) for m in want.magnitude]
        assert [None if m is None else float(m) for m in got.magnitude] == as_float


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

    @pytest.mark.parametrize("line, message", [
        ('"A"B,x', "line 2: ',' expected after '\"'"),
        ('"A,x', "line 2: unexpected end of data"),
    ])
    def test_a_quote_csv_would_read_past_is_refused(self, line, message):
        # Leniently `csv` reads `"A"B` as `AB` and an open quote to the end of the text.
        with pytest.raises(ArdkitError, match=f"^{re.escape(message)}$"):
            list(csv_rows(f"h,x\n{line}\n"))


def csv_writer_rendering(dataset):
    r"""The reference rendering: one `csv.writer` row per record.

    A `\r\n` writer quotes a field holding `\r`, as every writer does from
    Python 3.12; each row's `\r\n` then becomes `\n`.
    """
    rows = [[geography_column(dataset.level, dataset.edition), *CSV_COLUMNS]]
    for region, year, age, sex, kind, magnitude, uncertainty in zip(*dataset.columns):
        if kind is CellKind.SUPPRESSED:
            rendered = "S"
        elif kind is CellKind.MISSING:
            rendered = ""
        else:
            rendered = format_magnitude(magnitude)
        rows.append([region, year, age, sex, rendered, int(uncertainty)])
    lines = []
    for row in rows:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    return "".join(lines)


ANY_TOKEN = st.one_of(st.text(max_size=5), st.text(alphabet=',"\r\n a', max_size=5))
VALID_TOKEN = st.one_of(st.text(min_size=1, max_size=5), st.text(alphabet='"a b\'', min_size=1, max_size=5)).filter(
    lambda token: _token_problem(token) is None
)
LEVELS = st.sampled_from(list(UncertaintyLevel))


def cells(magnitudes):
    return st.one_of(
        st.tuples(magnitudes, LEVELS).map(lambda t: count(*t)),
        LEVELS.map(suppressed),
        LEVELS.map(missing),
    )


def datasets(tokens, magnitudes):
    row = st.builds(make_row, tokens, cells(magnitudes), year=st.integers(-3000, 3000), age=tokens, sex=tokens)
    return st.lists(row, max_size=25).map(make_dataset)


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
            # A token holding `\r` is invalid data, but `write_csv` quotes it so that it reads back all the same.
            st.one_of(VALID_TOKEN, st.text(alphabet='a\r"', min_size=1, max_size=5)),
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
        values = [count(7), suppressed(), missing(UncertaintyLevel.HIGH)]
        dataset = make_dataset(
            make_row(tokens[i % 5], values[i % 3], year=2000 + i % 7, age=tokens[i % 3], sex=tokens[i % 4])
            for i in range(rows)
        )
        text = write_csv(dataset)
        assert text == csv_writer_rendering(dataset)
        assert len(list(csv.reader(io.StringIO(text)))) == rows + 1


# Magnitudes whose texts a seed could confuse: equal values of different types
# (5 and 5.0, 0 and -0.0; from 2**53 on, an int and a float format apart), and
# a float whose shortest text is long.
SEED_POOL = (5, 5.0, 0, -0.0, 2**53 - 1, 2**53, 2.0**53, -(2**53), 10**16, 1e16, 0.1 + 0.2, 0.3, 17, 2.5)
QUOTED_TOKENS = ['q"x', "a,b", "r\nn", "c\rr"]
PLAIN_KEY_TOKENS = ["a", "A B", "0-4", "male", "", " "]


@st.composite
def dataset_pairs(draw):
    """Two datasets over one token pool: only tokens `csv.writer` leaves bare, or some it quotes."""
    pool = PLAIN_KEY_TOKENS + (QUOTED_TOKENS if draw(st.booleans()) else [])
    tokens = st.sampled_from(pool)
    value = st.one_of(st.sampled_from(SEED_POOL).map(count), st.just(suppressed()), st.just(missing()))
    row = st.builds(make_row, tokens, value, year=st.sampled_from([2011, 2016]), age=tokens, sex=tokens)
    return tuple(draw(st.lists(row, max_size=20).map(make_dataset)) for _ in range(2))


class TestSeededRender:
    @settings(max_examples=300, deadline=None)
    @given(dataset_pairs())
    def test_seeded_render_equals_unseeded_render_and_csv_writer(self, pair):
        first, second = pair
        texts = {}
        assert write_csv(first, texts=texts) == csv_writer_rendering(first)
        seeded = write_csv(second, texts=texts)
        assert seeded == write_csv(second) == csv_writer_rendering(second)
        # The table now holds the second dataset's magnitudes below 2**53, and only those.
        assert set(texts) == {m for m in second.columns.magnitude if m is not None and abs(m) < 2**53}

    def test_render_hashes_no_cell_kind_per_row(self, monkeypatch):
        # `Enum.__hash__` is pure Python, so a per-row lookup keyed by `CellKind` would cost a call per row.
        values = [count(3), suppressed(), count(2.5), missing(), count(2**60)]
        datasets = [make_dataset(make_row(f"R{i:05d}", values[i % 5]) for i in range(rows)) for rows in (2_000, 20_000)]
        calls = []
        real_hash = enum.Enum.__hash__
        monkeypatch.setattr(enum.Enum, "__hash__", lambda member: calls.append(member) or real_hash(member))
        assert hash(CellKind.COUNT) == real_hash(CellKind.COUNT) and calls == [CellKind.COUNT]
        counted = []
        for dataset in datasets:
            calls.clear()
            write_csv(dataset)
            counted.append(len(calls))
        assert counted[0] == counted[1] <= 8


class TestRows:
    @settings(max_examples=100, deadline=None)
    @given(datasets(ANY_TOKEN, st.integers(min_value=-(10**20), max_value=10**20)))
    def test_from_rows_inverts_the_records_view(self, dataset):
        assert Columns.from_rows(dataset.records) == dataset.columns

    def test_records_are_plain_rows(self):
        dataset = make_dataset([make_row("A", count(5)), make_row("B", suppressed(UncertaintyLevel.HIGH), year=2011)])
        assert dataset.records == (
            ("A", 2016, "0-4", "male", CellKind.COUNT, 5, UncertaintyLevel.LOW),
            ("B", 2011, "0-4", "male", CellKind.SUPPRESSED, None, UncertaintyLevel.HIGH),
        )
        assert [describe_key(*key) for key in dataset.columns.record_keys()] == ["A/2016/0-4/male", "B/2011/0-4/male"]


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
        values = rounded.columns.magnitude
        assert all(isinstance(v, int) for v in values)
        assert sum(values) == 61  # round(61.0)

    def test_largest_remainders_win(self):
        dataset = make_counts({"A": 1.7, "B": 1.7, "C": 1.6})
        rounded = round_counts(dataset)
        by_code = dict(zip(rounded.columns.region, rounded.columns.magnitude))
        assert sum(by_code.values()) == 5
        assert by_code["C"] == 1  # smallest remainder floors

    def test_integers_unchanged(self):
        dataset = make_counts({"A": 5, "B": 0})
        rounded = round_counts(dataset)
        assert dict(zip(rounded.columns.region, rounded.columns.magnitude)) == {"A": 5, "B": 0}

    def test_a_rate_is_handed_back_unrounded(self):
        # A rate has no whole units to hand out; `run --round-counts` leaves it as corresponded.
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        dataset = make_counts({"A": rate(1.25), "B": rate(2.5)}, indicator=indicator)
        assert round_counts(dataset) is dataset
