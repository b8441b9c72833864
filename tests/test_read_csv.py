"""The dataset file reader against a row-by-row reference, its two ways of splitting a file, and row order from the lines."""

from __future__ import annotations

import csv
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit import cli, model
from ardkit.errors import ArdkitError
from ardkit.model import (
    CSV_COLUMNS,
    EMPTY_COLUMNS,
    BoundaryEdition,
    CellKind,
    Columns,
    Dataset,
    GeoLevel,
    UncertaintyLevel,
    canonical_sort,
    geography_column,
    read_csv,
    write_csv,
)

from conftest import E2016, SA3, make_indicator
from reference_reader import read_rows

HEADER = ",".join((geography_column(SA3, E2016), *CSV_COLUMNS)) + "\n"
DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demo" / "config.json"


def outcome(read, text, indicator):
    """A reader's dataset, exactly (repr tells -0.0 from 0.0 and 5 from 5.0), or its error text."""
    try:
        dataset = read(text, indicator)
    except ArdkitError as exc:
        return str(exc)
    return dataset, repr(dataset.columns)


class CsvPathTaken(Exception):
    pass


def one_split(text, indicator):
    """`read_csv`'s dataset of `text` when it splits the text in one pass, or None where `csv` reads it or it is refused."""
    with mock.patch.object(model, "csv_rows", side_effect=CsvPathTaken):
        try:
            return read_csv(text, indicator)
        except (ArdkitError, CsvPathTaken):
            return None


def read_dataset_file(text, indicator):
    """`cli._read_dataset` of `text` written to a file, with the file's name taken off any error."""
    with tempfile.TemporaryDirectory() as tmp:
        data, doc = Path(tmp, "d.csv"), Path(tmp, "d.json")
        data.write_text(text, encoding="utf-8", newline="")
        doc.write_text(json.dumps(indicator.to_json()), encoding="utf-8")
        try:
            return cli._read_dataset(str(data), str(doc))[0]
        except ArdkitError as exc:
            return str(exc).removeprefix(f"{data}: ")


# Key tokens: plain ones, prefix pairs among them, and ones that need quoting or hold NUL.
PLAIN_TOKENS = ["A", "A B", "A+", "85", "85+", "SA1", "SA10", "0-4", "male", "S", "é", "Ä x", "", " "]
TOKENS = st.one_of(st.sampled_from(PLAIN_TOKENS), st.sampled_from(['q"x', "A,B", "0\x000", "r\nn", "c\rr"]), st.text(max_size=3))
YEARS = st.one_of(st.sampled_from([2011, 2016, 2021]), st.integers(1000, 9999), st.integers(10, 99), st.integers(-50, 99_999))
MAGNITUDES = st.one_of(
    st.none(), st.just("S"), st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False)
)

# Tokens for a line written by hand: each field's bad tokens, and a two-digit year that both paths accept.
FIELD_TOKENS = {
    1: ["20x6", "2_016", "２０１６", "١٢", "2016.0", "", " 2016", "+2016", "02016", "-0", "16"],
    4: ["abc", "1_000", "１２", "inf", "nan", "1e999", " 5", "-0", "1e3", "5.50", "S", ""],
    5: ["x", "7", "٠", "1_0", "", "-1", " 1", "01", "00", "+2", "-0"],
}


@st.composite
def dataset_texts(draw):
    """(text, indicator): a dataset rendered by `write_csv`, then perhaps mutated line by line."""
    kind = draw(st.sampled_from([CellKind.COUNT, CellKind.RATE, CellKind.PERCENTAGE]))
    # Each text draws its tokens and years from small pools, so that keys repeat and prefixes meet;
    # half of the texts use only tokens that `csv.writer` does not quote.
    pool = st.sampled_from(PLAIN_TOKENS) if draw(st.booleans()) else TOKENS
    tokens = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=6)))
    years = st.sampled_from(draw(st.lists(YEARS, min_size=1, max_size=3)))
    row = st.tuples(tokens, years, tokens, tokens, MAGNITUDES, st.sampled_from(list(UncertaintyLevel)))
    rows = [draw(row) for _ in range(draw(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 20])))]
    order = draw(st.sampled_from(["keys", "lines", "drawn"]))
    if order == "keys":  # canonical order: one row per key, sorted
        rows = sorted({row[:4]: row for row in rows}.values(), key=lambda row: row[:4])
    elif rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # repeated keys
    cells = [(CellKind.MISSING, None) if m is None else (CellKind.SUPPRESSED, None) if m == "S" else (kind, m)
             for m in (row[4] for row in rows)]
    columns = Columns(*zip(*(row[:4] + cell + row[5:] for row, cell in zip(rows, cells)))) if rows else EMPTY_COLUMNS
    indicator = make_indicator(value_kind=kind)
    level, edition = draw(st.sampled_from(list(GeoLevel))), draw(st.sampled_from(list(BoundaryEdition)))
    head, *lines = write_csv(Dataset(indicator, columns, edition, level)).split("\n")
    lines.pop()
    if order == "lines":  # lines in order, whose keys need not be
        lines.sort()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        mutation = draw(st.sampled_from(["line", "ragged", "blank", "cr", "long line", "long field"]))
        if mutation == "line":  # a line of its own, with odd or bad tokens in one or more numeric fields
            fields = ["A", "2016", "0-4", "male", "5", "0"]
            for field in draw(st.sets(st.sampled_from(sorted(FIELD_TOKENS)), min_size=1)):
                fields[field] = draw(st.sampled_from(FIELD_TOKENS[field]))
            lines.insert(at, ",".join(fields))
        elif mutation == "ragged":  # one line short of a field, or one short and the next one over
            lines[at:at] = draw(st.sampled_from([["0"], ["0,0,0,0,0"], ["0,0,0,0,0", "0,0,0,0,0,0,0"]]))
        elif mutation == "blank":
            lines.insert(at, "")
        elif mutation == "cr":
            lines.insert(at, "A,2016,0-4,male,5,0\r")
        else:  # longer than the field size limit: the whole line, or one field
            width = csv.field_size_limit() - (10 if mutation == "long line" else -1)
            lines.insert(at, f"{'m' * width},2016,0-4,male,5,0")
    text = "\n".join([head, *lines]) + draw(st.sampled_from(["\n", "\n", ""]))
    return text, indicator


class TestOneSplitEqualsCsvReader:
    @settings(max_examples=250, deadline=None)
    @given(dataset_texts())
    def test_same_dataset_order_or_error(self, example):
        text, indicator = example
        want = outcome(read_rows, text, indicator)
        assert outcome(read_csv, text, indicator) == want
        plain = one_split(text, indicator)
        body = text.split("\n")[1:]
        if body[-1:] == [""]:
            body.pop()
        if not isinstance(want, str) and not any(c in text for c in '"\r\0'):
            # Every text the reference reads whose lines are six plain fields takes the one split.
            assert (plain is not None) == all(line.count(",") == 5 and len(line) <= csv.field_size_limit() for line in body)
        if isinstance(want, str):
            assert plain is None
            assert read_dataset_file(text, indicator) == want
        else:
            assert plain is None or (plain, repr(plain.columns)) == want
            in_order = canonical_sort(want[0])  # read by `csv`: its order is decided from its keys
            assert repr(read_dataset_file(text, indicator).columns) == repr(in_order.columns)
            assert repr(canonical_sort(read_csv(text, indicator)).columns) == repr(in_order.columns)

    def test_plain_text_takes_the_one_split(self):
        text = HEADER + "A,2016,0-4,male,5,0\nA,2016,0-4,male,S,1\nB,2017,5-9,female,,2\n"
        with mock.patch.object(model, "csv_rows", side_effect=AssertionError("csv path taken")):
            dataset = read_csv(text, make_indicator())
        assert dataset.columns == Columns(
            ("A", "A", "B"), (2016, 2016, 2017), ("0-4", "0-4", "5-9"), ("male", "male", "female"),
            (CellKind.COUNT, CellKind.SUPPRESSED, CellKind.MISSING), (5.0, None, None),
            (UncertaintyLevel.LOW, UncertaintyLevel.MEDIUM, UncertaintyLevel.HIGH),
        )

    def test_both_splits_pass_through_the_one_decoder(self):
        plain = HEADER + "A,2016,0-4,male,5,0\nB,2017,5-9,female,S,1\n"
        quoted = plain.replace("B,2017", '"B",2017')  # a field quoted though it needs no quotes
        with mock.patch.object(model, "_decode", wraps=model._decode) as decode, \
                mock.patch.object(model, "csv_rows", wraps=model.csv_rows) as split:
            read = [read_csv(text, make_indicator()) for text in (plain, quoted)]
        assert [call.args[0] for call in decode.call_args_list] == [HEADER.strip().split(",")] * 2
        assert [call.args[0] for call in split.call_args_list] == [quoted]
        assert read[0].columns == read[1].columns
        assert vars(read[0])["_as_written"] and "_as_written" not in vars(read[1])


class TestMessageOrder:
    """A `csv` error first, then an empty file, then the header, then the first row at fault, whatever its fault."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (HEADER + "A,2016,0-4,male,x,0\n" + '"A', "line 3: unexpected end of data"),
            ("X\n0,0\n" + '"A"B,2016,0-4,male,5,0\n', "line 3: ',' expected after '\"'"),
            ("", "dataset file is empty"),
            ("X,CALENDAR_YEAR\nA,20x6,0-4,male,x,x\n0\n", "unexpected dataset header ['X', 'CALENDAR_YEAR']"),
            (HEADER.replace("SA3CODE", "XXCODE") + "A,20x6,0-4,male,x,x\n0\n", "unrecognized geography column 'XXCODE_16'"),
            (HEADER + "A,2016,0-4,male,x,0\n0,0\n", "line 2: invalid VALUE 'x'"),
            (HEADER + "A,2016,0-4,male,5,0\n0,0\nA,2016,0-4,male,x,0\n", "line 3: expected 6 fields, got 2"),
            (HEADER + '"A",2016,0-4,male,5,0\nA,20x6,0-4,male,5,0\nA,2016,0-4,male,x,x\n', "line 3: invalid CALENDAR_YEAR '20x6'"),
        ],
        ids=["csv-after-bad-value", "csv-after-bad-header", "empty", "header", "geography", "value-before-ragged",
             "ragged-before-value", "earlier-row-first-csv"],
    )
    def test_first_fault_is_named(self, text, message):
        with pytest.raises(ArdkitError, match=f"^{re.escape(message)}$"):
            read_csv(text, make_indicator())
        assert outcome(read_rows, text, make_indicator()) == message


class TestNumericTokens:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("A,2_016,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR '2_016'"),
            ("A,２０１６,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR '２０１６'"),
            ("A,2016,0-4,male,1_000,0", "line 3: invalid VALUE '1_000'"),
            ("A,2016,0-4,male,١٢,0", "line 3: invalid VALUE '١٢'"),
            ("A,2016,0-4,male,5,١", "line 3: invalid UNCERTAINTY '١'"),
            ("A,2016,0-4,male,5,0_1", "line 3: invalid UNCERTAINTY '0_1'"),
            # Within a line the level is checked first, then the value, then the year.
            ("A,20x6,0-4,male,abc,x", "line 3: invalid UNCERTAINTY 'x'"),
            ("A,20x6,0-4,male,abc,0", "line 3: invalid VALUE 'abc'"),
            # An integer is the text `str(int)` writes: no space or plus sign.
            ("A, 2016,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR ' 2016'"),
            ("A,2016 ,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR '2016 '"),
            ("A,+2017,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR '+2017'"),
            ("A,2016,0-4,male,5,+0", "line 3: invalid UNCERTAINTY '+0'"),
            ("A,2016,0-4,male,5, 1", "line 3: invalid UNCERTAINTY ' 1'"),
        ],
        ids=["year-underscore", "year-fullwidth", "value-underscore", "value-arabic-indic",
             "level-arabic-indic", "level-underscore", "level-first", "value-before-year",
             "year-leading-space", "year-trailing-space", "year-plus", "level-plus", "level-space"],
    )
    def test_non_ascii_decimal_is_refused(self, line, message):
        text = HEADER + f"A,2016,0-4,male,5,0\n{line}\nB,20x6,0-4,male,5,0\n"
        with pytest.raises(ArdkitError, match=f"^{re.escape(message)}$"):
            read_csv(text, make_indicator())

    @pytest.mark.parametrize("value", ["1_000", "١٢", "１２", "inf", "-inf", "nan", "1e999", "abc"])
    def test_bad_value_on_its_own_is_named(self, value):
        # No other line is bad, so the one-split reader must refuse the value itself.
        with pytest.raises(ArdkitError, match=f"^line 3: invalid VALUE '{value}'$"):
            read_csv(HEADER + f"A,2016,0-4,male,5,0\nA,2017,0-4,male,{value},0\n", make_indicator())

    # `write_csv` writes 5 as "5", 5.5 as "5.5", 1000.0 as "1000", -0.0 as "0" and 0.3 as "0.3".
    @pytest.mark.parametrize("value", [" 5", "5 ", "+5", "05", "5.0", "5.50", "1e3", "-0", "-0.0", "0.30000000000000001"])
    @pytest.mark.parametrize("region", ["A", '"A"'], ids=["one-split", "csv"])
    def test_value_write_csv_would_not_write_back_is_named(self, value, region):
        text = HEADER + f"{region},2016,0-4,male,5,0\nA,2017,0-4,male,{value},0\n"
        assert one_split(text, make_indicator()) is None
        with pytest.raises(ArdkitError, match=f"^line 3: invalid VALUE '{re.escape(value)}'$"):
            read_csv(text, make_indicator())

    @pytest.mark.parametrize(
        "value, magnitude",
        [
            ("9007199254740993", 2**53 + 1),  # no float holds it: an int magnitude's text
            ("-9007199254740992", -(2**53)),
            ("100000000000000000000", 10**20),
            ("9007199254740994.0", 2.0**53 + 2),  # a float's repr from 2**53 on
            ("1e+16", 1e16),
            ("9007199254740991", 2.0**53 - 1),
        ],
    )
    @pytest.mark.parametrize("region", ["A", '"A"'], ids=["one-split", "csv"])
    def test_texts_from_2_53_on_read_back(self, value, magnitude, region):
        text = HEADER + f"{region},2016,0-4,male,{value},0\n"
        (read,) = read_csv(text, make_indicator()).columns.magnitude
        assert (read, type(read)) == (magnitude, type(magnitude))
        assert write_csv(read_csv(text, make_indicator())) == text.replace('"', "")

    # An integer field is the text `write_csv` writes: no leading zero and no minus zero.
    INTEGER_TEXTS = [
        ("A,02016,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR '02016'"),
        ("B,-0,0-4,male,5,0", "line 3: invalid CALENDAR_YEAR '-0'"),
        ("A,2017,0-4,male,5,00", "line 3: invalid UNCERTAINTY '00'"),
        ("A,2017,0-4,male,5,01", "line 3: invalid UNCERTAINTY '01'"),
        ("A,2017,0-4,male,5,-0", "line 3: invalid UNCERTAINTY '-0'"),
    ]

    @pytest.mark.parametrize("line, message", INTEGER_TEXTS)
    @pytest.mark.parametrize("region", ["A", '"A"'], ids=["one-split", "csv"])
    def test_integer_write_csv_would_not_write_back_is_named(self, line, message, region):
        text = HEADER + f"{region},2016,0-4,male,5,0\n{line}\n"
        assert one_split(text, make_indicator()) is None
        with pytest.raises(ArdkitError, match=f"^{message}$"):
            read_csv(text, make_indicator())

    @pytest.mark.parametrize("line, message", INTEGER_TEXTS[:3])
    def test_every_subcommand_that_reads_a_dataset_names_file_and_line(self, tmp_path, capsys, line, message):
        data, indicator, out = tmp_path / "bad.csv", tmp_path / "ind.json", str(tmp_path / "out")
        data.write_text(HEADER + f"A,2016,0-4,male,5,0\n{line}\n", encoding="utf-8")
        indicator.write_text(json.dumps(make_indicator().to_json()), encoding="utf-8")
        given = ["--data", str(data), "--indicator", str(indicator)]
        for argv in (
            ["clean", *given, "--out-data", out, "--log", out],
            ["correspond", *given, "--to-edition", "2021", "--table", f"2016:2021:{out}", "--out-data", out],
            ["suppress", *given, "--out-data", out],
            ["qa", *given, "--report", out],
            ["emit-docs", "--config", str(DEMO_CONFIG), *given, "--out", out],
        ):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr().err == f"error: {data}: {message}\n"

    def test_first_bad_line_is_named_whichever_field_it_holds(self):
        lines = ["A,2016,0-4,male,5,x", "A,20x6,0-4,male,5,0"]
        for first, message in ((lines, "line 2: invalid UNCERTAINTY 'x'"), (lines[::-1], "line 2: invalid CALENDAR_YEAR '20x6'")):
            with pytest.raises(ArdkitError, match=f"^{message}$"):
                read_csv(HEADER + "\n".join(first) + "\n", make_indicator())

    def test_ragged_lines_that_add_up_to_whole_rows_are_refused(self):
        text = HEADER + "0,0,0,0,0,0\n0,0,0,0,0\n0,0,0,0,0,0,0\n"
        with pytest.raises(ArdkitError, match="^line 3: expected 6 fields, got 5$"):
            read_csv(text, make_indicator())

    def test_nul_takes_the_csv_path(self):
        # csv.reader reads NUL from Python 3.11 on and refuses it before; either way read_csv does as it does.
        # Split at NUL as well as at commas, the second line would be seven fields that decode.
        text = HEADER + "A,2016,0-4,male,5,0\n0\x000,0,0,0,0,0\n"
        assert one_split(text, make_indicator()) is None
        if sys.version_info >= (3, 11):
            assert read_csv(text, make_indicator()).columns.region == ("A", "0\x000")
        else:
            with pytest.raises(ArdkitError, match="^line 3: line contains NUL$"):
                read_csv(text, make_indicator())


def lines_of(*rows):
    return HEADER + "".join(f"{row}\n" for row in rows)


class TestOrderFromLines:
    @pytest.mark.parametrize(
        "rows",
        [
            ("R,2016,85+,male,1,0", "R,2016,85,male,1,0"),  # '+' sorts below ',': the lines are in order
            ("A B,2016,0-4,male,1,0", "A,2016,0-4,male,1,0"),  # a region that prefixes another at a space
            ("R,2016,0-4,male,1,0", "R,99,0-4,male,1,0"),  # two-digit year
            ("R,10000,0-4,male,1,0", "R,9999,0-4,male,1,0"),  # five-digit year
        ],
    )
    def test_lines_in_order_with_keys_out_of_order_are_sorted(self, rows):
        assert list(rows) == sorted(rows)
        dataset = read_csv(lines_of(*rows), make_indicator())
        keys = list(dataset.columns.record_keys())
        assert keys != sorted(keys)
        assert list(canonical_sort(dataset).columns.record_keys()) == sorted(keys)

    @pytest.mark.parametrize(
        "rows",
        [
            ("R,2016,85,male,1,0", "R,2016,85+,male,1,0", "R,2017,0-4,female,1,0"),
            ("A,2016,0-4,male,1,0", "A B,2016,0-4,male,1,0", "SA1,2016,0-4,male,1,0", "SA10,2016,0-4,male,1,0"),
        ],
    )
    def test_canonical_file_comes_back_unsorted(self, rows):
        dataset = read_csv(lines_of(*rows), make_indicator())
        with mock.patch.object(Columns, "record_keys", side_effect=AssertionError("keys built")):
            assert canonical_sort(dataset) is dataset
        assert [",".join(map(str, row[:4])) for row in zip(*dataset.columns)] == [r.rsplit(",", 2)[0] for r in rows]

    @pytest.mark.parametrize(
        "rows",
        [
            ("R,16,0-4,male,1,0", "R,17,0-4,male,1,0"),  # two-digit years leave the lines unconfirmed
            ("R,2016,0-4,male,9,0", "R,2016,0-4,male,1,0"),  # one key twice, its lines out of order
        ],
    )
    def test_unconfirmed_rows_in_order_come_back_as_they_are(self, rows):
        dataset = read_csv(lines_of(*rows), make_indicator())
        assert canonical_sort(dataset) is dataset


# VALUE texts: what `write_csv` writes for ints and floats, near misses of it, and arbitrary numeric-looking text.
VALUE_TEXTS = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(model.format_magnitude),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map("{}.0".format),
    st.text(alphabet="0123456789.-+eE_ ", max_size=8),
    st.sampled_from(FIELD_TOKENS[4]),
)

# CALENDAR_YEAR and UNCERTAINTY texts: what `write_csv` writes, near misses of it, and arbitrary integer-looking text.
YEAR_TEXTS = st.one_of(
    st.integers(-10**5, 10**5).map(str), st.text(alphabet="0123456789-+_ ", max_size=6), st.sampled_from(FIELD_TOKENS[1])
)
LEVEL_TEXTS = st.one_of(
    st.sampled_from([str(int(level)) for level in UncertaintyLevel]),
    st.text(alphabet="0123-+ ", max_size=3),
    st.sampled_from(FIELD_TOKENS[5]),
)


class TestValueMeansOneText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(VALUE_TEXTS, min_size=1, max_size=6), st.sampled_from(["A", '"q""x"']))
    def test_an_accepted_text_is_written_back(self, values, region):
        # A quoted region sends the text down the `csv` path; a plain one takes the one split.
        text = HEADER + "".join(f"{region},{2000 + i},0-4,male,{value},0\n" for i, value in enumerate(values))
        try:
            dataset = read_csv(text, make_indicator())
        except ArdkitError as exc:
            assert re.fullmatch(r"line \d+: invalid VALUE '.*'", str(exc), re.DOTALL)
            return
        assert write_csv(dataset) == text

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(YEAR_TEXTS, LEVEL_TEXTS), min_size=1, max_size=6), st.sampled_from(["A", '"q""x"']))
    def test_an_accepted_year_or_level_is_written_back(self, fields, region):
        text = HEADER + "".join(f"{region},{year},{i}-4,male,5,{level}\n" for i, (year, level) in enumerate(fields))
        try:
            dataset = read_csv(text, make_indicator())
        except ArdkitError as exc:
            assert re.fullmatch(r"line \d+: invalid (CALENDAR_YEAR|UNCERTAINTY) '.*'", str(exc))
            return
        assert write_csv(dataset) == text


def data_lines(text):
    """The fields of each line after the header; a last line without LF counts too."""
    _, *lines = text.split("\n")
    if lines[-1:] == [""]:
        lines.pop()
    return [line.split(",") for line in lines]


class TestReadAsWritten:
    """A read marks its dataset exactly when `write_csv` writes the text it read, and the stage write keeps that text."""

    @settings(max_examples=250, deadline=None)
    @given(dataset_texts())
    def test_marked_exactly_when_plain_in_canonical_order_and_lf_terminated(self, example):
        text, indicator = example
        try:
            dataset = read_csv(text, indicator)
        except ArdkitError:
            return
        rows = data_lines(text)
        plain = not any(c in text for c in '"\r\0') and all(
            len(row) == 6 and len(",".join(row)) <= csv.field_size_limit() for row in rows
        )
        # Canonical order: four-digit years, rows sorted by key, and lines of one key by their other fields.
        in_order = plain and all(re.fullmatch("[0-9]{4}", row[1]) for row in rows) and rows == sorted(
            rows, key=lambda row: (row[0], int(row[1]), *row[2:])
        )
        marked = vars(dataset).get("_as_written", False)
        assert marked == (in_order and text.endswith("\n"))
        if marked:
            assert write_csv(Dataset(*dataset)) == text

    def test_the_read_text_is_written_back_unrendered(self, tmp_path):
        text = HEADER + "A,2016,0-4,male,5,0\nA,2017,0-4,male,2.5,1\nB,2016,0-4,male,S,0\n"
        data, doc, out = tmp_path / "d.csv", tmp_path / "d.json", tmp_path / "o.csv"
        data.write_text(text, encoding="utf-8", newline="")
        doc.write_text(json.dumps(make_indicator().to_json()), encoding="utf-8")
        read = cli._read_dataset(str(data), str(doc))
        assert read[1] == text
        with mock.patch.object(model, "_value_texts", side_effect=AssertionError("rendered")):
            cli._write_dataset(read[0], str(out), None, read)
        assert out.read_text(encoding="utf-8") == text
        # Any other dataset is rendered.
        cli._write_dataset(read[0]._replace(level=GeoLevel.SA2), str(out), None, read)
        assert out.read_text(encoding="utf-8") == text.replace("SA3CODE", "SA2CODE")
        # A file the read does not mark comes without its text.
        data.write_text(text.replace("A,2016", '"A",2016'), encoding="utf-8", newline="")
        assert cli._read_dataset(str(data), str(doc))[1] is None

    def test_a_changed_dataset_is_not_marked(self):
        text = HEADER + "A,2016,0-4,male,5,0\nB,2016,0-4,male,6,0\n"
        dataset = read_csv(text, make_indicator())
        assert canonical_sort(dataset) is dataset and vars(dataset)["_as_written"]
        changed = dataset.with_columns(dataset.columns._replace(magnitude=(5, 7)))
        assert "_as_written" not in vars(changed) and write_csv(changed) == text.replace(",6,", ",7,")
        moved = dataset._replace(level=GeoLevel.SA2)
        assert "_as_written" not in vars(moved) and write_csv(moved) == text.replace("SA3CODE", "SA2CODE")
        # Lines of one key out of order: the dataset sorts as it is, and it is not marked.
        text = HEADER + "A,2016,0-4,male,6,0\nA,2016,0-4,male,5,0\n"
        dataset = read_csv(text, make_indicator())
        assert canonical_sort(dataset) is dataset and "_as_written" not in vars(dataset)
        resorted = canonical_sort(read_csv(HEADER + "B,2016,0-4,male,6,0\nA,2016,0-4,male,5,0\n", make_indicator()))
        assert "_as_written" not in vars(resorted)
        assert write_csv(resorted) == HEADER + "A,2016,0-4,male,5,0\nB,2016,0-4,male,6,0\n"


def csv_field(value: str) -> str:
    """A field as `csv.writer` writes it: quoted when it holds a comma, quote, CR or LF."""
    return '"' + value.replace('"', '""') + '"' if any(c in value for c in ',"\r\n') else value


# A line end: LF after any number of CRs, or CRs alone at the end of the text.
LINE_END_RE = re.compile(r"\r*(?:\n|\Z)")
# One field: quoted (a doubled quote inside) or bare; a bare field may hold a quote after its first character.
FIELD_RE = re.compile(r'"((?:[^"]|"")*)"|((?:[^",\r\n][^,\r\n]*)?)')


def without_rewrites(text):
    """`text` with the accepted rewrites undone, or None when it holds any other departure from the written form.

    The rewrites: a field quoted though it needs no quotes, a quote inside a
    bare key token, CRs before a line's LF or at the end of the text, and no
    final line end.
    """
    pos, rows, row = 0, [], []
    while True:
        m = FIELD_RE.match(text, pos)
        row.append(m[2] if m[1] is None else m[1].replace('""', '"'))
        pos = m.end()
        if text.startswith(",", pos):
            pos += 1
            continue
        rows.append(row)
        row = []
        end = LINE_END_RE.match(text, pos)
        if end is None:
            return None
        pos = end.end()
        if pos == len(text):
            break
    return "".join(",".join(map(csv_field, row)) + "\n" for row in rows)


@st.composite
def written_and_rewritten(draw):
    """(text, rewritten, indicator): a random dataset as `write_csv` writes it, rows shuffled, then each rewrite at random."""
    kind = draw(st.sampled_from([CellKind.COUNT, CellKind.RATE, CellKind.PERCENTAGE]))
    tokens = st.sampled_from(draw(st.lists(TOKENS, min_size=1, max_size=6)))
    years = st.sampled_from(draw(st.lists(YEARS, min_size=1, max_size=3)))
    row = st.tuples(tokens, years, tokens, tokens, MAGNITUDES, st.sampled_from(list(UncertaintyLevel)))
    rows = sorted(draw(st.lists(row, max_size=12)), key=lambda row: row[:4])
    rows = draw(st.permutations(rows)) if draw(st.booleans()) else rows
    cells = [(CellKind.MISSING, None) if m is None else (CellKind.SUPPRESSED, None) if m == "S" else (kind, m)
             for m in (row[4] for row in rows)]
    columns = Columns(*zip(*(row[:4] + cell + row[5:] for row, cell in zip(rows, cells)))) if rows else EMPTY_COLUMNS
    indicator = make_indicator(value_kind=kind)
    level, edition = draw(st.sampled_from(list(GeoLevel))), draw(st.sampled_from(list(BoundaryEdition)))
    text = write_csv(Dataset(indicator, columns, edition, level))
    lines = list(csv.reader(io.StringIO(text)))
    assert "".join(",".join(map(csv_field, line)) + "\n" for line in lines) == text
    quote = st.booleans() if draw(st.booleans()) else st.just(False)
    rewritten = ""
    for at, line in enumerate(lines, start=1):
        fields = []
        for i, field in enumerate(line):
            if draw(quote):  # quoted, needed or not
                fields.append('"' + field.replace('"', '""') + '"')
            elif at > 1 and i < 4 and re.fullmatch('[^",\r\n][^,\r\n]*"[^,\r\n]*', field) and draw(st.booleans()):
                fields.append(field)  # a key token's quote left bare
            else:
                fields.append(csv_field(field))
        line_ends = ["\n", "\r\n", "\r\r\n"] + (["", "\r", "\r\r"] if at == len(lines) else [])
        rewritten += ",".join(fields) + draw(st.sampled_from(line_ends))
    return text, rewritten, indicator


class TestDatasetFileMeansOneText:
    """`write_csv(read_csv(t))` is `t`, but for the rewrites docs/formats.md states."""

    @settings(max_examples=300, deadline=None)
    @given(written_and_rewritten())
    def test_the_stated_rewrites_are_undone(self, example):
        text, rewritten, indicator = example
        assert without_rewrites(rewritten) == text
        assert write_csv(read_csv(rewritten, indicator)) == text

    @settings(max_examples=300, deadline=None)
    @given(written_and_rewritten(), st.data())
    def test_an_accepted_file_departs_from_its_written_form_only_by_a_stated_rewrite(self, example, data):
        text, rewritten, indicator = example
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(rewritten)))
            end = data.draw(st.integers(at, min(len(rewritten), at + 3)))
            rewritten = rewritten[:at] + data.draw(st.sampled_from(['"', '""', "\r", "\n", "\r\n", ",", " ", ""])) + rewritten[end:]
        try:
            dataset = read_csv(rewritten, indicator)
        except ArdkitError:
            return
        assert without_rewrites(rewritten) == write_csv(dataset)

    @pytest.mark.parametrize("line, message", [
        ('"A"B,2016,0-4,male,5,0', "line 2: ',' expected after '\"'"),
        ('"A,2016,0-4,male,5,0', "line 2: unexpected end of data"),
    ])
    def test_a_quote_csv_would_read_past_is_refused(self, line, message):
        with pytest.raises(ArdkitError, match=f"^{re.escape(message)}$"):
            read_csv(HEADER + line + "\n", make_indicator())
