"""Raw parsing, schema mappings, detection, and source descriptors."""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit import ingest
from ardkit.errors import IngestError
from ardkit.ingest import (
    AccessMode,
    Layout,
    SchemaMapping,
    SourceDescriptor,
    detect_characteristics,
    parse_raw,
)
from ardkit.model import CellKind, write_csv

import ingest_oracle
from conftest import E2016, SA3, make_indicator


def make_source(source_id="src.demo", **kwargs):
    defaults = dict(
        name="Demo source",
        custodian="Statistics office",
        access_mode=AccessMode.PUBLIC,
        collection_start=datetime.date(2006, 1, 1),
        collection_end=datetime.date(2022, 12, 31),
        url_or_locator="https://example.org/demo",
    )
    defaults.update(kwargs)
    return SourceDescriptor(source_id=source_id, **defaults)


LONG_MAPPING = SchemaMapping(
    layout=Layout.LONG,
    geography_code_column="SA3CODE_16",
    age_group_column="AGE_GROUP",
    sex_column="SEX",
    calendar_year_column="CALENDAR_YEAR",
    value_column="VALUE",
    value_kind=CellKind.COUNT,
    level=SA3,
    edition=E2016,
    missing_tokens=frozenset({"", "n.p."}),
)


def lineage_rows(report) -> list[tuple[tuple[str, int, str, str], int, str]]:
    """The lineage file's data lines as ((region, year, age, sex), raw row, raw column), header checked."""
    header, *rows = csv.reader(io.StringIO(report.lineage_csv))
    assert header == ["REGION", "CALENDAR_YEAR", "AGE_GROUP", "SEX", "RAW_ROW", "RAW_COLUMN"]
    return [((region, int(year), age, sex), int(row), column) for region, year, age, sex, row, column in rows]


class TestRegistry:
    def test_inverted_collection_window(self):
        with pytest.raises(IngestError, match="inverted collection window"):
            make_source(
                collection_start=datetime.date(2022, 1, 1),
                collection_end=datetime.date(2006, 1, 1),
            )

    def test_descriptor_json_round_trip(self):
        source = make_source()
        assert SourceDescriptor.from_json(source.to_json()) == source

    def test_schema_rejects_unknown_access_mode(self):
        doc = make_source().to_json()
        doc["access_mode"] = "scraping"
        with pytest.raises(IngestError):
            SourceDescriptor.from_json(doc)


class TestParseLong:
    def test_clean_three_row_table(self, count_indicator):
        raw = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "10102,2016,0-4,male,12\n"
            "10102,2016,0-4,female,9\n"
            "10103,2016,0-4,male,7\n"
        )
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert len(dataset.columns.region) == 3
        assert report.rows_in == 3
        assert report.records_out == 3
        assert report.rejects == ()
        assert len(lineage_rows(report)) == 3
        assert dataset.edition is E2016 and dataset.level is SA3

    def test_declared_missing_token(self, count_indicator):
        raw = "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n10102,2016,0-4,male,n.p.\n"
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert dataset.columns.kind[0] is CellKind.MISSING
        assert report.rejects == ()

    def test_malformed_rows_reported_never_dropped_silently(self, count_indicator):
        raw = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "10102,2016,0-4,male,12\n"
            ",2016,0-4,male,3\n"
            "10103,20xx,0-4,male,3\n"
            "10104,2016,0-4,male,abc\n"
            "10105,2016,0-4,male,-4\n"
            "10106,2016,0-4,male,2.5\n"
        )
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert report.rows_in == 6
        assert report.records_out == 1
        assert len(report.rejects) == 5
        reasons = " | ".join(r.reason for r in report.rejects)
        assert "empty geography code" in reasons
        assert "calendar year" in reasons
        assert "unparseable value" in reasons
        assert "negative value" in reasons
        assert "not a non-negative integer" in reasons
        assert report.rows_in == report.records_out + len(report.rejects)

    def test_missing_bound_column_is_fatal(self, count_indicator):
        raw = "SA3CODE_16,YEAR,AGE_GROUP,SEX,VALUE\n10102,2016,0-4,male,1\n"
        with pytest.raises(IngestError, match="CALENDAR_YEAR"):
            parse_raw(raw, LONG_MAPPING, count_indicator)

    def test_repeated_bound_column_is_fatal(self, count_indicator):
        raw = "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,VALUE\n10102,2016,0-4,male,10,99\n"
        with pytest.raises(IngestError, match="more than once in header: VALUE"):
            parse_raw(raw, LONG_MAPPING, count_indicator)

    def test_repeated_unbound_column_is_allowed(self, count_indicator):
        raw = "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,NOTE,NOTE\n10102,2016,0-4,male,10,a,b\n"
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert dataset.columns.magnitude == (10,)
        assert report.rejects == ()

    def test_undecodable_bytes_fatal_with_offset(self, count_indicator):
        raw = b"SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n101\xff02,2016,0-4,male,1\n"
        with pytest.raises(IngestError, match="byte offset 48"):
            parse_raw(raw, LONG_MAPPING, count_indicator)

    def test_oversized_field_is_fatal_naming_its_line(self, count_indicator):
        raw = f"SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n10102,2016,0-4,{'m' * 200_000},1\n"
        with pytest.raises(IngestError, match=r"^line 2: field larger than field limit \(131072\)$"):
            parse_raw(raw, LONG_MAPPING, count_indicator)

    def test_deterministic_serialization(self, count_indicator):
        raw = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "10103,2016,0-4,male,7\n"
            "10102,2016,0-4,male,12\n"
        )
        first, _ = parse_raw(raw, LONG_MAPPING, count_indicator)
        second, _ = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert write_csv(first) == write_csv(second)
        codes = list(first.columns.region)
        assert codes == sorted(codes)


class TestParseWide:
    MAPPING = SchemaMapping(
        layout=Layout.WIDE_BY_YEAR,
        geography_code_column="SA3CODE_16",
        age_group_column="AGE_GROUP",
        sex_column="SEX",
        value_kind=CellKind.COUNT,
        year_columns=("2016", "2017"),
        level=SA3,
        edition=E2016,
    )

    def test_unpivot_two_years_two_regions(self, count_indicator):
        raw = (
            "SA3CODE_16,AGE_GROUP,SEX,2016,2017\n"
            "10102,0-4,male,5,6\n"
            "10103,0-4,male,7,8\n"
        )
        dataset, report = parse_raw(raw, self.MAPPING, count_indicator)
        # Oracle: unpivoting the fixture by hand gives these four cells.
        expected = {
            ("10102", 2016): 5,
            ("10102", 2017): 6,
            ("10103", 2016): 7,
            ("10103", 2017): 8,
        }
        got = dict(zip(zip(dataset.columns.region, dataset.columns.year), dataset.columns.magnitude))
        assert got == expected
        assert report.rows_in == 4
        assert report.records_out == 4

    def test_row_level_problem_rejects_all_logical_rows(self, count_indicator):
        raw = "SA3CODE_16,AGE_GROUP,SEX,2016,2017\n,0-4,male,5,6\n"
        dataset, report = parse_raw(raw, self.MAPPING, count_indicator)
        assert len(dataset.columns.region) == 0
        assert report.rows_in == 2
        assert len(report.rejects) == 2

    def test_cell_level_problem_rejects_one_logical_row(self, count_indicator):
        raw = "SA3CODE_16,AGE_GROUP,SEX,2016,2017\n10102,0-4,male,bad,6\n"
        dataset, report = parse_raw(raw, self.MAPPING, count_indicator)
        assert len(dataset.columns.region) == 1
        assert len(report.rejects) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_conservation_property(seed):
    rng = random.Random(seed)
    lines = ["SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE"]
    rows = rng.randint(0, 40)
    for i in range(rows):
        code = rng.choice([f"1010{i}", ""])  # sometimes invalid
        year = rng.choice(["2016", "bad"])
        value = rng.choice(["5", "n.p.", "oops", "-1"])
        lines.append(f"{code},{year},0-4,male,{value}")
    dataset, report = parse_raw("\n".join(lines) + "\n", LONG_MAPPING, make_indicator())
    assert report.rows_in == rows
    assert report.records_out + len(report.rejects) == report.rows_in
    assert report.records_out == len(dataset.columns.region) == len(lineage_rows(report))


class TestDetect:
    def test_standard_geography_header(self):
        draft = detect_characteristics("SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n")
        roles = {g.role: g.column for g in draft.guesses}
        assert roles["geography_code"] == "SA3CODE_16"
        assert draft.level_guess is SA3
        assert draft.edition_guess is E2016
        assert draft.layout_guess is Layout.LONG
        assert all(g.unconfirmed for g in draft.guesses)

    def test_unrecognizable_header_gives_empty_draft(self):
        draft = detect_characteristics("alpha,beta,gamma\n")
        assert draft.guesses == ()
        assert draft.layout_guess is None

    def test_two_year_columns_guess_wide_layout(self):
        # Oracle: the fixture header carries two four-digit year columns.
        draft = detect_characteristics("SA3CODE_16,AGE_GROUP,SEX,2016,2017\n")
        assert draft.layout_guess is Layout.WIDE_BY_YEAR
        year_columns = [g.column for g in draft.guesses if g.role == "year_column"]
        assert year_columns == ["2016", "2017"]

    def test_undecodable_bytes_fatal(self):
        with pytest.raises(IngestError, match="byte offset"):
            detect_characteristics(b"\xff\xfe")

    def test_draft_marked_unconfirmed_in_json(self):
        draft = detect_characteristics("SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n")
        assert draft.to_json()["unconfirmed"] is True


LONG_MAPPING_DOC = {
    "layout": "long",
    "columns": {
        "geography_code": "SA3CODE_16",
        "calendar_year": "CALENDAR_YEAR",
        "age_group": "AGE_GROUP",
        "sex": "SEX",
        "value": "VALUE",
    },
    "value_kind": "count",
    "geography": {"level": "SA3", "edition": 2016},
    "missing_tokens": ["", "n.p."],
}


class TestMappingJson:
    def test_schema_rejects_bad_layout(self):
        assert SchemaMapping.from_json(LONG_MAPPING_DOC) == LONG_MAPPING  # the base document is valid
        doc = {**LONG_MAPPING_DOC, "layout": "diagonal"}
        with pytest.raises(IngestError):
            SchemaMapping.from_json(doc)

    def test_long_layout_needs_value_binding(self):
        columns = {k: v for k, v in LONG_MAPPING_DOC["columns"].items() if k != "value"}
        doc = {**LONG_MAPPING_DOC, "columns": columns}
        with pytest.raises(IngestError, match="value"):
            SchemaMapping.from_json(doc)

    @pytest.mark.parametrize("field", ["level", "edition"])
    def test_level_and_edition_are_required_constants(self, field):
        with pytest.raises(IngestError, match="^a mapping declares both its geography level and its boundary edition$"):
            LONG_MAPPING._replace(**{field: None})
        geography = {key: value for key, value in LONG_MAPPING_DOC["geography"].items() if key != field}
        with pytest.raises(IngestError, match=f"'{field}' is a required property \\(at geography\\)$"):
            SchemaMapping.from_json({**LONG_MAPPING_DOC, "geography": geography})
        doc = {key: value for key, value in LONG_MAPPING_DOC.items() if key != "geography"}
        with pytest.raises(IngestError, match="'geography' is a required property"):
            SchemaMapping.from_json(doc)

    @pytest.mark.parametrize("column", ["geography_level", "boundary_edition"])
    def test_no_level_or_edition_column(self, column):
        # A table has one level and one edition, so the mapping states them; a column could only restate them.
        doc = {**LONG_MAPPING_DOC, "columns": {**LONG_MAPPING_DOC["columns"], column: "X"}}
        with pytest.raises(IngestError, match=f"\\('{column}' was unexpected\\) \\(at columns\\)$"):
            SchemaMapping.from_json(doc)

    def test_one_year_in_two_columns_is_refused(self):
        # Each year column is parsed on its own, so two that name one year would read every raw cell twice.
        for year_columns, message in (
            (("\uff12\uff10\uff11\uff16", "2016"), "'\uff12\uff10\uff11\uff16' is not a four-digit year"),
            (("2016", "2016"), "'2016' repeats year 2016"),
            (("2016", "2017", " 2016"), "' 2016' repeats year 2016"),
        ):
            with pytest.raises(IngestError, match=f"^year column {message}$"):
                WIDE_MAPPING._replace(year_columns=year_columns)


WIDE_MAPPING = SchemaMapping(
    layout=Layout.WIDE_BY_YEAR,
    geography_code_column="SA3CODE_16",
    age_group_column="AGE_GROUP",
    sex_column="SEX",
    value_kind=CellKind.COUNT,
    year_columns=("2016", "2017", "2018"),
    level=SA3,
    edition=E2016,
    missing_tokens=frozenset({"", "n.p."}),
)


def random_raw_table(rng: random.Random, wide: bool) -> tuple[str, int]:
    """A raw table of random rows, some of them bad; returns it and its data row count."""
    codes = ["10102", "10103", "", " 10104 "]
    lines = ["SA3CODE_16,AGE_GROUP,SEX,2016,2017,2018" if wide else "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE"]
    rows = rng.randint(0, 30)
    for _ in range(rows):
        code, age, sex = rng.choice(codes), rng.choice(["0-4", "5-9", ""]), rng.choice(["male", "female"])
        values = [rng.choice(["5", "0", "n.p.", "oops", "-1", "2.5"]) for _ in range(3 if wide else 1)]
        if wide:
            lines.append(",".join([code, age, sex, *values]))
        else:
            lines.append(",".join([code, rng.choice(["2016", "2017", "20x"]), age, sex, *values]))
    return "\n".join(lines) + "\n", rows


class TestLineage:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    def test_every_logical_row_accounted_for_once(self, seed, wide):
        raw, rows = random_raw_table(random.Random(seed), wide)
        mapping = WIDE_MAPPING if wide else LONG_MAPPING
        dataset, report = parse_raw(raw, mapping, make_indicator())
        lineage = lineage_rows(report)
        columns = mapping.year_columns if wide else ("VALUE",)
        # Each raw line holds one logical row per value column; each of them is
        # either a lineage line (naming its column) or a reject, never both.
        parsed = Counter((row, column) for _, row, column in lineage)
        assert all(count == 1 for count in parsed.values())
        rejected = Counter(r.row for r in report.rejects)
        for lineno in range(2, rows + 2):
            in_lineage = [column for (row, column) in parsed if row == lineno]
            assert set(in_lineage) <= set(columns)
            assert len(in_lineage) + rejected[lineno] == len(columns)
        assert set(rejected) <= set(range(2, rows + 2))
        # Line i of the lineage names record i of the dataset.
        assert [key for key, _, _ in lineage] == list(dataset.columns.record_keys())
        if wide:
            # RAW_COLUMN is the year column the record's value came from.
            assert all(year == int(column) for (_, year, _, _), _, column in lineage)

    def test_sorted_and_digest_is_file_sha256(self, count_indicator):
        raw = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "10103,2016,0-4,male,7\n"
            "10102,2017,0-4,male,12\n"
            "10102,2016,5-9,female,1\n"
            "10102,2016,5-9,female,2\n"
            "9,2016,0-4,male,3\n"
        )
        _, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        lineage = lineage_rows(report)
        assert lineage == sorted(lineage)
        assert [key for key, _, _ in lineage] == [
            ("10102", 2016, "5-9", "female"), ("10102", 2016, "5-9", "female"), ("10102", 2017, "0-4", "male"),
            ("10103", 2016, "0-4", "male"), ("9", 2016, "0-4", "male"),
        ]
        assert report.lineage_digest == hashlib.sha256(report.lineage_csv.encode("utf-8")).hexdigest()
        assert "lineage" not in report.to_json()
        assert report.lineage_csv.endswith("\n") and "\r" not in report.lineage_csv

    def test_raw_row_sorts_numerically(self, count_indicator):
        # One key on lines 2..11: as text, "10" and "11" would sort before "2".
        lines = ["SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE"] + ["10102,2016,0-4,male,1"] * 10
        _, report = parse_raw("\n".join(lines) + "\n", LONG_MAPPING, count_indicator)
        assert [row for _, row, _ in lineage_rows(report)] == list(range(2, 12))

    def test_keys_sharing_a_text_sort_by_raw_row(self, count_indicator):
        # ("A/2016", 2017, "0-4") and ("A", 2016, "2017/0-4") would both read A/2016/2017/0-4/male
        # joined by "/"; in four columns each record keeps its own key, and equal keys keep raw-row order.
        raw = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "A/2016,2017,0-4,male,1\n"
            "A,2016,2017/0-4,male,2\n"
            "A/2016,2017,0-4,male,3\n"
        )
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert dataset.columns.magnitude == (2, 1, 3)
        assert lineage_rows(report) == [
            (("A", 2016, "2017/0-4", "male"), 3, "VALUE"),
            (("A/2016", 2017, "0-4", "male"), 2, "VALUE"),
            (("A/2016", 2017, "0-4", "male"), 4, "VALUE"),
        ]

    def test_key_with_comma_and_quote_round_trips(self, count_indicator):
        raw = 'SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"10,1""02",2016,"0,4",male,3\n'
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert dataset.columns.region == ('10,1"02',)
        assert lineage_rows(report) == [(('10,1"02', 2016, "0,4", "male"), 2, "VALUE")]
        assert report.lineage_csv.splitlines()[1] == '"10,1""02",2016,"0,4",male,2,VALUE'


def parse_outcome(parse, raw, mapping, indicator):
    """Everything a parse returns, exactly (types included), or its IngestError text."""
    try:
        dataset, report = parse(raw, mapping, indicator)
    except IngestError as exc:
        return ("IngestError", str(exc))
    return (repr(dataset.columns), dataset.indicator, dataset.edition, dataset.level, report)


# Common tokens are repeated so that keys repeat, within a chunk and across chunk boundaries.
KEY_TOKENS = {
    "code": ["10102"] * 6 + ["10103"] * 3 + [" 10104 ", "", "  ", "a,b", 'q"x', "r\r\nn", "c\rr", "A", "A/2016"],
    "age": ["0-4"] * 5 + ["5-9", "", " ", "0,4", "2017/0-4"],
    "sex": ["male"] * 4 + ["female", "", 'f"m'],
}
YEAR_TOKENS = ["2016"] * 6 + ["2017", " 2016", "16", "-5", "20x", "", "2_016", "２０１６", "+2016"]
VALUE_TOKENS = ["5"] * 6 + ["0", " 7 ", "3.0", "2.5", "1e3", "n.p.", " n.p. ", "", "oops", "-1", "nan", "inf", "-inf", "1_000", "١٢"]
YEAR_COLUMNS = ["2016", "2017", "2018"]


@st.composite
def raw_tables(draw):
    """(raw text, mapping, indicator, chunk size): a random table, its mapping, and a chunk size to parse it with."""
    wide = draw(st.booleans())
    kind = draw(st.sampled_from([CellKind.COUNT, CellKind.RATE]))
    delimiter = draw(st.sampled_from([",", ";"]))
    year_columns = tuple(draw(st.lists(st.sampled_from(YEAR_COLUMNS), min_size=1, max_size=3, unique=True))) if wide else ()
    header = ["CODE", "AGE", "SEX", "NOTE"]
    header += sorted(year_columns) if wide else ["YEAR", "VALUE"]
    header = draw(st.permutations(header))
    mapping = SchemaMapping(
        layout=Layout.WIDE_BY_YEAR if wide else Layout.LONG,
        geography_code_column="CODE",
        age_group_column="AGE",
        sex_column="SEX",
        value_kind=kind,
        calendar_year_column=None if wide else "YEAR",
        value_column=None if wide else "VALUE",
        year_columns=year_columns,
        level=SA3,
        edition=E2016,
        missing_tokens=frozenset({"", "n.p."}),
        delimiter=delimiter,
    )
    # Most tables hold no unreadable line, so that most parses succeed.
    unreadable = draw(st.sampled_from([False] * 5 + [True]))
    pools = {**KEY_TOKENS, "NOTE": ["x", ""], "YEAR": YEAR_TOKENS, "VALUE": VALUE_TOKENS}
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 30))):
        shape = draw(st.sampled_from(["full"] * 10 + ["blank", "short"] + ["unreadable"] * unreadable))
        if shape == "unreadable":  # a bare carriage return: the reader fails on this line
            out.write("x\ry\n")
            continue
        names = {"CODE": "code", "AGE": "age", "SEX": "sex"}
        row = [draw(st.sampled_from(pools.get(names.get(name, name), VALUE_TOKENS))) for name in header]
        if shape == "blank":
            row = []
        elif shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        writer.writerow(row)
    return out.getvalue(), mapping, make_indicator(value_kind=kind), draw(st.sampled_from([1, 2, 3, 5, ingest.CHUNK_ROWS]))


class TestAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(raw_tables())
    def test_parse_raw_matches_the_row_by_row_oracle(self, table):
        raw, mapping, indicator, chunk_rows = table
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            got = parse_outcome(parse_raw, raw, mapping, indicator)
        assert got == parse_outcome(ingest_oracle.parse, raw, mapping, indicator)

    @pytest.mark.parametrize("wide", [False, True], ids=["long", "wide"])
    def test_tables_longer_than_one_chunk(self, wide):
        # Rejects and duplicate keys fall on both sides of each chunk boundary.
        rng = random.Random(13)
        mapping = WIDE_MAPPING if wide else LONG_MAPPING
        lines = ["SA3CODE_16,AGE_GROUP,SEX,2016,2017,2018" if wide else "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE"]
        for _ in range(2 * ingest.CHUNK_ROWS + 500):
            key = [rng.choice(["10102", "10103", "10105"] * 10 + [""]), rng.choice(["0-4", "5-9"]), "male"]
            values = [rng.choice(["5", "7", "n.p."] * 10 + ["-1"]) for _ in range(3 if wide else 1)]
            year = rng.choice(["2016", "2017"] * 10 + ["x"])
            lines.append(",".join(key + values) if wide else ",".join([key[0], year, *key[1:], *values]))
        raw = "\n".join(lines) + "\n"
        got = parse_outcome(parse_raw, raw, mapping, make_indicator())
        assert got == parse_outcome(ingest_oracle.parse, raw, mapping, make_indicator())
        assert got[-1].rejects and len(got[-1].lineage_csv.splitlines()) > ingest.CHUNK_ROWS


# Every value the bulk path takes on, and tokens that send a batch to the per-token path.
BULK_TOKENS = ["5", "0", " 7 ", "\t12\n", "3.0", "1e3", "-0.0", "-0", "0.0", "", " ", "n.p.", " n.p. "]
FALLBACK_TOKENS = ["2.5", "-1", "-1e-9", "nan", "inf", "-inf", "oops", "1e400", "1__0", "0x10", "1_000", "１２", "١٢"]


class TestBulkValueDecisions:
    MISSING = frozenset({"", "n.p."})

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(BULK_TOKENS + FALLBACK_TOKENS), st.text(max_size=5)), unique=True, max_size=12
        ),
        st.sampled_from([CellKind.COUNT, CellKind.RATE, CellKind.PERCENTAGE]),
    )
    def test_bulk_decisions_equal_the_per_token_ones(self, tokens, kind):
        got = ingest._value_decisions(tokens, self.MISSING, kind)
        want = {token: ingest._value_decision(token, self.MISSING, kind) for token in tokens}
        # repr tells 5 from 5.0 and -0.0 from 0.0.
        assert {token: repr(cell) for token, cell in got.items()} == {token: repr(cell) for token, cell in want.items()}

    @pytest.mark.parametrize("kind", [CellKind.COUNT, CellKind.RATE])
    def test_valid_tokens_are_decided_without_the_per_token_path(self, kind):
        with mock.patch.object(ingest, "_value_decision", side_effect=AssertionError("per-token path taken")):
            got = ingest._value_decisions(BULK_TOKENS, self.MISSING, kind)
        assert got[" 7 "] == (kind, 7 if kind is CellKind.COUNT else 7.0)
        assert got["1e3"] == (kind, 1000)
        assert repr(got["-0.0"][1]) == ("0" if kind is CellKind.COUNT else "-0.0")
        assert got[" n.p. "] == got[" "] == (CellKind.MISSING, None)



class TestAsciiDecimal:
    """Year and value tokens are ASCII decimal: `int` and `float` alone also take `_` and other digits."""

    @pytest.mark.parametrize("year", ["2_016", "２０１６", "١٢"])
    def test_year_token_rejects_its_row(self, count_indicator, year):
        raw = f"SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n10102,{year},0-4,male,12\n10102,2016,0-4,male,1\n"
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert report.rejects == (ingest.Reject(2, f"calendar year not an integer: {year!r}"),)
        assert dataset.columns.year == (2016,)

    @pytest.mark.parametrize("kind", [CellKind.COUNT, CellKind.RATE])
    @pytest.mark.parametrize("value", ["1_000", "１２", "١٢", " 1_0 "])
    def test_value_token_rejects_its_row(self, kind, value):
        mapping = LONG_MAPPING._replace(value_kind=kind)
        raw = f"SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n10102,2016,0-4,male,{value}\n10103,2016,0-4,male,1\n"
        dataset, report = parse_raw(raw, mapping, make_indicator(value_kind=kind))
        assert report.rejects == (ingest.Reject(2, f"unparseable value {value!r}"),)
        assert dataset.columns.region == ("10103",)
