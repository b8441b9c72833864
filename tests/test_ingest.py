"""Raw parsing, schema mappings, detection, and the source registry."""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.errors import IngestError
from ardkit.ingest import (
    AccessMode,
    Layout,
    SchemaMapping,
    SourceDescriptor,
    SourceRegistry,
    detect_characteristics,
    parse_raw,
    register_source,
)
from ardkit.model import CellKind, write_csv

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


class TestRegistry:
    def test_insertion(self):
        registry = register_source(SourceRegistry(), make_source())
        assert len(registry.sources) == 1

    def test_duplicate_id_rejected(self):
        registry = register_source(SourceRegistry(), make_source())
        with pytest.raises(IngestError, match="duplicate source"):
            register_source(registry, make_source())

    def test_inverted_collection_window(self):
        with pytest.raises(IngestError, match="inverted collection window"):
            make_source(
                collection_start=datetime.date(2022, 1, 1),
                collection_end=datetime.date(2006, 1, 1),
            )

    def test_json_round_trip(self):
        registry = register_source(SourceRegistry(), make_source())
        registry = register_source(registry, make_source(source_id="src.other"))
        assert SourceRegistry.from_json(registry.to_json()) == registry

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
        assert len(dataset.records) == 3
        assert report.rows_in == 3
        assert report.records_out == 3
        assert report.rejects == ()
        assert len(report.lineage) == 3
        assert dataset.edition is E2016 and dataset.level is SA3

    def test_declared_missing_token(self, count_indicator):
        raw = "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n10102,2016,0-4,male,n.p.\n"
        dataset, report = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert dataset.records[0].value.kind is CellKind.MISSING
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

    def test_undecodable_bytes_fatal_with_offset(self, count_indicator):
        raw = b"SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n101\xff02,2016,0-4,male,1\n"
        with pytest.raises(IngestError, match="byte offset 48"):
            parse_raw(raw, LONG_MAPPING, count_indicator)

    def test_mixed_levels_rejected(self, count_indicator):
        mapping = SchemaMapping(
            layout=Layout.LONG,
            geography_code_column="CODE",
            age_group_column="AGE_GROUP",
            sex_column="SEX",
            calendar_year_column="CALENDAR_YEAR",
            value_column="VALUE",
            value_kind=CellKind.COUNT,
            level_column="LEVEL",
            edition=E2016,
        )
        raw = (
            "CODE,LEVEL,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "10102,SA3,2016,0-4,male,1\n"
            "101021007,SA2,2016,0-4,male,1\n"
        )
        with pytest.raises(IngestError, match="mixed geography levels"):
            parse_raw(raw, mapping, count_indicator)

    def test_deterministic_serialization(self, count_indicator):
        raw = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "10103,2016,0-4,male,7\n"
            "10102,2016,0-4,male,12\n"
        )
        first, _ = parse_raw(raw, LONG_MAPPING, count_indicator)
        second, _ = parse_raw(raw, LONG_MAPPING, count_indicator)
        assert write_csv(first) == write_csv(second)
        codes = [r.key.region for r in first.records]
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
        got = {
            (r.key.region, r.key.calendar_year): r.value.magnitude
            for r in dataset.records
        }
        assert got == expected
        assert report.rows_in == 4
        assert report.records_out == 4

    def test_row_level_problem_rejects_all_logical_rows(self, count_indicator):
        raw = "SA3CODE_16,AGE_GROUP,SEX,2016,2017\n,0-4,male,5,6\n"
        dataset, report = parse_raw(raw, self.MAPPING, count_indicator)
        assert len(dataset.records) == 0
        assert report.rows_in == 2
        assert len(report.rejects) == 2

    def test_cell_level_problem_rejects_one_logical_row(self, count_indicator):
        raw = "SA3CODE_16,AGE_GROUP,SEX,2016,2017\n10102,0-4,male,bad,6\n"
        dataset, report = parse_raw(raw, self.MAPPING, count_indicator)
        assert len(dataset.records) == 1
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
    assert report.records_out == len(dataset.records) == len(report.lineage)


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


class TestMappingJson:
    def test_round_trip(self):
        doc = LONG_MAPPING.to_json()
        assert SchemaMapping.from_json(doc) == LONG_MAPPING

    def test_schema_rejects_bad_layout(self):
        doc = LONG_MAPPING.to_json()
        doc["layout"] = "diagonal"
        with pytest.raises(IngestError):
            SchemaMapping.from_json(doc)

    def test_long_layout_needs_value_binding(self):
        doc = LONG_MAPPING.to_json()
        del doc["columns"]["value"]
        with pytest.raises(IngestError, match="value"):
            SchemaMapping.from_json(doc)
