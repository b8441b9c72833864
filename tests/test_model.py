"""Core type, validation, ordering, and serialization behavior."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.errors import ArdkitError
from ardkit.model import (
    BoundaryEdition,
    CellKind,
    CellValue,
    GeoLevel,
    UncertaintyLevel,
    Vocabulary,
    canonical_sort,
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

    def test_level_containment_chain(self):
        chain = [
            GeoLevel.MESH_BLOCK, GeoLevel.SA1, GeoLevel.SA2, GeoLevel.SA3,
            GeoLevel.SA4, GeoLevel.STE, GeoLevel.AUS,
        ]
        for inner, outer in zip(chain, chain[1:]):
            assert inner.is_within(outer)
        assert GeoLevel.LGA.containment_rank is None
        assert not GeoLevel.LGA.is_within(GeoLevel.AUS)
        assert not GeoLevel.SA2.is_within(GeoLevel.LGA)

    def test_uncertainty_ordering(self):
        assert UncertaintyLevel.LOW < UncertaintyLevel.MEDIUM < UncertaintyLevel.HIGH
        assert [int(u) for u in UncertaintyLevel] == [0, 1, 2]

    def test_geography_column_naming(self):
        assert geography_column(SA3, E2016) == "SA3CODE_16"
        assert geography_column(GeoLevel.LGA, BoundaryEdition.ASGS2006) == "LGACODE_06"
        assert parse_geography_column("SA3CODE_16") == (SA3, E2016)
        assert parse_geography_column("WEIRD") is None
        assert parse_geography_column("SA3CODE_99") is None


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

    def test_format_magnitude(self):
        assert format_magnitude(30.0) == "30"
        assert format_magnitude(2.5) == "2.5"
        assert format_magnitude(Fraction(1, 2)) == "0.5"
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
