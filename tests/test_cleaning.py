"""Cleaning rules, log replay, idempotence, and conservation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.cleaning import (
    CleaningLog,
    CleaningRuleSet,
    DedupePolicy,
    MissingPolicy,
    clean,
    profile,
    replay,
)
from ardkit.errors import CleaningError
from ardkit.model import CellKind, CellValue

from conftest import make_counts, make_record


DEFAULT = CleaningRuleSet()


class TestFieldRepairs:
    def test_whitespace_normalization_strips_code(self):
        dataset = make_counts({" 10102 ": 4})
        cleaned, log = clean(dataset, DEFAULT)
        assert cleaned.records[0].key.region == "10102"
        entry = log.entries[0]
        assert entry.field == "geography.code"
        assert entry.before == " 10102 " and entry.after == "10102"

    def test_case_fold_upper_cases_codes(self):
        dataset = make_counts({"a1": 4})
        rules = CleaningRuleSet(code_case_fold=True)
        cleaned, log = clean(dataset, rules)
        assert cleaned.records[0].key.region == "A1"
        assert any(e.rule == "code-case-fold" for e in log.entries)

    def test_two_digit_year_coercion(self):
        # Oracle: the declared pattern maps each two-digit fixture year by hand.
        fixture = {16: 2016, 5: 2005, 99: 2099, 2016: 2016}
        rules = CleaningRuleSet(year_format_coercions=("YY->2000+YY",))
        for raw_year, expected in fixture.items():
            dataset = make_counts({}).with_records([make_record("A", CellValue.count(1), year=raw_year)])
            cleaned, _ = clean(dataset, rules)
            assert cleaned.records[0].key.calendar_year == expected

    def test_unsupported_pattern_rejected(self):
        with pytest.raises(CleaningError, match="pattern"):
            CleaningRuleSet(year_format_coercions=("add-some",))
        # Only one pattern can apply to a year, so a second one is refused, not ignored.
        with pytest.raises(CleaningError, match="at most one year coercion pattern"):
            CleaningRuleSet.from_json({"year_format_coercions": ["YY->2000+YY", "YY->1900+YY"]})

    def test_low_base_rejected_for_idempotence(self):
        with pytest.raises(CleaningError, match="idempotent"):
            CleaningRuleSet(year_format_coercions=("YY->30+YY",))


class TestDedupe:
    def duplicated(self):
        record = make_record("A", CellValue.count(3))
        other = make_record("A", CellValue.count(5))
        single = make_record("B", CellValue.count(7))
        return make_counts({}).with_records([record, other, single])

    def test_error_policy_is_fatal_and_lists_keys(self):
        with pytest.raises(CleaningError, match="A/2016/0-4/male"):
            clean(self.duplicated(), DEFAULT)

    def test_keep_first(self):
        rules = CleaningRuleSet(dedupe_policy=DedupePolicy.KEEP_FIRST)
        cleaned, log = clean(self.duplicated(), rules)
        values = {r.key.region: r.value.magnitude for r in cleaned.records}
        assert values == {"A": 3, "B": 7}
        drops = [e for e in log.entries if e.op == "drop"]
        assert len(drops) == 1 and drops[0].reason == "replicated entry removed"

    def test_sum_conserves_mass(self):
        rules = CleaningRuleSet(dedupe_policy=DedupePolicy.SUM)
        source = self.duplicated()
        cleaned, _ = clean(source, rules)
        values = {r.key.region: r.value.magnitude for r in cleaned.records}
        assert values == {"A": 8, "B": 7}
        total_in = sum(r.value.magnitude for r in source.records if r.value.is_data)
        total_out = sum(r.value.magnitude for r in cleaned.records if r.value.is_data)
        assert total_in == total_out

    def test_sum_with_missing_duplicate_excludes_missing_mass(self):
        records = [
            make_record("A", CellValue.count(3)),
            make_record("A", CellValue.missing()),
        ]
        dataset = make_counts({}).with_records(records)
        cleaned, _ = clean(dataset, CleaningRuleSet(dedupe_policy=DedupePolicy.SUM))
        assert cleaned.records[0].value.magnitude == 3

    def test_sum_with_suppressed_duplicate_taints(self):
        records = [
            make_record("A", CellValue.count(3)),
            make_record("A", CellValue.suppressed()),
        ]
        dataset = make_counts({}).with_records(records)
        cleaned, _ = clean(dataset, CleaningRuleSet(dedupe_policy=DedupePolicy.SUM))
        assert cleaned.records[0].value.kind is CellKind.SUPPRESSED


class TestMissingPolicy:
    def test_drop_row(self):
        dataset = make_counts({"A": CellValue.missing(), "B": CellValue.count(1)})
        rules = CleaningRuleSet(missing_policy=MissingPolicy.DROP_ROW)
        cleaned, log = clean(dataset, rules)
        assert [r.key.region for r in cleaned.records] == ["B"]
        assert any(e.rule == "missing-drop" for e in log.entries)

    def test_keep_as_missing_default(self):
        dataset = make_counts({"A": CellValue.missing()})
        cleaned, _ = clean(dataset, DEFAULT)
        assert cleaned.records[0].value.kind is CellKind.MISSING


class TestContracts:
    def messy(self):
        records = [
            make_record(" 10102", CellValue.count(2)),
            make_record("10102", CellValue.count(3)),
            make_record("10103 ", CellValue.missing()),
            make_record("10104", CellValue.count(9), year=16),
        ]
        return make_counts({}).with_records(records)

    RULES = CleaningRuleSet(
        dedupe_policy=DedupePolicy.SUM,
        year_format_coercions=("YY->2000+YY",),
        missing_policy=MissingPolicy.DROP_ROW,
    )

    def test_idempotence(self):
        once, _ = clean(self.messy(), self.RULES)
        twice, second_log = clean(once, self.RULES)
        assert twice == once
        assert second_log.entries == ()

    def test_log_replay_reproduces_cleaned_dataset(self):
        source = self.messy()
        cleaned, log = clean(source, self.RULES)
        assert replay(source, log) == cleaned

    def test_log_round_trips_through_jsonl(self):
        source = self.messy()
        cleaned, log = clean(source, self.RULES)
        parsed = CleaningLog.from_jsonl(log.to_jsonl())
        assert parsed == log
        assert replay(source, parsed) == cleaned

    def test_output_always_validates(self):
        cleaned, _ = clean(self.messy(), self.RULES)
        from ardkit.model import validate_dataset

        assert validate_dataset(cleaned) == []

    def test_unfixable_violation_is_fatal(self):
        # A negative count is not a declared mechanical repair.
        dataset = make_counts({}).with_records([make_record("A", CellValue.count(-1))])
        with pytest.raises(CleaningError, match="negative"):
            clean(dataset, DEFAULT)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_clean_deterministic_and_idempotent_on_random_data(self, seed):
        rng = random.Random(seed)
        records = []
        for i in range(rng.randint(0, 25)):
            code = rng.choice([f"R{i}", f" R{i}", f"R{i % 3}"])
            value = rng.choice(
                [CellValue.count(rng.randint(0, 50)), CellValue.missing()]
            )
            records.append(make_record(code, value, year=rng.choice([2016, 17])))
        dataset = make_counts({}).with_records(records)
        rules = CleaningRuleSet(
            dedupe_policy=DedupePolicy.SUM,
            year_format_coercions=("YY->2000+YY",),
        )
        first, log_a = clean(dataset, rules)
        second, log_b = clean(dataset, rules)
        assert first == second and log_a == log_b
        again, empty_log = clean(first, rules)
        assert again == first and empty_log.entries == ()


class TestProfile:
    def test_clean_fixture_has_zero_problem_counts(self):
        report = profile(make_counts({"A": 1, "B": 2}))
        assert report.missing_cells == 0
        assert report.duplicate_key_groups == 0
        assert report.out_of_range_values == 0

    def test_counts_missing_and_duplicates(self):
        records = [
            make_record("A", CellValue.missing()),
            make_record("B", CellValue.missing()),
            make_record("C", CellValue.missing()),
            make_record("D", CellValue.count(1)),
            make_record("D", CellValue.count(2)),
        ]
        report = profile(make_counts({}).with_records(records))
        assert report.missing_cells == 3
        assert report.duplicate_key_groups == 1
        assert report.distinct_sexes == ("male",)
