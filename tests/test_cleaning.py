"""Cleaning rules, log replay, idempotence, and conservation."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ardkit.cleaning import (
    CleaningEntry,
    CleaningLog,
    CleaningRuleSet,
    DedupePolicy,
    MissingPolicy,
    clean,
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


DIRTY_RECORDS = st.lists(
    st.builds(
        make_record,
        st.sampled_from(["R1", "r1", " R1", "R1 ", "R  1", "r 1", "R2"]),
        st.one_of(
            st.integers(0, 50).map(CellValue.count),
            st.just(CellValue.missing()),
            st.just(CellValue.suppressed()),
        ),
        year=st.sampled_from([2016, 16, 2017, 17, 99, 0]),
        age=st.sampled_from(["0-4", " 0-4", "5-9"]),
    ),
    max_size=20,
)
RULE_SETS = st.builds(
    CleaningRuleSet,
    dedupe_policy=st.sampled_from(DedupePolicy),
    whitespace_normalization=st.booleans(),
    code_case_fold=st.booleans(),
    year_format_coercions=st.one_of(
        st.just(()), st.integers(100, 3000).map(lambda base: (f"YY->{base}+YY",))
    ),
    missing_policy=st.sampled_from(MissingPolicy),
)


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

    def test_no_change_keeps_the_input_columns(self):
        once, _ = clean(self.messy(), self.RULES)
        twice, log = clean(once, self.RULES)
        assert log.entries == ()
        assert twice.columns is once.columns

    def test_unchanged_rows_are_still_sorted(self):
        ordered = make_counts({"A": 1, "B": 2})
        shuffled = ordered.with_columns(ordered.columns.take([1, 0]))
        out, log = clean(shuffled, self.RULES)
        assert log.entries == ()
        assert out.columns == ordered.columns

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0", "entry is not a JSON object"),
            ("x", "not valid JSON"),
            ('{"a":1}', "op must be 'set' or 'drop'"),
            ('{"op":"set","row":"a","rule":"r"}', "row must be a non-negative integer"),
            ('{"op":"drop","row":0}', "rule must be a string"),
            ('{"op":"set","row":0,"rule":"r","before":1,"after":2}', "field must be a string"),
        ],
    )
    def test_bad_log_line_is_named(self, line, message):
        _, log = clean(self.messy(), self.RULES)
        text = log.to_jsonl()
        lineno = len(text.splitlines()) + 1
        with pytest.raises(CleaningError, match=f"cleaning log line {lineno}: .*{message}"):
            CleaningLog.from_jsonl(text + line + "\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"op":"set","row":0,"rule":"r","field":"calendar_year","before":1,"after":null}',
             "calendar_year must be an integer, not None"),
            ('{"op":"set","row":0,"rule":"r","field":"calendar_year","before":1,"after":true}',
             "calendar_year must be an integer, not True"),
            ('{"op":"set","row":0,"rule":"r","field":"calendar_year","before":1,"after":"2011.5"}',
             "calendar_year must be an integer, not '2011.5'"),
            ('{"op":"set","row":0,"rule":"r","field":"value","before":1,"after":"x"}',
             "value must be a valid {kind, magnitude, uncertainty} object, not 'x'"),
            ('{"op":"set","row":0,"rule":"r","field":"age_group","before":1,"after":null}',
             "age_group must be a non-empty string, not None"),
            ('{"op":"set","row":9,"rule":"r","field":"sex","before":1,"after":"f"}',
             "row 9 is not in the dataset"),
        ],
        ids=["year-null", "year-true", "year-fraction-text", "value-text", "age-null", "row-absent"],
    )
    def test_bad_set_entry_is_named_on_replay(self, line, message):
        dataset = make_counts({"A": 1, "B": 2})
        log = CleaningLog.from_jsonl('{"op":"drop","row":1,"rule":"r"}\n' + line + "\n")
        with pytest.raises(CleaningError) as failure:
            replay(dataset, log)
        assert str(failure.value) == f"cleaning log entry 2: {message}"

    @pytest.mark.parametrize(
        "after",
        [
            {"kind": "count", "magnitude": 1.0},
            {"kind": "count", "magnitude": 1.0, "uncertainty": 0, "extra": 1},
            {"kind": "tally", "magnitude": 1.0, "uncertainty": 0},
            {"kind": "count", "magnitude": "1", "uncertainty": 0},
            {"kind": "count", "magnitude": 1.0, "uncertainty": True},
            {"kind": "count", "magnitude": 1.0, "uncertainty": 7},
            {"kind": "missing", "magnitude": 1.0, "uncertainty": 0},
        ],
    )
    def test_bad_value_object_is_named_on_replay(self, after):
        log = CleaningLog((CleaningEntry("set", 0, "r", field="value", before=None, after=after),))
        with pytest.raises(CleaningError, match=r"^cleaning log entry 1: value must be a valid"):
            replay(make_counts({"A": 1, "B": 2}), log)

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

    @settings(max_examples=200, deadline=None)
    @given(DIRTY_RECORDS, RULE_SETS)
    def test_replaying_the_log_reproduces_the_cleaned_dataset(self, records, rules):
        # The paper's "fully replayable" change log, on random dirty data and rule sets.
        raw = make_counts({}).with_records(records)
        try:
            cleaned, log = clean(raw, rules)
        except CleaningError:
            assume(False)
        assert replay(raw, log) == cleaned
        assert replay(raw, CleaningLog.from_jsonl(log.to_jsonl())) == cleaned

    @settings(max_examples=200, deadline=None)
    @given(DIRTY_RECORDS, RULE_SETS)
    def test_clean_is_a_fixed_point_after_one_pass(self, records, rules):
        # One pass of the clean/QA loop already reaches its fixed point.
        try:
            once, _ = clean(make_counts({}).with_records(records), rules)
        except CleaningError:
            assume(False)
        twice, second_log = clean(once, rules)
        assert twice == once
        assert second_log.entries == ()



def old_to_jsonl(log):
    """The log rendered one `json.dumps` per entry, as before the fields were written one by one."""
    return "".join(json.dumps(e.to_json(), sort_keys=True, separators=(",", ":")) + "\n" for e in log.entries)


JSON_SCALARS = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
TOKENS = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "字", " ", "\ud800", "\U0001f600", ""])


class TestJsonlEqualsOneDumpPerEntry:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                CleaningEntry,
                op=st.sampled_from(["set", "drop"]) | TOKENS,
                row=st.integers(0, 2**70) | JSON_VALUES,
                rule=TOKENS,
                field=st.none() | TOKENS,
                before=JSON_VALUES,
                after=JSON_VALUES,
                reason=st.none() | TOKENS,
            ),
            max_size=6,
        )
    )
    def test_arbitrary_entries(self, entries):
        log = CleaningLog(tuple(entries))
        assert log.to_jsonl() == old_to_jsonl(log)

    def test_value_objects_bools_and_floats(self):
        entries = (
            CleaningEntry("set", 3, "dedupe-sum", "value", {"kind": "count", "magnitude": 2.0, "uncertainty": 0},
                          {"kind": "count", "magnitude": 1e-07, "uncertainty": 1}),
            CleaningEntry("set", 4, "r", "calendar_year", 16, 2016),
            CleaningEntry("set", 5, "r", "x", True, None, reason='quote " and \\ back'),
            CleaningEntry("drop", 6, "dédupe", reason="line\nbreak\tand \x01"),
        )
        log = CleaningLog(entries)
        assert log.to_jsonl() == old_to_jsonl(log)
        assert CleaningLog.from_jsonl(log.to_jsonl()).entries[:2] == entries[:2]
