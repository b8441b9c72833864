"""QA rules engine, uncertainty assignment, filtering, and the clean/QA loop."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ardkit.cleaning import CleaningRuleSet, DedupePolicy
from ardkit.correspondence import (
    EVENT_BACKWARD_SUPPRESSED,
    EVENT_SUBTHRESHOLD_DISCARD,
    EVENT_UNRESOLVABLE,
    EVENT_ZERO_FILL,
    CorrespondenceEdge,
    CorrespondenceTable,
)
from ardkit.errors import ConvergenceError, ProvenanceError
from ardkit.model import (
    CellKind,
    CellValue,
    UncertaintyLevel,
    Vocabulary,
)
from ardkit.qa import (
    BUILTIN_RULES,
    ConservationRecord,
    QAContext,
    QAReport,
    RULE_CONSERVATION,
    RULE_COVERAGE,
    RULE_DUPLICATES,
    RULE_EMPTIED,
    RULE_NEGATIVE,
    RULE_PERCENTAGE,
    RULE_RATIO_ECHO,
    RULE_RECOVERABLE,
    RULE_SCHEMA,
    Severity,
    assign_uncertainty,
    clean_qa_cycle,
    filter_high_uncertainty,
    run_rules,
)

from conftest import E2011, E2016, SA3, make_counts, make_indicator, make_record


def fault_fixtures():
    """One seeded-fault dataset/context pair per built-in rule."""
    fixtures = {}

    dataset = make_counts({"A": 10}).with_records(
        [make_record("A", CellValue.count(10), sex="unknown")]
    )
    fixtures[RULE_SCHEMA] = (
        dataset,
        QAContext(vocabulary=Vocabulary(sexes=frozenset({"male", "female"}))),
    )

    record = make_record("A", CellValue.count(1))
    fixtures[RULE_DUPLICATES] = (make_counts({}).with_records([record, record]), QAContext())

    fixtures[RULE_NEGATIVE] = (
        make_counts({}).with_records([make_record("A", CellValue.count(-2))]),
        QAContext(),
    )

    pct = make_indicator(id="demo.pct", value_kind=CellKind.PERCENTAGE)
    fixtures[RULE_PERCENTAGE] = (
        make_counts({}, indicator=pct).with_records([make_record("A", CellValue.percentage(120.0))]),
        QAContext(),
    )

    records = [
        make_record("A", CellValue.count(5), year=2016),
        make_record("A", CellValue.count(6), year=2018),
    ]
    fixtures[RULE_COVERAGE] = (
        make_counts({}).with_records(records),
        QAContext(coverage=(2016, 2018)),
    )

    bad_table = CorrespondenceTable(
        E2011,
        E2016,
        SA3,
        (
            CorrespondenceEdge("A", "B", Fraction(3, 10)),
            CorrespondenceEdge("A", "C", Fraction(6, 10)),
        ),
    )
    fixtures[RULE_RATIO_ECHO] = (make_counts({"A": 10}, edition=E2016), QAContext(table=bad_table))

    members = {
        "total": CellValue.count(20),
        "male": CellValue.count(17),
        "female": CellValue.suppressed(),
    }
    records = [make_record("A", value, sex=sex) for sex, value in members.items()]
    fixtures[RULE_RECOVERABLE] = (make_counts({}).with_records(records), QAContext())

    fixtures[RULE_CONSERVATION] = (
        make_counts({"A": 90}),
        QAContext(conservation=ConservationRecord(expected_total=Fraction(100))),
    )

    fixtures[RULE_EMPTIED] = (make_counts({}), QAContext(removed_high=4))

    return fixtures


class TestRunRules:
    def test_clean_fixture_passes_with_zero_findings(self):
        dataset = make_counts({"A": 10, "B": 20})
        context = QAContext(
            vocabulary=Vocabulary(age_groups=frozenset({"0-4"}), sexes=frozenset({"male"})),
            coverage=(2016, 2016),
            conservation=ConservationRecord(expected_total=Fraction(30)),
        )
        report = run_rules(dataset, context)
        assert report.passed
        assert report.findings == ()
        assert report.exit_code() == 0

    @pytest.mark.parametrize("rule_id", sorted(BUILTIN_RULES))
    def test_fault_matrix_each_rule_fires_exactly_once(self, rule_id):
        dataset, context = fault_fixtures()[rule_id]
        report = run_rules(dataset, context)
        matching = [f for f in report.findings if f.rule_id == rule_id]
        assert len(matching) == 1
        assert matching[0].severity is BUILTIN_RULES[rule_id].severity
        other_errors = [f for f in report.findings if f.rule_id != rule_id]
        assert not other_errors, f"unexpected extra findings: {other_errors}"

    def test_interior_year_gap_message(self):
        records = [
            make_record("A", CellValue.count(5), year=2016),
            make_record("A", CellValue.count(6), year=2018),
        ]
        report = run_rules(make_counts({}).with_records(records), QAContext(coverage=(2016, 2018)))
        assert [f.message for f in report.findings] == ["temporal coverage gap: 2017"]
        assert report.findings[0].severity is Severity.WARNING
        assert report.exit_code() == 1

    def test_mass_conservation_within_tolerance_passes(self):
        dataset = make_counts({"A": 100.0000000000001})
        context = QAContext(conservation=ConservationRecord(expected_total=Fraction(100)))
        assert run_rules(dataset, context).passed

    def test_mass_conservation_exact_mode(self):
        dataset = make_counts({"A": 100.0000000000001})
        context = QAContext(conservation=ConservationRecord(expected_total=Fraction(100), exact=True))
        report = run_rules(dataset, context)
        assert not report.passed
        assert report.exit_code() == 2

    def test_read_only_and_deterministic(self):
        dataset, context = fault_fixtures()[RULE_RECOVERABLE]
        before = dataset.records
        first = run_rules(dataset, context)
        second = run_rules(dataset, context)
        assert dataset.records == before
        assert first == second

    def test_report_json_round_trip(self):
        dataset, context = fault_fixtures()[RULE_COVERAGE]
        report = run_rules(dataset, context)
        assert QAReport.from_json(report.to_json()) == report

    def test_recoverable_not_flagged_with_two_suppressed(self):
        members = {
            "total": CellValue.count(20),
            "male": CellValue.suppressed(),
            "female": CellValue.suppressed(),
        }
        records = [make_record("A", value, sex=sex) for sex, value in members.items()]
        report = run_rules(make_counts({}).with_records(records), QAContext())
        assert report.findings == ()


class TestAssignUncertainty:
    def test_untouched_record_stays_low(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {dataset.records[0].key: ()})
        assert out.records[0].value.uncertainty is UncertaintyLevel.LOW

    def test_subthreshold_discard_gives_medium(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {dataset.records[0].key: (EVENT_SUBTHRESHOLD_DISCARD,)})
        assert out.records[0].value.uncertainty is UncertaintyLevel.MEDIUM

    def test_zero_fill_gives_medium(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {dataset.records[0].key: (EVENT_ZERO_FILL,)})
        assert out.records[0].value.uncertainty is UncertaintyLevel.MEDIUM

    def test_backward_suppression_gives_high(self):
        dataset = make_counts({"A": CellValue.suppressed()})
        out = assign_uncertainty(dataset, {dataset.records[0].key: (EVENT_BACKWARD_SUPPRESSED,)})
        assert out.records[0].value.uncertainty is UncertaintyLevel.HIGH

    def test_unresolvable_gives_high(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {dataset.records[0].key: (EVENT_UNRESOLVABLE,)})
        assert out.records[0].value.uncertainty is UncertaintyLevel.HIGH

    def test_existing_level_never_lowered(self):
        dataset = make_counts({"A": CellValue.count(5, UncertaintyLevel.MEDIUM)})
        out = assign_uncertainty(dataset, {dataset.records[0].key: ()})
        assert out.records[0].value.uncertainty is UncertaintyLevel.MEDIUM

    def test_missing_provenance_entry_fatal(self):
        dataset = make_counts({"A": 5, "B": 6})
        with pytest.raises(ProvenanceError, match="without an entry"):
            assign_uncertainty(dataset, {dataset.records[0].key: ()})

    def test_indicator_max_uncertainty_updated(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {dataset.records[0].key: (EVENT_SUBTHRESHOLD_DISCARD,)})
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM


class TestFilterHighUncertainty:
    def test_all_low_unchanged_with_empty_log(self):
        dataset = make_counts({"A": 1, "B": 2})
        out, log = filter_high_uncertainty(dataset)
        assert out == dataset
        assert log.removed_keys == ()
        assert not log.fully_removed

    def test_removes_exactly_the_high_records(self):
        cells = {f"R{i}": CellValue.count(i, UncertaintyLevel.HIGH if i < 2 else UncertaintyLevel.LOW) for i in range(10)}
        dataset = make_counts(cells)
        out, log = filter_high_uncertainty(dataset)
        assert len(out.records) == 8
        assert len(log.removed_keys) == 2
        assert out.indicator.max_uncertainty is UncertaintyLevel.LOW

    def test_medium_retained_and_max_updated(self):
        dataset = make_counts(
            {"A": CellValue.count(1, UncertaintyLevel.MEDIUM), "B": CellValue.count(2, UncertaintyLevel.HIGH)}
        )
        out, _ = filter_high_uncertainty(dataset)
        assert [r.key.region for r in out.records] == ["A"]
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM

    def test_fully_removed_flag(self):
        dataset = make_counts({"A": CellValue.count(1, UncertaintyLevel.HIGH)})
        out, log = filter_high_uncertainty(dataset)
        assert out.records == ()
        assert log.fully_removed
        report = run_rules(out, QAContext(removed_high=len(log.removed_keys)))
        assert [f.rule_id for f in report.findings] == [RULE_EMPTIED]


class TestCleanQaCycle:
    def test_converges_on_messy_data(self):
        records = [
            make_record(" A", CellValue.count(2)),
            make_record("A", CellValue.count(3)),
        ]
        dataset = make_counts({}).with_records(records)
        rules = CleaningRuleSet(dedupe_policy=DedupePolicy.SUM)
        result = clean_qa_cycle(dataset, rules)
        assert result.report.passed
        assert result.iterations <= 2
        assert result.dataset.records[0].value.magnitude == 5

    def test_stable_failure_returns_without_looping(self):
        dataset = make_counts({"A": 5}, age="bad-age")
        context = QAContext(vocabulary=Vocabulary(age_groups=frozenset({"0-4"})))
        result = clean_qa_cycle(dataset, CleaningRuleSet(), context)
        assert not result.report.passed
        assert result.iterations <= 2

    def test_zero_cap_rejected(self):
        with pytest.raises(ConvergenceError):
            clean_qa_cycle(make_counts({}), CleaningRuleSet(), cap=0)
