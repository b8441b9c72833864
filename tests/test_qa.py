"""QA rules engine, uncertainty assignment, filtering, and the clean/QA loop."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ardkit.cleaning import CleaningRuleSet, DedupePolicy, clean
from ardkit.correspondence import (
    EVENT_BACKWARD_SUPPRESSED,
    EVENT_SUBTHRESHOLD_DISCARD,
    EVENT_UNRESOLVABLE,
    EVENT_ZERO_FILL,
    CorrespondenceEdge,
    CorrespondenceTable,
)
from ardkit.errors import ConvergenceError
from ardkit.jsonio import canonical_dumps
from ardkit.model import (
    CellKind,
    UncertaintyLevel,
    Vocabulary,
)
from ardkit.qa import (
    BUILTIN_RULES,
    ConservationRecord,
    QAContext,
    RULE_CONSERVATION,
    RULE_COVERAGE,
    RULE_DUPLICATES,
    RULE_EMPTIED,
    RULE_NEGATIVE,
    RULE_PERCENTAGE,
    RULE_RECOVERABLE,
    RULE_SCHEMA,
    Severity,
    assign_uncertainty,
    clean_qa_cycle,
    filter_high_uncertainty,
    run_rules,
)

from conftest import (
    E2011,
    E2016,
    SA3,
    count,
    make_counts,
    make_dataset,
    make_indicator,
    make_row,
    percentage,
    suppressed,
)


def key_of(dataset, i):
    """Row i's (region, year, age group, sex) key."""
    return list(dataset.columns.record_keys())[i]


def fault_fixtures():
    """One seeded-fault dataset/context pair per built-in rule."""
    fixtures = {}

    dataset = make_dataset([make_row("A", count(10), sex="unknown")])
    fixtures[RULE_SCHEMA] = (
        dataset,
        QAContext(vocabulary=Vocabulary(sexes=frozenset({"male", "female"}))),
    )

    row = make_row("A", count(1))
    fixtures[RULE_DUPLICATES] = (make_dataset([row, row]), QAContext())

    fixtures[RULE_NEGATIVE] = (
        make_dataset([make_row("A", count(-2))]),
        QAContext(),
    )

    pct = make_indicator(id="demo.pct", value_kind=CellKind.PERCENTAGE)
    fixtures[RULE_PERCENTAGE] = (
        make_dataset([make_row("A", percentage(120.0))], indicator=pct),
        QAContext(),
    )

    rows = [
        make_row("A", count(5), year=2016),
        make_row("A", count(6), year=2018),
    ]
    fixtures[RULE_COVERAGE] = (
        make_dataset(rows),
        QAContext(coverage=(2016, 2018)),
    )

    members = {
        "total": count(20),
        "male": count(17),
        "female": suppressed(),
    }
    rows = [make_row("A", value, sex=sex) for sex, value in members.items()]
    fixtures[RULE_RECOVERABLE] = (make_dataset(rows), QAContext())

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
        rows = [
            make_row("A", count(5), year=2016),
            make_row("A", count(6), year=2018),
        ]
        report = run_rules(make_dataset(rows), QAContext(coverage=(2016, 2018)))
        assert [f.message for f in report.findings] == ["temporal coverage gap: 2017"]
        assert report.findings[0].severity is Severity.WARNING
        assert report.exit_code() == 1

    def test_mass_conservation_within_tolerance_passes(self):
        dataset = make_counts({"A": 100.0000000000001})
        context = QAContext(conservation=ConservationRecord(expected_total=Fraction(100)))
        assert run_rules(dataset, context).passed

    def test_read_only_and_deterministic(self):
        dataset, context = fault_fixtures()[RULE_RECOVERABLE]
        before = dataset.columns
        first = run_rules(dataset, context)
        second = run_rules(dataset, context)
        assert dataset.columns == before
        assert first == second

    def test_report_json_round_trip(self):
        dataset, context = fault_fixtures()[RULE_COVERAGE]
        report = run_rules(dataset, context)
        assert json.loads(canonical_dumps(report.to_json())) == {
            "dataset_id": report.dataset_id,
            "pass": True,
            "findings": [
                {"rule_id": RULE_COVERAGE, "severity": "warning", "locator": "year 2017",
                 "message": "temporal coverage gap: 2017"},
            ],
        }

    def test_recoverable_not_flagged_with_two_suppressed(self):
        members = {
            "total": count(20),
            "male": suppressed(),
            "female": suppressed(),
        }
        rows = [make_row("A", value, sex=sex) for sex, value in members.items()]
        report = run_rules(make_dataset(rows), QAContext())
        assert report.findings == ()


class TestAssignUncertainty:
    def test_untouched_record_stays_low(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): ()})
        assert out.columns.uncertainty[0] is UncertaintyLevel.LOW

    def test_subthreshold_discard_gives_medium(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): (EVENT_SUBTHRESHOLD_DISCARD,)})
        assert out.columns.uncertainty[0] is UncertaintyLevel.MEDIUM

    def test_zero_fill_gives_medium(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): (EVENT_ZERO_FILL,)})
        assert out.columns.uncertainty[0] is UncertaintyLevel.MEDIUM

    def test_backward_suppression_gives_high(self):
        dataset = make_counts({"A": suppressed()})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): (EVENT_BACKWARD_SUPPRESSED,)})
        assert out.columns.uncertainty[0] is UncertaintyLevel.HIGH

    def test_unresolvable_gives_high(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): (EVENT_UNRESOLVABLE,)})
        assert out.columns.uncertainty[0] is UncertaintyLevel.HIGH

    def test_existing_level_never_lowered(self):
        dataset = make_counts({"A": count(5, UncertaintyLevel.MEDIUM)})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): ()})
        assert out.columns.uncertainty[0] is UncertaintyLevel.MEDIUM

    def test_missing_provenance_key_keeps_level(self):
        # An absent key had no events, like a key with an empty entry.
        dataset = make_counts({"A": 5, "B": count(6, UncertaintyLevel.MEDIUM)})
        out = assign_uncertainty(dataset, {})
        assert out.columns == dataset.columns
        assert out.columns.uncertainty == (UncertaintyLevel.LOW, UncertaintyLevel.MEDIUM)

    def test_indicator_max_uncertainty_updated(self):
        dataset = make_counts({"A": 5})
        out = assign_uncertainty(dataset, {key_of(dataset, 0): (EVENT_SUBTHRESHOLD_DISCARD,)})
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM

    def test_no_level_raised_keeps_the_input_columns(self):
        # Events that raise nothing: none, an unknown one, or a level the record already has.
        dataset = make_counts({"A": 5, "B": count(6, UncertaintyLevel.MEDIUM), "C": 7})
        a, b, c = dataset.columns.record_keys()
        out = assign_uncertainty(dataset, {a: (), b: (EVENT_ZERO_FILL,), c: ("other-event",)})
        assert out.columns is dataset.columns
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM  # refreshed all the same

    def test_plain_tuple_keys_work_like_record_keys(self):
        # A key written out by hand finds its row as the key read from the columns does.
        dataset = make_counts({"A": 5, "B": 6})
        by_record_key = assign_uncertainty(dataset, {key_of(dataset, 1): (EVENT_UNRESOLVABLE,)})
        by_tuple = assign_uncertainty(dataset, {("B", 2016, "0-4", "male"): (EVENT_UNRESOLVABLE,)})
        assert by_tuple == by_record_key
        assert by_tuple.columns.uncertainty == (UncertaintyLevel.LOW, UncertaintyLevel.HIGH)

    def test_raised_level_builds_new_columns(self):
        dataset = make_counts({"A": 5, "B": 6})
        out = assign_uncertainty(dataset, {key_of(dataset, 1): (EVENT_UNRESOLVABLE,)})
        assert out.columns is not dataset.columns
        assert dataset.columns.uncertainty == (UncertaintyLevel.LOW, UncertaintyLevel.LOW)


class TestFilterHighUncertainty:
    def test_all_low_unchanged_with_empty_log(self):
        dataset = make_counts({"A": 1, "B": 2})
        out, log = filter_high_uncertainty(dataset)
        assert out == dataset
        assert log.removed_keys == ()
        assert not log.fully_removed

    def test_nothing_removed_keeps_the_input_columns(self):
        dataset = make_counts({"A": 1, "B": count(2, UncertaintyLevel.MEDIUM)})
        out, _ = filter_high_uncertainty(dataset)
        assert out.columns is dataset.columns
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM  # refreshed all the same

    def test_removal_builds_new_columns(self):
        dataset = make_counts({"A": 1, "B": count(2, UncertaintyLevel.HIGH)})
        out, _ = filter_high_uncertainty(dataset)
        assert out.columns is not dataset.columns
        assert len(dataset.columns.region) == 2

    def test_removes_exactly_the_high_records(self):
        cells = {f"R{i}": count(i, UncertaintyLevel.HIGH if i < 2 else UncertaintyLevel.LOW) for i in range(10)}
        dataset = make_counts(cells)
        out, log = filter_high_uncertainty(dataset)
        assert len(out.columns.region) == 8
        assert len(log.removed_keys) == 2
        assert out.indicator.max_uncertainty is UncertaintyLevel.LOW

    def test_medium_retained_and_max_updated(self):
        dataset = make_counts(
            {"A": count(1, UncertaintyLevel.MEDIUM), "B": count(2, UncertaintyLevel.HIGH)}
        )
        out, _ = filter_high_uncertainty(dataset)
        assert out.columns.region == ("A",)
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM

    def test_fully_removed_flag(self):
        dataset = make_counts({"A": count(1, UncertaintyLevel.HIGH)})
        out, log = filter_high_uncertainty(dataset)
        assert out.columns.region == ()
        assert log.fully_removed
        report = run_rules(out, QAContext(removed_high=len(log.removed_keys)))
        assert [f.rule_id for f in report.findings] == [RULE_EMPTIED]


class TestCleanQaCycle:
    def test_converges_on_messy_data(self):
        dataset = make_dataset([make_row(" A", count(2)), make_row("A", count(3))])
        rules = CleaningRuleSet(dedupe_policy=DedupePolicy.SUM)
        result = clean_qa_cycle(dataset, rules)
        assert result.report.passed
        assert result.iterations <= 2
        assert result.dataset.columns.magnitude[0] == 5

    def test_stable_failure_returns_without_looping(self):
        dataset = make_counts({"A": 5}, age="bad-age")
        context = QAContext(vocabulary=Vocabulary(age_groups=frozenset({"0-4"})))
        result = clean_qa_cycle(dataset, CleaningRuleSet(), context)
        assert not result.report.passed
        assert result.iterations <= 2

    def test_zero_cap_rejected(self):
        with pytest.raises(ConvergenceError):
            clean_qa_cycle(make_counts({}), CleaningRuleSet(), cap=0)


def old_clean_qa_cycle(dataset, rules, context):
    """The loop as it ran every rule on each pass: (dataset, iterations, passed)."""
    current = dataset
    for iteration in range(1, 11):
        cleaned, _ = clean(current, rules)
        report = run_rules(cleaned, context)
        if report.passed or cleaned == current:
            return cleaned, iteration, report.passed
        current = cleaned
    raise AssertionError("did not converge")


class TestCleanQaCycleChecksTheVocabulary:
    VOCABULARY = Vocabulary(age_groups=frozenset({"0-4"}), sexes=frozenset({"male"}))

    @pytest.mark.parametrize("messy", [False, True], ids=["tidy", "messy"])
    @pytest.mark.parametrize("age", ["0-4", "bad-age"])
    def test_iterations_and_outcome_as_when_every_rule_ran(self, messy, age):
        dataset = make_dataset([
            make_row(" A" if messy else "A", count(2), age=age),
            make_row("B", count(3), year=2019, age=age),
        ])
        context = QAContext(vocabulary=self.VOCABULARY, coverage=(2016, 2019))
        result = clean_qa_cycle(dataset, CleaningRuleSet(), context)
        cleaned, iterations, passed = old_clean_qa_cycle(dataset, CleaningRuleSet(), context)
        assert (result.dataset, result.iterations, result.report.passed) == (cleaned, iterations, passed)
        assert result.iterations == (2 if messy and age == "bad-age" else 1)
        # The report holds the vocabulary findings alone; coverage gaps are left to qa_stage.
        assert {f.rule_id for f in result.report.findings} <= {RULE_SCHEMA}
        assert len(result.report.findings) == (0 if age == "0-4" else 2)

    def test_runs_no_rule_but_the_vocabulary_check(self, monkeypatch):
        import ardkit.qa as qa

        called = []
        monkeypatch.setattr(qa, "run_rules", lambda *args: called.append("run_rules"))
        monkeypatch.setattr(qa, "validate_dataset", lambda *args: called.append("validate_dataset"))
        clean_qa_cycle(make_counts({"A": 1}, age="bad-age"), CleaningRuleSet(), QAContext(vocabulary=self.VOCABULARY))
        assert called == []


class TestConservationReusesTheConversionTotal:
    def converted(self):
        from ardkit.correspondence import forward

        edges = (CorrespondenceEdge("A", "B", Fraction(3, 10)), CorrespondenceEdge("A", "C", Fraction(7, 10)))
        table = CorrespondenceTable(E2011, E2016, SA3, edges)
        return forward(make_counts({"A": 100}, edition=E2011), table)

    def test_the_very_column_forward_emitted_is_not_totalled_again(self, monkeypatch):
        import ardkit.qa as qa

        out, outcome = self.converted()
        totals = []
        monkeypatch.setattr(qa, "exact_total", lambda values: totals.append(1) or Fraction(-1))
        record = ConservationRecord(outcome.input_total, outcome.output_total, outcome.output_magnitudes)
        assert run_rules(out, QAContext(conservation=record)).passed
        assert totals == []
        # A stated total is trusted for that column: a wrong one fires the rule.
        wrong = ConservationRecord(outcome.input_total, Fraction(1), outcome.output_magnitudes)
        assert [f.rule_id for f in run_rules(out, QAContext(conservation=wrong)).findings] == [RULE_CONSERVATION]

    def test_a_changed_magnitude_column_is_totalled_again_and_fires(self):
        out, outcome = self.converted()
        record = ConservationRecord(outcome.input_total, outcome.output_total, outcome.output_magnitudes)
        magnitudes = out.columns.magnitude
        changed = out.with_columns(out.columns._replace(magnitude=(magnitudes[0] + 1, *magnitudes[1:])))
        report = run_rules(changed, QAContext(conservation=record))
        assert [f.rule_id for f in report.findings] == [RULE_CONSERVATION]
        assert "total 101 differs from expected 100" in report.findings[0].message
        # An equal column that is not the very tuple is totalled too, and passes.
        copied = out.with_columns(out.columns._replace(magnitude=tuple(list(out.columns.magnitude))))
        assert run_rules(copied, QAContext(conservation=record)).passed
