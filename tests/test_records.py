"""Records that a worker process would send back survive pickling unchanged."""

from __future__ import annotations

import pickle

from ardkit.cleaning import RULE_DEDUPE_KEEP_FIRST, RULE_WHITESPACE, CleaningEntry, CleaningLog
from ardkit.correspondence import forward
from ardkit.model import CellValue, UncertaintyLevel
from ardkit.pipeline import StageRecord
from ardkit.qa import QAContext, filter_high_uncertainty, run_rules

from conftest import E2011, make_counts, make_record, make_table


def round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    # A NamedTuple also equals a plain tuple of its fields, so the type is checked too.
    assert type(copy) is type(record)
    assert copy == record
    return copy


def test_stage_record():
    round_trip(StageRecord("ingest", "parsed raw table", ("0" * 64,), ("1" * 64, "2" * 64)))


def test_qa_report_with_its_findings():
    records = [make_record("A", CellValue.count(5), year=2016), make_record("A", CellValue.count(-2), year=2018)]
    report = run_rules(make_counts({}).with_records(records), QAContext(coverage=(2016, 2018)))
    assert len(report.findings) == 2  # a coverage gap and a negative count
    copy = round_trip(report)
    assert [type(f) for f in copy.findings] == [type(f) for f in report.findings]
    assert copy.passed == report.passed and copy.warnings == report.warnings


def test_correspondence_outcome():
    # A missing input cell zero-fills its targets, so the outcome carries events and a zero-fill log.
    data = make_counts({"A": CellValue.missing(), "B": 10}, edition=E2011)
    _, outcome = forward(data, make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1")]))
    assert outcome.events and outcome.zero_filled and outcome.output_magnitudes
    copy = round_trip(outcome)
    # Left out of comparison, so checked on its own.
    assert copy.output_magnitudes == outcome.output_magnitudes


def test_cleaning_log():
    log = CleaningLog((
        CleaningEntry("set", 0, RULE_WHITESPACE, "geography.code", " A", "A"),
        CleaningEntry("drop", 3, RULE_DEDUPE_KEEP_FIRST, reason="duplicate of row 2"),
    ))
    assert [type(e) for e in round_trip(log).entries] == [CleaningEntry, CleaningEntry]


def test_removal_log():
    dataset = make_counts({"A": 1, "B": CellValue.count(2, UncertaintyLevel.HIGH)})
    _, log = filter_high_uncertainty(dataset)
    assert log.removed_keys
    round_trip(log)
