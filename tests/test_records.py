"""Records survive pickling unchanged, and a checked record is checked however it is built."""

from __future__ import annotations

import dataclasses
import pickle
from datetime import date
from fractions import Fraction

import pytest

from ardkit.cleaning import RULE_DEDUPE_KEEP_FIRST, RULE_WHITESPACE, CleaningEntry, CleaningLog, CleaningRuleSet
from ardkit.correspondence import CorrespondenceEdge, CorrespondencePolicy, forward
from ardkit.errors import ArdkitError, CleaningError, CorrespondenceError, IngestError, PrivacyError
from ardkit.ingest import AccessMode, Layout, ParseReport, Reject, SchemaMapping, SourceDescriptor
from ardkit.model import CellKind, Dataset, Indicator, Record, UncertaintyLevel, read_csv, write_csv
from ardkit.pipeline import StageRecord
from ardkit.privacy import SuppressionPolicy
from ardkit.qa import ConservationRecord, QAContext, filter_high_uncertainty, run_rules

from conftest import E2011, E2016, SA3, count, make_counts, make_dataset, make_indicator, make_row, make_table, missing
from test_imports import record_classes


def round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    # A record also equals a plain tuple of its fields, so the type is checked too.
    assert type(copy) is type(record)
    assert copy == record
    return copy


def test_stage_record():
    round_trip(StageRecord("ingest", "parsed raw table", ("0" * 64,), ("1" * 64, "2" * 64)))


def test_qa_report_with_its_findings():
    rows = [make_row("A", count(5), year=2016), make_row("A", count(-2), year=2018)]
    report = run_rules(make_dataset(rows), QAContext(coverage=(2016, 2018)))
    assert len(report.findings) == 2  # a coverage gap and a negative count
    copy = round_trip(report)
    assert [type(f) for f in copy.findings] == [type(f) for f in report.findings]
    assert copy.passed == report.passed and copy.warnings == report.warnings


def test_correspondence_outcome():
    # A missing input cell zero-fills its targets, so the outcome carries events and a zero-fill log.
    data = make_counts({"A": missing(), "B": 10}, edition=E2011)
    _, outcome = forward(data, make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1")]))
    assert outcome.events and outcome.zero_filled and outcome.output_magnitudes
    round_trip(outcome)  # `output_magnitudes` takes part in equality


def test_cleaning_log():
    log = CleaningLog((
        CleaningEntry("set", 0, RULE_WHITESPACE, "geography.code", " A", "A"),
        CleaningEntry("drop", 3, RULE_DEDUPE_KEEP_FIRST, reason="duplicate of row 2"),
    ))
    assert [type(e) for e in round_trip(log).entries] == [CleaningEntry, CleaningEntry]


def test_removal_log():
    dataset = make_counts({"A": 1, "B": count(2, UncertaintyLevel.HIGH)})
    _, log = filter_high_uncertainty(dataset)
    assert log.removed_keys
    round_trip(log)


def test_parse_report_leaves_its_lineage_out_of_repr():
    report = ParseReport(3, 2, (Reject(2, "bad value"),), "REGION\nA\n", "0" * 64)
    assert round_trip(report) == report
    assert repr(report) == (
        "ParseReport(rows_in=3, records_out=2, rejects=(Reject(row=2, reason='bad value'),), lineage_digest='"
        + "0" * 64 + "')"
    )


def test_conservation_record():
    round_trip(ConservationRecord(Fraction(7), Fraction(7), (3, 4.0)))


# A record whose `__new__` checks its fields is checked however it is built.

def builds(record, **changes):
    """`record` with `changes` built each way a record can be: constructor, `_replace`, `_make` and unpickling."""
    cls, fields = type(record), {**record._asdict(), **changes}
    unchecked = pickle.dumps(tuple.__new__(cls, fields.values()))
    return {
        "constructor": lambda: cls(**fields),
        "_replace": lambda: record._replace(**changes),
        "_make": lambda: cls._make(fields.values()),
        "unpickle": lambda: pickle.loads(unchecked),
    }


def source():
    start, end = date(2016, 1, 1), date(2016, 12, 31)
    return SourceDescriptor("src.demo", "Demo", "Custodian", AccessMode.PUBLIC, start, end, "https://example.org")


def long_mapping():
    columns = ("SA3CODE_16", "AGE_GROUP", "SEX")
    return SchemaMapping(Layout.LONG, *columns, CellKind.COUNT, "CALENDAR_YEAR", "VALUE", level=SA3, edition=E2016)


REFUSED = {
    # record, field, a value its check refuses, the error and its message
    "Indicator": (make_indicator, "id", "a/b", ArdkitError, "indicator id 'a/b' may hold only"),
    "CorrespondenceEdge": (
        lambda: CorrespondenceEdge("A", "B", Fraction(1, 2)), "ratio", 2, CorrespondenceError, r"ratio 2.0 for A->B outside"
    ),
    "CorrespondencePolicy": (
        CorrespondencePolicy, "discard_threshold", 1, CorrespondenceError, r"discard threshold 1.0 outside \(0, 1\)"
    ),
    "SourceDescriptor": (source, "collection_end", date(2015, 1, 1), IngestError, "inverted collection window"),
    "SchemaMapping": (long_mapping, "year_columns", ("2016",), IngestError, "year_columns only apply to the wide"),
    "CleaningRuleSet": (CleaningRuleSet, "code_case_fold", "false", CleaningError, "code_case_fold must be true or false"),
    "SuppressionPolicy": (SuppressionPolicy, "threshold", True, PrivacyError, "must be a positive integer, got True"),
    # A flag is a bool: `bool("false")` is True.
    "Indicator-flag": (
        make_indicator, "correspondence_applied", "false", ArdkitError,
        "^correspondence_applied must be true or false, not 'false'$",
    ),
    "SuppressionPolicy-flag": (
        SuppressionPolicy, "suppress_zero", "false", PrivacyError, "^suppress_zero must be true or false, not 'false'$"
    ),
}


@pytest.mark.parametrize("make, name, bad, error, message", REFUSED.values(), ids=REFUSED)
def test_a_refused_field_raises_on_every_build(make, name, bad, error, message):
    good = make()
    assert round_trip(good) == good
    for way, build in builds(good, **{name: bad}).items():
        with pytest.raises(error, match=message):
            build()
            pytest.fail(f"{way} built an unchecked record")


EDGE = CorrespondenceEdge("A", "C", 1)
NORMALISED = {
    # record, field, a value its `__new__` normalises, and the normal form
    "CorrespondenceEdge": (lambda: CorrespondenceEdge("A", "B", 1), "ratio", "0.25", Fraction(1, 4)),
    "CorrespondencePolicy": (CorrespondencePolicy, "discard_threshold", 0.25, Fraction(1, 4)),
    "CorrespondenceTable": (lambda: make_table([("A", "B", "1")]), "edges", [EDGE], (EDGE,)),
}


@pytest.mark.parametrize("make, name, given, normal", NORMALISED.values(), ids=NORMALISED)
def test_a_field_is_normalised_on_every_build(make, name, given, normal):
    good = make()
    assert type(round_trip(good)) is type(good)
    for way, build in builds(good, **{name: given}).items():
        value = getattr(build(), name)
        assert (type(value), value) == (type(normal), normal), way


def test_a_dataset_states_its_worst_level_on_every_build():
    dataset = make_counts({"A": 1, "B": 2})
    assert round_trip(dataset).indicator.max_uncertainty is UncertaintyLevel.LOW
    high = dataset.columns._replace(uncertainty=(UncertaintyLevel.LOW, UncertaintyLevel.HIGH))
    assert dataset.with_columns(high).indicator.max_uncertainty is UncertaintyLevel.HIGH
    for way, build in builds(dataset, columns=high).items():
        assert build().indicator.max_uncertainty is UncertaintyLevel.HIGH, way
    # And back down once the HIGH row is gone.
    assert dataset.with_columns(high).with_columns(dataset.columns) == dataset


WIDE_DOC = {
    "layout": "wide_by_year",
    "columns": {"geography_code": "SA3CODE_16", "age_group": "AGE_GROUP", "sex": "SEX"},
    "value_kind": "count",
    "geography": {"level": "SA3", "edition": 2016},
}


@pytest.mark.parametrize(
    "from_json, doc, error, message",
    [
        (Indicator.from_json, {**make_indicator().to_json(), "id": "a/b"}, ArdkitError, "indicator id 'a/b'"),
        (
            SourceDescriptor.from_json, {**source().to_json(), "collection_end": "2015-01-01"},
            IngestError, "inverted collection window",
        ),
        (SchemaMapping.from_json, {**WIDE_DOC, "year_columns": ["2016", "2016"]}, IngestError, "repeats year 2016"),
        (CleaningRuleSet.from_json, {"whitespace_normalization": 1}, CleaningError, "whitespace_normalization must be"),
        (SuppressionPolicy.from_json, {"threshold": True}, PrivacyError, "positive integer, got True"),
        (
            Indicator.from_json, {**make_indicator().to_json(), "correspondence_applied": "false"},
            ArdkitError, "correspondence_applied must be true or false, not 'false'",
        ),
        (SuppressionPolicy.from_json, {"suppress_zero": "false"}, PrivacyError, "suppress_zero must be true or false"),
        (
            SourceDescriptor.from_json, {**source().to_json(), "collection_start": "2020-13-01"},
            IngestError, "source src.demo: collection_start '2020-13-01' is not a calendar date",
        ),
    ],
    ids=[
        "Indicator", "SourceDescriptor", "SchemaMapping", "CleaningRuleSet", "SuppressionPolicy",
        "Indicator-flag", "SuppressionPolicy-flag", "SourceDescriptor-date",
    ],
)
def test_from_json_builds_through_the_checks(from_json, doc, error, message):
    with pytest.raises(error, match=message):
        from_json(doc)


RECORDS = [cls for cls in record_classes() if not dataclasses.is_dataclass(cls)]
# For each record whose `__new__` checks or normalises its fields: a good record, a field, a value it refuses.
REFUSED_BY_RECORD = {
    **{name: refused[:4] for name, refused in REFUSED.items() if "-" not in name},
    "CorrespondenceTable": (lambda: make_table([("A", "B", "1")]), "edges", None, TypeError),
    "Dataset": (lambda: make_counts({"A": 1}), "columns", None, AttributeError),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_with_a_new_checks_its_replace_and_its_unpickling(cls):
    if "__new__" not in vars(cls):
        assert cls.__name__ not in REFUSED_BY_RECORD
        return
    make, name, bad, error = REFUSED_BY_RECORD[cls.__name__]
    good = make()
    assert type(round_trip(good)) is cls
    ways = builds(good, **{name: bad})
    for way in ("_replace", "unpickle"):
        with pytest.raises(error):
            ways[way]()
            pytest.fail(f"{way} built an unchecked record")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_only_a_dataset_keeps_an_instance_dict(cls):
    assert issubclass(cls, Record)
    record = tuple.__new__(cls, [None] * len(cls._fields))
    assert hasattr(record, "__dict__") is (cls is Dataset)


def test_read_csv_marks_the_dataset_it_reads():
    dataset = make_counts({"A": 1, "B": 2})
    read = read_csv(write_csv(dataset), dataset.indicator)
    assert read == dataset and vars(read) == {"_in_canonical_order": True, "_as_written": True}


def test_a_record_takes_its_fields_and_defaults_from_its_class_body():
    class Point(Record):
        """A point."""

        x: NotDefinedAnywhere  # noqa: F821 - the annotations are never evaluated
        y: int = 0

        def norm(self) -> int:
            return abs(self.x) + abs(self.y)

    point = Point(3, y=-4)
    assert (point, point.norm(), Point(1)) == ((3, -4), 7, (1, 0))
    assert Point._fields == ("x", "y") and Point._field_defaults == {"y": 0}
    assert Point.__doc__ == "A point." and Point._make((5, 6))._replace(y=1) == (5, 1)
    with pytest.raises(AttributeError):
        point.x = 0


def test_a_record_refuses_a_field_without_a_default_after_one_with_a_default():
    with pytest.raises(TypeError, match="a field without a default follows one with a default"):
        class Bad(Record):
            x: int = 0
            y: int


def test_a_record_subclasses_record_alone():
    with pytest.raises(TypeError, match="must subclass Record alone"):
        class Sub(Indicator):
            extra: int
