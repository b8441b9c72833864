"""Quality-assurance rules engine, uncertainty levels, and the clean/QA loop.

Rules never mutate data: findings are values, ordered deterministically,
and a report passes exactly when it has no error-severity finding.  The
engine also owns the ordinal uncertainty semantics: level 0 for values no
approximation touched, level 1 when boundary conversion discarded only
small contributions or gap-filled missing inputs, level 2 when a value
could not be reconstructed.  Level-2 records are removed from published
datasets; levels 0 and 1 stay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cleaning import CleaningLog, CleaningRuleSet, clean
from .correspondence import (
    CorrespondenceTable,
    HIGH_EVENTS,
    MEDIUM_EVENTS,
)
from .errors import ConvergenceError, ProvenanceError
from .model import (
    CellKind,
    Dataset,
    RecordKey,
    StandardRecord,
    UncertaintyLevel,
    Vocabulary,
    V_DUPLICATE_KEY,
    V_NEGATIVE,
    V_PERCENTAGE_RANGE,
    finalize,
    format_magnitude,
    validate_dataset,
)


class Severity(enum.Enum):
    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class QARule:
    rule_id: str
    severity: Severity
    description: str


RULE_SCHEMA = "schema-conformance"
RULE_DUPLICATES = "duplicate-keys"
RULE_NEGATIVE = "negative-count"
RULE_PERCENTAGE = "percentage-range"
RULE_COVERAGE = "coverage-gap"
RULE_RATIO_ECHO = "ratio-sum-echo"
RULE_RECOVERABLE = "recoverable-suppression"
RULE_CONSERVATION = "mass-conservation"
RULE_EMPTIED = "indicator-emptied"

BUILTIN_RULES: dict[str, QARule] = {
    rule.rule_id: rule
    for rule in (
        QARule(RULE_SCHEMA, Severity.ERROR, "records conform to the standardized schema and vocabulary"),
        QARule(RULE_DUPLICATES, Severity.ERROR, "record keys are unique"),
        QARule(RULE_NEGATIVE, Severity.ERROR, "counts and rates are non-negative"),
        QARule(RULE_PERCENTAGE, Severity.ERROR, "percentages lie within 0..100"),
        QARule(RULE_COVERAGE, Severity.WARNING, "no gaps inside the declared temporal coverage"),
        QARule(RULE_RATIO_ECHO, Severity.ERROR, "the correspondence table used still satisfies its ratio-sum invariant"),
        QARule(RULE_RECOVERABLE, Severity.WARNING, "no suppressed cell is recoverable by subtraction from a published marginal"),
        QARule(RULE_CONSERVATION, Severity.ERROR, "redistribution preserved the total count mass"),
        QARule(RULE_EMPTIED, Severity.WARNING, "uncertainty filtering left at least one record"),
    )
}

_VIOLATION_RULE_MAP = {
    V_DUPLICATE_KEY: RULE_DUPLICATES,
    V_NEGATIVE: RULE_NEGATIVE,
    V_PERCENTAGE_RANGE: RULE_PERCENTAGE,
}


@dataclass(frozen=True)
class ConservationRecord:
    """Expected post-conversion count total, carried by correspondence provenance."""

    expected_total: Fraction
    relative_tolerance: float = 1e-9
    exact: bool = False


@dataclass(frozen=True)
class QAContext:
    """Everything the rules may consult beyond the dataset itself."""

    vocabulary: Vocabulary | None = None
    coverage: tuple[int, int] | None = None
    table: CorrespondenceTable | None = None
    conservation: ConservationRecord | None = None
    removed_high: int = 0


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: Severity
    locator: str
    message: str

    def to_json(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "locator": self.locator,
            "message": self.message,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Finding":
        return cls(doc["rule_id"], Severity(doc["severity"]), doc["locator"], doc["message"])


@dataclass(frozen=True)
class QAReport:
    dataset_id: str
    findings: tuple[Finding, ...]

    @property
    def passed(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    def exit_code(self) -> int:
        if not self.passed:
            return 2
        return 1 if self.warnings else 0

    def to_json(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "pass": self.passed,
            "findings": [f.to_json() for f in self.findings],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "QAReport":
        return cls(doc["dataset_id"], tuple(Finding.from_json(f) for f in doc["findings"]))

    def to_text(self) -> str:
        lines = [f"QA report for {self.dataset_id}: {'PASS' if self.passed else 'FAIL'}"]
        for finding in self.findings:
            lines.append(f"  [{finding.severity.value}] {finding.rule_id} at {finding.locator}: {finding.message}")
        if not self.findings:
            lines.append("  no findings")
        return "\n".join(lines) + "\n"


def run_rules(dataset: Dataset, context: QAContext = QAContext()) -> QAReport:
    """Evaluate every built-in rule; read-only and deterministically ordered."""
    findings: list[Finding] = []
    findings.extend(_structural_findings(dataset, context))
    findings.extend(_coverage_findings(dataset, context))
    findings.extend(_ratio_echo_findings(context))
    findings.extend(_recoverable_findings(dataset, context))
    findings.extend(_conservation_findings(dataset, context))
    findings.extend(_emptied_findings(dataset, context))
    findings.sort(key=lambda f: (f.rule_id, f.locator, f.message))
    return QAReport(dataset.indicator.id, tuple(findings))


def _finding(rule_id: str, locator: str, message: str) -> Finding:
    return Finding(rule_id, BUILTIN_RULES[rule_id].severity, locator, message)


def _structural_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    findings = []
    seen_duplicate_keys: set[str] = set()
    for violation in validate_dataset(dataset, context.vocabulary):
        rule_id = _VIOLATION_RULE_MAP.get(violation.rule, RULE_SCHEMA)
        if rule_id == RULE_DUPLICATES:
            # One finding per duplicated key, not one per involved row.
            key = violation.message
            if key in seen_duplicate_keys:
                continue
            seen_duplicate_keys.add(key)
        findings.append(_finding(rule_id, violation.locator(), violation.message))
    return findings


def _coverage_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    if context.coverage is None:
        return []
    start, end = context.coverage
    present = {r.key.calendar_year for r in dataset.records}
    findings = []
    if present:
        for year in range(max(start, min(present)), min(end, max(present)) + 1):
            if year not in present:
                findings.append(_finding(RULE_COVERAGE, f"year {year}", f"temporal coverage gap: {year}"))
    for year in sorted(present):
        if year < start or year > end:
            findings.append(
                _finding(RULE_COVERAGE, f"year {year}", f"year {year} outside declared coverage {start}-{end}")
            )
    return findings


def _ratio_echo_findings(context: QAContext) -> list[Finding]:
    if context.table is None:
        return []
    return [
        _finding(RULE_RATIO_ECHO, "correspondence table", problem)
        for problem in context.table.validate()
    ]


def _recoverable_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    marginals = (context.vocabulary or Vocabulary()).marginal_tokens
    findings = []
    for axis in ("age_group", "sex"):
        groups: dict[tuple, list[StandardRecord]] = {}
        for record in dataset.records:
            key = record.key
            if axis == "age_group":
                group_key = (key.region, key.calendar_year, key.sex)
            else:
                group_key = (key.region, key.calendar_year, key.age_group)
            groups.setdefault(group_key, []).append(record)
        for group_key in sorted(groups):
            members = groups[group_key]
            marginal = [
                r for r in members if getattr(r.key, axis).lower() in marginals
            ]
            others = [r for r in members if getattr(r.key, axis).lower() not in marginals]
            if not any(m.value.is_data for m in marginal):
                continue
            suppressed = [r for r in others if r.value.kind is CellKind.SUPPRESSED]
            unsuppressed = [r for r in others if r.value.is_data]
            if len(suppressed) == 1 and len(unsuppressed) == len(others) - 1:
                record = suppressed[0]
                findings.append(
                    _finding(
                        RULE_RECOVERABLE,
                        record.key.describe(),
                        f"suppressed cell recoverable by subtracting its {axis} siblings "
                        f"from the published marginal",
                    )
                )
    return findings


def _conservation_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    record = context.conservation
    if record is None:
        return []
    total = sum(
        (Fraction(r.value.magnitude) for r in dataset.records if r.value.kind is CellKind.COUNT),
        Fraction(0),
    )
    expected = record.expected_total
    if record.exact:
        ok = total == expected
    else:
        bound = Fraction(str(record.relative_tolerance)) * max(abs(expected), Fraction(1))
        ok = abs(total - expected) <= bound
    if ok:
        return []
    return [
        _finding(
            RULE_CONSERVATION,
            "dataset",
            f"mass conservation violated: total {format_magnitude(float(total))} differs "
            f"from expected {format_magnitude(float(expected))}",
        )
    ]


def _emptied_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    if context.removed_high > 0 and not dataset.records:
        return [
            _finding(
                RULE_EMPTIED,
                "dataset",
                f"indicator fully removed: all {context.removed_high} records carried high uncertainty",
            )
        ]
    return []


def assign_uncertainty(
    dataset: Dataset,
    provenance: Mapping[RecordKey, Sequence[str]],
) -> Dataset:
    """Set each record's level from the events that touched it.

    High for unreconstructable values, medium for discarded sub-threshold
    contributions or gap-filled missing inputs, low otherwise.  A level a
    record already carries is never lowered.  Every record must have a
    provenance entry, even an empty one.
    """
    missing = [r.key.describe() for r in dataset.records if r.key not in provenance]
    if missing:
        shown = ", ".join(missing[:5])
        raise ProvenanceError(
            f"provenance incomplete: {len(missing)} record(s) without an entry (first: {shown})"
        )
    records = []
    for record in dataset.records:
        events = set(provenance[record.key])
        if events & HIGH_EVENTS:
            level = UncertaintyLevel.HIGH
        elif events & MEDIUM_EVENTS:
            level = UncertaintyLevel.MEDIUM
        else:
            level = UncertaintyLevel.LOW
        level = max(level, record.value.uncertainty)
        if level is record.value.uncertainty:
            records.append(record)
        else:
            records.append(StandardRecord(record.key, record.value.with_uncertainty(level)))
    return finalize(dataset.with_records(records))


@dataclass(frozen=True)
class RemovalLog:
    removed_keys: tuple[str, ...]
    fully_removed: bool

    def to_json(self) -> dict:
        return {"removed_keys": list(self.removed_keys), "fully_removed": self.fully_removed}


def filter_high_uncertainty(dataset: Dataset) -> tuple[Dataset, RemovalLog]:
    """Drop every high-uncertainty record; low and medium stay in."""
    kept = [r for r in dataset.records if r.value.uncertainty is not UncertaintyLevel.HIGH]
    removed = [r.key.describe() for r in dataset.records if r.value.uncertainty is UncertaintyLevel.HIGH]
    result = finalize(dataset.with_records(kept))
    return result, RemovalLog(tuple(removed), fully_removed=bool(removed) and not kept)


@dataclass(frozen=True)
class CycleResult:
    dataset: Dataset
    log: CleaningLog
    report: QAReport
    iterations: int


def clean_qa_cycle(
    dataset: Dataset,
    rules: CleaningRuleSet,
    context: QAContext = QAContext(),
    cap: int = 10,
) -> CycleResult:
    """Clean, check, repeat until the report passes or a fixed point is reached.

    The loop terminates by construction for idempotent rule sets; the cap
    guards non-idempotent configurations, reporting non-convergence as an
    error instead of looping forever.
    """
    if cap < 1:
        raise ConvergenceError("iteration cap must be at least 1")
    current = dataset
    first_log: CleaningLog | None = None
    for iteration in range(1, cap + 1):
        cleaned, log = clean(current, rules)
        if first_log is None:
            first_log = log
        report = run_rules(cleaned, context)
        if report.passed or cleaned == current:
            return CycleResult(cleaned, first_log, report, iteration)
        current = cleaned
    raise ConvergenceError(f"clean/QA loop did not converge within {cap} iterations")
