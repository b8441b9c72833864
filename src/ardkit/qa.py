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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Mapping, NamedTuple, Sequence

from .cleaning import CleaningLog, CleaningRuleSet, clean
from .correspondence import HIGH_EVENTS, MEDIUM_EVENTS
from .errors import ConvergenceError
from .jsonio import sha256_hex
from .model import (
    KEY_COLUMNS,
    CellKind,
    Dataset,
    UncertaintyLevel,
    Vocabulary,
    V_DUPLICATE_KEY,
    V_NEGATIVE,
    V_PERCENTAGE_RANGE,
    describe_key,
    exact_total,
    format_magnitude,
    ledger_csv,
    validate_dataset,
    vocabulary_violations,
)


class Severity(enum.Enum):
    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


class QARule(NamedTuple):
    rule_id: str
    severity: Severity
    description: str


RULE_SCHEMA = "schema-conformance"
RULE_DUPLICATES = "duplicate-keys"
RULE_NEGATIVE = "negative-count"
RULE_PERCENTAGE = "percentage-range"
RULE_COVERAGE = "coverage-gap"
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


# How far the published count total may drift from the expected one,
# relative to the expected total (or to 1, when that is smaller).
CONSERVATION_TOLERANCE = Fraction(1, 10**9)


@dataclass(frozen=True)
class ConservationRecord:
    """Expected post-conversion count total, carried by correspondence provenance."""

    expected_total: Fraction
    # The exact total of `output_magnitudes`, the magnitude column the last conversion emitted.
    output_total: Fraction | None = None
    output_magnitudes: tuple | None = field(default=None, repr=False, compare=False)


class QAContext(NamedTuple):
    """Everything the rules may consult beyond the dataset itself."""

    vocabulary: Vocabulary | None = None
    coverage: tuple[int, int] | None = None
    conservation: ConservationRecord | None = None
    removed_high: int = 0


class Finding(NamedTuple):
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


class QAReport(NamedTuple):
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
    findings.extend(_recoverable_findings(dataset, context))
    findings.extend(_conservation_findings(dataset, context))
    findings.extend(_emptied_findings(dataset, context))
    return _report(dataset, findings)


def _report(dataset: Dataset, findings: list[Finding]) -> QAReport:
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
    present = set(dataset.columns.year)
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


def _recoverable_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    marginals = (context.vocabulary or Vocabulary()).marginal_tokens
    c = dataset.columns
    findings = []
    for axis, column, group_keys in (
        ("age_group", c.age, zip(c.region, c.year, c.sex)),
        ("sex", c.sex, zip(c.region, c.year, c.age)),
    ):
        # Without a marginal token on this axis no group has a marginal to subtract from.
        is_marginal = {token: token.lower() in marginals for token in set(column)}
        if not any(is_marginal.values()):
            continue
        groups: dict[tuple, list[int]] = {}
        for i, group_key in enumerate(group_keys):
            groups.setdefault(group_key, []).append(i)
        for group_key in sorted(groups):
            members = groups[group_key]
            marginal = [i for i in members if is_marginal[column[i]]]
            others = [i for i in members if not is_marginal[column[i]]]
            if not any(c.magnitude[i] is not None for i in marginal):
                continue
            suppressed = [i for i in others if c.kind[i] is CellKind.SUPPRESSED]
            unsuppressed = [i for i in others if c.magnitude[i] is not None]
            if len(suppressed) == 1 and len(unsuppressed) == len(others) - 1:
                i = suppressed[0]
                findings.append(
                    _finding(
                        RULE_RECOVERABLE,
                        describe_key(c.region[i], c.year[i], c.age[i], c.sex[i]),
                        f"suppressed cell recoverable by subtracting its {axis} siblings "
                        f"from the published marginal",
                    )
                )
    return findings


def _conservation_findings(dataset: Dataset, context: QAContext) -> list[Finding]:
    record = context.conservation
    if record is None:
        return []
    c = dataset.columns
    if c.magnitude is record.output_magnitudes:
        # The conversion's own output, whose magnitudes are present exactly on its count rows.
        total = record.output_total
    else:
        total = exact_total(m for kind, m in zip(c.kind, c.magnitude) if kind is CellKind.COUNT)
    expected = record.expected_total
    if abs(total - expected) <= CONSERVATION_TOLERANCE * max(abs(expected), Fraction(1)):
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
    if context.removed_high > 0 and not dataset.columns.region:
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
    provenance: Mapping[tuple[str, int, str, str], Sequence[str]],
) -> Dataset:
    """Set each record's level from the events that touched it.

    High for unreconstructable values, medium for discarded sub-threshold
    contributions or gap-filled missing inputs, low otherwise.  A level a
    record already carries is never lowered.  `provenance` is keyed by the
    (region, year, age group, sex) tuple; a record whose key is absent had
    no events.  Rows keep their order.  When no level rises, the result
    holds the input's own `columns` object.
    """
    by_key = {key: set(events) for key, events in provenance.items() if events}
    c = dataset.columns
    levels = list(c.uncertainty)
    for i in compress(range(len(levels)), map(by_key.__contains__, c.record_keys() if by_key else ())):
        events = by_key[c.region[i], c.year[i], c.age[i], c.sex[i]]
        if events & HIGH_EVENTS:
            level = UncertaintyLevel.HIGH
        elif events & MEDIUM_EVENTS:
            level = UncertaintyLevel.MEDIUM
        else:
            continue
        levels[i] = max(level, levels[i])
    if levels != list(c.uncertainty):
        return dataset.with_columns(c._replace(uncertainty=tuple(levels)))
    return dataset


class RemovalLog(NamedTuple):
    removed_keys: tuple[tuple[str, int, str, str], ...]  # in canonical order
    fully_removed: bool

    def report(self) -> tuple[dict, str]:
        """The removals report's JSON summary and its ledger, one `KEY_COLUMNS` line per removed record."""
        ledger = ledger_csv(KEY_COLUMNS, zip(*self.removed_keys))
        summary = {"fully_removed": self.fully_removed, "records_removed": len(self.removed_keys)}
        return {**summary, "ledger_digest": sha256_hex(ledger)}, ledger


def filter_high_uncertainty(dataset: Dataset) -> tuple[Dataset, RemovalLog]:
    """Drop every high-uncertainty record; low and medium stay in, in their order.

    When no record is high, the result holds the input's own `columns` object.
    """
    c = dataset.columns
    if UncertaintyLevel.HIGH not in c.uncertainty:
        return dataset, RemovalLog((), fully_removed=False)
    high = [level is UncertaintyLevel.HIGH for level in c.uncertainty]
    removed = sorted(compress(c.record_keys(), high))
    kept = [i for i, is_high in enumerate(high) if not is_high]
    dataset = dataset.with_columns(c.take(kept))
    return dataset, RemovalLog(tuple(removed), fully_removed=not kept)


class CycleResult(NamedTuple):
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
    """Clean, check the vocabulary, repeat until it passes or a fixed point is reached.

    `clean` raises unless its output validates and coverage findings are
    warnings, so a token outside `context.vocabulary` is the only error a
    pass can still draw: each pass checks that alone, and the report holds
    those findings.  `qa_stage` runs every rule once, on the finished data.

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
        violations = vocabulary_violations(cleaned.columns, context.vocabulary)
        report = _report(cleaned, [_finding(RULE_SCHEMA, v.locator(), v.message) for v in violations])
        if report.passed or cleaned == current:
            return CycleResult(cleaned, first_log, report, iteration)
        current = cleaned
    raise ConvergenceError(f"clean/QA loop did not converge within {cap} iterations")
