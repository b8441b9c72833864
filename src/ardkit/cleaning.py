"""Dataset cleaning: declared, mechanical, replayable repairs.

The rule set covers the error classes a standardized table actually
exhibits: stray whitespace, inconsistent code casing, two-digit years,
replicated entries, and missing values.  Repairs are limited to these
declared normalizations; there is no fuzzy matching, because a repair
nobody can review is not justifiable.  Every change lands in the cleaning
log as a (row, field, before, after, rule) entry, and replaying the log
against the raw dataset reproduces the cleaned dataset exactly.

The default duplicate policy is to fail loudly; merging or keeping the
first occurrence must be configured explicitly.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import CleaningError
from .model import (
    CellKind,
    CellValue,
    Dataset,
    StandardRecord,
    UncertaintyLevel,
    finalize,
    validate_dataset,
)


class DedupePolicy(enum.Enum):
    ERROR = "error"
    KEEP_FIRST = "keep_first"
    SUM = "sum"


class MissingPolicy(enum.Enum):
    KEEP_AS_MISSING = "keep_as_missing"
    DROP_ROW = "drop_row"


_YEAR_PATTERN_RE = re.compile(r"^YY->(\d+)\+YY$")


@dataclass(frozen=True)
class CleaningRuleSet:
    dedupe_policy: DedupePolicy = DedupePolicy.ERROR
    whitespace_normalization: bool = True
    code_case_fold: bool = False
    year_format_coercions: tuple[str, ...] = ()
    missing_policy: MissingPolicy = MissingPolicy.KEEP_AS_MISSING

    def __post_init__(self) -> None:
        if len(self.year_format_coercions) > 1:
            raise CleaningError(
                f"at most one year coercion pattern is supported, got {len(self.year_format_coercions)}"
            )
        for pattern in self.year_format_coercions:
            base = _parse_year_pattern(pattern)
            if base < 100:
                raise CleaningError(
                    f"year coercion base {base} below 100 would not be idempotent"
                )

    @classmethod
    def from_json(cls, doc: Mapping) -> "CleaningRuleSet":
        return cls(
            dedupe_policy=DedupePolicy(doc.get("dedupe_policy", "error")),
            whitespace_normalization=bool(doc.get("whitespace_normalization", True)),
            code_case_fold=bool(doc.get("code_case_fold", False)),
            year_format_coercions=tuple(doc.get("year_format_coercions", ())),
            missing_policy=MissingPolicy(doc.get("missing_policy", "keep_as_missing")),
        )

    def to_json(self) -> dict:
        return {
            "dedupe_policy": self.dedupe_policy.value,
            "whitespace_normalization": self.whitespace_normalization,
            "code_case_fold": self.code_case_fold,
            "year_format_coercions": list(self.year_format_coercions),
            "missing_policy": self.missing_policy.value,
        }


def _parse_year_pattern(pattern: str) -> int:
    m = _YEAR_PATTERN_RE.match(pattern.replace("→", "->"))
    if m is None:
        raise CleaningError(f"unsupported year coercion pattern {pattern!r}")
    return int(m.group(1))


RULE_WHITESPACE = "whitespace-normalization"
RULE_CASE_FOLD = "code-case-fold"
RULE_YEAR_FORMAT = "year-format"
RULE_DEDUPE_KEEP_FIRST = "dedupe-keep-first"
RULE_DEDUPE_SUM = "dedupe-sum"
RULE_MISSING_DROP = "missing-drop"


@dataclass(frozen=True)
class CleaningEntry:
    """One replayable change: a field set or a row drop."""

    op: str  # "set" | "drop"
    row: int
    rule: str
    field: str | None = None
    before: object = None
    after: object = None
    reason: str | None = None

    def to_json(self) -> dict:
        doc: dict = {"op": self.op, "row": self.row, "rule": self.rule}
        if self.field is not None:
            doc["field"] = self.field
        if self.op == "set":
            doc["before"] = self.before
            doc["after"] = self.after
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "CleaningEntry":
        return cls(
            op=doc["op"],
            row=doc["row"],
            rule=doc["rule"],
            field=doc.get("field"),
            before=doc.get("before"),
            after=doc.get("after"),
            reason=doc.get("reason"),
        )


@dataclass(frozen=True)
class CleaningLog:
    entries: tuple[CleaningEntry, ...] = ()

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(e.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
            for e in self.entries
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "CleaningLog":
        entries = tuple(
            CleaningEntry.from_json(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        )
        return cls(entries)


def _value_doc(value: CellValue) -> dict:
    return {
        "kind": value.kind.value,
        "magnitude": None if value.magnitude is None else float(value.magnitude),
        "uncertainty": int(value.uncertainty),
    }


def _value_from_doc(doc: Mapping) -> CellValue:
    return CellValue(
        CellKind(doc["kind"]),
        doc["magnitude"],
        UncertaintyLevel(doc["uncertainty"]),
    )


def _set_field(record: StandardRecord, field: str, value) -> StandardRecord:
    key = record.key
    if field == "geography.code":
        return StandardRecord(replace(key, region=value), record.value)
    if field == "calendar_year":
        return StandardRecord(replace(key, calendar_year=int(value)), record.value)
    if field in ("age_group", "sex"):
        return StandardRecord(replace(key, **{field: value}), record.value)
    if field == "value":
        return StandardRecord(key, _value_from_doc(value))
    raise CleaningError(f"unknown field {field!r} in cleaning log")


def clean(dataset: Dataset, rules: CleaningRuleSet) -> tuple[Dataset, CleaningLog]:
    """Apply the rule set; the output always passes validation or the call fails.

    Deterministic and idempotent; with ``dedupe_policy=sum`` the total count
    mass of data cells is conserved (missing cells carry no mass; a
    suppressed duplicate taints its merged cell suppressed).
    """
    entries: list[CleaningEntry] = []
    working: dict[int, StandardRecord] = {}
    year_base = _parse_year_pattern(rules.year_format_coercions[0]) if rules.year_format_coercions else None

    for i, record in enumerate(dataset.records):
        current = record
        if rules.whitespace_normalization:
            for field, token in (
                ("geography.code", current.key.region),
                ("age_group", current.key.age_group),
                ("sex", current.key.sex),
            ):
                stripped = " ".join(token.split())
                if stripped != token:
                    entries.append(
                        CleaningEntry("set", i, RULE_WHITESPACE, field=field, before=token, after=stripped)
                    )
                    current = _set_field(current, field, stripped)
        if rules.code_case_fold:
            code = current.key.region
            folded = code.upper()
            if folded != code:
                entries.append(
                    CleaningEntry("set", i, RULE_CASE_FOLD, field="geography.code", before=code, after=folded)
                )
                current = _set_field(current, "geography.code", folded)
        year = current.key.calendar_year
        if year_base is not None and 0 <= year < 100:
            coerced = year_base + year
            entries.append(
                CleaningEntry("set", i, RULE_YEAR_FORMAT, field="calendar_year", before=year, after=coerced)
            )
            current = _set_field(current, "calendar_year", coerced)
        working[i] = current

    if rules.missing_policy is MissingPolicy.DROP_ROW:
        for i in sorted(working):
            if working[i].value.kind is CellKind.MISSING:
                entries.append(
                    CleaningEntry("drop", i, RULE_MISSING_DROP, reason="missing value row dropped")
                )
                del working[i]

    groups: dict[tuple, list[int]] = {}
    for i in sorted(working):
        groups.setdefault(working[i].key.sort_key, []).append(i)
    duplicates = {key: rows for key, rows in groups.items() if len(rows) > 1}
    if duplicates:
        if rules.dedupe_policy is DedupePolicy.ERROR:
            listed = ", ".join(working[rows[0]].key.describe() for rows in duplicates.values())
            raise CleaningError(f"replicated entries present (policy is error): {listed}")
        if rules.dedupe_policy is DedupePolicy.KEEP_FIRST:
            for rows in duplicates.values():
                for i in rows[1:]:
                    entries.append(
                        CleaningEntry("drop", i, RULE_DEDUPE_KEEP_FIRST, reason="replicated entry removed")
                    )
                    del working[i]
        else:  # SUM
            for rows in sorted(duplicates.values()):
                keep = rows[0]
                merged = _merge_duplicates([working[i].value for i in rows])
                if merged != working[keep].value:
                    entries.append(
                        CleaningEntry(
                            "set", keep, RULE_DEDUPE_SUM, field="value",
                            before=_value_doc(working[keep].value), after=_value_doc(merged),
                        )
                    )
                    working[keep] = StandardRecord(working[keep].key, merged)
                for i in rows[1:]:
                    entries.append(
                        CleaningEntry("drop", i, RULE_DEDUPE_SUM, reason="replicated entry merged by summation")
                    )
                    del working[i]

    cleaned = finalize(dataset.with_records([working[i] for i in sorted(working)]))
    violations = validate_dataset(cleaned)
    if violations:
        details = "; ".join(f"{v.locator()}: {v.message}" for v in violations[:10])
        raise CleaningError(
            f"cleaning left {len(violations)} validation violation(s); first: {details}"
        )
    return cleaned, CleaningLog(tuple(entries))


def _merge_duplicates(values: list[CellValue]) -> CellValue:
    level = max(v.uncertainty for v in values)
    if any(v.kind is CellKind.SUPPRESSED for v in values):
        return CellValue.suppressed(level)
    data = [v for v in values if v.is_data]
    if not data:
        return CellValue.missing(level)
    for value in data:
        if value.kind is not CellKind.COUNT:
            raise CleaningError("dedupe_policy=sum only applies to count cells")
    total = sum(v.magnitude for v in data)
    return CellValue.count(total, level)


def replay(dataset: Dataset, log: CleaningLog) -> Dataset:
    """Re-apply a cleaning log to the raw dataset it was produced from."""
    working: dict[int, StandardRecord] = dict(enumerate(dataset.records))
    for entry in log.entries:
        if entry.op == "drop":
            working.pop(entry.row, None)
        else:
            working[entry.row] = _set_field(working[entry.row], entry.field, entry.after)
    return finalize(dataset.with_records([working[i] for i in sorted(working)]))


@dataclass(frozen=True)
class DatasetProfile:
    """Read-only pre-clean diagnostics."""

    records: int
    missing_cells: int
    suppressed_cells: int
    duplicate_key_groups: int
    out_of_range_values: int
    distinct_regions: int
    distinct_years: tuple[int, ...]
    distinct_age_groups: tuple[str, ...]
    distinct_sexes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "records": self.records,
            "missing_cells": self.missing_cells,
            "suppressed_cells": self.suppressed_cells,
            "duplicate_key_groups": self.duplicate_key_groups,
            "out_of_range_values": self.out_of_range_values,
            "distinct_regions": self.distinct_regions,
            "distinct_years": list(self.distinct_years),
            "distinct_age_groups": list(self.distinct_age_groups),
            "distinct_sexes": list(self.distinct_sexes),
        }


def profile(dataset: Dataset) -> DatasetProfile:
    """Counts of the problems cleaning deals with, plus filter-value summaries."""
    missing = sum(1 for r in dataset.records if r.value.kind is CellKind.MISSING)
    suppressed = sum(1 for r in dataset.records if r.value.kind is CellKind.SUPPRESSED)
    groups: dict[tuple, int] = {}
    for record in dataset.records:
        groups[record.key.sort_key] = groups.get(record.key.sort_key, 0) + 1
    duplicate_groups = sum(1 for n in groups.values() if n > 1)
    out_of_range = 0
    for record in dataset.records:
        value = record.value
        if value.is_data and value.magnitude < 0:
            out_of_range += 1
        elif value.kind is CellKind.PERCENTAGE and value.magnitude > 100:
            out_of_range += 1
    return DatasetProfile(
        records=len(dataset.records),
        missing_cells=missing,
        suppressed_cells=suppressed,
        duplicate_key_groups=duplicate_groups,
        out_of_range_values=out_of_range,
        distinct_regions=len({r.key.region for r in dataset.records}),
        distinct_years=tuple(sorted({r.key.calendar_year for r in dataset.records})),
        distinct_age_groups=tuple(sorted({r.key.age_group for r in dataset.records})),
        distinct_sexes=tuple(sorted({r.key.sex for r in dataset.records})),
    )
