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
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import eq
from typing import Mapping, NamedTuple

from .errors import ArdkitError, CleaningError
from .jsonio import parse_json
from .model import (
    CellKind,
    Checked,
    Columns,
    Dataset,
    UncertaintyLevel,
    canonical_sort,
    check_cell,
    describe_key,
    string_list,
    validate_dataset,
)


class DedupePolicy(enum.Enum):
    ERROR = "error"
    KEEP_FIRST = "keep_first"
    SUM = "sum"


class MissingPolicy(enum.Enum):
    KEEP_AS_MISSING = "keep_as_missing"
    DROP_ROW = "drop_row"


_YEAR_PATTERN_RE = re.compile(r"YY->([0-9]+)\+YY")


class _RuleSetFields(NamedTuple):
    dedupe_policy: DedupePolicy = DedupePolicy.ERROR
    whitespace_normalization: bool = True
    code_case_fold: bool = False
    year_format_coercions: tuple[str, ...] = ()
    missing_policy: MissingPolicy = MissingPolicy.KEEP_AS_MISSING


class CleaningRuleSet(Checked, _RuleSetFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for key in ("whitespace_normalization", "code_case_fold"):
            if not isinstance(getattr(self, key), bool):
                raise CleaningError(f"{key} must be true or false, not {getattr(self, key)!r}")
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
        return self

    @classmethod
    def from_json(cls, doc: Mapping) -> "CleaningRuleSet":
        """Build from a rules document; a wrongly shaped one raises CleaningError."""
        if not isinstance(doc, Mapping):
            raise CleaningError("cleaning rules document is not a JSON object")
        policies = {}
        for key, policy_cls, default in (
            ("dedupe_policy", DedupePolicy, "error"),
            ("missing_policy", MissingPolicy, "keep_as_missing"),
        ):
            value = doc.get(key, default)
            try:
                policies[key] = policy_cls(value)
            except ValueError:
                raise CleaningError(f"invalid {key} {value!r}") from None
        return cls(
            whitespace_normalization=doc.get("whitespace_normalization", True),
            code_case_fold=doc.get("code_case_fold", False),
            year_format_coercions=string_list(doc, "year_format_coercions", (), CleaningError),
            **policies,
        )


def _parse_year_pattern(pattern: str) -> int:
    m = _YEAR_PATTERN_RE.fullmatch(pattern.replace("→", "->"))
    if m is None:
        raise CleaningError(f"unsupported year coercion pattern {pattern!r}")
    return int(m.group(1))


RULE_WHITESPACE = "whitespace-normalization"
RULE_CASE_FOLD = "code-case-fold"
RULE_YEAR_FORMAT = "year-format"
RULE_DEDUPE_KEEP_FIRST = "dedupe-keep-first"
RULE_DEDUPE_SUM = "dedupe-sum"
RULE_MISSING_DROP = "missing-drop"


class CleaningEntry(NamedTuple):
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
    def from_json(cls, doc, where: str = "cleaning log entry") -> "CleaningEntry":
        """Build from one entry's document; a wrongly shaped one raises CleaningError naming `where`."""
        if not isinstance(doc, Mapping):
            raise CleaningError(f"{where}: entry is not a JSON object")
        op, row = doc.get("op"), doc.get("row")
        if op not in ("set", "drop"):
            raise CleaningError(f"{where}: op must be 'set' or 'drop', not {op!r}")
        if isinstance(row, bool) or not isinstance(row, int) or row < 0:
            raise CleaningError(f"{where}: row must be a non-negative integer, not {row!r}")
        for key, required in (("rule", True), ("field", op == "set"), ("reason", False)):
            if not isinstance(doc.get(key), str) and (required or doc.get(key) is not None):
                raise CleaningError(f"{where}: {key} must be a string, not {doc.get(key)!r}")
        return cls(op, row, doc["rule"], doc.get("field"), doc.get("before"), doc.get("after"), doc.get("reason"))


class CleaningLog(NamedTuple):
    entries: tuple[CleaningEntry, ...] = ()

    def to_jsonl(self) -> str:
        """One line per entry: its `to_json` object, keys sorted, as compact `json.dumps` writes it.

        Each distinct string is quoted once and an int written by `str`; only other values go through `json.dumps`.
        """
        quoted: dict[str, str] = {}

        def text(value) -> str:
            if type(value) is str:
                return quoted.get(value) or quoted.setdefault(value, encode_basestring_ascii(value))
            return str(value) if type(value) is int else json.dumps(value, sort_keys=True, separators=(",", ":"))

        lines = []
        for e in self.entries:
            values = f'"after":{text(e.after)},"before":{text(e.before)},' if e.op == "set" else ""
            field = "" if e.field is None else f'"field":{text(e.field)},'
            reason = "" if e.reason is None else f'"reason":{text(e.reason)},'
            lines.append(f'{{{values}{field}"op":{text(e.op)},{reason}"row":{text(e.row)},"rule":{text(e.rule)}}}\n')
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "CleaningLog":
        """Parse a log; a line that is not one entry's JSON object raises CleaningError naming it."""
        lines = [(f"cleaning log line {n}", line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
        entries = (CleaningEntry.from_json(parse_json(line, CleaningError, where), where) for where, line in lines)
        return cls(tuple(entries))


def _value_doc(kind: CellKind, magnitude, uncertainty: UncertaintyLevel) -> dict:
    return {
        "kind": kind.value,
        "magnitude": None if magnitude is None else float(magnitude),
        "uncertainty": int(uncertainty),
    }


# Position of each logged field in a (region, year, age, sex, kind, magnitude, uncertainty) row.
_KEY_FIELDS = {"geography.code": 0, "calendar_year": 1, "age_group": 2, "sex": 3}


_VALUE_FIELDS = {"kind", "magnitude", "uncertainty"}


def _set_field(row: tuple, field: str, value, where: str) -> tuple:
    """The row with one logged field replaced; a bad replacement raises CleaningError naming `where`."""
    if field == "value":
        try:
            if not isinstance(value, Mapping) or value.keys() != _VALUE_FIELDS or isinstance(value["uncertainty"], bool):
                raise ValueError
            cell = (CellKind(value["kind"]), value["magnitude"], UncertaintyLevel(value["uncertainty"]))
            check_cell(*cell)
        except (ArdkitError, TypeError, ValueError):
            message = f"value must be a valid {{kind, magnitude, uncertainty}} object, not {value!r}"
            raise CleaningError(f"{where}: {message}") from None
        return (*row[:4], *cell)
    position = _KEY_FIELDS.get(field)
    if position is None:
        raise CleaningError(f"{where}: unknown field {field!r}")
    if field == "calendar_year":
        if isinstance(value, bool) or not isinstance(value, int):
            raise CleaningError(f"{where}: calendar_year must be an integer, not {value!r}")
    elif not isinstance(value, str) or not value:
        raise CleaningError(f"{where}: {field} must be a non-empty string, not {value!r}")
    return (*row[:position], value, *row[position + 1:])


def _repairs(column: tuple, repair) -> dict:
    """{token: repaired token} for each distinct token that `repair` changes."""
    changes = {}
    for token in set(column):
        repaired = repair(token)
        if repaired != token:
            changes[token] = repaired
    return changes


def clean(dataset: Dataset, rules: CleaningRuleSet) -> tuple[Dataset, CleaningLog]:
    """Apply the rule set; the output always passes validation or the call fails.

    Deterministic and idempotent; with ``dedupe_policy=sum`` the total count
    mass of data cells is conserved (missing cells carry no mass; a
    suppressed duplicate taints its merged cell suppressed).  When it logs
    no change, the result holds the input's own `columns` object, unless
    the rows had to be sorted.  Each repair is decided once per distinct
    token, only rows holding a changed token or a duplicated key are
    visited, and one stable sort of the surviving rows by their repaired
    key gives the output order, taken once.
    """
    c = dataset.columns
    entries: list[CleaningEntry] = []
    year_base = _parse_year_pattern(rules.year_format_coercions[0]) if rules.year_format_coercions else None

    region, year, age, sex = list(c.region), list(c.year), list(c.age), list(c.sex)
    collapse = (lambda token: " ".join(token.split())) if rules.whitespace_normalization else (lambda token: token)
    spaced = [
        (field, column, _repairs(column, collapse))
        for field, column in (("geography.code", region), ("age_group", age), ("sex", sex))
    ]
    folded = _repairs(region, lambda code: collapse(code).upper()) if rules.code_case_fold else {}
    coerced = {}
    if year_base is not None:
        coerced = {y: year_base + y for y in set(year) if 0 <= y < 100}
    repairs = [(column, changes) for _, column, changes in spaced] + [(region, folded), (year, coerced)]
    touched = set()
    for column, changes in repairs:
        touched.update(compress(range(len(column)), map(changes.__contains__, column)) if changes else ())

    for i in sorted(touched):
        for field, column, changes in spaced:
            token = column[i]
            if token in changes:
                entries.append(
                    CleaningEntry("set", i, RULE_WHITESPACE, field=field, before=token, after=changes[token])
                )
                column[i] = changes[token]
        if rules.code_case_fold:
            code = region[i]
            if code.upper() != code:
                entries.append(
                    CleaningEntry("set", i, RULE_CASE_FOLD, field="geography.code", before=code, after=code.upper())
                )
                region[i] = code.upper()
        if year[i] in coerced:
            entries.append(
                CleaningEntry("set", i, RULE_YEAR_FORMAT, field="calendar_year", before=year[i], after=coerced[year[i]])
            )
            year[i] = coerced[year[i]]

    kinds, magnitudes, levels = list(c.kind), list(c.magnitude), list(c.uncertainty)
    working = range(len(region))  # surviving rows, in row order
    if rules.missing_policy is MissingPolicy.DROP_ROW:
        dropped = [i for i in working if kinds[i] is CellKind.MISSING]
        entries.extend(CleaningEntry("drop", i, RULE_MISSING_DROP, reason="missing value row dropped") for i in dropped)
        working = [i for i in working if kinds[i] is not CellKind.MISSING]

    # One stable sort by the repaired key orders the survivors and puts duplicates side by side, in row order.
    keys = list(zip(region, year, age, sex))
    order = sorted(working, key=keys.__getitem__)
    tied = compress(range(1, len(order)), map(eq, map(keys.__getitem__, order[1:]), map(keys.__getitem__, order)))
    groups: dict[tuple, list[int]] = {}
    for p in tied:
        groups.setdefault(keys[order[p]], [order[p - 1]]).append(order[p])
    if groups:
        duplicates = dict(sorted(groups.items(), key=lambda item: item[1][0]))  # by first occurrence
        if rules.dedupe_policy is DedupePolicy.ERROR:
            listed = ", ".join(describe_key(*key) for key in duplicates)
            raise CleaningError(f"replicated entries present (policy is error): {listed}")
        removed = set()
        if rules.dedupe_policy is DedupePolicy.KEEP_FIRST:
            for rows in duplicates.values():
                for i in rows[1:]:
                    entries.append(
                        CleaningEntry("drop", i, RULE_DEDUPE_KEEP_FIRST, reason="replicated entry removed")
                    )
                    removed.add(i)
        else:  # SUM
            for rows in sorted(duplicates.values()):
                keep = rows[0]
                before = (kinds[keep], magnitudes[keep], levels[keep])
                merged = _merge_duplicates([(kinds[i], magnitudes[i], levels[i]) for i in rows])
                if merged != before:
                    entries.append(
                        CleaningEntry(
                            "set", keep, RULE_DEDUPE_SUM, field="value",
                            before=_value_doc(*before), after=_value_doc(*merged),
                        )
                    )
                    kinds[keep], magnitudes[keep], levels[keep] = merged
                for i in rows[1:]:
                    entries.append(
                        CleaningEntry("drop", i, RULE_DEDUPE_SUM, reason="replicated entry merged by summation")
                    )
                    removed.add(i)
        order = [i for i in order if i not in removed]

    if entries or order != list(range(len(keys))):  # every repair and every drop logs an entry
        dataset = dataset.with_columns(Columns(region, year, age, sex, kinds, magnitudes, levels).take(order))
    violations = validate_dataset(dataset)
    if violations:
        details = "; ".join(f"{v.locator()}: {v.message}" for v in violations[:10])
        raise CleaningError(
            f"cleaning left {len(violations)} validation violation(s); first: {details}"
        )
    return dataset, CleaningLog(tuple(entries))


def _merge_duplicates(cells: list[tuple]) -> tuple:
    """One (kind, magnitude, uncertainty) cell from replicated ones."""
    level = max(uncertainty for _, _, uncertainty in cells)
    if any(kind is CellKind.SUPPRESSED for kind, _, _ in cells):
        return (CellKind.SUPPRESSED, None, level)
    data = [(kind, magnitude) for kind, magnitude, _ in cells if magnitude is not None]
    if not data:
        return (CellKind.MISSING, None, level)
    if any(kind is not CellKind.COUNT for kind, _ in data):
        raise CleaningError("dedupe_policy=sum only applies to count cells")
    total = sum(magnitude for _, magnitude in data)
    check_cell(CellKind.COUNT, total, level)
    return (CellKind.COUNT, total, level)


def replay(dataset: Dataset, log: CleaningLog) -> Dataset:
    """Re-apply a cleaning log to the raw dataset it was produced from.

    Each `set` entry is checked before it builds a row: its row must be in
    the dataset and its value of the field's type, so a bad log raises
    CleaningError naming the entry instead of building a bad row.
    """
    working: dict[int, tuple] = dict(enumerate(zip(*dataset.columns)))
    for number, entry in enumerate(log.entries, 1):
        if entry.op == "drop":
            working.pop(entry.row, None)
            continue
        where = f"cleaning log entry {number}"
        if entry.row not in working:
            raise CleaningError(f"{where}: row {entry.row} is not in the dataset")
        working[entry.row] = _set_field(working[entry.row], entry.field, entry.after, where)
    replayed = dataset.with_columns(Columns.from_rows([working[i] for i in sorted(working)]))
    return canonical_sort(replayed)
