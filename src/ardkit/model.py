"""Shared domain types for standardized spatio-temporal count data.

Everything downstream (ingest, cleaning, correspondence, privacy, QA, docs)
works on the immutable types defined here.  A record's region is a plain
code in its dataset's (level, edition) scheme: the level and boundary
edition belong to the :class:`Dataset`, never to single records.  A dataset
serializes to one delimited text table whose header names the geography
column after that level and edition (e.g. ``SA3CODE_16``), followed by
``CALENDAR_YEAR, AGE_GROUP, SEX, VALUE, UNCERTAINTY``.

Value-domain rules (non-negative counts, percentage range, token hygiene)
are deliberately *not* enforced by the constructors: dirty datasets must be
representable so that :func:`validate_dataset` can report their problems as
data and the cleaning stage can repair them.  Constructors enforce only
structural rules that serialization depends on.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ArdkitError

Magnitude = int | float | Fraction


class BoundaryEdition(enum.IntEnum):
    """Release years of the statistical geography standard."""

    ASGS2006 = 2006
    ASGS2011 = 2011
    ASGS2016 = 2016
    ASGS2021 = 2021

    @property
    def short_year(self) -> str:
        """Two-digit year used in geography column names ('06', ..., '21')."""
        return f"{self.value % 100:02d}"

    @classmethod
    def from_short_year(cls, short: str) -> "BoundaryEdition":
        for edition in cls:
            if edition.short_year == short:
                return edition
        raise ValueError(f"unknown boundary edition year suffix {short!r}")


class GeoLevel(enum.Enum):
    """Statistical area levels; LGA sits outside the nested ABS hierarchy."""

    MESH_BLOCK = "MB"
    SA1 = "SA1"
    SA2 = "SA2"
    SA3 = "SA3"
    SA4 = "SA4"
    STE = "STE"
    AUS = "AUS"
    LGA = "LGA"

    @property
    def containment_rank(self) -> int | None:
        """Position in the mesh-block-to-country nesting; None for non-ABS LGA."""
        order = {
            GeoLevel.MESH_BLOCK: 0,
            GeoLevel.SA1: 1,
            GeoLevel.SA2: 2,
            GeoLevel.SA3: 3,
            GeoLevel.SA4: 4,
            GeoLevel.STE: 5,
            GeoLevel.AUS: 6,
        }
        return order.get(self)

    def is_within(self, other: "GeoLevel") -> bool:
        """True when this level nests inside `other` in the ABS hierarchy."""
        a, b = self.containment_rank, other.containment_rank
        if a is None or b is None:
            return False
        return a < b


_GEO_COLUMN_RE = re.compile(r"^(MB|SA[1-4]|STE|AUS|LGA)CODE_(\d{2})$")


def geography_column(level: GeoLevel, edition: BoundaryEdition) -> str:
    """Header name of the geography column, e.g. SA3CODE_16."""
    return f"{level.value}CODE_{edition.short_year}"


def parse_geography_column(name: str) -> tuple[GeoLevel, BoundaryEdition] | None:
    """Inverse of :func:`geography_column`; None when the name does not match."""
    m = _GEO_COLUMN_RE.match(name)
    if m is None:
        return None
    try:
        return GeoLevel(m.group(1)), BoundaryEdition.from_short_year(m.group(2))
    except ValueError:
        return None


class UncertaintyLevel(enum.IntEnum):
    """Ordinal tag recording how much approximation touched a value."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


class CellKind(enum.Enum):
    COUNT = "count"
    RATE = "rate"
    PERCENTAGE = "percentage"
    SUPPRESSED = "suppressed"
    MISSING = "missing"


DATA_KINDS = frozenset({CellKind.COUNT, CellKind.RATE, CellKind.PERCENTAGE})


class NestDomain(enum.Enum):
    """The six wellbeing domains an indicator may be filed under."""

    HEALTHY = "healthy"
    MATERIAL_BASICS = "material_basics"
    VALUED_LOVED_SAFE = "valued_loved_safe"
    LEARNING = "learning"
    PARTICIPATING = "participating"
    IDENTITY_CULTURE = "identity_culture"


def _is_magnitude(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, Fraction)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    return False


@dataclass(frozen=True)
class CellValue:
    """A single observed value: a magnitude-bearing kind or a marker kind."""

    kind: CellKind
    magnitude: Magnitude | None
    uncertainty: UncertaintyLevel = UncertaintyLevel.LOW

    def __post_init__(self) -> None:
        if self.kind in DATA_KINDS:
            if not _is_magnitude(self.magnitude):
                raise ArdkitError(
                    f"{self.kind.value} cell needs a finite numeric magnitude, "
                    f"got {self.magnitude!r}"
                )
        elif self.magnitude is not None:
            raise ArdkitError(f"{self.kind.value} cell must not carry a magnitude")
        if not isinstance(self.uncertainty, UncertaintyLevel):
            raise ArdkitError(f"bad uncertainty level {self.uncertainty!r}")

    @classmethod
    def count(cls, magnitude: Magnitude, uncertainty: UncertaintyLevel = UncertaintyLevel.LOW) -> "CellValue":
        return cls(CellKind.COUNT, magnitude, uncertainty)

    @classmethod
    def rate(cls, magnitude: Magnitude, uncertainty: UncertaintyLevel = UncertaintyLevel.LOW) -> "CellValue":
        return cls(CellKind.RATE, magnitude, uncertainty)

    @classmethod
    def percentage(cls, magnitude: Magnitude, uncertainty: UncertaintyLevel = UncertaintyLevel.LOW) -> "CellValue":
        return cls(CellKind.PERCENTAGE, magnitude, uncertainty)

    @classmethod
    def suppressed(cls, uncertainty: UncertaintyLevel = UncertaintyLevel.LOW) -> "CellValue":
        return cls(CellKind.SUPPRESSED, None, uncertainty)

    @classmethod
    def missing(cls, uncertainty: UncertaintyLevel = UncertaintyLevel.LOW) -> "CellValue":
        return cls(CellKind.MISSING, None, uncertainty)

    @property
    def is_data(self) -> bool:
        return self.kind in DATA_KINDS

    def with_uncertainty(self, level: UncertaintyLevel) -> "CellValue":
        return replace(self, uncertainty=level)


def format_magnitude(magnitude: Magnitude) -> str:
    """Shortest decimal text that round-trips through float()."""
    value = float(magnitude) if isinstance(magnitude, Fraction) else magnitude
    if isinstance(value, int):
        return str(value)
    if value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class RecordKey:
    """Identity of one observation: where, when, and which population slice."""

    region: str
    calendar_year: int
    age_group: str
    sex: str
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.region, str):
            raise ArdkitError(f"region code must be a string, got {self.region!r}")
        if isinstance(self.calendar_year, bool) or not isinstance(self.calendar_year, int):
            raise ArdkitError(f"calendar year must be an integer, got {self.calendar_year!r}")
        object.__setattr__(
            self,
            "sort_key",
            (self.region, self.calendar_year, self.age_group, self.sex),
        )

    @property
    def stratum(self) -> tuple[int, str, str]:
        """The (year, age group, sex) slice this key belongs to."""
        return (self.calendar_year, self.age_group, self.sex)

    def describe(self) -> str:
        return f"{self.region}/{self.calendar_year}/{self.age_group}/{self.sex}"


@dataclass(frozen=True)
class StandardRecord:
    """One standardized row: a key plus its cell value."""

    key: RecordKey
    value: CellValue


@dataclass(frozen=True)
class Indicator:
    """Descriptive identity of one measured quantity."""

    id: str
    name: str
    nest_domain: NestDomain
    value_kind: CellKind
    source_id: str
    correspondence_applied: bool = False
    max_uncertainty: UncertaintyLevel = UncertaintyLevel.LOW

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ArdkitError("indicator id must be a non-empty string")
        if self.value_kind not in DATA_KINDS:
            raise ArdkitError(f"indicator value kind must be count/rate/percentage, got {self.value_kind}")
        if not isinstance(self.nest_domain, NestDomain):
            raise ArdkitError(f"unknown wellbeing domain {self.nest_domain!r}")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "nest_domain": self.nest_domain.value,
            "value_kind": self.value_kind.value,
            "source_id": self.source_id,
            "correspondence_applied": self.correspondence_applied,
            "max_uncertainty": int(self.max_uncertainty),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Indicator":
        return cls(
            id=doc["id"],
            name=doc["name"],
            nest_domain=NestDomain(doc["nest_domain"]),
            value_kind=CellKind(doc["value_kind"]),
            source_id=doc["source_id"],
            correspondence_applied=bool(doc.get("correspondence_applied", False)),
            max_uncertainty=UncertaintyLevel(doc.get("max_uncertainty", 0)),
        )


@dataclass(frozen=True)
class Dataset:
    """An indicator's records at one (edition, level)."""

    indicator: Indicator
    records: tuple[StandardRecord, ...]
    edition: BoundaryEdition
    level: GeoLevel

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def with_records(self, records: Iterable[StandardRecord]) -> "Dataset":
        return replace(self, records=tuple(records))

    def years(self) -> tuple[int, ...]:
        return tuple(sorted({r.key.calendar_year for r in self.records}))


@dataclass(frozen=True)
class Violation:
    """One invariant breach, located by record index (None = dataset level)."""

    rule: str
    row: int | None
    message: str

    def locator(self) -> str:
        return "dataset" if self.row is None else f"row {self.row}"


# Violation rule identifiers; QA maps these onto its own rule registry.
V_DUPLICATE_KEY = "duplicate-key"
V_NEGATIVE = "negative-count"
V_PERCENTAGE_RANGE = "percentage-range"
V_KIND = "kind-mismatch"
V_TOKEN = "bad-token"
V_VOCABULARY = "vocabulary"

_FORBIDDEN_TOKEN_CHARS = (",", "\n", "\r")


def _token_problem(token: str) -> str | None:
    if token == "":
        return "empty token"
    for ch in _FORBIDDEN_TOKEN_CHARS:
        if ch in token:
            return "token contains a delimiter character"
    if token != token.strip():
        return "token has leading or trailing whitespace"
    return None


def validate_dataset(
    dataset: Dataset,
    vocabulary: "Vocabulary | None" = None,
) -> list[Violation]:
    """Report every invariant violation with a row locator; empty list = ok."""
    violations: list[Violation] = []
    seen: dict[tuple, list[int]] = {}
    for i, record in enumerate(dataset.records):
        key, value = record.key, record.value
        for label, token in (("geography code", key.region), ("age group", key.age_group), ("sex", key.sex)):
            problem = _token_problem(token)
            if problem is not None:
                violations.append(Violation(V_TOKEN, i, f"{label} {token!r}: {problem}"))
        if value.is_data and value.kind is not dataset.indicator.value_kind:
            violations.append(
                Violation(
                    V_KIND,
                    i,
                    f"cell kind {value.kind.value} does not match indicator "
                    f"kind {dataset.indicator.value_kind.value}",
                )
            )
        if value.is_data and value.magnitude < 0:
            violations.append(Violation(V_NEGATIVE, i, f"negative magnitude {format_magnitude(value.magnitude)}"))
        if value.kind is CellKind.PERCENTAGE and value.magnitude is not None:
            if not (0 <= value.magnitude <= 100):
                violations.append(
                    Violation(V_PERCENTAGE_RANGE, i, f"percentage out of range: {format_magnitude(value.magnitude)}")
                )
        if vocabulary is not None:
            if vocabulary.age_groups and key.age_group not in vocabulary.age_groups:
                violations.append(Violation(V_VOCABULARY, i, f"age group {key.age_group!r} not in vocabulary"))
            if vocabulary.sexes and key.sex not in vocabulary.sexes:
                violations.append(Violation(V_VOCABULARY, i, f"sex {key.sex!r} not in vocabulary"))
        seen.setdefault(key.sort_key, []).append(i)
    for sort_key, rows in sorted(seen.items()):
        if len(rows) > 1:
            for i in rows:
                violations.append(
                    Violation(V_DUPLICATE_KEY, i, f"duplicate key {'/'.join(map(str, sort_key))}")
                )
    violations.sort(key=lambda v: (v.row if v.row is not None else -1, v.rule, v.message))
    return violations


@dataclass(frozen=True)
class Vocabulary:
    """Controlled filter-token vocabulary declared per project."""

    age_groups: frozenset[str] = frozenset()
    sexes: frozenset[str] = frozenset()
    marginal_tokens: frozenset[str] = frozenset({"total", "all", "persons"})

    @classmethod
    def from_json(cls, doc: Mapping) -> "Vocabulary":
        return cls(
            age_groups=frozenset(doc.get("age_groups", ())),
            sexes=frozenset(doc.get("sexes", ())),
            marginal_tokens=frozenset(t.lower() for t in doc.get("marginal_tokens", ("total", "all", "persons"))),
        )


def canonical_sort(dataset: Dataset) -> Dataset:
    """Order records by (geography code, year, age group, sex); idempotent."""
    return dataset.with_records(sorted(dataset.records, key=lambda r: r.key.sort_key))


def refresh_indicator(dataset: Dataset) -> Dataset:
    """Re-derive the indicator's max uncertainty from the surviving records."""
    worst = max(
        (r.value.uncertainty for r in dataset.records),
        default=UncertaintyLevel.LOW,
    )
    if worst == dataset.indicator.max_uncertainty:
        return dataset
    return replace(dataset, indicator=replace(dataset.indicator, max_uncertainty=worst))


def finalize(dataset: Dataset) -> Dataset:
    """Canonical form every operation returns: sorted, indicator refreshed."""
    return refresh_indicator(canonical_sort(dataset))


CSV_COLUMNS = ("CALENDAR_YEAR", "AGE_GROUP", "SEX", "VALUE", "UNCERTAINTY")
SUPPRESSED_TOKEN = "S"


def write_csv(dataset: Dataset) -> str:
    """Canonical delimited-text rendering (UTF-8, comma, LF)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([geography_column(dataset.level, dataset.edition), *CSV_COLUMNS])
    for record in dataset.records:
        value = record.value
        if value.kind is CellKind.SUPPRESSED:
            rendered = SUPPRESSED_TOKEN
        elif value.kind is CellKind.MISSING:
            rendered = ""
        else:
            rendered = format_magnitude(value.magnitude)
        writer.writerow(
            [
                record.key.region,
                record.key.calendar_year,
                record.key.age_group,
                record.key.sex,
                rendered,
                int(value.uncertainty),
            ]
        )
    return out.getvalue()


def read_csv(text: str, indicator: Indicator) -> Dataset:
    """Parse a canonical dataset file back into a Dataset."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ArdkitError("dataset file is empty")
    header = rows[0]
    if len(header) != 6 or tuple(header[1:]) != CSV_COLUMNS:
        raise ArdkitError(f"unexpected dataset header {header!r}")
    parsed = parse_geography_column(header[0])
    if parsed is None:
        raise ArdkitError(f"unrecognized geography column {header[0]!r}")
    level, edition = parsed
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 6:
            raise ArdkitError(f"line {lineno}: expected 6 fields, got {len(row)}")
        code, year, age, sex, value_text, uncertainty_text = row
        uncertainty = UncertaintyLevel(int(uncertainty_text))
        if value_text == SUPPRESSED_TOKEN:
            value = CellValue.suppressed(uncertainty)
        elif value_text == "":
            value = CellValue.missing(uncertainty)
        else:
            value = CellValue(indicator.value_kind, float(value_text), uncertainty)
        key = RecordKey(code, int(year), age, sex)
        records.append(StandardRecord(key, value))
    return Dataset(indicator=indicator, records=tuple(records), edition=edition, level=level)


def round_counts(dataset: Dataset) -> Dataset:
    """Round fractional counts to integers, preserving each stratum's total.

    Uses largest-remainder reconciliation: floors every count in a
    (year, age group, sex) stratum, then hands out the remaining units to
    the cells with the largest fractional parts (ties to canonical order).
    """
    if dataset.indicator.value_kind is not CellKind.COUNT:
        return dataset
    ordered = canonical_sort(dataset)
    by_stratum: dict[tuple, list[int]] = {}
    for i, record in enumerate(ordered.records):
        if record.value.kind is CellKind.COUNT:
            by_stratum.setdefault(record.key.stratum, []).append(i)
    new_values: dict[int, int] = {}
    for stratum in sorted(by_stratum):
        indices = by_stratum[stratum]
        magnitudes = [Fraction(ordered.records[i].value.magnitude) for i in indices]
        floors = [int(m) for m in magnitudes]
        total = sum(magnitudes)
        target = int(total) + (1 if total - int(total) >= Fraction(1, 2) else 0)
        leftover = target - sum(floors)
        remainders = sorted(
            range(len(indices)),
            key=lambda j: (-(magnitudes[j] - floors[j]), j),
        )
        bumped = set(remainders[:leftover])
        for j, i in enumerate(indices):
            new_values[i] = floors[j] + (1 if j in bumped else 0)
    records = []
    for i, record in enumerate(ordered.records):
        if i in new_values:
            records.append(
                StandardRecord(record.key, replace(record.value, magnitude=new_values[i]))
            )
        else:
            records.append(record)
    return ordered.with_records(records)
