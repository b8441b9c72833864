"""Raw-table parsing, declarative schema mappings, and the source registry.

A schema mapping binds raw column names to the standardized roles
(geography code, calendar year, age group, sex, value) and declares the
value kind, the missing-value tokens the custodian uses, and the layout:
``long`` (one value column) or ``wide_by_year`` (one column per year).
Parsing never drops a row silently: every unmappable logical row lands in
the parse report with a reason, and every emitted record is traceable to
its input cell through the report's lineage section.
"""

from __future__ import annotations

import csv
import datetime
import enum
import io
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import IngestError
from .jsonio import digest_doc, validate_against_schema
from .model import (
    BoundaryEdition,
    CellKind,
    CellValue,
    DATA_KINDS,
    Dataset,
    GeoLevel,
    Indicator,
    RecordKey,
    StandardRecord,
    canonical_sort,
    parse_geography_column,
)


class AccessMode(enum.Enum):
    PUBLIC = "public"
    REQUEST = "request"
    CUSTOM_DOWNLOAD = "custom_download"


@dataclass(frozen=True)
class SourceDescriptor:
    """Where a dataset came from and how it was collected."""

    source_id: str
    name: str
    custodian: str
    access_mode: AccessMode
    collection_start: datetime.date
    collection_end: datetime.date
    url_or_locator: str

    def __post_init__(self) -> None:
        if not self.source_id:
            raise IngestError("source_id must be non-empty")
        if self.collection_start > self.collection_end:
            raise IngestError(
                f"source {self.source_id}: inverted collection window "
                f"({self.collection_start} after {self.collection_end})"
            )

    def to_json(self) -> dict:
        return {
            "source_id": self.source_id,
            "name": self.name,
            "custodian": self.custodian,
            "access_mode": self.access_mode.value,
            "collection_start": self.collection_start.isoformat(),
            "collection_end": self.collection_end.isoformat(),
            "url_or_locator": self.url_or_locator,
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "SourceDescriptor":
        validate_against_schema(dict(doc), "source.schema.json", IngestError)
        return cls(
            source_id=doc["source_id"],
            name=doc["name"],
            custodian=doc["custodian"],
            access_mode=AccessMode(doc["access_mode"]),
            collection_start=datetime.date.fromisoformat(doc["collection_start"]),
            collection_end=datetime.date.fromisoformat(doc["collection_end"]),
            url_or_locator=doc["url_or_locator"],
        )


@dataclass(frozen=True)
class SourceRegistry:
    """Registry of every discovered source, unique by source_id."""

    sources: tuple[SourceDescriptor, ...] = ()

    def get(self, source_id: str) -> SourceDescriptor | None:
        for source in self.sources:
            if source.source_id == source_id:
                return source
        return None

    def to_json(self) -> dict:
        return {"sources": [s.to_json() for s in self.sources]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "SourceRegistry":
        registry = cls()
        for item in doc.get("sources", ()):
            registry = register_source(registry, SourceDescriptor.from_json(item))
        return registry


def register_source(registry: SourceRegistry, source: SourceDescriptor) -> SourceRegistry:
    """Add a source; duplicate ids are rejected naming the collision."""
    if registry.get(source.source_id) is not None:
        raise IngestError(f"duplicate source {source.source_id!r} already registered")
    sources = tuple(sorted([*registry.sources, source], key=lambda s: s.source_id))
    return SourceRegistry(sources)


class Layout(enum.Enum):
    LONG = "long"
    WIDE_BY_YEAR = "wide_by_year"


@dataclass(frozen=True)
class SchemaMapping:
    """Declarative binding of raw columns to standardized roles."""

    layout: Layout
    geography_code_column: str
    age_group_column: str
    sex_column: str
    value_kind: CellKind
    calendar_year_column: str | None = None
    value_column: str | None = None
    year_columns: tuple[str, ...] = ()
    level: GeoLevel | None = None
    edition: BoundaryEdition | None = None
    level_column: str | None = None
    edition_column: str | None = None
    missing_tokens: frozenset[str] = frozenset({""})
    delimiter: str = ","

    def __post_init__(self) -> None:
        if self.value_kind not in DATA_KINDS:
            raise IngestError("mapping value_kind must be count, rate, or percentage")
        if self.layout is Layout.LONG:
            if not self.value_column or not self.calendar_year_column:
                raise IngestError("long layout needs calendar_year and value column bindings")
            if self.year_columns:
                raise IngestError("year_columns only apply to the wide_by_year layout")
        else:
            if not self.year_columns:
                raise IngestError("wide_by_year layout needs at least one year column")
            if self.value_column:
                raise IngestError("wide_by_year layout must not bind a value column")
            for name in self.year_columns:
                if not re.fullmatch(r"\d{4}", name.strip()):
                    raise IngestError(f"year column {name!r} is not a four-digit year")
        if (self.level is None) == (self.level_column is None):
            raise IngestError("bind the geography level as exactly one of a constant or a column")
        if (self.edition is None) == (self.edition_column is None):
            raise IngestError("bind the boundary edition as exactly one of a constant or a column")

    def bound_columns(self) -> tuple[str, ...]:
        columns = [self.geography_code_column, self.age_group_column, self.sex_column]
        for name in (self.calendar_year_column, self.value_column, self.level_column, self.edition_column):
            if name:
                columns.append(name)
        columns.extend(self.year_columns)
        return tuple(columns)

    @classmethod
    def from_json(cls, doc: Mapping) -> "SchemaMapping":
        validate_against_schema(_plain(doc), "mapping.schema.json", IngestError)
        columns = doc["columns"]
        geography = doc.get("geography", {})
        return cls(
            layout=Layout(doc["layout"]),
            geography_code_column=columns["geography_code"],
            age_group_column=columns["age_group"],
            sex_column=columns["sex"],
            value_kind=CellKind(doc["value_kind"]),
            calendar_year_column=columns.get("calendar_year"),
            value_column=columns.get("value"),
            year_columns=tuple(doc.get("year_columns", ())),
            level=GeoLevel(geography["level"]) if "level" in geography else None,
            edition=BoundaryEdition(geography["edition"]) if "edition" in geography else None,
            level_column=columns.get("geography_level"),
            edition_column=columns.get("boundary_edition"),
            missing_tokens=frozenset(doc.get("missing_tokens", [""])),
            delimiter=doc.get("delimiter", ","),
        )

    def to_json(self) -> dict:
        columns = {
            "geography_code": self.geography_code_column,
            "age_group": self.age_group_column,
            "sex": self.sex_column,
        }
        if self.calendar_year_column:
            columns["calendar_year"] = self.calendar_year_column
        if self.value_column:
            columns["value"] = self.value_column
        if self.level_column:
            columns["geography_level"] = self.level_column
        if self.edition_column:
            columns["boundary_edition"] = self.edition_column
        doc: dict = {
            "layout": self.layout.value,
            "columns": columns,
            "value_kind": self.value_kind.value,
            "missing_tokens": sorted(self.missing_tokens),
            "delimiter": self.delimiter,
        }
        geography = {}
        if self.level is not None:
            geography["level"] = self.level.value
        if self.edition is not None:
            geography["edition"] = int(self.edition)
        if geography:
            doc["geography"] = geography
        if self.year_columns:
            doc["year_columns"] = list(self.year_columns)
        return doc


def _plain(doc) -> dict:
    """Deep-copy a mapping into plain dicts/lists for jsonschema."""
    import json

    return json.loads(json.dumps(doc))


@dataclass(frozen=True)
class Reject:
    row: int
    reason: str

    def to_json(self) -> dict:
        return {"row": self.row, "reason": self.reason}


@dataclass(frozen=True)
class LineageEntry:
    row: int
    column: str
    key: str

    def to_json(self) -> dict:
        return {"row": self.row, "column": self.column, "key": self.key}


@dataclass(frozen=True)
class ParseReport:
    """Row accounting for one parse: records_out + rejects == logical rows in."""

    rows_in: int
    records_out: int
    rejects: tuple[Reject, ...]
    lineage: tuple[LineageEntry, ...]
    lineage_digest: str

    def to_json(self) -> dict:
        return {
            "rows_in": self.rows_in,
            "records_out": self.records_out,
            "rejects": [r.to_json() for r in self.rejects],
            "lineage": [entry.to_json() for entry in self.lineage],
            "lineage_digest": self.lineage_digest,
        }


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not valid UTF-8 at byte offset {exc.start}") from None


def _parse_year(token: str) -> int:
    token = token.strip()
    if not re.fullmatch(r"-?\d+", token):
        raise ValueError(token)
    return int(token)


def _parse_magnitude(token: str, kind: CellKind) -> float:
    text = token.strip()
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unparseable value {token!r}") from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {token!r}")
    if value < 0:
        raise ValueError(f"negative value {token!r}")
    if kind is CellKind.COUNT and not value.is_integer():
        raise ValueError(f"count not a non-negative integer: {token!r}")
    return value


def parse_raw(
    data: bytes | str,
    mapping: SchemaMapping,
    indicator: Indicator,
) -> tuple[Dataset, ParseReport]:
    """Parse a delimited raw table into a canonically sorted Dataset.

    Row numbers in the report are raw file line numbers (the header is
    line 1).  In the wide layout each (row, year column) pair is one
    logical row.
    """
    if mapping.value_kind is not indicator.value_kind:
        raise IngestError(
            f"mapping declares {mapping.value_kind.value} values but indicator "
            f"{indicator.id} expects {indicator.value_kind.value}"
        )
    text = _decode(data)
    reader = csv.reader(io.StringIO(text), delimiter=mapping.delimiter)
    rows = list(reader)
    if not rows or not rows[0]:
        raise IngestError("raw table has no header row")
    header = [h.strip() for h in rows[0]]
    missing_columns = [c for c in mapping.bound_columns() if c not in header]
    if missing_columns:
        raise IngestError(f"bound columns missing from header: {', '.join(sorted(missing_columns))}")
    position = {name: header.index(name) for name in header}

    def cell(row: Sequence[str], column: str) -> str:
        index = position[column]
        return row[index] if index < len(row) else ""

    # Resolve the level/edition for the whole file; mixed files are rejected.
    levels: dict[GeoLevel, int] = {}
    editions: dict[BoundaryEdition, int] = {}
    data_rows = [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]
    if mapping.level is not None:
        levels[mapping.level] = 0
    if mapping.edition is not None:
        editions[mapping.edition] = 0
    for lineno, row in data_rows:
        if mapping.level_column:
            token = cell(row, mapping.level_column).strip()
            try:
                levels[GeoLevel(token)] = lineno
            except ValueError:
                raise IngestError(f"line {lineno}: unknown geography level {token!r}") from None
        if mapping.edition_column:
            token = cell(row, mapping.edition_column).strip()
            try:
                editions[BoundaryEdition(int(token))] = lineno
            except ValueError:
                raise IngestError(f"line {lineno}: unknown boundary edition {token!r}") from None
    if len(levels) != 1:
        raise IngestError(
            "mixed geography levels in one file: " + ", ".join(sorted(l.value for l in levels))
        )
    if len(editions) != 1:
        raise IngestError(
            "mixed boundary editions in one file: " + ", ".join(str(int(e)) for e in sorted(editions))
        )
    level = next(iter(levels))
    edition = next(iter(editions))

    year_multiplier = len(mapping.year_columns) if mapping.layout is Layout.WIDE_BY_YEAR else 1
    rows_in = len(data_rows) * year_multiplier
    rejects: list[Reject] = []
    records: list[StandardRecord] = []
    lineage: list[LineageEntry] = []

    for lineno, row in data_rows:
        code = cell(row, mapping.geography_code_column)
        age = cell(row, mapping.age_group_column)
        sex = cell(row, mapping.sex_column)
        row_problem: str | None = None
        if not code.strip():
            row_problem = "empty geography code"
        elif not age.strip():
            row_problem = "empty age group"
        elif not sex.strip():
            row_problem = "empty sex"
        if row_problem is not None:
            rejects.extend(Reject(lineno, row_problem) for _ in range(year_multiplier))
            continue
        if mapping.layout is Layout.LONG:
            logical = [(mapping.value_column, cell(row, mapping.calendar_year_column))]
        else:
            logical = [(yc, yc) for yc in mapping.year_columns]
        for value_column, year_token in logical:
            try:
                year = _parse_year(year_token)
            except ValueError:
                rejects.append(Reject(lineno, f"calendar year not an integer: {year_token.strip()!r}"))
                continue
            token = cell(row, value_column)
            stripped = token.strip()
            if stripped in mapping.missing_tokens or token in mapping.missing_tokens:
                value = CellValue.missing()
            else:
                try:
                    magnitude = _parse_magnitude(token, mapping.value_kind)
                except ValueError as exc:
                    rejects.append(Reject(lineno, str(exc)))
                    continue
                if mapping.value_kind is CellKind.COUNT:
                    magnitude = int(magnitude)
                value = CellValue(mapping.value_kind, magnitude)
            key = RecordKey(code, year, age, sex)
            records.append(StandardRecord(key, value))
            lineage.append(LineageEntry(lineno, value_column, key.describe()))
    dataset = canonical_sort(Dataset(indicator, tuple(records), edition, level))
    lineage_sorted = tuple(sorted(lineage, key=lambda e: (e.row, e.column, e.key)))
    report = ParseReport(
        rows_in=rows_in,
        records_out=len(records),
        rejects=tuple(sorted(rejects, key=lambda r: (r.row, r.reason))),
        lineage=lineage_sorted,
        lineage_digest=digest_doc([entry.to_json() for entry in lineage_sorted]),
    )
    return dataset, report


@dataclass(frozen=True)
class ColumnGuess:
    role: str
    column: str
    evidence: str
    unconfirmed: bool = True

    def to_json(self) -> dict:
        return {
            "role": self.role,
            "column": self.column,
            "evidence": self.evidence,
            "unconfirmed": self.unconfirmed,
        }


@dataclass(frozen=True)
class MappingDraft:
    """Best-effort column-role guesses; never usable without confirmation."""

    guesses: tuple[ColumnGuess, ...] = ()
    layout_guess: Layout | None = None
    level_guess: GeoLevel | None = None
    edition_guess: BoundaryEdition | None = None

    def to_json(self) -> dict:
        return {
            "unconfirmed": True,
            "guesses": [g.to_json() for g in self.guesses],
            "layout_guess": self.layout_guess.value if self.layout_guess else None,
            "level_guess": self.level_guess.value if self.level_guess else None,
            "edition_guess": int(self.edition_guess) if self.edition_guess else None,
        }


_YEAR_COLUMN_RE = re.compile(r"^(19|20)\d{2}$")
_ROLE_NAMES = {
    "calendar_year": {"CALENDAR_YEAR", "YEAR"},
    "age_group": {"AGE_GROUP", "AGE", "AGEGROUP"},
    "sex": {"SEX", "GENDER"},
    "value": {"VALUE", "DATA", "COUNT", "N"},
}


def detect_characteristics(data: bytes | str) -> MappingDraft:
    """Guess column roles from the header; every guess is marked unconfirmed."""
    text = _decode(data)
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise IngestError("raw table has no header row") from None
    guesses: list[ColumnGuess] = []
    level_guess: GeoLevel | None = None
    edition_guess: BoundaryEdition | None = None
    year_like: list[str] = []
    for name in header:
        parsed = parse_geography_column(name)
        if parsed is not None:
            level_guess, edition_guess = parsed
            guesses.append(ColumnGuess("geography_code", name, "matches the standardized geography column pattern"))
            continue
        if _YEAR_COLUMN_RE.match(name):
            year_like.append(name)
            continue
        for role, names in _ROLE_NAMES.items():
            if name.upper() in names:
                guesses.append(ColumnGuess(role, name, f"column name {name!r} matches the {role} role"))
                break
    layout_guess: Layout | None = None
    if len(year_like) >= 2:
        layout_guess = Layout.WIDE_BY_YEAR
        for name in year_like:
            guesses.append(ColumnGuess("year_column", name, "four-digit year column name"))
    elif guesses:
        layout_guess = Layout.LONG
    return MappingDraft(
        guesses=tuple(guesses),
        layout_guess=layout_guess,
        level_guess=level_guess,
        edition_guess=edition_guess,
    )
