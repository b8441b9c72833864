"""Raw-table parsing, declarative schema mappings, and source descriptors.

A source descriptor records where a dataset came from; the pipeline
writes the configured descriptors, sorted by id, to ``registry.json``.

A schema mapping binds raw column names to the standardized roles
(geography code, calendar year, age group, sex, value) and declares the
table's one geography level and boundary edition, the value kind, the
missing-value tokens the custodian uses, and the layout: ``long`` (one
value column) or ``wide_by_year`` (one column per year).
Parsing never drops a row silently: every unmappable logical row lands in
the parse report with a reason, and every emitted record is traceable to
its input cell through the lineage file, one
``REGION,CALENDAR_YEAR,AGE_GROUP,SEX,RAW_ROW,RAW_COLUMN`` line per record
in the parsed dataset's own order, whose SHA-256 the report carries.
"""

from __future__ import annotations

import datetime
import enum
import re
from itertools import chain, compress, islice, repeat
from math import isfinite
from operator import floordiv, itemgetter, mod, not_, or_
from typing import Mapping, NamedTuple, Sequence

from .errors import IngestError
from .jsonio import decode_utf8, sha256_hex, validate_against_schema
from .model import (
    CHUNK_ROWS,
    KEY_COLUMNS,
    BoundaryEdition,
    CellKind,
    Checked,
    Columns,
    DATA_KINDS,
    Dataset,
    GeoLevel,
    Indicator,
    UncertaintyLevel,
    _ascii_int,
    _csv_token,
    csv_rows,
    ledger_csv,
    parse_geography_column,
)


class AccessMode(enum.Enum):
    PUBLIC = "public"
    REQUEST = "request"
    CUSTOM_DOWNLOAD = "custom_download"


class _SourceFields(NamedTuple):
    source_id: str
    name: str
    custodian: str
    access_mode: AccessMode
    collection_start: datetime.date
    collection_end: datetime.date
    url_or_locator: str


class SourceDescriptor(Checked, _SourceFields):
    """Where a dataset came from and how it was collected."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.source_id:
            raise IngestError("source_id must be non-empty")
        if self.collection_start > self.collection_end:
            raise IngestError(
                f"source {self.source_id}: inverted collection window "
                f"({self.collection_start} after {self.collection_end})"
            )
        return self

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
        validate_against_schema(doc, "source.schema.json", IngestError)
        dates = {}
        for key in ("collection_start", "collection_end"):
            try:
                dates[key] = datetime.date.fromisoformat(doc[key])
            except ValueError:
                raise IngestError(f"source {doc['source_id']}: {key} {doc[key]!r} is not a calendar date") from None
        return cls(
            source_id=doc["source_id"],
            name=doc["name"],
            custodian=doc["custodian"],
            access_mode=AccessMode(doc["access_mode"]),
            url_or_locator=doc["url_or_locator"],
            **dates,
        )


class Layout(enum.Enum):
    LONG = "long"
    WIDE_BY_YEAR = "wide_by_year"


class _MappingFields(NamedTuple):
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
    missing_tokens: frozenset[str] = frozenset({""})
    delimiter: str = ","


class SchemaMapping(Checked, _MappingFields):
    """Declarative binding of raw columns to standardized roles."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
            for i, name in enumerate(self.year_columns):
                if not re.fullmatch(r"[0-9]{4}", name.strip()):
                    raise IngestError(f"year column {name!r} is not a four-digit year")
                if name.strip() in map(str.strip, self.year_columns[:i]):
                    raise IngestError(f"year column {name!r} repeats year {name.strip()}")
        if self.level is None or self.edition is None:
            raise IngestError("a mapping declares both its geography level and its boundary edition")
        return self

    def bound_columns(self) -> tuple[str, ...]:
        columns = [self.geography_code_column, self.age_group_column, self.sex_column]
        for name in (self.calendar_year_column, self.value_column):
            if name:
                columns.append(name)
        columns.extend(self.year_columns)
        return tuple(columns)

    @classmethod
    def from_json(cls, doc: Mapping) -> "SchemaMapping":
        validate_against_schema(doc, "mapping.schema.json", IngestError)
        columns = doc["columns"]
        geography = doc["geography"]
        return cls(
            layout=Layout(doc["layout"]),
            geography_code_column=columns["geography_code"],
            age_group_column=columns["age_group"],
            sex_column=columns["sex"],
            value_kind=CellKind(doc["value_kind"]),
            calendar_year_column=columns.get("calendar_year"),
            value_column=columns.get("value"),
            year_columns=tuple(doc.get("year_columns", ())),
            level=GeoLevel(geography["level"]),
            edition=BoundaryEdition(geography["edition"]),
            missing_tokens=frozenset(doc.get("missing_tokens", [""])),
            delimiter=doc.get("delimiter", ","),
        )


class Reject(NamedTuple):
    row: int
    reason: str

    def to_json(self) -> dict:
        return {"row": self.row, "reason": self.reason}


LINEAGE_COLUMNS = (*KEY_COLUMNS, "RAW_ROW", "RAW_COLUMN")


class ParseReport(NamedTuple):
    """Row accounting for one parse: records_out + rejects == logical rows in.

    `lineage_csv` is the rendered lineage file; `lineage_digest` is the
    SHA-256 of its UTF-8 bytes, the only trace of it in the report itself.
    """

    rows_in: int
    records_out: int
    rejects: tuple[Reject, ...]
    lineage_csv: str
    lineage_digest: str

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self) if n != "lineage_csv")
        return f"ParseReport({shown})"

    def to_json(self) -> dict:
        return {
            "rows_in": self.rows_in,
            "records_out": self.records_out,
            "rejects": [r.to_json() for r in self.rejects],
            "lineage_digest": self.lineage_digest,
        }


def _parse_magnitude(token: str, kind: CellKind) -> float:
    text = token.strip()
    try:
        if not text.isascii() or "_" in text:  # `float` also takes `1_000` and non-ASCII digits
            raise ValueError
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


def _value_decision(token: str, missing_tokens: frozenset[str], kind: CellKind) -> tuple | str:
    """A value token's (kind, magnitude) cell, or the reason its row is rejected."""
    if token.strip() in missing_tokens or token in missing_tokens:
        return (CellKind.MISSING, None)
    try:
        magnitude = _parse_magnitude(token, kind)
    except ValueError as exc:
        return str(exc)
    return (kind, int(magnitude) if kind is CellKind.COUNT else magnitude)


def _value_decisions(tokens: Sequence[str], missing_tokens: frozenset[str], kind: CellKind) -> dict[str, tuple | str]:
    """`_value_decision` of each of the distinct `tokens`, decided in bulk.

    Missing tokens are set aside by set membership, on the raw and the
    stripped text; the rest go through one ``map(float, …)`` and C-level
    checks: ASCII without `_`, finite, non-negative and, for counts,
    integral.  Only when that raises or a check fails are they decided one
    by one.
    """
    stripped = list(map(str.strip, tokens))
    missing = list(map(or_, map(missing_tokens.__contains__, tokens), map(missing_tokens.__contains__, stripped)))
    decided: dict[str, tuple | str] = dict.fromkeys(compress(tokens, missing), (CellKind.MISSING, None))
    present = list(map(not_, missing))
    rest = list(compress(tokens, present))
    joined = "".join(rest)
    try:
        magnitudes = list(map(float, compress(stripped, present)))
        bulk = joined.isascii() and "_" not in joined and all(map(isfinite, magnitudes)) and min(magnitudes, default=0.0) >= 0
    except ValueError:
        bulk = False
    if bulk and kind is CellKind.COUNT and all(map(float.is_integer, magnitudes)):
        decided.update(zip(rest, zip(repeat(kind), map(int, magnitudes))))
    elif bulk and kind is not CellKind.COUNT:
        decided.update(zip(rest, zip(repeat(kind), magnitudes)))
    else:
        decided.update((token, _value_decision(token, missing_tokens, kind)) for token in rest)
    return decided


def parse_raw(
    data: bytes | str,
    mapping: SchemaMapping,
    indicator: Indicator,
) -> tuple[Dataset, ParseReport]:
    """Parse a delimited raw table into a canonically sorted Dataset.

    Row numbers in the report are raw file line numbers (the header is
    line 1).  In the wide layout each (row, year column) pair is one
    logical row, in row-major order.

    The level and edition are the mapping's.  The rows are read
    `CHUNK_ROWS` at a time and decided a column at a time: each distinct
    key, year and value token is decided once, and only the rows a decision
    flags (short rows, blank lines, rejects) are visited one by one.
    So a parse holds one chunk of raw fields beside the records' columns,
    never the raw table as lists of strings.  One sort permutation puts
    the records in canonical order.
    """
    if mapping.value_kind is not indicator.value_kind:
        raise IngestError(
            f"mapping declares {mapping.value_kind.value} values but indicator "
            f"{indicator.id} expects {indicator.value_kind.value}"
        )
    text = decode_utf8(data, IngestError, "raw table")
    # The rows are read a chunk at a time (see `decide` below), so the raw
    # table is never held as lists of strings beside the records.
    reader = csv_rows(text, IngestError, mapping.delimiter)
    header = [h.strip() for h in next(reader, [])]
    if not header:
        raise IngestError("raw table has no header row")
    missing_columns = [c for c in mapping.bound_columns() if c not in header]
    if missing_columns:
        raise IngestError(f"bound columns missing from header: {', '.join(sorted(missing_columns))}")
    repeated = sorted({c for c in mapping.bound_columns() if header.count(c) > 1})
    if repeated:
        raise IngestError(f"bound columns appear more than once in header: {', '.join(repeated)}")
    position = {name: header.index(name) for name in header}

    wide = mapping.layout is Layout.WIDE_BY_YEAR
    value_columns = mapping.year_columns if wide else (mapping.value_column,)
    m, width, value_kind = len(value_columns), len(header), mapping.value_kind
    bound = [mapping.geography_code_column, mapping.age_group_column, mapping.sex_column, *value_columns]
    bound += [mapping.calendar_year_column] * (not wide)
    getter = itemgetter(*map(position.__getitem__, bound))

    # Tokens repeat across rows, so each distinct one is decided once: a key
    # token to the one str object kept for it, a year or value token to a
    # year or a (kind, magnitude) cell, or to the reason its row is rejected.
    tokens: dict[str, str] = {}
    blank: set[str] = set()
    years: dict[str, int | str] = {}
    cells: dict[str, tuple | str] = {}

    # The records so far, in row-major order; `at` holds each one's line * m + value column index.
    region, year, age, sex, cell, at = [], [], [], [], [], []
    rejects: list[Reject] = []

    def decide(chunk: list[list[str]], lines: Sequence[int]) -> None:
        """Append one chunk's records and rejects."""
        if min(map(len, chunk)) < width:
            chunk = [row + [""] * (width - len(row)) for row in chunk]
        codes, ages, sexes, *rest = getter(list(zip(*chunk)))  # every row holds at least `width` fields
        distinct = set(codes).union(ages, sexes)
        for token in distinct.difference(tokens):
            tokens[token] = token
            if not token.strip():
                blank.add(token)
        blank_here = blank & distinct
        if wide:  # each year column of a row is one logical row, row-major
            codes, ages, sexes = (tuple(chain.from_iterable(map(repeat, c, repeat(m)))) for c in (codes, ages, sexes))
            year_tokens, values = value_columns * len(chunk), tuple(chain.from_iterable(zip(*rest[:m])))
        else:
            values, year_tokens = rest[0], rest[1]
        ats = range(lines.start * m, lines.stop * m) if isinstance(lines, range) else [
            line * m + j for line in lines for j in range(m)
        ]
        for token in set(year_tokens).difference(years):
            try:
                years[token] = _ascii_int(token.strip())
            except ValueError:
                years[token] = f"calendar year not an integer: {token.strip()!r}"
        cells.update(_value_decisions(list(set(values).difference(cells)), mapping.missing_tokens, value_kind))
        bad_years = {token for token in set(year_tokens) if isinstance(years[token], str)}
        bad_cells = {token for token in set(values) if isinstance(cells[token], str)}
        logical = [codes, ages, sexes, year_tokens, values, ats]
        if blank_here or bad_years or bad_cells:
            # A blank key token rejects every logical row of its line, before
            # a bad year, before a bad value; only the flagged rows are visited.
            flagged = set()
            for bad, column in zip((blank_here, blank_here, blank_here, bad_years, bad_cells), logical):
                flagged.update(compress(range(len(values)), map(bad.__contains__, column)) if bad else ())
            keep = bytearray(b"\x01") * len(values)
            for k in flagged:
                keep[k] = 0
                if codes[k] in blank:
                    reason = "empty geography code"
                elif ages[k] in blank:
                    reason = "empty age group"
                elif sexes[k] in blank:
                    reason = "empty sex"
                else:
                    reason = years[year_tokens[k]] if year_tokens[k] in bad_years else cells[values[k]]
                rejects.append(Reject(ats[k] // m, reason))
            logical = [tuple(compress(column, keep)) for column in logical]
        # Every field is decided above: the code is a str, the year an int
        # and the magnitude finite, so the records need no other check.
        for column, memo, out in zip(logical, (tokens, tokens, tokens, years, cells), (region, age, sex, year, cell)):
            out.extend(map(memo.__getitem__, column))
        at.extend(logical[5])

    data_rows, first_line = 0, 2
    while True:
        chunk = list(islice(reader, CHUNK_ROWS))
        read = len(chunk)
        lines: Sequence[int] = range(first_line, first_line + read)
        first_line += read
        if not all(chunk):  # a blank line is no row, but keeps its line number
            lines, chunk = list(compress(lines, chunk)), list(filter(None, chunk))
        if chunk:
            data_rows += len(chunk)
            decide(chunk, lines)
        if read < CHUNK_ROWS:
            break
    del chunk, lines  # the last chunk's raw fields are not kept beside the records
    # One stable sort by key puts the records in canonical order; equal keys keep row-major order.
    keys = list(zip(region, year, age, sex))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    columns = Columns(
        *(tuple(map(column.__getitem__, order)) for column in (region, year, age, sex)),
        *(tuple(map(itemgetter(i), map(cell.__getitem__, order))) for i in (0, 1)),
        (UncertaintyLevel.LOW,) * len(order),
    )
    # Lineage line i traces record i to its raw line and value column.
    column_texts = list(map(_csv_token, value_columns))
    lineage_csv = ledger_csv(
        LINEAGE_COLUMNS,
        columns[:4],
        map(str, map(floordiv, map(at.__getitem__, order), repeat(m))),
        map(column_texts.__getitem__, map(mod, map(at.__getitem__, order), repeat(m))),
    )
    report = ParseReport(
        rows_in=data_rows * m,
        records_out=len(order),
        rejects=tuple(sorted(rejects, key=lambda r: (r.row, r.reason))),
        lineage_csv=lineage_csv,
        lineage_digest=sha256_hex(lineage_csv),
    )
    return Dataset(indicator, columns, mapping.edition, mapping.level), report


class ColumnGuess(NamedTuple):
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


class MappingDraft(NamedTuple):
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
    text = decode_utf8(data, IngestError, "raw table")
    reader = csv_rows(text, IngestError)
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
