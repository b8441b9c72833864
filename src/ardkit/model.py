"""Shared domain types for standardized spatio-temporal count data.

Everything downstream (ingest, cleaning, correspondence, privacy, QA, docs)
works on the immutable types defined here.  A :class:`Dataset` holds its
records as parallel columns (region, year, age group, sex, kind, magnitude,
uncertainty), so every stage runs over plain tuples rather than one object
per record.  A record's region is a plain code in its dataset's
(level, edition) scheme: the level and boundary edition belong to the
:class:`Dataset`, never to single records.  A dataset serializes to one
delimited text table whose header names the geography column after that
level and edition (e.g. ``SA3CODE_16``), followed by
``CALENDAR_YEAR, AGE_GROUP, SEX, VALUE, UNCERTAINTY``.

Value-domain rules (non-negative counts, percentage range, token hygiene)
are deliberately *not* enforced by the constructors: dirty datasets must be
representable so that :func:`validate_dataset` can report their problems as
data and the cleaning stage can repair them.  Only the structural rules
that serialization depends on are checked, once where rows enter a dataset
from outside (parsing, reading, replaying a log); :func:`check_cell` checks
a single cell.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, islice, repeat
from operator import eq, gt, is_, is_not, le
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ArdkitError

Magnitude = int | float


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
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def check_cell(kind: CellKind, magnitude: object, uncertainty: object) -> None:
    """Raise unless a data kind carries a finite magnitude and a marker kind none."""
    # Identity tests: `in DATA_KINDS` would hash the member through the pure-Python `Enum.__hash__`.
    if kind is CellKind.COUNT or kind is CellKind.RATE or kind is CellKind.PERCENTAGE:
        if not _is_magnitude(magnitude):
            raise ArdkitError(f"{kind.value} cell needs a finite numeric magnitude, got {magnitude!r}")
    elif magnitude is not None:
        raise ArdkitError(f"{kind.value} cell must not carry a magnitude")
    if not isinstance(uncertainty, UncertaintyLevel):
        raise ArdkitError(f"bad uncertainty level {uncertainty!r}")


def exact_total(magnitudes: Iterable[Magnitude]) -> Fraction:
    """Exact sum of magnitudes, equal to ``sum(map(Fraction, magnitudes))``.

    Ints and floats are dyadic rationals, so their numerators are summed as
    one integer over the largest power-of-two denominator seen.  Magnitudes
    repeat, so each distinct value is converted once and added times its
    count; equal values (5 and 5.0, 0 and -0.0) share one entry.
    """
    numerator, shift = 0, 0  # the sum is numerator / 2**shift
    for magnitude, count in Counter(magnitudes).items():
        n, d = magnitude.as_integer_ratio()
        k = d.bit_length() - 1
        if k > shift:
            numerator <<= k - shift
            shift = k
        numerator += (n * count) << (shift - k)
    return Fraction(numerator, 1 << shift)


def format_magnitude(magnitude: Magnitude) -> str:
    """Shortest decimal text that round-trips through float()."""
    if isinstance(magnitude, int):
        return str(magnitude)
    if magnitude.is_integer() and abs(magnitude) < 2**53:
        return str(int(magnitude))
    return repr(magnitude)


def describe_key(region: str, calendar_year: int, age_group: str, sex: str) -> str:
    """'region/year/age/sex', the text that names a record in logs and reports."""
    return f"{region}/{calendar_year}/{age_group}/{sex}"


# The config schema's indicator id pattern: an id names output files, so it holds no path separator.
_INDICATOR_ID_RE = re.compile(r"[A-Za-z0-9._-]+")


class Checked:
    """First base of a NamedTuple subclass whose `__new__` checks or normalises the fields.

    NamedTuple's `_make`, which `_replace` calls, skips that `__new__`; this `_make` builds through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _IndicatorFields(NamedTuple):
    id: str
    name: str
    nest_domain: NestDomain
    value_kind: CellKind
    source_id: str
    correspondence_applied: bool = False
    max_uncertainty: UncertaintyLevel = UncertaintyLevel.LOW


class Indicator(Checked, _IndicatorFields):
    """Descriptive identity of one measured quantity."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.id, str) or not _INDICATOR_ID_RE.fullmatch(self.id):
            raise ArdkitError(f"indicator id {self.id!r} may hold only letters, digits, '.', '_' and '-'")
        if self.value_kind not in DATA_KINDS:
            raise ArdkitError(f"indicator value kind must be count/rate/percentage, got {self.value_kind}")
        if not isinstance(self.nest_domain, NestDomain):
            raise ArdkitError(f"unknown wellbeing domain {self.nest_domain!r}")
        if not isinstance(self.correspondence_applied, bool):
            raise ArdkitError(f"correspondence_applied must be true or false, not {self.correspondence_applied!r}")
        return self

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
        """Build from a sidecar document; a missing key or bad value raises ArdkitError."""
        if not isinstance(doc, Mapping):
            raise ArdkitError("indicator document is not a JSON object")
        missing = [key for key in ("id", "name", "nest_domain", "value_kind", "source_id") if key not in doc]
        if missing:
            raise ArdkitError(f"indicator document lacks {', '.join(map(repr, missing))}")
        enums = {}
        enum_keys = (("nest_domain", NestDomain), ("value_kind", CellKind), ("max_uncertainty", UncertaintyLevel))
        for key, enum_cls in enum_keys:
            value = doc.get(key, 0)  # only max_uncertainty may be absent, and it defaults to 0
            try:
                enums[key] = enum_cls(value)
            except (TypeError, ValueError):
                raise ArdkitError(f"indicator document has an invalid {key} {value!r}") from None
        return cls(
            id=doc["id"],
            name=doc["name"],
            source_id=doc["source_id"],
            correspondence_applied=doc.get("correspondence_applied", False),
            **enums,
        )


class Columns(NamedTuple):
    """A dataset's records as parallel tuples; row i is the i-th item of each.

    Markers (suppressed, missing) carry a magnitude of None and every data
    kind a number, so ``magnitude[i] is None`` tells the two apart.
    """

    region: tuple[str, ...]
    year: tuple[int, ...]
    age: tuple[str, ...]
    sex: tuple[str, ...]
    kind: tuple[CellKind, ...]
    magnitude: tuple[Magnitude | None, ...]
    uncertainty: tuple[UncertaintyLevel, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "Columns":
        """Transpose (region, year, age, sex, kind, magnitude, uncertainty) rows."""
        return cls(*zip(*rows)) if rows else EMPTY_COLUMNS

    def take(self, rows: Sequence[int]) -> "Columns":
        """The given rows, in the given order."""
        return Columns(*(tuple(map(column.__getitem__, rows)) for column in self))

    def record_keys(self) -> Iterator[tuple[str, int, str, str]]:
        """Each row's key: its (region, year, age group, sex) tuple."""
        return zip(self.region, self.year, self.age, self.sex)


EMPTY_COLUMNS = Columns((), (), (), (), (), (), ())


class _DatasetFields(NamedTuple):
    indicator: Indicator
    columns: Columns
    edition: BoundaryEdition
    level: GeoLevel


class Dataset(Checked, _DatasetFields):
    """An indicator's records at one (edition, level), held as columns.

    The indicator's ``max_uncertainty`` is set here to the worst level among
    the rows, so every dataset states it correctly.  Two datasets are equal
    when their indicator, columns, edition and level are.  A dataset keeps
    an instance dict, where `_in_canonical_order` is cached and `read_csv`
    marks `_as_written`; `_replace` builds a new dataset without either.
    """

    def __new__(cls, indicator: Indicator, columns: Columns, edition: BoundaryEdition, level: GeoLevel):
        worst = max(columns.uncertainty, default=UncertaintyLevel.LOW)
        if worst != indicator.max_uncertainty:
            indicator = indicator._replace(max_uncertainty=worst)
        return super().__new__(cls, indicator, columns, edition, level)

    @property
    def records(self) -> tuple[tuple, ...]:
        """The (region, year, age, sex, kind, magnitude, uncertainty) rows; `Columns.from_rows` inverts it.

        Built anew on each read.  The stages read `columns`; this view stays
        only for the benchmark tracer, which counts a result's rows with it.
        """
        return tuple(zip(*self.columns))

    def with_columns(self, columns: Columns) -> "Dataset":
        return self._replace(columns=columns)

    def years(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.columns.year)))

    @cached_property
    def _in_canonical_order(self) -> bool:
        """No row's key sorts below the key before it; `read_csv` records it from a file's lines."""
        keys = list(self.columns.record_keys())
        return all(map(le, keys, islice(keys, 1, None)))


class Violation(NamedTuple):
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
# `_csv_token` quotes a token holding any of these, `\r` included, as `csv.writer` does from Python 3.12.
_QUOTED_CHARS = (",", '"', "\r", "\n")


def _token_problem(token: str) -> str | None:
    if token == "":
        return "empty token"
    for ch in _FORBIDDEN_TOKEN_CHARS:
        if ch in token:
            return "token contains a delimiter character"
    if token != token.strip():
        return "token has leading or trailing whitespace"
    return None


def _per_value(column: Sequence, fn) -> Iterable:
    """fn(value) for each row's value, calling fn once per distinct value.

    A `_csv_token` column none of whose tokens needs quoting is returned as it is.
    """
    distinct = set(column)
    if fn is _csv_token and not any(map("".join(distinct).__contains__, _QUOTED_CHARS)):
        return column
    results = dict(zip(distinct, map(fn, distinct)))
    return map(results.__getitem__, column)


def _cell_violations(c: Columns, value_kind: CellKind) -> Iterator[Violation]:
    """Kind, sign and percentage-range violations, row by row."""
    for i, (kind, magnitude) in enumerate(zip(c.kind, c.magnitude)):
        if magnitude is None:
            continue
        if kind is not value_kind:
            yield Violation(V_KIND, i, f"cell kind {kind.value} does not match indicator kind {value_kind.value}")
        if magnitude < 0:
            yield Violation(V_NEGATIVE, i, f"negative magnitude {format_magnitude(magnitude)}")
        if kind is CellKind.PERCENTAGE and not (0 <= magnitude <= 100):
            yield Violation(V_PERCENTAGE_RANGE, i, f"percentage out of range: {format_magnitude(magnitude)}")


def validate_dataset(
    dataset: Dataset,
    vocabulary: "Vocabulary | None" = None,
) -> list[Violation]:
    """Report every invariant violation with a row locator; empty list = ok."""
    c = dataset.columns
    violations: list[Violation] = []
    for label, column in (("geography code", c.region), ("age group", c.age), ("sex", c.sex)):
        problems = {token: _token_problem(token) for token in set(column)}
        if any(problems.values()):
            for i, token in enumerate(column):
                if problems[token] is not None:
                    violations.append(Violation(V_TOKEN, i, f"{label} {token!r}: {problems[token]}"))
    # Kind, sign and range are decided per column; the rows are walked only
    # when a column check fails.  Every data row has a magnitude and every
    # marker none, so when the indicator's kind counts as many rows as there
    # are magnitudes, every data row is of that kind.
    value_kind = dataset.indicator.value_kind
    magnitudes = list(filter(partial(is_not, None), c.magnitude))
    if magnitudes and (
        c.kind.count(value_kind) != len(magnitudes)
        or min(magnitudes) < 0
        or (value_kind is CellKind.PERCENTAGE and max(magnitudes) > 100)
    ):
        violations.extend(_cell_violations(c, value_kind))
    violations.extend(vocabulary_violations(c, vocabulary))
    keys = list(c.record_keys())
    if len(set(keys)) < len(keys):
        seen: dict[tuple, list[int]] = {}
        for i, key in enumerate(keys):
            seen.setdefault(key, []).append(i)
        for key, rows in seen.items():
            if len(rows) > 1:
                violations.extend(
                    Violation(V_DUPLICATE_KEY, i, f"duplicate key {describe_key(*key)}") for i in rows
                )
    violations.sort(key=lambda v: (v.row, v.rule, v.message))
    return violations


def vocabulary_violations(c: Columns, vocabulary: "Vocabulary | None") -> Iterator[Violation]:
    """An age group or sex outside the vocabulary's declared tokens, row by row."""
    if vocabulary is None:
        return
    for label, column, allowed in (("age group", c.age, vocabulary.age_groups), ("sex", c.sex, vocabulary.sexes)):
        if allowed and not allowed.issuperset(column):
            for i, token in enumerate(column):
                if token not in allowed:
                    yield Violation(V_VOCABULARY, i, f"{label} {token!r} not in vocabulary")


class Vocabulary(NamedTuple):
    """Controlled filter-token vocabulary declared per project."""

    age_groups: frozenset[str] = frozenset()
    sexes: frozenset[str] = frozenset()
    marginal_tokens: frozenset[str] = frozenset({"total", "all", "persons"})

    @classmethod
    def from_json(cls, doc: Mapping) -> "Vocabulary":
        """Build from a vocabulary document; a wrongly shaped one raises ArdkitError."""
        if not isinstance(doc, Mapping):
            raise ArdkitError("vocabulary document is not a JSON object")
        return cls(
            age_groups=frozenset(string_list(doc, "age_groups")),
            sexes=frozenset(string_list(doc, "sexes")),
            marginal_tokens=frozenset(t.lower() for t in string_list(doc, "marginal_tokens", ("total", "all", "persons"))),
        )


def string_list(doc: Mapping, key: str, default=(), error_cls: type[ArdkitError] = ArdkitError) -> tuple[str, ...]:
    """`doc[key]` as a tuple of strings; any other value, a lone string too, raises error_cls."""
    value = doc.get(key, default)
    if isinstance(value, str) or not isinstance(value, Sequence) or not all(isinstance(v, str) for v in value):
        raise error_cls(f"{key} must be a list of strings, not {value!r}")
    return tuple(value)


def canonical_sort(dataset: Dataset) -> Dataset:
    """Order records by (geography code, year, age group, sex); stable and idempotent.

    Rows are sorted where their order can change: where they enter from a
    file (the CLI's dataset reader) and where a log's key rewrites are
    replayed.  `parse_raw` and `clean` sort by the same key in their own
    single permutation, `forward` and `backward` emit canonical order by
    construction, and operations that rewrite only cells or drop rows keep
    their input's order, so a sorted input stays sorted.  An already sorted
    dataset is returned as is, and one that `read_csv` read from lines in
    canonical order is known to be sorted without a key per row.
    """
    if dataset._in_canonical_order:
        return dataset
    keys = list(dataset.columns.record_keys())
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return dataset.with_columns(dataset.columns.take(order))


CSV_COLUMNS = ("CALENDAR_YEAR", "AGE_GROUP", "SEX", "VALUE", "UNCERTAINTY")
SUPPRESSED_TOKEN = "S"
_LEVEL_TEXT = tuple(str(int(level)) for level in UncertaintyLevel)


def _csv_token(token: str) -> str:
    """A token as `csv.writer` renders it inside a row, quoted if it holds a carriage return, as `read_csv` needs."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow((token, ""))
    return out.getvalue()[:-3]  # drop the empty second field and the line end


_EXACT_INTEGERS = 2**53


def _value_texts(kinds: tuple[CellKind, ...], magnitudes: tuple[Magnitude | None, ...], texts: dict) -> list[str]:
    """The VALUE column's text, each distinct magnitude missing from `texts` formatted once.

    `texts` maps magnitudes to their text and is updated in place to hold
    this column's.  Equal magnitudes of different types (5 and 5.0, 0 and
    -0.0) share one text; they format alike below 2**53, the only range the
    table covers.  Markers and larger magnitudes are filled in row by row.
    """
    distinct = set(magnitudes).difference((None,))
    for stale in texts.keys() - distinct:
        del texts[stale]
    new = [m for m in distinct.difference(texts) if -_EXACT_INTEGERS < m < _EXACT_INTEGERS]
    texts.update(zip(new, map(format_magnitude, new)))
    values = list(map(texts.get, magnitudes))
    for i in compress(range(len(values)), map(is_, values, repeat(None))):
        m = magnitudes[i]
        values[i] = format_magnitude(m) if m is not None else SUPPRESSED_TOKEN if kinds[i] is CellKind.SUPPRESSED else ""
    return values


def write_csv(dataset: Dataset, *, texts: dict | None = None) -> str:
    """Canonical delimited-text rendering (UTF-8, comma, LF), quoted as `csv.writer` quotes.

    `texts`, a magnitude -> VALUE text table, seeds the rendering: a
    magnitude found in it keeps its text instead of being formatted again.
    On return it holds the texts of exactly this dataset's magnitudes below
    2**53, to seed the next rendering.  Its entries are `format_magnitude`'s
    texts, so a seed never changes a byte; pass an empty dict to start one.
    """
    c = dataset.columns
    header = (geography_column(dataset.level, dataset.edition), *CSV_COLUMNS)
    values = _value_texts(c.kind, c.magnitude, {} if texts is None else texts)
    return ledger_csv(header, c[:4], values, map(_LEVEL_TEXT.__getitem__, c.uncertainty))


KEY_COLUMNS = ("REGION", "CALENDAR_YEAR", "AGE_GROUP", "SEX")

# Per-record text is joined this many lines at a time, and raw tables are
# read this many rows at a time, so neither holds every row's strings at once.
CHUNK_ROWS = 1024


def ledger_csv(header: Sequence[str], key_columns: Iterable[Sequence], *rest: Iterable[str]) -> str:
    """A per-record CSV: `header`, then per row its four key fields and its field in each of `rest`.

    `key_columns` are the rows' region, year, age group and sex columns.
    Tokens are quoted as `csv.writer` quotes them, each distinct one decided
    once; `rest` needs no quoting.  Lines are joined `CHUNK_ROWS` at a time.
    """
    fields = map(_per_value, key_columns, (_csv_token, str, _csv_token, _csv_token))
    lines = map(",".join, zip(*fields, *rest))
    chunks = iter(lambda: "\n".join(islice(lines, CHUNK_ROWS)), "")
    return "\n".join(chain((",".join(header),), chunks)) + "\n"


def _csv_field(lineno: int, column: str, text: str, convert):
    """Convert one canonical CSV cell; a bad cell names its line and column."""
    try:
        return convert(text)
    except ValueError:
        raise ArdkitError(f"line {lineno}: invalid {column} {text!r}") from None


def _ascii_int(text: str) -> int:
    """`int(text)` of the text `str(int)` writes; `int` alone also takes `2_016`, `+7`, ` 7` and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def _value(text: str) -> Magnitude:
    """The finite magnitude `write_csv` writes as `text`; any other text (` 5`, `+5`, `5.50`, `1e3`, `-0`) raises ValueError."""
    value = float(text)
    if abs(value) >= _EXACT_INTEGERS and re.fullmatch("-?[0-9]+", text):
        value = int(text)  # from 2**53 on, `write_csv` writes an int as `str` and a float as its repr
    if not _is_magnitude(value) or format_magnitude(value) != text:
        raise ValueError(text)
    return value


def _year(text: str) -> int:
    """The year `write_csv` writes as `text`; any other text (`02016`, `-0`, `+7`, ` 7`) raises ValueError."""
    year = int(text)
    if str(year) != text:
        raise ValueError(text)
    return year


_LEVELS_BY_TEXT = {text: level for text, level in zip(_LEVEL_TEXT, UncertaintyLevel)}


def _level(text: str) -> UncertaintyLevel:
    """The level `write_csv` writes as `text`: `0`, `1` or `2`; any other text (`00`, `-0`) raises ValueError."""
    if text not in _LEVELS_BY_TEXT:
        raise ValueError(text)
    return _LEVELS_BY_TEXT[text]


def csv_rows(text: str, error_cls: type[ArdkitError] = ArdkitError, delimiter: str = ",") -> Iterator[list[str]]:
    """The rows of delimited text; a line `csv` cannot read raises error_cls naming it.

    The rows before that line come first.  A field longer than
    `csv.field_size_limit()` is such a line: the limit is kept, so one
    oversized cell cannot make a reader hold it.  So is text after a closing
    quote (`"A"B`) and a quote still open at the end.  Rows are read in
    chunks, so that iterating them runs no Python code per row.
    """
    return chain.from_iterable(_csv_chunks(csv.reader(io.StringIO(text), delimiter=delimiter, strict=True), error_cls))


def _csv_chunks(reader, error_cls: type[ArdkitError]) -> Iterator[list[list[str]]]:
    chunk = [[]]
    while chunk:
        chunk = []
        try:
            chunk.extend(islice(reader, 256))
        except csv.Error as exc:
            yield chunk
            raise error_cls(f"line {reader.line_num}: {exc}") from None
        yield chunk


def read_csv(text: str, indicator: Indicator) -> Dataset:
    """Parse a canonical dataset file back into a Dataset; rows keep the file's order.

    A file of plain lines in canonical order that ends with LF is the text
    `write_csv` writes of the dataset, which is marked `_as_written` in its
    instance dict: a caller that keeps the text can write it back unrendered.
    """
    try:
        return _read_plain(text, indicator)
    except ValueError:  # not plain lines, or a bad token: `csv` reads the text and raises every error
        return _read_rows(text, indicator)


def _read_rows(text: str, indicator: Indicator) -> Dataset:
    """`read_csv` through `csv.reader`: quoted fields, and every error named by its line."""
    rows = list(csv_rows(text))
    if not rows:
        raise ArdkitError("dataset file is empty")
    header = rows[0]
    if len(header) != 6 or tuple(header[1:]) != CSV_COLUMNS:
        raise ArdkitError(f"unexpected dataset header {header!r}")
    parsed = parse_geography_column(header[0])
    if parsed is None:
        raise ArdkitError(f"unrecognized geography column {header[0]!r}")
    level, edition = parsed
    # Years and values repeat down the file, so each distinct text is
    # converted once; the first line holding a bad one is the one named.
    years: dict[str, int] = {}
    cells = {text: (kind, None) for text, kind in _MARKERS.items()}
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 6:
            raise ArdkitError(f"line {lineno}: expected 6 fields, got {len(row)}")
        code, year_text, age, sex, value_text, uncertainty_text = row
        uncertainty = _LEVELS_BY_TEXT.get(uncertainty_text)
        if uncertainty is None:
            uncertainty = _csv_field(lineno, "UNCERTAINTY", uncertainty_text, _level)
        cell = cells.get(value_text)
        if cell is None:
            cell = cells[value_text] = (indicator.value_kind, _csv_field(lineno, "VALUE", value_text, _value))
        year = years.get(year_text)
        if year is None:
            year = years[year_text] = _csv_field(lineno, "CALENDAR_YEAR", year_text, _year)
        out.append((code, year, age, sex, *cell, uncertainty))
    return Dataset(indicator, Columns.from_rows(out), edition, level)


_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))
_MARKERS = {SUPPRESSED_TOKEN: CellKind.SUPPRESSED, "": CellKind.MISSING}


def _read_plain(text: str, indicator: Indicator) -> Dataset:
    """`read_csv` of plain lines (as `csv` reads a text without quote, CR, NUL or overlong line) in one split.

    A bad token raises ValueError.  A dataset whose lines show canonical order
    records it: with NUL, which sorts below every character of a token, for
    the comma, lines compare by their key texts, and four-digit years by value.
    No field of such a file needs quoting and a number has one text, so if
    its last line ends with LF, the file is `write_csv`'s text: marked too.
    """
    head, _, body = text.partition("\n")
    header = head.split(",")
    geography = parse_geography_column(header[0])
    if body and not body.endswith("\n"):
        body += "\n"
    lines = body.replace(",", "\0").split("\n")[:-1]
    if ('"' in text or "\r" in text or "\0" in text or geography is None or tuple(header[1:]) != CSV_COLUMNS
            or body.encode().translate(None, _NOT_SEPARATORS) != b",,,,,\n" * len(lines)
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        raise ValueError("not six plain fields a line")
    fields = "\0".join(lines).split("\0") if lines else []
    codes, year_texts, ages, sexes, value_texts, level_texts = (fields[i::6] for i in range(6))
    # Each distinct year, value and level text is decoded once, the values all at once.
    years = {t: _year(t) for t in set(year_texts)}
    levels = {t: _level(t) for t in set(level_texts)}
    numbers = list(set(value_texts).difference(_MARKERS))
    floats = list(map(float, numbers))
    if all(map(gt, repeat(2.0**53), map(abs, floats))):
        # `_value` below 2**53: a text is its float's repr less a final ".0", and zero is "0".
        if "-0" in numbers or not all(map(eq, numbers, map(str.removesuffix, map(repr, floats), repeat(".0")))):
            raise ValueError("a value `_value` refuses")
        magnitudes = dict(zip(numbers, floats))
    else:
        magnitudes = dict(zip(numbers, map(_value, numbers)))
    kinds = (indicator.value_kind,) * len(lines)
    if any(map(value_texts.__contains__, _MARKERS)):
        kinds = tuple(map(_MARKERS.get, value_texts, kinds))
    dataset = Dataset(indicator, Columns(
        tuple(codes), tuple(map(years.__getitem__, year_texts)), tuple(ages), tuple(sexes),
        kinds, tuple(map(magnitudes.get, value_texts)), tuple(map(levels.__getitem__, level_texts)),
    ), geography[1], geography[0])
    if all(len(t) == 4 and t.isdigit() for t in years) and all(map(le, lines, islice(lines, 1, None))):
        vars(dataset).update(_in_canonical_order=True, _as_written=text.endswith("\n"))
    return dataset


def round_counts(dataset: Dataset) -> Dataset:
    """Round fractional counts to integers, preserving each stratum's total.

    Uses largest-remainder reconciliation: floors every count in a
    (year, age group, sex) stratum, then hands out the remaining units to
    the cells with the largest fractional parts (ties to row order, which
    is canonical order for a sorted dataset).  Rows keep their order.
    """
    if dataset.indicator.value_kind is not CellKind.COUNT:
        return dataset
    c = dataset.columns
    by_stratum: dict[tuple, list[int]] = {}
    for i, (kind, stratum) in enumerate(zip(c.kind, zip(c.year, c.age, c.sex))):
        if kind is CellKind.COUNT:
            by_stratum.setdefault(stratum, []).append(i)
    new_magnitudes = list(c.magnitude)
    for stratum in sorted(by_stratum):
        indices = by_stratum[stratum]
        magnitudes = [Fraction(c.magnitude[i]) for i in indices]
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
            new_magnitudes[i] = floors[j] + (1 if j in bumped else 0)
    return dataset.with_columns(c._replace(magnitude=tuple(new_magnitudes)))
