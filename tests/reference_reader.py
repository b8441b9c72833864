"""Reference dataset-file reader: `csv.reader` row by row, each field rule restated from docs/formats.md.

`test_read_csv` compares `ardkit.model.read_csv` with it.  It reads the
whole text through `csv.reader` first, then the header, then each row in
turn: its field count, then its UNCERTAINTY, VALUE and CALENDAR_YEAR texts.
Each text is checked here, not by `ardkit`'s decoders, so a fault in them
does not reappear; `test_imports` checks that it stays that way.
"""

from __future__ import annotations

import csv
import io
import math
import re

from ardkit.errors import ArdkitError
from ardkit.model import CSV_COLUMNS, CellKind, Columns, Dataset, UncertaintyLevel, parse_geography_column

EXACT = 2**53
LEVELS = {"0": UncertaintyLevel.LOW, "1": UncertaintyLevel.MEDIUM, "2": UncertaintyLevel.HIGH}
MARKERS = {"S": CellKind.SUPPRESSED, "": CellKind.MISSING}


def level(text):
    """An UNCERTAINTY level: exactly `0`, `1` or `2`."""
    if text not in LEVELS:
        raise ValueError(text)
    return LEVELS[text]


def year(text):
    """A year as `str(int)` writes it: `0`, or an optional `-` and ASCII digits without a leading zero."""
    if not re.fullmatch("0|-?[1-9][0-9]*", text):
        raise ValueError(text)
    return int(text)


def value(text):
    """A VALUE number as the writer writes its magnitude.

    An integral value below 2**53 as `str(int)`, any other finite float as
    its `repr`, and an integer text from 2**53 on as that integer, which
    reads back as an int; every other magnitude reads back as a float.
    """
    if re.fullmatch("0|-?[1-9][0-9]*", text) and abs(int(text)) >= EXACT:
        return int(text)
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(text)
    written = str(int(number)) if number.is_integer() and abs(number) < EXACT else repr(number)
    if written != text:
        raise ValueError(text)
    return number


def field(lineno, column, text, decode):
    """`decode(text)`; a text it refuses is named by its line and column."""
    try:
        return decode(text)
    except ValueError:
        raise ArdkitError(f"line {lineno}: invalid {column} {text!r}") from None


def read_rows(text, indicator):
    """The dataset in `text`, or the ArdkitError `read_csv` raises for it."""
    reader = csv.reader(io.StringIO(text), strict=True)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ArdkitError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ArdkitError("dataset file is empty")
    header = rows[0]
    if len(header) != 6 or tuple(header[1:]) != CSV_COLUMNS:
        raise ArdkitError(f"unexpected dataset header {header!r}")
    geography = parse_geography_column(header[0])
    if geography is None:
        raise ArdkitError(f"unrecognized geography column {header[0]!r}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 6:
            raise ArdkitError(f"line {lineno}: expected 6 fields, got {len(row)}")
        code, year_text, age, sex, value_text, level_text = row
        uncertainty = field(lineno, "UNCERTAINTY", level_text, level)
        if value_text in MARKERS:
            kind, magnitude = MARKERS[value_text], None
        else:
            kind, magnitude = indicator.value_kind, field(lineno, "VALUE", value_text, value)
        out.append((code, field(lineno, "CALENDAR_YEAR", year_text, year), age, sex, kind, magnitude, uncertainty))
    geo_level, edition = geography
    return Dataset(indicator, Columns.from_rows(out), edition, geo_level)
