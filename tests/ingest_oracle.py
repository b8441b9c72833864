"""Reference parser: a raw table read row by row, the way `ardkit.ingest.parse_raw` must read it.

This is the oracle the ingest tests compare `parse_raw` against.  It walks
the rows one at a time, builds one tuple per record, sorts the records
itself and renders the lineage through `csv.writer`.  It shares with the
engine only the per-token helpers (`_ascii_int`, `_parse_magnitude`,
`csv_rows`, `decode_utf8`) and the types it returns, so a fault in the
engine's chunking, column memos, reject flags, sort permutation or lineage
render does not reappear here.  `test_imports` checks that it stays that way.
"""

from __future__ import annotations

import csv
import hashlib
import io

from ardkit.errors import IngestError
from ardkit.ingest import Layout, ParseReport, Reject, _parse_magnitude
from ardkit.jsonio import decode_utf8
from ardkit.model import CellKind, Columns, Dataset, UncertaintyLevel, _ascii_int, csv_rows


def parse(data, mapping, indicator):
    """(Dataset, ParseReport) for a raw table, or IngestError with the engine's text."""
    if mapping.value_kind is not indicator.value_kind:
        raise IngestError(
            f"mapping declares {mapping.value_kind.value} values but indicator "
            f"{indicator.id} expects {indicator.value_kind.value}"
        )
    text = decode_utf8(data, IngestError, "raw table")
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

    if mapping.layout is Layout.LONG:
        logical = [(mapping.value_column, position[mapping.value_column], position[mapping.calendar_year_column])]
    else:
        logical = [(column, position[column], None) for column in mapping.year_columns]
    width = len(header)
    data_rows = 0
    rejects = []
    rows = []
    lineage = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        data_rows += 1
        row = row + [""] * (width - len(row))
        code = row[position[mapping.geography_code_column]]
        age = row[position[mapping.age_group_column]]
        sex = row[position[mapping.sex_column]]
        problem = next(
            (reason for token, reason in ((code, "empty geography code"), (age, "empty age group"), (sex, "empty sex"))
             if not token.strip()),
            None,
        )
        if problem is not None:
            rejects += [Reject(lineno, problem)] * len(logical)
            continue
        for place, (column, value_at, year_at) in enumerate(logical):
            year_token = row[year_at] if year_at is not None else column
            try:
                year = _ascii_int(year_token.strip())
            except ValueError:
                rejects.append(Reject(lineno, f"calendar year not an integer: {year_token.strip()!r}"))
                continue
            token = row[value_at]
            if token.strip() in mapping.missing_tokens or token in mapping.missing_tokens:
                kind, magnitude = CellKind.MISSING, None
            else:
                try:
                    magnitude = _parse_magnitude(token, mapping.value_kind)
                except ValueError as exc:
                    rejects.append(Reject(lineno, str(exc)))
                    continue
                kind = mapping.value_kind
                if kind is CellKind.COUNT:
                    magnitude = int(magnitude)
            rows.append((code, year, age, sex, kind, magnitude, UncertaintyLevel.LOW))
            lineage.append(((code, year, age, sex), lineno, place, column))
    rows.sort(key=lambda r: r[:4])  # stable: equal keys keep row-major order
    # Each line by a `\r\n` writer, which quotes a field holding `\r` (as every writer does from Python 3.12),
    # then ended with `\n`.
    header = ("REGION", "CALENDAR_YEAR", "AGE_GROUP", "SEX", "RAW_ROW", "RAW_COLUMN")
    lines = []
    for row in [header, *((*key, lineno, column) for key, lineno, _, column in sorted(lineage))]:
        out = io.StringIO()
        csv.writer(out, lineterminator="\r\n").writerow(row)
        lines.append(out.getvalue()[:-2] + "\n")
    lineage_csv = "".join(lines)
    report = ParseReport(
        rows_in=data_rows * len(logical),
        records_out=len(rows),
        rejects=tuple(sorted(rejects, key=lambda r: (r.row, r.reason))),
        lineage_csv=lineage_csv,
        lineage_digest=hashlib.sha256(lineage_csv.encode("utf-8")).hexdigest(),
    )
    columns = Columns(*map(tuple, zip(*rows))) if rows else Columns((), (), (), (), (), (), ())
    return Dataset(indicator, columns, mapping.edition, mapping.level), report
