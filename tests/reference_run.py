"""Reference run: the per-record stages written out one record at a time, on plain dicts.

The first slice of an end-to-end reference: `privacy.suppress`,
`qa.assign_uncertainty`, `qa.filter_high_uncertainty` and
`model.round_counts`, each restated from its documented rule.  A dataset is
a dict {(region, year, age group, sex): (kind, magnitude, uncertainty)} in
row order.  The module shares no code with `ardkit` beyond the cell kinds
and levels, so a fault in a stage does not reappear here; `test_imports`
checks that it stays that way.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ardkit.model import CellKind, UncertaintyLevel

COUNT, SUPPRESSED = CellKind.COUNT, CellKind.SUPPRESSED
MEDIUM, HIGH = UncertaintyLevel.MEDIUM, UncertaintyLevel.HIGH

# The correspondence events that make a record's value approximate.
MEDIUM_EVENTS = {"subthreshold-discard", "missing-zero-fill"}
HIGH_EVENTS = {"backward-suppressed", "unresolvable-redistribution"}


def cells(dataset) -> dict:
    """The dataset's rows as {key: (kind, magnitude, uncertainty)}, in row order."""
    return {(region, year, age, sex): (kind, magnitude, level)
            for region, year, age, sex, kind, magnitude, level in zip(*dataset.columns)}


def suppress(cells: dict, threshold: int, suppress_zero: bool) -> tuple[dict, dict]:
    """Hide each count strictly between zero and `threshold`, and each zero with `suppress_zero`.

    Returns the cells and the number hidden per (year, age group, sex) stratum.
    """
    out, hidden = {}, {}
    for key, (kind, magnitude, level) in cells.items():
        if kind is COUNT and (0 < magnitude < threshold or (suppress_zero and magnitude == 0)):
            out[key] = (SUPPRESSED, None, level)
            hidden[key[1:]] = hidden.get(key[1:], 0) + 1
        else:
            out[key] = (kind, magnitude, level)
    return out, hidden


def assign_uncertainty(cells: dict, events: dict) -> dict:
    """Raise each record to high when an event left its value unreconstructable, else to medium when one approximated it."""
    out = {}
    for key, (kind, magnitude, level) in cells.items():
        touched = set(events.get(key, ()))
        if touched & HIGH_EVENTS:
            level = HIGH
        elif touched & MEDIUM_EVENTS and level < MEDIUM:
            level = MEDIUM
        out[key] = (kind, magnitude, level)
    return out


def filter_high(cells: dict) -> tuple[dict, list]:
    """The records below high uncertainty, and the removed keys in sorted order."""
    kept = {key: cell for key, cell in cells.items() if cell[2] != HIGH}
    return kept, sorted(key for key in cells if key not in kept)


def round_counts(cells: dict) -> dict:
    """Each count as an integer, every (year, age group, sex) stratum's total rounded half up.

    Within a stratum every count is floored, and the units the rounded total
    still lacks go one each to the counts with the largest fractional parts,
    the earlier row first among equal parts.
    """
    strata: dict[tuple, list] = {}
    for key, (kind, _, _) in cells.items():
        if kind is COUNT:
            strata.setdefault(key[1:], []).append(key)
    out = dict(cells)
    for keys in strata.values():
        exact = [Fraction(cells[key][1]) for key in keys]
        floors = [math.floor(m) for m in exact]
        missing_units = math.floor(sum(exact) + Fraction(1, 2)) - sum(floors)
        by_part = sorted(range(len(keys)), key=lambda j: (floors[j] - exact[j], j))
        for rank, j in enumerate(by_part):
            kind, _, level = cells[keys[j]]
            out[keys[j]] = (kind, floors[j] + (rank < missing_units), level)
    return out
