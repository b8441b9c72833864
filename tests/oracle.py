"""Reference correspondence: the paper's rules written out per row in exact rationals.

This is the oracle the correspondence tests compare `ardkit.correspondence`
against.  It shares no code with that module beyond reading a table's
edges, so a fault in the engine's grouping, taint, discard/suppress or
rate-route logic does not reappear here.  `test_imports` checks that it
stays that way.

A dataset is a dict {(region, year, age group, sex): cell}; a cell is
(kind, magnitude, uncertainty), with an exact `Fraction` magnitude, or None
for a suppressed or missing cell.  A conversion returns a `Converted`: the
output cells, the provenance events of the keys that have any, and the
zero-fill log.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ardkit.model import CellKind, Dataset, UncertaintyLevel

LOW, MEDIUM, HIGH = UncertaintyLevel.LOW, UncertaintyLevel.MEDIUM, UncertaintyLevel.HIGH
COUNT, SUPPRESSED, MISSING = CellKind.COUNT, CellKind.SUPPRESSED, CellKind.MISSING

DISCARD = "subthreshold-discard"
ZERO_FILL = "missing-zero-fill"
BACKWARD_SUPPRESSED = "backward-suppressed"
UNRESOLVABLE = "unresolvable-redistribution"

DEFAULT_THRESHOLD = Fraction(1, 10)


class Converted(NamedTuple):
    cells: dict
    events: dict
    zero_filled: list


def cells(dataset: Dataset) -> dict:
    """The dataset as {key: (kind, exact magnitude or None, uncertainty)}."""
    return {
        (region, year, age, sex): (kind, None if magnitude is None else Fraction(magnitude), level)
        for region, year, age, sex, kind, magnitude, level in zip(*dataset.columns)
    }


def _name(key) -> str:
    return "/".join(str(part) for part in key)


def _links(table) -> dict[str, list[tuple[str, Fraction]]]:
    """{source: [(target, ratio), ...]} in target order; a zero ratio links nothing."""
    links: dict[str, list[tuple[str, Fraction]]] = {}
    for edge in table.edges:
        if edge.ratio > 0:
            links.setdefault(edge.source, []).append((edge.target, edge.ratio))
    return {source: sorted(targets) for source, targets in links.items()}


def forward(data: dict, table) -> Converted:
    """value(T) = sum over sources S of ratio(S->T) * value(S), per stratum.

    A suppressed source makes every target it feeds suppressed, with high
    uncertainty and an unresolvable event.  A missing source adds nothing,
    and every target it feeds gets medium uncertainty and a zero-fill
    event.  Otherwise a target's uncertainty is the worst of its sources'.
    """
    links = _links(table)
    total: dict = {}
    level: dict = {}
    tainted: set = set()
    filled: set = set()
    zero_filled = []
    for (region, *stratum), (kind, value, source_level) in sorted(data.items()):
        for target, ratio in links[region]:
            key = (target, *stratum)
            total[key] = total.get(key, 0) + (ratio * value if kind is COUNT else 0)
            level[key] = max(level.get(key, LOW), source_level)
            if kind is SUPPRESSED:
                tainted.add(key)
            elif kind is MISSING:
                filled.add(key)
                zero_filled.append(f"{_name((region, *stratum))}: missing input contributed zero mass to {target}")
    out, events = {}, {}
    for key in total:
        if key in tainted:
            out[key] = (SUPPRESSED, None, HIGH)
            events[key] = (UNRESOLVABLE,)
        elif key in filled:
            out[key] = (COUNT, total[key], max(level[key], MEDIUM))
            events[key] = (ZERO_FILL,)
        else:
            out[key] = (COUNT, total[key], level[key])
    return Converted(out, events, zero_filled)


def backward(data: dict, table, threshold: Fraction = DEFAULT_THRESHOLD) -> Converted:
    """Rebuild each source region, per stratum, from the later edition's cells.

    A source that sent a ratio at or above the threshold into a target other
    sources also feed cannot be rebuilt: it is suppressed, high uncertainty,
    with a backward-suppressed event.  Otherwise its value is the sum of the
    targets only it feeds, and smaller shared contributions are discarded
    (medium, discard event).  An absent or missing sole target counts as
    zero (medium, zero-fill event); a suppressed one leaves the source
    unresolvable (suppressed, high).  A source is emitted in a stratum where
    any of its targets has a cell.
    """
    links = _links(table)
    feeders: dict[str, set] = {}
    for source, targets in links.items():
        for target, _ in targets:
            feeders.setdefault(target, set()).add(source)
    strata = sorted({tuple(stratum) for _, *stratum in data})
    out, events, zero_filled = {}, {}, []
    for source, targets in sorted(links.items()):
        shared = [ratio for target, ratio in targets if len(feeders[target]) > 1]
        sole = [target for target, _ in targets if len(feeders[target]) == 1]
        for stratum in strata:
            if not any((target, *stratum) in data for target, _ in targets):
                continue
            key = (source, *stratum)
            if any(ratio >= threshold for ratio in shared):
                out[key] = (SUPPRESSED, None, HIGH)
                events[key] = (BACKWARD_SUPPRESSED,)
                continue
            sole_cells = {target: data.get((target, *stratum)) for target in sole}
            if any(cell is not None and cell[0] is SUPPRESSED for cell in sole_cells.values()):
                out[key] = (SUPPRESSED, None, HIGH)
                events[key] = (UNRESOLVABLE,)
                continue
            present = [cell for cell in sole_cells.values() if cell is not None]
            value = sum((cell[1] for cell in present if cell[0] is COUNT), Fraction(0))
            level = max((cell[2] for cell in present), default=LOW)
            fills = [(target, cell) for target, cell in sole_cells.items() if cell is None or cell[0] is MISSING]
            for target, cell in fills:
                reason = "no data" if cell is None else "missing value"
                zero_filled.append(f"{_name(key)}: {reason} for sole target {target}, counted as zero")
            evs = (DISCARD,) * bool(shared) + (ZERO_FILL,) * bool(fills)
            if evs:
                level = max(level, MEDIUM)
                events[key] = evs
            out[key] = (COUNT, value, level)
    return Converted(out, events, zero_filled)


def rate_route(
    rates: dict,
    denominators: dict,
    steps,
    *,
    value_kind: CellKind,
    threshold: Fraction = DEFAULT_THRESHOLD,
    converted_denominator: dict | None = None,
) -> Converted:
    """Convert a rate or percentage along `steps`, a sequence of ("forward" | "backward", table).

    The rate is split once into numerator counts (rate * denominator) and
    the denominator's counts at the rate's keys; both are converted along
    every step, and the quotient is taken once at the end.  A
    `converted_denominator` stands in for the converted denominator counts.
    """
    numerator, denominator = {}, {}
    for key, (kind, value, level) in rates.items():
        den_kind, den_value, den_level = denominators[key]
        worst = max(level, den_level)
        if SUPPRESSED in (kind, den_kind):
            numerator[key] = (SUPPRESSED, None, worst)
        elif MISSING in (kind, den_kind):
            numerator[key] = (MISSING, None, worst)
        else:
            numerator[key] = (COUNT, value * den_value, worst)
        denominator[key] = denominators[key]

    def convert(op, data, table):
        return forward(data, table) if op == "forward" else backward(data, table, threshold)

    converted = Converted(numerator, {}, [])
    for op, table in steps:
        converted = convert(op, converted.cells, table)
        denominator = convert(op, denominator, table).cells
    return quotient(converted, denominator if converted_denominator is None else converted_denominator, value_kind)


def quotient(numerator: Converted, denominator: dict, value_kind: CellKind) -> Converted:
    """Divide converted numerator counts by converted denominator counts, key by key.

    A suppressed side gives a suppressed, high cell.  A missing side gives
    a missing cell of at least medium uncertainty, and so does a zero
    denominator, with a zero-fill event.  Any other cell takes the worse
    uncertainty of its two sides.  The events and log are the numerator's,
    plus the quotient's.
    """
    out, events, zero_filled = {}, {}, list(numerator.zero_filled)
    for key, (kind, value, level) in numerator.cells.items():
        den_kind, den_value, den_level = denominator[key]
        level = max(level, den_level)
        evs = numerator.events.get(key, ())
        if SUPPRESSED in (kind, den_kind):
            out[key] = (SUPPRESSED, None, HIGH)
            evs = evs or (UNRESOLVABLE,)
        elif MISSING in (kind, den_kind):
            out[key] = (MISSING, None, max(level, MEDIUM))
        elif den_value == 0:
            out[key] = (MISSING, None, max(level, MEDIUM))
            evs = evs if ZERO_FILL in evs else (*evs, ZERO_FILL)
            zero_filled.append(f"{_name(key)}: corresponded denominator is zero")
        else:
            out[key] = (value_kind, value / den_value, level)
        if evs:
            events[key] = evs
    return Converted(out, events, zero_filled)
