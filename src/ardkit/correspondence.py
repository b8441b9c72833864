"""Boundary-edition conversion by ratio redistribution.

A correspondence table holds weighted directed edges between the region
codes of two boundary editions; the ratios out of each source region sum
to one.  Converting counts *forward* (earlier edition to later) multiplies
each source count through its ratios and sums per target.  Converting
*backward* reuses the same forward table: a region is rebuilt as the sum
of the targets only it feeds, provided every ratio it sent into a shared
target is small enough to discard (below the 10% threshold by default);
otherwise the region cannot be reconstructed and is emitted suppressed.

Ratios are stored as exact rationals parsed from the decimal text, so
per-source sums and redistribution products are exact.  Dataset arithmetic
runs in double precision by default; ``mode="rational"`` keeps magnitudes
as exact rationals for use as a reference oracle.
"""

from __future__ import annotations

import csv
import enum
import io
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CorrespondenceError, RouteError
from .model import (
    BoundaryEdition,
    CellKind,
    CellValue,
    Dataset,
    GeoLevel,
    Magnitude,
    RecordKey,
    StandardRecord,
    UncertaintyLevel,
    finalize,
)

# Record-level provenance events consumed by the QA uncertainty rule.
EVENT_SUBTHRESHOLD_DISCARD = "subthreshold-discard"
EVENT_ZERO_FILL = "missing-zero-fill"
EVENT_BACKWARD_SUPPRESSED = "backward-suppressed"
EVENT_UNRESOLVABLE = "unresolvable-redistribution"

MEDIUM_EVENTS = frozenset({EVENT_SUBTHRESHOLD_DISCARD, EVENT_ZERO_FILL})
HIGH_EVENTS = frozenset({EVENT_BACKWARD_SUPPRESSED, EVENT_UNRESOLVABLE})

RATIO_SUM_TOLERANCE = Fraction(1, 10**9)
LOAD_SUM_TOLERANCE = Fraction(1, 10**6)

MODE_DOUBLE = "double"
MODE_RATIONAL = "rational"


def _as_ratio(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise CorrespondenceError(f"cannot interpret ratio {value!r}")


@dataclass(frozen=True)
class CorrespondenceEdge:
    """One weighted edge: `ratio` of `source`'s count flows to `target`."""

    source: str
    target: str
    ratio: Fraction

    def __post_init__(self) -> None:
        ratio = _as_ratio(self.ratio)
        if not 0 <= ratio <= 1:
            raise CorrespondenceError(
                f"ratio {float(ratio)} for {self.source}->{self.target} outside [0, 1]"
            )
        object.__setattr__(self, "ratio", ratio)


@dataclass(frozen=True)
class CorrespondenceTable:
    from_edition: BoundaryEdition
    to_edition: BoundaryEdition
    level: GeoLevel
    edges: tuple[CorrespondenceEdge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))

    def validate(self) -> list[str]:
        """Invariant check; a loaded table always passes, hand-built ones may not."""
        problems: list[str] = []
        if self.from_edition is self.to_edition:
            problems.append("from and to editions are identical")
        seen: set[tuple[str, str]] = set()
        sums: dict[str, Fraction] = {}
        for edge in self.edges:
            pair = (edge.source, edge.target)
            if pair in seen:
                problems.append(f"duplicate edge {pair[0]}->{pair[1]}")
            seen.add(pair)
            sums[edge.source] = sums.get(edge.source, Fraction(0)) + edge.ratio
        for code in sorted(sums):
            if abs(sums[code] - 1) > RATIO_SUM_TOLERANCE:
                problems.append(f"ratios for {code} sum to {float(sums[code])}")
        return problems

    def positive_edges_by_source(self) -> dict[str, tuple[CorrespondenceEdge, ...]]:
        grouped: dict[str, list[CorrespondenceEdge]] = {}
        for edge in self.edges:
            if edge.ratio > 0:
                grouped.setdefault(edge.source, []).append(edge)
        return {
            code: tuple(sorted(edges, key=lambda e: e.target))
            for code, edges in grouped.items()
        }

    def feeders(self) -> dict[str, frozenset[str]]:
        """Positive-ratio source codes per target code."""
        grouped: dict[str, set[str]] = {}
        for edge in self.edges:
            if edge.ratio > 0:
                grouped.setdefault(edge.target, set()).add(edge.source)
        return {code: frozenset(sources) for code, sources in grouped.items()}


TABLE_COLUMNS = ("FROM_CODE", "TO_CODE", "RATIO")


def load_table(
    data: bytes | str,
    *,
    level: GeoLevel,
    from_edition: BoundaryEdition,
    to_edition: BoundaryEdition,
) -> CorrespondenceTable:
    """Parse and validate a FROM_CODE,TO_CODE,RATIO file.

    Per-source ratio sums within 1e-6 of one are renormalized to exactly
    one; larger deviations are fatal.
    """
    if from_edition is to_edition:
        raise CorrespondenceError("a correspondence table needs two distinct editions")
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise CorrespondenceError("correspondence file is empty")
    header = tuple(h.strip() for h in rows[0])
    positions = {}
    for column in TABLE_COLUMNS:
        if column not in header:
            raise CorrespondenceError(f"correspondence file lacks column {column}")
        positions[column] = header.index(column)
    raw: list[tuple[str, str, Fraction]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) < len(header):
            raise CorrespondenceError(f"line {lineno}: expected {len(header)} fields")
        source = row[positions["FROM_CODE"]].strip()
        target = row[positions["TO_CODE"]].strip()
        ratio_text = row[positions["RATIO"]].strip()
        if not source or not target:
            raise CorrespondenceError(f"line {lineno}: empty region code")
        try:
            ratio = Fraction(ratio_text)
        except (ValueError, ZeroDivisionError):
            raise CorrespondenceError(f"line {lineno}: unparseable ratio {ratio_text!r}") from None
        if not 0 <= ratio <= 1:
            raise CorrespondenceError(f"line {lineno}: ratio {ratio_text} outside [0, 1]")
        if (source, target) in seen:
            raise CorrespondenceError(f"line {lineno}: duplicate edge {source}->{target}")
        seen.add((source, target))
        raw.append((source, target, ratio))
    sums: dict[str, Fraction] = {}
    for source, _, ratio in raw:
        sums[source] = sums.get(source, Fraction(0)) + ratio
    bad = [code for code in sorted(sums) if abs(sums[code] - 1) > LOAD_SUM_TOLERANCE]
    if bad:
        details = "; ".join(f"ratios for {code} sum to {float(sums[code])}" for code in bad)
        raise CorrespondenceError(details)
    edges = tuple(
        CorrespondenceEdge(source, target, ratio / sums[source] if sums[source] != 1 else ratio)
        for source, target, ratio in raw
    )
    return CorrespondenceTable(from_edition, to_edition, level, edges)


class BoundaryRule(enum.Enum):
    """What happens when a shared ratio equals the discard threshold exactly."""

    SUPPRESS_AT_THRESHOLD = "suppress_at_threshold"
    KEEP_AT_THRESHOLD = "keep_at_threshold"


@dataclass(frozen=True)
class CorrespondencePolicy:
    discard_threshold: Fraction = Fraction(1, 10)
    boundary_rule: BoundaryRule = BoundaryRule.SUPPRESS_AT_THRESHOLD

    def __post_init__(self) -> None:
        threshold = _as_ratio(self.discard_threshold)
        if not 0 < threshold < 1:
            raise CorrespondenceError(f"discard threshold {float(threshold)} outside (0, 1)")
        object.__setattr__(self, "discard_threshold", threshold)
        if not isinstance(self.boundary_rule, BoundaryRule):
            object.__setattr__(self, "boundary_rule", BoundaryRule(self.boundary_rule))

    def suppresses(self, ratio: Fraction) -> bool:
        """True when a shared-target ratio is too large to discard."""
        if self.boundary_rule is BoundaryRule.SUPPRESS_AT_THRESHOLD:
            return ratio >= self.discard_threshold
        return ratio > self.discard_threshold


@dataclass(frozen=True)
class CorrespondenceOutcome:
    """What one conversion did: totals, provenance events, gap log."""

    op: str
    level: GeoLevel
    from_edition: BoundaryEdition
    to_edition: BoundaryEdition
    input_total: Fraction
    output_total: Fraction
    conserving: bool
    events: Mapping[RecordKey, tuple[str, ...]]
    zero_filled: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "level": self.level.value,
            "from_edition": int(self.from_edition),
            "to_edition": int(self.to_edition),
            "input_total": float(self.input_total),
            "input_total_exact": str(self.input_total),
            "output_total": float(self.output_total),
            "output_total_exact": str(self.output_total),
            "conserving": self.conserving,
            "zero_filled": list(self.zero_filled),
            "events": [
                {
                    "key": [key.region, key.calendar_year, key.age_group, key.sex],
                    "events": list(events),
                }
                for key, events in sorted(self.events.items(), key=lambda kv: kv[0].sort_key)
            ],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "CorrespondenceOutcome":
        events = {}
        for item in doc["events"]:
            code, year, age, sex = item["key"]
            events[RecordKey(code, int(year), age, sex)] = tuple(item["events"])
        return cls(
            op=doc["op"],
            level=GeoLevel(doc["level"]),
            from_edition=BoundaryEdition(doc["from_edition"]),
            to_edition=BoundaryEdition(doc["to_edition"]),
            input_total=Fraction(doc["input_total_exact"]),
            output_total=Fraction(doc["output_total_exact"]),
            conserving=bool(doc["conserving"]),
            events=events,
            zero_filled=tuple(doc.get("zero_filled", ())),
        )


def _check_mode(mode: str) -> None:
    if mode not in (MODE_DOUBLE, MODE_RATIONAL):
        raise CorrespondenceError(f"unknown arithmetic mode {mode!r}")


def _zero(mode: str) -> Magnitude:
    return Fraction(0) if mode == MODE_RATIONAL else 0.0


def _product(ratio: Fraction, magnitude: Magnitude, mode: str) -> Magnitude:
    exact = ratio * Fraction(magnitude)
    return exact if mode == MODE_RATIONAL else float(exact)


def _lift(magnitude: Magnitude, mode: str) -> Magnitude:
    return Fraction(magnitude) if mode == MODE_RATIONAL else float(magnitude)


def _data_total(dataset: Dataset) -> Fraction:
    return sum(
        (Fraction(r.value.magnitude) for r in dataset.records if r.value.is_data),
        Fraction(0),
    )


def _group_by_stratum(dataset: Dataset) -> dict[tuple, dict[str, StandardRecord]]:
    grouped: dict[tuple, dict[str, StandardRecord]] = {}
    for record in dataset.records:
        grouped.setdefault(record.key.stratum, {})[record.key.region] = record
    return grouped


def forward(
    dataset: Dataset,
    table: CorrespondenceTable,
    *,
    mode: str = MODE_DOUBLE,
    denominator: Dataset | None = None,
) -> tuple[Dataset, CorrespondenceOutcome]:
    """Redistribute to the table's later edition: value(T) = sum ratio(S->T) * value(S).

    Suppressed inputs taint every target they feed (emitted suppressed,
    high uncertainty); missing inputs contribute zero mass and tag their
    targets medium uncertainty, with the omission logged in the outcome.
    """
    _check_mode(mode)
    if dataset.edition is not table.from_edition:
        raise CorrespondenceError(
            f"dataset is at edition {int(dataset.edition)}, table starts at {int(table.from_edition)}"
        )
    if dataset.level is not table.level:
        raise CorrespondenceError(
            f"dataset level {dataset.level.value} does not match table level {table.level.value}"
        )
    if dataset.indicator.value_kind is not CellKind.COUNT:
        return _corresponded_ratio(dataset, table, None, mode=mode, denominator=denominator, op="forward")
    return _forward_counts(dataset, table, mode=mode)


def _forward_counts(dataset: Dataset, table: CorrespondenceTable, *, mode: str) -> tuple[Dataset, CorrespondenceOutcome]:
    edges_by_source = table.positive_edges_by_source()
    unknown = sorted({r.key.region for r in dataset.records} - set(edges_by_source))
    if unknown:
        raise CorrespondenceError(f"dataset regions absent from correspondence table: {', '.join(unknown)}")
    out_records: list[StandardRecord] = []
    events: dict[RecordKey, tuple[str, ...]] = {}
    zero_filled: list[str] = []
    tainted = False
    grouped = _group_by_stratum(dataset)
    for stratum in sorted(grouped):
        present = grouped[stratum]
        acc: dict[str, Magnitude] = {}
        unc: dict[str, UncertaintyLevel] = {}
        suppress_taint: set[str] = set()
        fill_taint: set[str] = set()
        for code in sorted(present):
            record = present[code]
            for edge in edges_by_source[code]:
                tcode = edge.target
                unc[tcode] = max(unc.get(tcode, UncertaintyLevel.LOW), record.value.uncertainty)
                if record.value.kind is CellKind.SUPPRESSED:
                    suppress_taint.add(tcode)
                elif record.value.kind is CellKind.MISSING:
                    fill_taint.add(tcode)
                    zero_filled.append(
                        f"{record.key.describe()}: missing input contributed zero mass to {tcode}"
                    )
                else:
                    acc[tcode] = acc.get(tcode, _zero(mode)) + _product(edge.ratio, record.value.magnitude, mode)
        year, age, sex = stratum
        for tcode in sorted(set(acc) | set(unc)):
            key = RecordKey(tcode, year, age, sex)
            if tcode in suppress_taint:
                tainted = True
                out_records.append(StandardRecord(key, CellValue.suppressed(UncertaintyLevel.HIGH)))
                events[key] = (EVENT_UNRESOLVABLE,)
                continue
            level = unc[tcode]
            evs: tuple[str, ...] = ()
            if tcode in fill_taint:
                level = max(level, UncertaintyLevel.MEDIUM)
                evs = (EVENT_ZERO_FILL,)
            out_records.append(
                StandardRecord(key, CellValue.count(acc.get(tcode, _zero(mode)), level))
            )
            events[key] = evs
    result = finalize(
        Dataset(
            indicator=dataset.indicator,
            records=tuple(out_records),
            edition=table.to_edition,
            level=table.level,
        )
    )
    outcome = CorrespondenceOutcome(
        op="forward",
        level=table.level,
        from_edition=table.from_edition,
        to_edition=table.to_edition,
        input_total=_data_total(dataset),
        output_total=_data_total(result),
        conserving=not tainted,
        events=events,
        zero_filled=tuple(zero_filled),
    )
    return result, outcome


def backward(
    dataset: Dataset,
    table: CorrespondenceTable,
    policy: CorrespondencePolicy,
    *,
    mode: str = MODE_DOUBLE,
    denominator: Dataset | None = None,
) -> tuple[Dataset, CorrespondenceOutcome]:
    """Reconstruct the table's earlier edition from later-edition data.

    A source region's value is the sum of the targets only it feeds.  Any
    ratio it sent into a shared target must be discardable (below the
    policy threshold); one ratio at or above it makes the region
    unreconstructable and it is emitted suppressed with high uncertainty.
    Discarded contributions tag the region medium uncertainty.
    """
    _check_mode(mode)
    if dataset.edition is not table.to_edition:
        raise CorrespondenceError(
            f"dataset is at edition {int(dataset.edition)}, table targets {int(table.to_edition)}"
        )
    if dataset.level is not table.level:
        raise CorrespondenceError(
            f"dataset level {dataset.level.value} does not match table level {table.level.value}"
        )
    if dataset.indicator.value_kind is not CellKind.COUNT:
        return _corresponded_ratio(dataset, table, policy, mode=mode, denominator=denominator, op="backward")
    return _backward_counts(dataset, table, policy, mode=mode)


def _backward_counts(
    dataset: Dataset,
    table: CorrespondenceTable,
    policy: CorrespondencePolicy,
    *,
    mode: str,
) -> tuple[Dataset, CorrespondenceOutcome]:
    edges_by_source = table.positive_edges_by_source()
    feeders = table.feeders()
    unknown = sorted({r.key.region for r in dataset.records} - set(feeders))
    if unknown:
        raise CorrespondenceError(f"dataset regions absent from correspondence table: {', '.join(unknown)}")
    out_records: list[StandardRecord] = []
    events: dict[RecordKey, tuple[str, ...]] = {}
    zero_filled: list[str] = []
    grouped = _group_by_stratum(dataset)
    for stratum in sorted(grouped):
        present = grouped[stratum]
        year, age, sex = stratum
        for source in sorted(edges_by_source):
            source_edges = edges_by_source[source]
            if not any(e.target in present for e in source_edges):
                continue
            key = RecordKey(source, year, age, sex)
            shared = [e for e in source_edges if len(feeders[e.target]) > 1]
            if any(policy.suppresses(e.ratio) for e in shared):
                out_records.append(StandardRecord(key, CellValue.suppressed(UncertaintyLevel.HIGH)))
                events[key] = (EVENT_BACKWARD_SUPPRESSED,)
                continue
            evs: list[str] = []
            if shared:
                evs.append(EVENT_SUBTHRESHOLD_DISCARD)
            total = _zero(mode)
            level = UncertaintyLevel.LOW
            unresolvable = False
            for edge in (e for e in source_edges if len(feeders[e.target]) == 1):
                record = present.get(edge.target)
                if record is None:
                    if EVENT_ZERO_FILL not in evs:
                        evs.append(EVENT_ZERO_FILL)
                    zero_filled.append(
                        f"{key.describe()}: no data for sole target {edge.target}, counted as zero"
                    )
                    continue
                level = max(level, record.value.uncertainty)
                if record.value.kind is CellKind.SUPPRESSED:
                    unresolvable = True
                    break
                if record.value.kind is CellKind.MISSING:
                    if EVENT_ZERO_FILL not in evs:
                        evs.append(EVENT_ZERO_FILL)
                    zero_filled.append(
                        f"{key.describe()}: missing value for sole target {edge.target}, counted as zero"
                    )
                    continue
                total = total + _lift(record.value.magnitude, mode)
            if unresolvable:
                out_records.append(StandardRecord(key, CellValue.suppressed(UncertaintyLevel.HIGH)))
                events[key] = (EVENT_UNRESOLVABLE,)
                continue
            if evs:
                level = max(level, UncertaintyLevel.MEDIUM)
            out_records.append(StandardRecord(key, CellValue.count(total, level)))
            events[key] = tuple(evs)
    result = finalize(
        Dataset(
            indicator=dataset.indicator,
            records=tuple(out_records),
            edition=table.from_edition,
            level=table.level,
        )
    )
    outcome = CorrespondenceOutcome(
        op="backward",
        level=table.level,
        from_edition=table.to_edition,
        to_edition=table.from_edition,
        input_total=_data_total(dataset),
        output_total=_data_total(result),
        conserving=False,
        events=events,
        zero_filled=tuple(zero_filled),
    )
    return result, outcome


def _derive_count_pair(dataset: Dataset, denominator: Dataset) -> tuple[Dataset, Dataset]:
    """Split a rate/percentage dataset into numerator and denominator counts."""
    if denominator.indicator.value_kind is not CellKind.COUNT:
        raise CorrespondenceError("denominator dataset must hold counts")
    if denominator.edition is not dataset.edition or denominator.level is not dataset.level:
        raise CorrespondenceError("denominator dataset must share the dataset's edition and level")
    denom_cells = {r.key: r.value for r in denominator.records}
    numerators: list[StandardRecord] = []
    denominators: list[StandardRecord] = []
    for record in dataset.records:
        denom = denom_cells.get(record.key)
        if denom is None:
            raise CorrespondenceError(f"denominator dataset lacks a record for {record.key.describe()}")
        value = record.value
        if value.kind is CellKind.SUPPRESSED or denom.kind is CellKind.SUPPRESSED:
            cell = CellValue.suppressed(max(value.uncertainty, denom.uncertainty))
        elif value.kind is CellKind.MISSING or denom.kind is CellKind.MISSING:
            cell = CellValue.missing(max(value.uncertainty, denom.uncertainty))
        else:
            product = Fraction(value.magnitude) * Fraction(denom.magnitude)
            cell = CellValue.count(float(product), max(value.uncertainty, denom.uncertainty))
        numerators.append(StandardRecord(record.key, cell))
        denominators.append(StandardRecord(record.key, denom))
    num_indicator = replace(dataset.indicator, id=f"{dataset.indicator.id}.numerator", value_kind=CellKind.COUNT)
    numerator_ds = Dataset(num_indicator, tuple(numerators), dataset.edition, dataset.level)
    denominator_ds = Dataset(denominator.indicator, tuple(denominators), dataset.edition, dataset.level)
    return numerator_ds, denominator_ds


def _corresponded_ratio(
    dataset: Dataset,
    table: CorrespondenceTable,
    policy: CorrespondencePolicy | None,
    *,
    mode: str,
    denominator: Dataset | None,
    op: str,
) -> tuple[Dataset, CorrespondenceOutcome]:
    """Convert a rate/percentage dataset by rebuilding numerator and denominator.

    Direct ratio-weighting of rates is refused: it is wrong whenever target
    regions combine populations of different sizes.
    """
    if denominator is None:
        raise CorrespondenceError(
            "correspondence defined for counts only; supply a denominator dataset to convert "
            f"{dataset.indicator.value_kind.value} values"
        )
    numerator_ds, denominator_ds = _derive_count_pair(dataset, denominator)
    if op == "forward":
        num_out, num_outcome = _forward_counts(numerator_ds, table, mode=mode)
        den_out, _ = _forward_counts(denominator_ds, table, mode=mode)
    else:
        assert policy is not None
        num_out, num_outcome = _backward_counts(numerator_ds, table, policy, mode=mode)
        den_out, _ = _backward_counts(denominator_ds, table, policy, mode=mode)
    den_cells = {r.key: r.value for r in den_out.records}
    records: list[StandardRecord] = []
    events: dict[RecordKey, tuple[str, ...]] = {}
    zero_filled = list(num_outcome.zero_filled)
    for record in num_out.records:
        denom = den_cells[record.key]
        level = max(record.value.uncertainty, denom.uncertainty)
        evs = tuple(num_outcome.events.get(record.key, ()))
        if record.value.kind is CellKind.SUPPRESSED or denom.kind is CellKind.SUPPRESSED:
            cell = CellValue.suppressed(UncertaintyLevel.HIGH)
            evs = evs or (EVENT_UNRESOLVABLE,)
        elif record.value.kind is CellKind.MISSING or denom.kind is CellKind.MISSING:
            cell = CellValue.missing(max(level, UncertaintyLevel.MEDIUM))
        elif denom.magnitude == 0:
            cell = CellValue.missing(max(level, UncertaintyLevel.MEDIUM))
            evs = tuple(dict.fromkeys([*evs, EVENT_ZERO_FILL]))
            zero_filled.append(f"{record.key.describe()}: corresponded denominator is zero")
        else:
            quotient = Fraction(record.value.magnitude) / Fraction(denom.magnitude)
            magnitude = quotient if mode == MODE_RATIONAL else float(quotient)
            cell = CellValue(dataset.indicator.value_kind, magnitude, level)
        records.append(StandardRecord(record.key, cell))
        events[record.key] = evs
    result = finalize(
        Dataset(
            indicator=dataset.indicator,
            records=tuple(records),
            edition=num_out.edition,
            level=num_out.level,
        )
    )
    outcome = CorrespondenceOutcome(
        op=op,
        level=table.level,
        from_edition=dataset.edition,
        to_edition=num_out.edition,
        input_total=Fraction(0),
        output_total=Fraction(0),
        conserving=False,
        events=events,
        zero_filled=tuple(zero_filled),
    )
    return result, outcome


@dataclass(frozen=True)
class PlanStep:
    """One conversion step; the table is named by its own orientation."""

    op: str  # "forward" | "backward"
    table_from: BoundaryEdition
    table_to: BoundaryEdition

    @property
    def result_edition(self) -> BoundaryEdition:
        return self.table_to if self.op == "forward" else self.table_from

    def describe(self) -> str:
        arrow = f"{int(self.table_from)}->{int(self.table_to)}"
        return f"{self.op} using table {arrow}"


def plan_route(
    start: BoundaryEdition,
    goal: BoundaryEdition,
    tables: Iterable[CorrespondenceTable | tuple[BoundaryEdition, BoundaryEdition]],
) -> tuple[PlanStep, ...]:
    """Shortest deterministic conversion plan; forward steps preferred on ties."""
    pairs: set[tuple[BoundaryEdition, BoundaryEdition]] = set()
    for table in tables:
        if isinstance(table, CorrespondenceTable):
            pairs.add((table.from_edition, table.to_edition))
        else:
            pairs.add((BoundaryEdition(table[0]), BoundaryEdition(table[1])))
    if start is goal:
        return ()
    queue: deque[tuple[BoundaryEdition, tuple[PlanStep, ...]]] = deque([(start, ())])
    visited = {start}
    while queue:
        edition, path = queue.popleft()
        moves: list[tuple[BoundaryEdition, PlanStep]] = []
        for a, b in sorted(pairs, key=lambda p: (int(p[0]), int(p[1]))):
            if a is edition:
                moves.append((b, PlanStep("forward", a, b)))
        for a, b in sorted(pairs, key=lambda p: (int(p[0]), int(p[1]))):
            if b is edition:
                moves.append((a, PlanStep("backward", a, b)))
        for nxt, step in moves:
            if nxt in visited:
                continue
            new_path = (*path, step)
            if nxt is goal:
                return new_path
            visited.add(nxt)
            queue.append((nxt, new_path))
    raise RouteError(
        f"no correspondence route from {int(start)} to {int(goal)}: "
        f"no table {int(start)}->{int(goal)} or {int(goal)}->{int(start)} is available"
    )


def execute_plan(
    dataset: Dataset,
    plan: Sequence[PlanStep],
    tables: Mapping[tuple[BoundaryEdition, BoundaryEdition], CorrespondenceTable],
    policy: CorrespondencePolicy,
    *,
    mode: str = MODE_DOUBLE,
    denominator: Dataset | None = None,
) -> tuple[Dataset, tuple[CorrespondenceOutcome, ...], Dataset | None]:
    """Apply a route plan step by step, carrying any denominator dataset along."""
    current = dataset
    denom = denominator
    outcomes: list[CorrespondenceOutcome] = []
    for step in plan:
        table = tables.get((step.table_from, step.table_to))
        if table is None:
            raise CorrespondenceError(f"missing correspondence table {step.describe()}")
        if step.op == "forward":
            current, outcome = forward(current, table, mode=mode, denominator=denom)
            if denom is not None:
                denom, _ = forward(denom, table, mode=mode)
        else:
            current, outcome = backward(current, table, policy, mode=mode, denominator=denom)
            if denom is not None:
                denom, _ = backward(denom, table, policy, mode=mode)
        outcomes.append(outcome)
    return current, tuple(outcomes), denom
