"""Boundary-edition conversion by ratio redistribution.

A correspondence table holds weighted directed edges between the region
codes of two boundary editions; the ratios out of each source region sum
to one.  Converting counts *forward* (earlier edition to later) multiplies
each source count through its ratios and sums per target.  Converting
*backward* reuses the same forward table: a region is rebuilt as the sum
of the targets only it feeds, provided every ratio it sent into a shared
target is small enough to discard (below the 10% threshold by default);
otherwise the region cannot be reconstructed and is emitted suppressed.

`forward` and `backward` convert counts only.  `convert` is the one entry
point: it finds the shortest route over a set of tables and runs it.
Rates and percentages go through it with a denominator count dataset: they
are split into numerator and denominator counts once, converted as counts
along the whole route, and divided at the end.

Ratios are stored as exact rationals parsed from the decimal text, so
per-source sums are exact.  A ratio and a magnitude are both integer
fractions, so each redistribution product is formed as one ``int / int``,
which CPython rounds correctly: the double nearest the exact value, with no
intermediate rounding of the ratio to a double.  The rate route multiplies
and divides two magnitudes with IEEE ``*`` and ``/`` when each is a double
or an int a double holds, and as one ``int / int`` otherwise: either way
the exact result is rounded once.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import zip_longest
from math import isinf
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import CorrespondenceError, RouteError
from .jsonio import decode_utf8, sha256_hex
from .model import (
    KEY_COLUMNS,
    BoundaryEdition,
    CellKind,
    Checked,
    Columns,
    Dataset,
    GeoLevel,
    UncertaintyLevel,
    csv_rows,
    describe_key,
    exact_total,
    ledger_csv,
)

# Record-level provenance events consumed by the QA uncertainty rule.
EVENT_SUBTHRESHOLD_DISCARD = "subthreshold-discard"
EVENT_ZERO_FILL = "missing-zero-fill"
EVENT_BACKWARD_SUPPRESSED = "backward-suppressed"
EVENT_UNRESOLVABLE = "unresolvable-redistribution"

MEDIUM_EVENTS = frozenset({EVENT_SUBTHRESHOLD_DISCARD, EVENT_ZERO_FILL})
HIGH_EVENTS = frozenset({EVENT_BACKWARD_SUPPRESSED, EVENT_UNRESOLVABLE})

LOAD_SUM_TOLERANCE = Fraction(1, 10**6)

_SUPPRESSED_CELL = (CellKind.SUPPRESSED, None, UncertaintyLevel.HIGH)


def _as_ratio(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise CorrespondenceError(f"cannot interpret ratio {value!r}")


class _EdgeFields(NamedTuple):
    source: str
    target: str
    ratio: Fraction


class CorrespondenceEdge(Checked, _EdgeFields):
    """One weighted edge: `ratio` of `source`'s count flows to `target`."""

    __slots__ = ()

    def __new__(cls, source: str, target: str, ratio) -> "CorrespondenceEdge":
        ratio = _as_ratio(ratio)
        if not 0 <= ratio <= 1:
            raise CorrespondenceError(f"ratio {float(ratio)} for {source}->{target} outside [0, 1]")
        return super().__new__(cls, source, target, ratio)


class _TableFields(NamedTuple):
    from_edition: BoundaryEdition
    to_edition: BoundaryEdition
    level: GeoLevel
    edges: tuple[CorrespondenceEdge, ...]


class CorrespondenceTable(Checked, _TableFields):
    __slots__ = ()

    def __new__(cls, from_edition, to_edition, level, edges) -> "CorrespondenceTable":
        return super().__new__(cls, from_edition, to_edition, level, tuple(edges))

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
    text = decode_utf8(data, CorrespondenceError, "correspondence table")
    rows = [row for row in csv_rows(text, CorrespondenceError) if row]
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


class _DiscardPolicyFields(NamedTuple):
    discard_threshold: Fraction


class CorrespondencePolicy(Checked, _DiscardPolicyFields):
    __slots__ = ()

    def __new__(cls, discard_threshold=Fraction(1, 10)) -> "CorrespondencePolicy":
        threshold = _as_ratio(discard_threshold)
        if not 0 < threshold < 1:
            raise CorrespondenceError(f"discard threshold {float(threshold)} outside (0, 1)")
        return super().__new__(cls, threshold)

    def suppresses(self, ratio: Fraction) -> bool:
        """True when a shared-target ratio is too large to discard.

        Only a sub-threshold ratio is discarded, so a ratio equal to the
        threshold suppresses its region.
        """
        return ratio >= self.discard_threshold


class CorrespondenceOutcome(NamedTuple):
    """What one conversion did: totals, provenance events, gap log.

    `events` holds only output keys that had at least one event; a key
    that is absent had none.  `output_magnitudes`, when set, is the
    output's magnitude column, which `output_total` totals.
    """

    op: str
    level: GeoLevel
    from_edition: BoundaryEdition
    to_edition: BoundaryEdition
    input_total: Fraction
    output_total: Fraction
    conserving: bool
    events: Mapping[tuple[str, int, str, str], tuple[str, ...]]
    zero_filled: tuple[str, ...] = ()
    output_magnitudes: tuple | None = None

    def to_json(self) -> dict:
        """The step's entry in a correspondence report; its events are the ledger's, counted in `event_rows`."""
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
            "event_rows": sum(map(len, self.events.values())),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "CorrespondenceOutcome":
        """Build from one step of a correspondence report, without the events its ledger holds."""
        if not isinstance(doc, Mapping):
            raise CorrespondenceError(f"correspondence outcome {doc!r} is not a JSON object")
        try:
            conserving, zero_filled = doc["conserving"], doc.get("zero_filled", [])
            if not isinstance(conserving, bool):
                raise CorrespondenceError(
                    f"correspondence outcome conserving must be true or false, not {conserving!r}"
                )
            if not isinstance(zero_filled, list) or not all(isinstance(line, str) for line in zero_filled):
                raise CorrespondenceError(
                    f"correspondence outcome zero_filled must be a list of strings, not {zero_filled!r}"
                )
            return cls(
                op=doc["op"],
                level=GeoLevel(doc["level"]),
                from_edition=BoundaryEdition(doc["from_edition"]),
                to_edition=BoundaryEdition(doc["to_edition"]),
                input_total=Fraction(doc["input_total_exact"]),
                output_total=Fraction(doc["output_total_exact"]),
                conserving=conserving,
                events={},
                zero_filled=tuple(zero_filled),
            )
        except KeyError as exc:
            raise CorrespondenceError(f"correspondence outcome lacks {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise CorrespondenceError(f"malformed correspondence outcome: {exc}") from None


EVENT_LEDGER_COLUMNS = (*KEY_COLUMNS, "STEP", "EVENT")
_STEP_EVENTS = MEDIUM_EVENTS | HIGH_EVENTS


def outcomes_report(outcomes: Sequence[CorrespondenceOutcome]) -> tuple[dict, str]:
    """A correspondence report's JSON summary and its event ledger.

    The ledger has one line per (key, step, event): canonical key order,
    then step (counted from 1), then the event's place in the key's tuple.
    The summary holds each step's `to_json` and the ledger's SHA-256.
    """
    rows = sorted((key, step, events) for step, o in enumerate(outcomes, 1) for key, events in o.events.items())
    keys = [key for key, _, events in rows for _ in events]
    step_events = [f"{step},{event}" for _, step, events in rows for event in events]
    ledger = ledger_csv(EVENT_LEDGER_COLUMNS, zip(*keys), step_events)
    return {"steps": [o.to_json() for o in outcomes], "ledger_digest": sha256_hex(ledger)}, ledger


class OutcomeSummary(NamedTuple):
    """A correspondence report's JSON summary: its steps, without their events, and what binds their ledger."""

    steps: tuple[CorrespondenceOutcome, ...]
    event_rows: tuple[object, ...]
    ledger_digest: object

    @classmethod
    def from_json(cls, doc) -> "OutcomeSummary":
        """Read a summary; a wrongly shaped one, or one in the older format (a JSON list of steps), raises."""
        if not isinstance(doc, Mapping) or not isinstance(doc.get("steps"), list):
            raise CorrespondenceError("correspondence report is not a JSON object with a list of steps")
        steps = tuple(map(CorrespondenceOutcome.from_json, doc["steps"]))
        return cls(steps, tuple(step.get("event_rows") for step in doc["steps"]), doc.get("ledger_digest"))

    def outcomes(self, ledger: str) -> tuple[CorrespondenceOutcome, ...]:
        """The steps with their events, read from `ledger`: the text `outcomes_report` wrote beside this summary.

        A malformed line, or one written otherwise (out of order, say), raises CorrespondenceError naming it.
        """
        rows = csv_rows(ledger, CorrespondenceError)
        if next(rows, None) != list(EVENT_LEDGER_COLUMNS):
            raise CorrespondenceError(f"line 1: expected the header {','.join(EVENT_LEDGER_COLUMNS)}")
        events: list[dict] = [{} for _ in self.steps]
        steps = {str(n): mine for n, mine in enumerate(events, 1)}
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(EVENT_LEDGER_COLUMNS):
                raise CorrespondenceError(f"line {lineno}: expected 6 fields, got {len(row)}")
            region, year, age, sex, n, event = row
            problem = (
                "REGION, AGE_GROUP and SEX must be non-empty" if not (region and age and sex)
                else f"invalid CALENDAR_YEAR {year!r}" if not year.removeprefix("-").isdecimal()
                else f"invalid STEP {n!r}; the report has {len(events)} step(s)" if n not in steps
                else f"unknown EVENT {event!r}" if event not in _STEP_EVENTS else None
            )
            if problem:
                raise CorrespondenceError(f"line {lineno}: {problem}")
            key = (region, int(year), age, sex)
            steps[n][key] = steps[n].get(key, ()) + (event,)
        outcomes = tuple(step._replace(events=mine) for step, mine in zip(self.steps, events))
        summary, written = outcomes_report(outcomes)
        for lineno, (line, mine) in enumerate(zip_longest(ledger.split("\n"), written.split("\n")), start=1):
            if line != mine:
                raise CorrespondenceError(f"line {lineno}: not as written: out of order, or a field spelt otherwise")
        counts = tuple(step["event_rows"] for step in summary["steps"])
        if counts != self.event_rows:
            raise CorrespondenceError(f"{list(counts)} line(s) per step, but the report counts {list(self.event_rows)}")
        if summary["ledger_digest"] != self.ledger_digest:
            raise CorrespondenceError(f"SHA-256 {summary['ledger_digest']} differs from the report's ledger_digest")
        return outcomes


def _data_total(dataset: Dataset) -> Fraction:
    return exact_total(m for m in dataset.columns.magnitude if m is not None)


def _rows_by_region(dataset: Dataset, codes: Iterable[str]) -> tuple[dict[str, dict[int, int]], list[tuple]]:
    """({region: {stratum rank: row}}, the sorted (year, age group, sex) strata the ranks index).

    A rank sorts as its stratum does and hashes faster.  A repeated key keeps its last row; a region not in `codes` raises.
    """
    c = dataset.columns
    strata = sorted(set(zip(c.year, c.age, c.sex)))
    rank = {stratum: k for k, stratum in enumerate(strata)}
    rows_of: dict[str, dict[int, int]] = {}
    for i, (region, k) in enumerate(zip(c.region, map(rank.__getitem__, zip(c.year, c.age, c.sex)))):
        rows_of.setdefault(region, {})[k] = i
    unknown = sorted(set(rows_of).difference(codes))
    if unknown:
        raise CorrespondenceError(f"dataset regions absent from correspondence table: {', '.join(unknown)}")
    return rows_of, strata


def _check_inputs(dataset: Dataset, table: CorrespondenceTable, edition: BoundaryEdition, role: str) -> None:
    """Reject a dataset that is not counts at `edition` and the table's level."""
    if dataset.edition is not edition:
        raise CorrespondenceError(f"dataset is at edition {int(dataset.edition)}, table {role} {int(edition)}")
    if dataset.level is not table.level:
        raise CorrespondenceError(
            f"dataset level {dataset.level.value} does not match table level {table.level.value}"
        )
    if dataset.indicator.value_kind is not CellKind.COUNT:
        raise CorrespondenceError(
            "correspondence defined for counts only; supply a denominator dataset to convert "
            f"{dataset.indicator.value_kind.value} values"
        )


def forward(
    dataset: Dataset,
    table: CorrespondenceTable,
    _totals: bool = True,
) -> tuple[Dataset, CorrespondenceOutcome]:
    """Redistribute counts to the table's later edition: value(T) = sum ratio(S->T) * value(S).

    Suppressed inputs taint every target they feed (emitted suppressed,
    high uncertainty); missing inputs contribute zero mass and tag their
    targets medium uncertainty, with the omission logged in the outcome.

    A target is emitted once per stratum in which any of its feeders (the
    sources with a positive edge into it) has a row, and summed from 0.0
    over them in code order.  Walking the targets in order and each one's
    strata in order emits canonical order.  With `_totals` false the
    outcome's totals are 0, for a caller that discards them.
    """
    _check_inputs(dataset, table, table.from_edition, "starts at")
    edges_by_source = table.positive_edges_by_source()
    rows_of, strata_of = _rows_by_region(dataset, edges_by_source)
    kinds, magnitudes, levels = dataset.columns[4:]
    # Enum members read as locals: a class attribute read costs far more on each row.
    count, suppressed, missing, low = CellKind.COUNT, CellKind.SUPPRESSED, CellKind.MISSING, UncertaintyLevel.LOW
    # {target: [(source, its rows, ratio numerator, ratio denominator)]}, sources in code order.
    feeders: dict[str, list[tuple]] = {}
    for source in sorted(rows_of):
        for e in edges_by_source[source]:
            feeders.setdefault(e.target, []).append((source, rows_of[source], e.ratio.numerator, e.ratio.denominator))
    out_regions, out_ranks, out_kinds, out_magnitudes, out_levels = [], [], [], [], []
    events: dict[tuple, tuple[str, ...]] = {}
    fills: list[tuple] = []
    for target in sorted(feeders):
        sources = feeders[target]
        ranks = sorted(set().union(*(rows for _, rows, _, _ in sources)))
        out_regions += [target] * len(ranks)
        out_ranks += ranks
        for k in ranks:
            total, level, kind, filled = 0.0, low, count, False
            for source, rows, ratio_n, ratio_d in sources:
                i = rows.get(k)
                if i is None:
                    continue
                if levels[i] > level:
                    level = levels[i]
                if kinds[i] is suppressed:
                    kind = suppressed
                elif kinds[i] is missing:
                    fills.append((k, source, target))
                    filled = True
                else:
                    # CPython rounds int / int correctly: the double nearest ratio * magnitude.
                    n, d = magnitudes[i].as_integer_ratio()
                    total += ratio_n * n / (ratio_d * d)
            if kind is suppressed:
                total, level = None, UncertaintyLevel.HIGH
                events[(target, *strata_of[k])] = (EVENT_UNRESOLVABLE,)
            elif filled:
                level = max(level, UncertaintyLevel.MEDIUM)
                events[(target, *strata_of[k])] = (EVENT_ZERO_FILL,)
            out_kinds.append(kind)
            out_magnitudes.append(total)
            out_levels.append(level)
    out_strata = _transpose(list(map(strata_of.__getitem__, out_ranks)), 3)
    columns = Columns(tuple(out_regions), *out_strata, tuple(out_kinds), tuple(out_magnitudes), tuple(out_levels))
    result = Dataset(dataset.indicator, columns, table.to_edition, table.level)
    outcome = CorrespondenceOutcome(
        op="forward",
        level=table.level,
        from_edition=table.from_edition,
        to_edition=table.to_edition,
        input_total=_data_total(dataset) if _totals else Fraction(0),
        output_total=_data_total(result) if _totals else Fraction(0),
        conserving=suppressed not in out_kinds,
        events=events,
        zero_filled=tuple(
            f"{describe_key(source, *strata_of[k])}: missing input contributed zero mass to {target}"
            for k, source, target in sorted(fills)
        ),
        output_magnitudes=columns.magnitude if _totals else None,
    )
    return result, outcome


def backward(
    dataset: Dataset,
    table: CorrespondenceTable,
    policy: CorrespondencePolicy,
    _totals: bool = True,
) -> tuple[Dataset, CorrespondenceOutcome]:
    """Reconstruct counts at the table's earlier edition from later-edition data.

    A source region's value is the sum of the targets only it feeds.  Any
    ratio it sent into a shared target must be discardable (below the
    policy threshold); one ratio at or above it makes the region
    unreconstructable and it is emitted suppressed with high uncertainty.
    Discarded contributions tag the region medium uncertainty.

    A source is emitted once per stratum in which any of its targets has a
    row.  Walking the sources in order and each one's strata in order
    emits canonical order; the zero-fill log is kept in stratum order, then
    source, then sole target.  `_totals` is as in `forward`.
    """
    _check_inputs(dataset, table, table.to_edition, "targets")
    edges_by_source = table.positive_edges_by_source()
    feeders = table.feeders()
    rows_of, strata_of = _rows_by_region(dataset, feeders)
    kinds, magnitudes, levels = dataset.columns[4:]
    # Enum members read as locals: a class attribute read costs far more on each row.
    count, suppressed, missing, low = CellKind.COUNT, CellKind.SUPPRESSED, CellKind.MISSING, UncertaintyLevel.LOW
    out_regions: list[str] = []
    out_ranks: list[int] = []
    cells: list[tuple] = []
    events: dict[tuple, tuple[str, ...]] = {}
    fills_by_rank: dict[int, list[str]] = {}
    for source in sorted(edges_by_source):
        source_edges = edges_by_source[source]
        ranks = sorted(set().union(*(rows_of.get(e.target, ()) for e in source_edges)))
        out_regions += [source] * len(ranks)
        out_ranks += ranks
        shared = [e.ratio for e in source_edges if len(feeders[e.target]) > 1]
        if any(map(policy.suppresses, shared)):
            cells += [_SUPPRESSED_CELL] * len(ranks)
            events.update(((source, *strata_of[k]), (EVENT_BACKWARD_SUPPRESSED,)) for k in ranks)
            continue
        sole = [(e.target, rows_of.get(e.target, {})) for e in source_edges if len(feeders[e.target]) == 1]
        discarded = (EVENT_SUBTHRESHOLD_DISCARD,) if shared else ()
        for k in ranks:
            total = 0.0
            level = low
            fills: list[str] = []
            for target, target_rows in sole:
                i = target_rows.get(k)
                if i is None:
                    fills.append(f"no data for sole target {target}")
                    continue
                if levels[i] > level:
                    level = levels[i]
                if kinds[i] is suppressed:
                    cells.append(_SUPPRESSED_CELL)
                    events[(source, *strata_of[k])] = (EVENT_UNRESOLVABLE,)
                    break
                if kinds[i] is missing:
                    fills.append(f"missing value for sole target {target}")
                    continue
                total += magnitudes[i]
            else:
                # Only a region that is emitted as a count logs what it counted as zero.
                if fills:
                    fills_by_rank.setdefault(k, []).extend(
                        f"{describe_key(source, *strata_of[k])}: {fill}, counted as zero" for fill in fills
                    )
                if fills or discarded:
                    level = max(level, UncertaintyLevel.MEDIUM)
                    events[(source, *strata_of[k])] = discarded + ((EVENT_ZERO_FILL,) if fills else ())
                cells.append((count, total, level))
    out_strata = _transpose(list(map(strata_of.__getitem__, out_ranks)), 3)
    columns = Columns(tuple(out_regions), *out_strata, *_transpose(cells, 3))
    result = Dataset(dataset.indicator, columns, table.from_edition, table.level)
    outcome = CorrespondenceOutcome(
        op="backward",
        level=table.level,
        from_edition=table.to_edition,
        to_edition=table.from_edition,
        input_total=_data_total(dataset) if _totals else Fraction(0),
        output_total=_data_total(result) if _totals else Fraction(0),
        conserving=False,
        events=events,
        zero_filled=tuple(line for k in sorted(fills_by_rank) for line in fills_by_rank[k]),
    )
    return result, outcome


def _derive_count_pair(dataset: Dataset, denominator: Dataset) -> tuple[Dataset, Dataset]:
    """Split a rate/percentage dataset into numerator and denominator counts.

    Both keep the dataset's key columns; the denominator's cells are those
    of its rows with the same keys.  When the two datasets have the same
    keys in the same order, the denominator counts are `denominator` itself.
    """
    if denominator.indicator.value_kind is not CellKind.COUNT:
        raise CorrespondenceError("denominator dataset must hold counts")
    if denominator.edition is not dataset.edition or denominator.level is not dataset.level:
        raise CorrespondenceError("denominator dataset must share the dataset's edition and level")
    c = dataset.columns
    if c[:4] != denominator.columns[:4]:
        d = denominator.columns
        row_of = dict(zip(d.record_keys(), range(len(d.region))))
        try:
            rows = list(map(row_of.__getitem__, c.record_keys()))
        except KeyError as exc:
            raise CorrespondenceError(f"denominator dataset lacks a record for {describe_key(*exc.args[0])}") from None
        denominator = denominator.with_columns(d.take(rows))
    count, suppressed, missing = CellKind.COUNT, CellKind.SUPPRESSED, CellKind.MISSING
    doubles = _doubles(c.magnitude, denominator.columns.magnitude)
    numerator_cells: list[tuple] = []
    for kind, magnitude, level, denom_kind, denom_magnitude, denom_level in zip(*c[4:], *denominator.columns[4:]):
        worst = denom_level if denom_level > level else level
        if kind is suppressed or denom_kind is suppressed:
            numerator_cells.append((suppressed, None, worst))
        elif kind is missing or denom_kind is missing:
            numerator_cells.append((missing, None, worst))
        elif doubles:
            # An exact zero is +0.0, as the exact product's is.
            product = float(magnitude * denom_magnitude) if magnitude and denom_magnitude else 0.0
            if isinf(product):
                raise OverflowError("rate numerator count too large for a double")
            numerator_cells.append((count, product, worst))
        else:
            n, q = magnitude.as_integer_ratio()
            denom_n, denom_q = denom_magnitude.as_integer_ratio()
            numerator_cells.append((count, n * denom_n / (q * denom_q), worst))
    num_indicator = dataset.indicator._replace(id=f"{dataset.indicator.id}.numerator", value_kind=CellKind.COUNT)
    numerator_ds = Dataset(
        num_indicator, Columns(*c[:4], *_transpose(numerator_cells, 3)), dataset.edition, dataset.level
    )
    return numerator_ds, denominator


def _doubles(*columns: tuple) -> bool:
    """True when every magnitude is a double or an int a double holds, so IEEE `*` and `/` round the exact result."""
    return all(type(m) is float or -2**53 <= m <= 2**53 for column in columns for m in set(column) if m is not None)


def _transpose(cells: list[tuple], width: int) -> tuple[tuple, ...]:
    return tuple(zip(*cells)) if cells else ((),) * width


def _quotient(
    dataset: Dataset,
    num_out: Dataset,
    den_out: Dataset,
    num_outcome: CorrespondenceOutcome,
) -> tuple[Dataset, CorrespondenceOutcome]:
    """Divide converted numerator counts by converted denominator counts; rows keep their order.

    Both sides went through the same steps from the same keys, so their
    rows pair up one to one.
    """
    c, d = num_out.columns, den_out.columns
    if c[:4] != d[:4]:
        raise CorrespondenceError("converted numerator and denominator counts have different records")
    value_kind = dataset.indicator.value_kind
    suppressed, missing = CellKind.SUPPRESSED, CellKind.MISSING
    doubles = _doubles(c.magnitude, d.magnitude)
    cells: list[tuple] = []
    events: dict[tuple, tuple[str, ...]] = {}
    zero_filled = list(num_outcome.zero_filled)
    for key, kind, magnitude, level, denom_kind, denom_magnitude, denom_level in zip(c.record_keys(), *c[4:], *d[4:]):
        if denom_level > level:
            level = denom_level
        evs = num_outcome.events.get(key, ())
        if kind is suppressed or denom_kind is suppressed:
            cells.append(_SUPPRESSED_CELL)
            evs = evs or (EVENT_UNRESOLVABLE,)
        elif kind is missing or denom_kind is missing:
            cells.append((missing, None, max(level, UncertaintyLevel.MEDIUM)))
        elif denom_magnitude == 0:
            cells.append((missing, None, max(level, UncertaintyLevel.MEDIUM)))
            evs = tuple(dict.fromkeys([*evs, EVENT_ZERO_FILL]))
            zero_filled.append(f"{describe_key(*key)}: corresponded denominator is zero")
        elif doubles:
            # A zero numerator made +0.0 gives a zero of the denominator's sign, as the exact quotient's is.
            quotient = (magnitude + 0.0) / denom_magnitude
            if isinf(quotient):
                raise OverflowError(f"{describe_key(*key)}: rate quotient too large for a double")
            cells.append((value_kind, quotient, level))
        else:
            n, q = magnitude.as_integer_ratio()
            denom_n, denom_q = denom_magnitude.as_integer_ratio()
            cells.append((value_kind, n * denom_q / (q * denom_n), level))
        if evs:
            events[key] = evs
    columns = Columns(*c[:4], *_transpose(cells, 3))
    result = Dataset(dataset.indicator, columns, num_out.edition, num_out.level)
    return result, num_outcome._replace(events=events, zero_filled=tuple(zero_filled))


def _route(start, goal, tables: Mapping) -> list[tuple[str, object]]:
    """The shortest route from edition `start` to `goal` as (op, table) steps, forward steps preferred on ties.

    `tables` is keyed by its tables' (from, to) editions; editions compare
    by value, so plain ints key it as well as `BoundaryEdition`s.
    """
    pairs = sorted(tables, key=lambda p: (int(p[0]), int(p[1])))
    queue: deque[tuple[object, list]] = deque([(start, [])])
    visited = {start}
    while queue:
        edition, path = queue.popleft()
        if edition == goal:
            return path
        moves = [(b, "forward", (a, b)) for a, b in pairs if a == edition]
        moves += [(a, "backward", (a, b)) for a, b in pairs if b == edition]
        for nxt, op, pair in moves:
            if nxt not in visited:
                visited.add(nxt)
                queue.append((nxt, [*path, (op, tables[pair])]))
    raise RouteError(
        f"no correspondence route from {int(start)} to {int(goal)}: "
        f"no table {int(start)}->{int(goal)} or {int(goal)}->{int(start)} is available"
    )


def convert(
    dataset: Dataset,
    target_edition: BoundaryEdition,
    tables: Mapping[tuple[BoundaryEdition, BoundaryEdition], CorrespondenceTable],
    policy: CorrespondencePolicy,
    *,
    denominator: Dataset | None = None,
    converted_denominator: Dataset | None = None,
) -> tuple[Dataset, tuple[CorrespondenceOutcome, ...]]:
    """Convert `dataset` to `target_edition` along the shortest route over `tables`, one outcome per step.

    A dataset already at `target_edition` is returned itself, with no
    outcomes; any other result is marked `correspondence_applied`.

    A rate or percentage is never ratio-weighted directly: that is wrong
    whenever a target region pools populations of different sizes.  It is
    split once, against `denominator`, into numerator and denominator
    counts; both go through the whole route as counts and are divided once
    at the end.  Its outcomes carry no totals and the numerator's events,
    the last one the quotient's events and zero-fill log.

    `converted_denominator`, if given, is `denominator` already converted
    to `target_edition`.  It stands in for converting the denominator counts
    again when the dataset's keys are the denominator's, in the same order.
    """
    steps = _route(dataset.edition, target_edition, tables)
    if not steps:
        return dataset, ()

    def run(counts: Dataset, totals: bool = True) -> tuple[Dataset, list[CorrespondenceOutcome]]:
        outcomes = []
        for op, table in steps:
            if op == "forward":
                counts, outcome = forward(counts, table, totals)
            else:
                counts, outcome = backward(counts, table, policy, totals)
            outcomes.append(outcome)
        return counts, outcomes

    if denominator is None or dataset.indicator.value_kind is CellKind.COUNT:
        result, outcomes = run(dataset)
    else:
        numerator_ds, denominator_ds = _derive_count_pair(dataset, denominator)
        num_out, outcomes = run(numerator_ds, totals=False)
        if converted_denominator is not None and denominator_ds is denominator:
            den_out = converted_denominator
        else:
            den_out, _ = run(denominator_ds, totals=False)
        outcomes = [o._replace(conserving=False) for o in outcomes]
        result, outcomes[-1] = _quotient(dataset, num_out, den_out, outcomes[-1])
    return result._replace(indicator=result.indicator._replace(correspondence_applied=True)), tuple(outcomes)
