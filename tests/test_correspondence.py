"""Correspondence engine tests, checked against a dense matrix product and the per-row oracle."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.correspondence import (
    EVENT_BACKWARD_SUPPRESSED,
    EVENT_SUBTHRESHOLD_DISCARD,
    EVENT_ZERO_FILL,
    CorrespondenceEdge,
    CorrespondenceOutcome,
    CorrespondencePolicy,
    OutcomeSummary,
    _route,
    backward,
    convert,
    forward,
    load_table,
    outcomes_report,
)
from ardkit.errors import CorrespondenceError, RouteError
from ardkit.jsonio import canonical_dumps
from ardkit.model import BoundaryEdition, CellKind, Columns, Dataset, UncertaintyLevel, canonical_sort, check_cell
from ardkit.qa import assign_uncertainty

import oracle
from conftest import (
    E2011,
    E2016,
    E2021,
    SA3,
    count,
    make_counts,
    make_dataset,
    make_indicator,
    make_row,
    make_table,
    missing,
    percentage,
    rate,
    suppressed,
)
from tabgen import random_counts, random_table

E2006 = BoundaryEdition.ASGS2006
POLICY = CorrespondencePolicy()


def dense_oracle(values: dict[str, float], table) -> dict[str, float]:
    """Independent check: redistribution as a dense matrix-vector product."""
    sources = sorted(values)
    targets = sorted({e.target for e in table.edges})
    matrix = np.zeros((len(targets), len(sources)))
    for edge in table.edges:
        if edge.source in values:
            matrix[targets.index(edge.target), sources.index(edge.source)] = float(edge.ratio)
    out = matrix @ np.array([float(values[s]) for s in sources])
    return dict(zip(targets, out))


def magnitudes(dataset) -> dict[str, object]:
    return dict(zip(dataset.columns.region, dataset.columns.magnitude))


class Cell(NamedTuple):
    kind: CellKind
    magnitude: object
    uncertainty: UncertaintyLevel


def cells(dataset) -> dict[str, Cell]:
    """{region: its cell}, for datasets of one stratum."""
    return dict(zip(dataset.columns.region, map(Cell, *dataset.columns[4:])))


def make_strata(cells_by_year, *, edition=E2016, indicator=None):
    """A dataset over several strata from {year: {code: magnitude-or-cell}}."""
    rows = [
        make_row(code, value if isinstance(value, tuple) else count(value), year=year)
        for year, cells in cells_by_year.items()
        for code, value in cells.items()
    ]
    return canonical_sort(make_dataset(rows, indicator=indicator, edition=edition))


def assert_matches_oracle(dataset, outcome, want: oracle.Converted):
    """Same keys, kinds, uncertainty, events and zero-fill log; magnitudes within 1e-9."""
    got = oracle.cells(dataset)
    assert got.keys() == want.cells.keys()
    for key, (kind, magnitude, level) in want.cells.items():
        got_kind, got_magnitude, got_level = got[key]
        assert (got_kind, got_level) == (kind, level), key
        if magnitude is None:
            assert got_magnitude is None, key
        else:
            assert float(got_magnitude) == pytest.approx(float(magnitude), rel=1e-9, abs=1e-9), key
    assert all(type(m) is float for m in dataset.columns.magnitude if m is not None)
    assert dict(outcome.events) == want.events
    assert sorted(outcome.zero_filled) == sorted(want.zero_filled)


class TestLoadTable:
    def test_valid_split(self):
        table = load_table(
            "FROM_CODE,TO_CODE,RATIO\nA,B,0.3\nA,C,0.7\n",
            level=SA3, from_edition=E2011, to_edition=E2016,
        )
        assert sum(e.ratio for e in table.edges) == 1

    def test_identity_edge(self):
        table = load_table(
            "FROM_CODE,TO_CODE,RATIO\nA,A,1.0\n",
            level=SA3, from_edition=E2011, to_edition=E2016,
        )
        assert table.edges[0].ratio == 1

    def test_bad_sum_is_fatal(self):
        with pytest.raises(CorrespondenceError, match=r"ratios for A sum to 0\.9"):
            load_table(
                "FROM_CODE,TO_CODE,RATIO\nA,B,0.3\nA,C,0.6\n",
                level=SA3, from_edition=E2011, to_edition=E2016,
            )

    def test_ratio_out_of_range(self):
        with pytest.raises(CorrespondenceError, match="outside"):
            load_table(
                "FROM_CODE,TO_CODE,RATIO\nA,B,1.5\n",
                level=SA3, from_edition=E2011, to_edition=E2016,
            )

    def test_duplicate_edge(self):
        with pytest.raises(CorrespondenceError, match="duplicate edge"):
            load_table(
                "FROM_CODE,TO_CODE,RATIO\nA,B,0.5\nA,B,0.5\n",
                level=SA3, from_edition=E2011, to_edition=E2016,
            )

    def test_missing_column(self):
        with pytest.raises(CorrespondenceError, match="RATIO"):
            load_table("FROM_CODE,TO_CODE\nA,B\n", level=SA3, from_edition=E2011, to_edition=E2016)

    def test_oversized_field_is_fatal_naming_its_line(self):
        with pytest.raises(CorrespondenceError, match=r"^line 2: field larger than field limit \(131072\)$"):
            load_table(
                f"FROM_CODE,TO_CODE,RATIO\nA,{'B' * 200_000},1\n",
                level=SA3, from_edition=E2011, to_edition=E2016,
            )

    def test_text_after_a_closing_quote_is_fatal(self):
        with pytest.raises(CorrespondenceError, match="^line 2: ',' expected after '\"'$"):
            load_table('FROM_CODE,TO_CODE,RATIO\n"A"B,C,1\n', level=SA3, from_edition=E2011, to_edition=E2016)

    def test_small_deviation_renormalized(self):
        table = load_table(
            "FROM_CODE,TO_CODE,RATIO\nA,B,0.3333333\nA,C,0.6666666\n",
            level=SA3, from_edition=E2011, to_edition=E2016,
        )
        assert sum(e.ratio for e in table.edges) == 1


class TestForward:
    def test_two_way_split(self):
        data = make_counts({"A": 100}, edition=E2011)
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        out, outcome = forward(data, table)
        assert magnitudes(out) == {"B": 30.0, "C": 70.0}
        assert out.edition is E2016
        assert outcome.conserving
        assert float(outcome.input_total) == float(outcome.output_total) == 100.0

    def test_shared_target_shape_matches_dense_oracle(self):
        # Two sources feeding three targets, one target shared.
        values = {"A": 10, "B": 20}
        table = make_table(
            [("A", "C", "0.6"), ("A", "D", "0.4"), ("B", "D", "0.5"), ("B", "E", "0.5")]
        )
        out, _ = forward(make_counts(values, edition=E2011), table)
        # Expected values frozen from the dense oracle: C=6, D=14, E=10.
        oracle = dense_oracle(values, table)
        assert oracle == {"C": 6.0, "D": 14.0, "E": 10.0}
        assert magnitudes(out) == oracle

    def test_identity_table_relabels_edition(self):
        data = make_counts({"A": 5, "B": 9}, edition=E2011)
        table = make_table([("A", "A", "1"), ("B", "B", "1")])
        out, _ = forward(data, table)
        assert magnitudes(out) == {"A": 5.0, "B": 9.0}
        assert out.edition is E2016
        assert out.level is data.level

    def test_suppressed_input_taints_targets(self):
        data = make_counts({"A": suppressed(), "B": 10}, edition=E2011)
        table = make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1")])
        out, outcome = forward(data, table)
        by_code = cells(out)
        assert by_code["C"].kind is CellKind.SUPPRESSED
        assert by_code["D"].kind is CellKind.SUPPRESSED
        assert by_code["D"].uncertainty is UncertaintyLevel.HIGH
        assert not outcome.conserving

    def test_missing_input_zero_fills_with_medium(self):
        data = make_counts({"A": missing(), "B": 10}, edition=E2011)
        table = make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1")])
        out, outcome = forward(data, table)
        by_code = cells(out)
        assert by_code["D"].magnitude == 10.0
        assert by_code["D"].uncertainty is UncertaintyLevel.MEDIUM
        assert by_code["C"].magnitude == 0.0
        assert outcome.conserving
        assert outcome.zero_filled
        key = next(k for k in outcome.events if k[0] == "D")
        assert outcome.events[key] == (EVENT_ZERO_FILL,)

    def test_region_missing_from_table_is_fatal(self):
        data = make_counts({"A": 1, "Z": 2}, edition=E2011)
        table = make_table([("A", "B", "1")])
        with pytest.raises(CorrespondenceError, match="Z"):
            forward(data, table)

    def test_wrong_edition_is_fatal(self):
        data = make_counts({"A": 1}, edition=E2016)
        table = make_table([("A", "B", "1")])
        with pytest.raises(CorrespondenceError, match="edition"):
            forward(data, table)

    def test_rate_without_denominator_is_fatal(self):
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        data = make_counts({"A": rate(5.0)}, edition=E2011, indicator=indicator)
        table = make_table([("A", "B", "1")])
        with pytest.raises(CorrespondenceError, match="counts only"):
            forward(data, table)

    def test_rate_with_denominator_weights_by_population(self):
        # Merging A (rate 10 per denom 100) and B (rate 20 per denom 300)
        # into C must give the pooled rate (10*100 + 20*300) / 400 = 17.5.
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts(
            {"A": rate(10.0), "B": rate(20.0)},
            edition=E2011, indicator=indicator,
        )
        denom = make_counts({"A": 100, "B": 300}, edition=E2011)
        table = make_table([("A", "C", "1"), ("B", "C", "1")])
        out, _ = convert(rates, E2016, {(E2011, E2016): table}, POLICY, denominator=denom)
        assert magnitudes(out) == {"C": 17.5}
        assert cells(out)["C"].kind is CellKind.RATE

    def test_denominator_lacking_a_record_names_the_first(self):
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts({code: rate(1.0) for code in "ABC"}, edition=E2011, indicator=indicator)
        denom = make_counts({"A": 100}, edition=E2011)
        table = make_table([("A", "X", "1"), ("B", "X", "1"), ("C", "X", "1")])
        with pytest.raises(CorrespondenceError, match=r"^denominator dataset lacks a record for B/2016/0-4/male$"):
            convert(rates, E2016, {(E2011, E2016): table}, POLICY, denominator=denom)

    def test_uncertainty_propagates_as_maximum(self):
        data = make_counts(
            {"A": count(4, UncertaintyLevel.MEDIUM), "B": count(6)},
            edition=E2011,
        )
        table = make_table([("A", "C", "1"), ("B", "C", "1")])
        out, _ = forward(data, table)
        assert cells(out)["C"].uncertainty is UncertaintyLevel.MEDIUM


@st.composite
def table_and_counts(draw, split_only=False, max_regions=50):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    table, sources = random_table(rng, max_regions=max_regions, split_only=split_only)
    data = random_counts(rng, sources)
    return table, data


class TestForwardProperties:
    @settings(max_examples=60, deadline=None)
    @given(table_and_counts())
    def test_matches_dense_oracle_within_1e12(self, case):
        table, data = case
        out, _ = forward(data, table)
        oracle = dense_oracle(magnitudes(data), table)
        for code, got in magnitudes(out).items():
            want = oracle[code]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(table_and_counts())
    def test_mass_conserved(self, case):
        table, data = case
        out, outcome = forward(data, table)
        total_in = sum(magnitudes(data).values())
        total_out = sum(magnitudes(out).values())
        assert total_out == pytest.approx(total_in, rel=1e-9)
        assert outcome.input_total == sum(Fraction(m) for m in magnitudes(data).values())
        # Exact in the oracle.
        exact = oracle.forward(oracle.cells(data), table)
        assert sum(value for _, value, _ in exact.cells.values()) == outcome.input_total


class TestBackward:
    def test_pure_split_reconstructs_exactly(self):
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        original = make_counts({"A": 100}, edition=E2011)
        later, _ = forward(original, table)
        assert magnitudes(later) == {"B": 30.0, "C": 70.0}
        rebuilt, outcome = backward(later, table, POLICY)
        assert rebuilt == original
        assert outcome.events.get(("A", 2016, "0-4", "male"), ()) == ()

    def test_subthreshold_shared_ratio_discards_with_medium(self):
        table = make_table(
            [("A", "C", "0.95"), ("A", "D", "0.05"), ("B", "D", "0.5"), ("B", "E", "0.5")]
        )
        later = make_counts({"C": 95, "D": 60, "E": 50}, edition=E2016)
        rebuilt, outcome = backward(later, table, POLICY)
        by_code = cells(rebuilt)
        # A keeps only its sole target C; the 5% share into D is discarded.
        assert by_code["A"].magnitude == 95.0
        assert by_code["A"].uncertainty is UncertaintyLevel.MEDIUM
        key = next(k for k in outcome.events if k[0] == "A")
        assert outcome.events[key] == (EVENT_SUBTHRESHOLD_DISCARD,)
        # B sent 50% into the shared target, far above the threshold.
        assert by_code["B"].kind is CellKind.SUPPRESSED
        assert by_code["B"].uncertainty is UncertaintyLevel.HIGH

    def test_suprathreshold_shared_ratio_suppresses(self):
        table = make_table(
            [("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "0.5"), ("B", "E", "0.5")]
        )
        later = make_counts({"C": 5, "D": 10, "E": 5}, edition=E2016)
        rebuilt, outcome = backward(later, table, POLICY)
        assert cells(rebuilt)["A"].kind is CellKind.SUPPRESSED
        key = next(k for k in outcome.events if k[0] == "A")
        assert outcome.events[key] == (EVENT_BACKWARD_SUPPRESSED,)

    def test_threshold_boundary_defaults_to_suppression(self):
        table = make_table(
            [("A", "C", "0.9"), ("A", "D", "0.1"), ("B", "D", "0.9"), ("B", "E", "0.1")]
        )
        later = make_counts({"C": 90, "D": 100, "E": 10}, edition=E2016)
        rebuilt, _ = backward(later, table, POLICY)
        assert cells(rebuilt)["A"].kind is CellKind.SUPPRESSED

    def test_missing_sole_target_record_zero_fills(self):
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        later = make_counts({"B": 30}, edition=E2016)
        rebuilt, outcome = backward(later, table, POLICY)
        assert cells(rebuilt)["A"].magnitude == 30.0
        assert cells(rebuilt)["A"].uncertainty is UncertaintyLevel.MEDIUM
        key = next(iter(outcome.events))
        assert EVENT_ZERO_FILL in outcome.events[key]

    def test_suppressed_sole_target_makes_region_unresolvable(self):
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        later = make_counts({"B": suppressed(), "C": 70}, edition=E2016)
        rebuilt, _ = backward(later, table, POLICY)
        assert cells(rebuilt)["A"].kind is CellKind.SUPPRESSED
        assert cells(rebuilt)["A"].uncertainty is UncertaintyLevel.HIGH

    def test_zero_fill_log_is_stratum_then_source_then_sole_target_order(self):
        table = make_table([("P", "P1", "0.5"), ("P", "P2", "0.5"), ("Q", "Q1", "0.5"), ("Q", "Q2", "0.5")])
        later = make_strata({
            2016: {"P1": 1, "P2": 2, "Q1": missing()},
            2017: {"P2": missing(), "Q1": missing(), "Q2": 5},
        })
        rebuilt, outcome = backward(later, table, POLICY)
        # Q's 2016 lines come before P's 2017 lines, although the sources are walked P first.
        assert outcome.zero_filled == (
            "Q/2016/0-4/male: missing value for sole target Q1, counted as zero",
            "Q/2016/0-4/male: no data for sole target Q2, counted as zero",
            "P/2017/0-4/male: no data for sole target P1, counted as zero",
            "P/2017/0-4/male: missing value for sole target P2, counted as zero",
            "Q/2017/0-4/male: missing value for sole target Q1, counted as zero",
        )
        assert list(zip(rebuilt.columns.region, rebuilt.columns.year)) == [
            ("P", 2016), ("P", 2017), ("Q", 2016), ("Q", 2017),
        ]
        assert_matches_oracle(rebuilt, outcome, oracle.backward(oracle.cells(later), table))

    def test_threshold_dichotomy(self):
        rng = random.Random(7)
        for _ in range(20):
            table, sources = random_table(rng, max_regions=12)
            data = random_counts(rng, sources)
            later, _ = forward(data, table)
            rebuilt, outcome = backward(later, table, POLICY)
            c = rebuilt.columns
            for key, kind, uncertainty in zip(c.record_keys(), c.kind, c.uncertainty):
                events = outcome.events.get(key, ())
                if kind is CellKind.SUPPRESSED:
                    assert events == (EVENT_BACKWARD_SUPPRESSED,)
                elif events:
                    assert set(events) <= {EVENT_SUBTHRESHOLD_DISCARD}
                    assert uncertainty is UncertaintyLevel.MEDIUM
                else:
                    assert uncertainty is UncertaintyLevel.LOW

    def test_monotone_suppression_as_threshold_drops(self):
        rng = random.Random(11)
        for _ in range(20):
            table, sources = random_table(rng, max_regions=12)
            data = random_counts(rng, sources)
            later, _ = forward(data, table)
            low = CorrespondencePolicy(discard_threshold=Fraction(1, 100))
            high = CorrespondencePolicy(discard_threshold=Fraction(1, 10))
            suppressed_low = {
                code for code, cell in cells(backward(later, table, low)[0]).items() if cell.kind is CellKind.SUPPRESSED
            }
            suppressed_high = {
                code for code, cell in cells(backward(later, table, high)[0]).items() if cell.kind is CellKind.SUPPRESSED
            }
            assert suppressed_high <= suppressed_low


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(table_and_counts(split_only=True, max_regions=20))
    def test_oracle_round_trip_is_identity(self, case):
        table, data = case
        original = oracle.cells(data)
        rebuilt = oracle.backward(oracle.forward(original, table).cells, table)
        assert rebuilt == (original, {}, [])

    @settings(max_examples=40, deadline=None)
    @given(table_and_counts(split_only=True, max_regions=20))
    def test_double_mode_round_trip_within_1e12(self, case):
        table, data = case
        later, _ = forward(data, table)
        rebuilt, _ = backward(later, table, POLICY)
        want = magnitudes(data)
        got = magnitudes(rebuilt)
        assert set(got) == set(want)
        for code in want:
            assert got[code] == pytest.approx(want[code], rel=1e-12, abs=1e-9)


class TestPlanRoute:
    """The route search, over mappings whose values stand for tables."""

    def test_identity_plan_is_empty(self):
        assert _route(E2016, E2016, {(E2011, E2016): "t"}) == []

    def test_direct_forward(self):
        assert _route(E2011, E2016, {(E2011, E2016): "t"}) == [("forward", "t")]

    def test_backward_via_reversed_table(self):
        assert _route(E2021, E2016, {(E2016, E2021): "t"}) == [("backward", "t")]

    def test_prefers_direct_table_when_present(self):
        tables = {(E2016, E2021): "t", (E2021, E2016): "u"}
        assert _route(E2021, E2016, tables) == [("forward", "u")]

    def test_multi_hop_composes_in_edition_order(self):
        tables = {(E2011, E2016): "b", (E2006, E2011): "a"}
        assert _route(E2006, E2016, tables) == [("forward", "a"), ("forward", "b")]

    def test_no_path_is_fatal(self):
        with pytest.raises(RouteError, match="2021"):
            _route(E2021, E2016, {(E2006, E2011): "t"})

    def test_empty_route_returns_the_input_itself(self):
        data = make_counts({"A": 42}, edition=E2011)
        out, outcomes = convert(data, E2011, {(E2011, E2016): make_table([("A", "B", "1")])}, POLICY)
        assert out is data
        assert outcomes == ()
        assert not out.indicator.correspondence_applied

    def test_one_step_route_marks_the_indicator(self):
        data = make_counts({"A": 42}, edition=E2011)
        out, (outcome,) = convert(data, E2016, {(E2011, E2016): make_table([("A", "B", "1")])}, POLICY)
        assert out.indicator.correspondence_applied
        assert not data.indicator.correspondence_applied
        assert (outcome.op, outcome.from_edition, outcome.to_edition) == ("forward", E2011, E2016)

    @pytest.mark.parametrize("start, goal", [(E2006, E2016), (E2016, E2006)])
    def test_int_keyed_tables_convert_as_edition_keyed_ones(self, start, goal):
        t1 = make_table([("A", "B", "1")], from_edition=E2006, to_edition=E2011)
        t2 = make_table([("B", "C", "1")], from_edition=E2011, to_edition=E2016)
        data = make_counts({"A" if start is E2006 else "C": 42}, edition=start)
        by_edition = {(E2006, E2011): t1, (E2011, E2016): t2}
        by_int = {(2006, 2011): t1, (2011, 2016): t2}
        want = convert(data, goal, by_edition, POLICY)
        assert len(want[1]) == 2
        assert convert(data, int(goal), by_int, POLICY) == want

    def test_convert_two_hops(self):
        t1 = make_table([("A", "B", "1")], from_edition=E2006, to_edition=E2011)
        t2 = make_table([("B", "C", "1")], from_edition=E2011, to_edition=E2016)
        data = make_counts({"A": 42}, edition=E2006)
        tables = {(E2006, E2011): t1, (E2011, E2016): t2}
        out, outcomes = convert(data, E2016, tables, POLICY)
        assert magnitudes(out) == {"C": 42.0}
        assert out.edition is E2016
        assert len(outcomes) == 2

    def test_two_hop_rate_equals_composed_one_hop(self):
        # E exists only in the denominator.  Its population must not be given
        # B's rate on the way through 2011: (10*100 + 20*300) / 400 = 17.5.
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts(
            {"A": rate(10.0), "B": rate(20.0)},
            edition=E2006, indicator=indicator,
        )
        denom = make_counts({"A": 100, "B": 300, "E": 1000}, edition=E2006)
        t1 = make_table([("A", "A", "1"), ("B", "B", "1"), ("E", "B", "1")], from_edition=E2006, to_edition=E2011)
        t2 = make_table([("A", "C", "1"), ("B", "C", "1")], from_edition=E2011, to_edition=E2016)
        composed = make_table([("A", "C", "1"), ("B", "C", "1"), ("E", "C", "1")], from_edition=E2006, to_edition=E2016)
        tables = {(E2006, E2011): t1, (E2011, E2016): t2}
        two_hop = convert(rates, E2016, tables, POLICY, denominator=denom)[0]
        one_hop = convert(rates, E2016, {(E2006, E2016): composed}, POLICY, denominator=denom)[0]
        assert magnitudes(one_hop) == {"C": 17.5}
        assert two_hop == one_hop

    def test_rate_outcomes_keep_one_entry_per_step(self):
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts({"A": rate(5.0)}, edition=E2006, indicator=indicator)
        denom = make_counts({"A": 0}, edition=E2006)
        t1 = make_table([("A", "B", "1")], from_edition=E2006, to_edition=E2011)
        t2 = make_table([("B", "C", "1")], from_edition=E2011, to_edition=E2016)
        tables = {(E2006, E2011): t1, (E2011, E2016): t2}
        out, outcomes = convert(rates, E2016, tables, POLICY, denominator=denom)
        assert [(o.op, int(o.from_edition), int(o.to_edition)) for o in outcomes] == [
            ("forward", 2006, 2011), ("forward", 2011, 2016),
        ]
        assert all(o.input_total == o.output_total == 0 and not o.conserving for o in outcomes)
        # Only the final quotient sees the zero denominator.
        assert outcomes[0].zero_filled == ()
        assert len(outcomes[1].zero_filled) == 1
        assert cells(out)["C"].kind is CellKind.MISSING


class TestRateReusesConvertedDenominator:
    TABLE = make_table([("P", "P1", "1"), ("Q", "Q1", "0.5"), ("Q", "Q2", "0.5")])

    def rates_and_denominator(self):
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts({"P1": rate(2.0), "Q1": rate(3.0)}, indicator=indicator)
        return rates, make_counts({"P1": 0, "Q1": 50})

    def test_zero_denominator_lines_follow_the_numerators(self):
        rates, denom = self.rates_and_denominator()
        tables = {(E2011, E2016): self.TABLE}
        out, (outcome,) = convert(rates, E2011, tables, POLICY, denominator=denom)
        # Q's numerator zero-fill comes first although P sorts before Q.
        want = [
            "Q/2016/0-4/male: no data for sole target Q2, counted as zero",
            "P/2016/0-4/male: corresponded denominator is zero",
        ]
        assert list(outcome.zero_filled) == want
        expected = oracle.rate_route(
            oracle.cells(rates), oracle.cells(denom), [("backward", self.TABLE)], value_kind=CellKind.RATE
        )
        assert expected.zero_filled == want
        assert_matches_oracle(out, outcome, expected)
        # The same denominator already converted gives the same result without converting it again.
        converted, _ = backward(denom, self.TABLE, POLICY)
        reused = convert(rates, E2011, tables, POLICY, denominator=denom, converted_denominator=converted)
        assert reused == (out, (outcome,))

    def test_converted_denominator_on_other_records_is_refused(self):
        rates, denom = self.rates_and_denominator()
        other, _ = backward(make_counts({"P1": 7}), self.TABLE, POLICY)
        with pytest.raises(CorrespondenceError, match="numerator and denominator counts have different records"):
            convert(rates, E2011, {(E2011, E2016): self.TABLE}, POLICY, denominator=denom, converted_denominator=other)


def random_hop(rng, sources, prefix, from_edition, to_edition):
    """A random many-to-many table from `sources` onto fresh `prefix` codes."""
    targets = [f"{prefix}{i:03d}" for i in range(rng.randint(1, 8))]
    edges = []
    for source in sources:
        mine = sorted(rng.sample(targets, rng.randint(1, min(3, len(targets)))))
        weights = [rng.randint(1, 9) for _ in mine]
        edges += [(source, target, Fraction(w, sum(weights))) for target, w in zip(mine, weights)]
    return make_table(edges, from_edition=from_edition, to_edition=to_edition), targets


class TestMultiHopRates:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_two_hop_rate_equals_composed_one_hop(self, seed):
        rng = random.Random(seed)
        sources = [f"S{i:03d}" for i in range(rng.randint(1, 8))]
        t1, middle = random_hop(rng, sources, "M", E2006, E2011)
        t2, _ = random_hop(rng, middle, "T", E2011, E2016)
        composed: dict[tuple[str, str], Fraction] = {}
        for e1 in t1.edges:
            for e2 in t2.edges:
                if e2.source == e1.target:
                    pair = (e1.source, e2.target)
                    composed[pair] = composed.get(pair, Fraction(0)) + e1.ratio * e2.ratio
        one = make_table([(s, t, r) for (s, t), r in composed.items()], from_edition=E2006, to_edition=E2016)
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rated = rng.sample(sources, rng.randint(1, len(sources)))
        rates = make_counts(
            {code: rate(rng.randint(0, 400) / 4) for code in rated},
            edition=E2006, indicator=indicator,
        )
        denom = make_counts({code: rng.randint(1, 1000) for code in sources}, edition=E2006)
        rates_cells, denom_cells = oracle.cells(rates), oracle.cells(denom)
        two_hop = oracle.rate_route(
            rates_cells, denom_cells, [("forward", t1), ("forward", t2)], value_kind=CellKind.RATE
        )
        one_hop = oracle.rate_route(rates_cells, denom_cells, [("forward", one)], value_kind=CellKind.RATE)
        assert two_hop == one_hop
        tables = {(E2006, E2011): t1, (E2011, E2016): t2}
        out, outcomes = convert(rates, E2016, tables, POLICY, denominator=denom)
        assert_matches_oracle(out, outcomes[-1], two_hop)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_backward_rate_route_matches_oracle(self, seed):
        rng = random.Random(seed)
        table, _ = random_table(rng, max_regions=30)
        targets = sorted({e.target for e in table.edges})

        def cell(value):
            roll = rng.random()
            return missing() if roll < 0.05 else suppressed() if roll < 0.1 else value

        indicator = make_indicator(id="demo.percentage", value_kind=CellKind.PERCENTAGE)
        shares = make_counts(
            {code: cell(percentage(rng.randint(0, 400) / 4)) for code in targets},
            edition=E2016, indicator=indicator,
        )
        denom = make_counts({code: cell(count(rng.choice([0, rng.randint(1, 1000)]))) for code in targets})
        tables = {(E2011, E2016): table}
        out, (outcome,) = convert(shares, E2011, tables, POLICY, denominator=denom)
        want = oracle.rate_route(
            oracle.cells(shares), oracle.cells(denom), [("backward", table)], value_kind=CellKind.PERCENTAGE
        )
        assert_matches_oracle(out, outcome, want)


class TestOutcomeSerialization:
    def test_round_trips_through_json(self):
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        data = make_counts({"A": 100}, edition=E2011)
        _, outcome = forward(data, table)
        doc = outcome.to_json()
        back = CorrespondenceOutcome.from_json(doc)
        assert back.input_total == outcome.input_total
        assert back.conserving == outcome.conserving
        assert back.events == dict(outcome.events)

    def test_only_keys_with_events_are_kept(self):
        data = make_counts({"A": missing(), "B": 10, "E": 4}, edition=E2011)
        table = make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1"), ("E", "F", "1")])
        out, outcome = forward(data, table)
        assert out.columns.region == ("C", "D", "F")
        assert {key[0]: evs for key, evs in outcome.events.items()} == {
            "C": (EVENT_ZERO_FILL,), "D": (EVENT_ZERO_FILL,),
        }
        summary, ledger = outcomes_report([outcome])
        assert [line.split(",")[0] for line in ledger.splitlines()[1:]] == ["C", "D"]
        assert OutcomeSummary.from_json(summary).outcomes(ledger)[0].events == dict(outcome.events)


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("conserving", "false", "correspondence outcome conserving must be true or false, not 'false'"),
            ("conserving", 1, "correspondence outcome conserving must be true or false, not 1"),
            ("zero_filled", "abc", "correspondence outcome zero_filled must be a list of strings, not 'abc'"),
            ("zero_filled", ["ok", 2], "correspondence outcome zero_filled must be a list of strings, not ['ok', 2]"),
        ],
        ids=["conserving-string", "conserving-number", "zero-filled-string", "zero-filled-number"],
    )
    def test_wrongly_typed_field_named(self, field, value, message):
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        doc = forward(make_counts({"A": 100}, edition=E2011), table)[1].to_json()
        doc[field] = value
        with pytest.raises(CorrespondenceError) as excinfo:
            CorrespondenceOutcome.from_json(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "line, message",
        [
            ("A,2016,,male,1,missing-zero-fill", "REGION, AGE_GROUP and SEX must be non-empty"),
            (",2016,0-4,male,1,missing-zero-fill", "REGION, AGE_GROUP and SEX must be non-empty"),
            ("A,2016.7,0-4,male,1,missing-zero-fill", "invalid CALENDAR_YEAR '2016.7'"),
            ("A,True,0-4,male,1,missing-zero-fill", "invalid CALENDAR_YEAR 'True'"),
            ("A,2016,0-4,1,missing-zero-fill", "expected 6 fields, got 5"),
            ("A,2016,0-4,male,1,x", "unknown EVENT 'x'"),
            ("A,2016,0-4,male,1,1", "unknown EVENT '1'"),
        ],
        ids=["non-string-token", "empty-region", "fractional-year", "boolean-year", "short-key", "events-string", "events-numbers"],
    )
    def test_malformed_event_entry_named(self, line, message):
        # A ledger line of the wrong shape is named by its line number.
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        summary, ledger = outcomes_report([forward(make_counts({"A": 100}, edition=E2011), table)[1]])
        ledger += f"A,2016,0-4,female,1,missing-zero-fill\n{line}\n"
        with pytest.raises(CorrespondenceError) as excinfo:
            OutcomeSummary.from_json(summary).outcomes(ledger)
        assert str(excinfo.value) == f"line 3: {message}"

    def test_a_total_beyond_a_float_is_malformed(self):
        summary, _ = outcomes_report([forward(make_counts({"A": 100}, edition=E2011), make_table([("A", "B", "1")]))[1]])
        summary["steps"][0]["input_total_exact"] = "1e400"
        with pytest.raises(CorrespondenceError, match="^malformed correspondence outcome: .*too large for a float$"):
            OutcomeSummary.from_json(summary)


class TestRationalRates:
    def test_identity_rate_conversion_is_exact(self):
        # The oracle's numerator count 0.1 x 3 stays exact, so dividing by 3 gives 0.1 back.
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts({"A": rate(0.1)}, edition=E2011, indicator=indicator)
        denom = make_counts({"A": 3}, edition=E2011)
        table = make_table([("A", "A", "1")])
        exact = oracle.rate_route(
            oracle.cells(rates), oracle.cells(denom), [("forward", table)], value_kind=CellKind.RATE
        )
        ((kind, magnitude, _),) = exact.cells.values()
        assert kind is CellKind.RATE
        assert type(magnitude) is Fraction
        assert magnitude == Fraction(0.1)
        tables = {(E2011, E2016): table}
        out, (outcome,) = convert(rates, E2016, tables, POLICY, denominator=denom)
        assert_matches_oracle(out, outcome, exact)


def old_double_product(ratio: Fraction, magnitude) -> float:
    """The double-mode product before it stopped building Fractions."""
    return float(ratio * Fraction(magnitude))


def old_double_quotient(numerator, denominator) -> float:
    """The double-mode quotient before it stopped building Fractions."""
    return float(Fraction(numerator) / Fraction(denominator))


class TestDoubleArithmeticBits:
    """Double mode rounds the exact product or quotient once, like float(Fraction)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(lambda r: 0 < r < 1),
        st.floats(min_value=0, max_value=1e12, allow_nan=False) | st.integers(0, 10**15),
    )
    def test_forward_product_matches_fraction_formula(self, ratio, magnitude):
        table = make_table([("A", "B", ratio), ("A", "C", 1 - ratio)])
        out, _ = forward(make_counts({"A": magnitude}, edition=E2011), table)
        got = magnitudes(out)
        assert got["B"].hex() == old_double_product(ratio, magnitude).hex()
        assert got["C"].hex() == old_double_product(1 - ratio, magnitude).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e9, allow_nan=False) | st.integers(1, 10**9),
    )
    def test_rate_route_matches_fraction_formulas(self, ratio, value, population):
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts({"A": rate(value)}, edition=E2011, indicator=indicator)
        denom = make_counts({"A": population}, edition=E2011)
        table = make_table([("A", "B", ratio), ("A", "C", 1 - ratio)])
        tables = {(E2011, E2016): table}
        out, _ = convert(rates, E2016, tables, POLICY, denominator=denom)
        numerator = old_double_product(Fraction(value), population)
        for code, share in (("B", ratio), ("C", 1 - ratio)):
            expected = old_double_quotient(
                old_double_product(share, numerator), old_double_product(share, population)
            )
            assert magnitudes(out)[code].hex() == expected.hex()


LEVELS = (UncertaintyLevel.LOW, UncertaintyLevel.LOW, UncertaintyLevel.MEDIUM, UncertaintyLevel.HIGH)
STRATA = ((2016, "0-4", "female"), (2016, "0-4", "male"), (2017, "5-9", "male"))


def scattered(rng, dataset, holes=0.05):
    """`dataset` with about `holes` of its rows dropped, missing or suppressed, and mixed uncertainty."""
    rows = []
    for region, year, age, sex, kind, magnitude, _ in zip(*dataset.columns):
        if kind is CellKind.COUNT and rng.random() < holes:
            kind, magnitude = rng.choice([None, CellKind.MISSING, CellKind.SUPPRESSED]), None
            if kind is None:
                continue
        level = rng.choice(LEVELS)
        check_cell(kind, magnitude, level)
        rows.append((region, year, age, sex, kind, magnitude, level))
    return canonical_sort(dataset.with_columns(Columns.from_rows(rows)))


class TestOracleAgreesAtScale:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_double_matches_oracle(self, seed):
        rng = random.Random(seed)
        table, sources = random_table(rng, max_regions=2000)
        rows = [
            make_row(code, count(rng.choice([rng.randint(0, 10_000), rng.random() * 1e4])),
                     year=year, age=age, sex=sex)
            for code in sources for year, age, sex in rng.sample(STRATA, rng.randint(2, len(STRATA)))
        ]
        data = scattered(rng, make_dataset(rows, edition=E2011))
        later, outcome = forward(data, table)
        assert_matches_oracle(later, outcome, oracle.forward(oracle.cells(data), table))
        assert outcome.conserving is not any(kind is CellKind.SUPPRESSED for kind in later.columns.kind)
        later = scattered(rng, later)
        rebuilt, outcome = backward(later, table, POLICY)
        assert_matches_oracle(rebuilt, outcome, oracle.backward(oracle.cells(later), table))


class CountingFraction(Fraction):
    made = 0

    def __new__(cls, *args, **kwargs):
        CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


class TestDoublePathBuildsNoFractionPerRecord:
    def test_fraction_constructions_scale_with_edges_not_records(self, monkeypatch):
        codes = [f"R{i:03d}" for i in range(200)]
        edges = []
        for i, code in enumerate(codes):
            if i % 3 == 0:
                edges += [(code, f"{code}a", "0.3"), (code, f"{code}b", "0.7")]
            else:
                edges.append((code, code, "1"))
        table = make_table(edges)
        rng = random.Random(3)
        strata = [(year, age, sex) for year in (2014, 2015, 2016) for age in ("0-4", "5-9") for sex in ("f", "m")]
        data = make_dataset((
            make_row(code, count(rng.randint(0, 500)), year=year, age=age, sex=sex)
            for code in codes for year, age, sex in strata
        ), edition=E2011)
        monkeypatch.setattr("ardkit.correspondence.Fraction", CountingFraction)
        later, _ = forward(data, table)
        after_forward = CountingFraction.made
        rebuilt, _ = backward(later, table, POLICY)
        after_backward = CountingFraction.made - after_forward
        assert len(data.columns.region) == 2400 and len(table.edges) == 267
        assert after_forward <= len(table.edges)
        assert after_backward <= len(table.edges)
        assert magnitudes(rebuilt) == magnitudes(data)


SPREAD_STRATA = ((2016, "0-4", "female"), (2016, "0-4", "male"), (2016, "5-9", "male"), (2017, "0-4", "male"))


def spread_input(rng, sources):
    """Unsorted rows over several strata, with repeats, mixed kinds, levels and magnitude types.

    Returns the Columns and {(region, stratum): the row a repeated key keeps, its last}.
    """
    rows = []
    for code in rng.sample(sources, rng.randint(1, len(sources))):
        for stratum in rng.sample(SPREAD_STRATA, rng.randint(1, len(SPREAD_STRATA))):
            kind = rng.choice([CellKind.COUNT] * 6 + [CellKind.MISSING, CellKind.SUPPRESSED])
            magnitude = None
            if kind is CellKind.COUNT:
                magnitude = rng.choice([rng.randint(0, 10_000), rng.random() * 1e4, 0.1, 0.0, 2**60 + 1])
            rows.append((code, *stratum, kind, magnitude, rng.choice(LEVELS)))
    repeats = rng.sample(rows, len(rows) // 5)
    rows += [(*row[:4], CellKind.COUNT, rng.randint(0, 99), UncertaintyLevel.LOW) for row in repeats]
    rng.shuffle(rows)
    return Columns.from_rows(rows), {(row[0], tuple(row[1:4])): row for row in rows}


def expected_forward(kept, table):
    """Per target and stratum, 0.0 plus float(ratio * magnitude) over its feeders in code order."""
    feeders: dict[str, list] = {}
    for edge in sorted(table.edges, key=lambda e: (e.source, e.target)):
        if edge.ratio > 0:
            feeders.setdefault(edge.target, []).append((edge.source, edge.ratio))
    cells, events, zero_filled = {}, {}, []
    strata = sorted({stratum for _, stratum in kept})
    for target in sorted(feeders):
        for stratum in strata:
            present = [(kept[source, stratum], ratio) for source, ratio in feeders[target] if (source, stratum) in kept]
            if not present:
                continue
            total, level = 0.0, max(row[6] for row, _ in present)
            kinds = {row[4] for row, _ in present}
            for row, ratio in present:
                if row[4] is CellKind.COUNT:
                    total += float(ratio * Fraction(row[5]))
            key = (target, *stratum)
            if CellKind.SUPPRESSED in kinds:
                cells[key] = (CellKind.SUPPRESSED, None, UncertaintyLevel.HIGH)
                events[key] = (oracle.UNRESOLVABLE,)
            elif CellKind.MISSING in kinds:
                cells[key] = (CellKind.COUNT, total, max(level, UncertaintyLevel.MEDIUM))
                events[key] = (EVENT_ZERO_FILL,)
            else:
                cells[key] = (CellKind.COUNT, total, level)
    for stratum in strata:
        for source in sorted({source for source, _ in kept}):
            row = kept.get((source, stratum))
            if row is not None and row[4] is CellKind.MISSING:
                for edge in sorted(table.edges, key=lambda e: e.target):
                    if edge.source == source and edge.ratio > 0:
                        name = "/".join(map(str, (source, *stratum)))
                        zero_filled.append(f"{name}: missing input contributed zero mass to {edge.target}")
    return cells, events, zero_filled


class TestForwardTargetMajor:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_each_cell_is_the_left_to_right_sum_over_feeders_in_code_order(self, seed):
        rng = random.Random(seed)
        table, sources = random_table(rng, max_regions=12)
        targets = sorted({e.target for e in table.edges})
        linked = {(e.source, e.target) for e in table.edges}
        # Zero-ratio edges link nothing, and an unknown target fed only at ratio 0 gets no row.
        zero = [(s, t) for s in sources for t in [*targets, "T999"] if (s, t) not in linked and rng.random() < 0.2]
        table = table._replace(edges=(*table.edges, *(CorrespondenceEdge(s, t, Fraction(0)) for s, t in zero)))
        columns, kept = spread_input(rng, sources)
        data = Dataset(make_indicator(), columns, E2011, SA3)
        out, outcome = forward(data, table)
        cells, events, zero_filled = expected_forward(kept, table)
        got = list(zip(out.columns.record_keys(), zip(*out.columns[4:])))
        assert [key for key, _ in got] == sorted(cells)
        for key, (kind, magnitude, level) in got:
            want_kind, want_magnitude, want_level = cells[key]
            assert (kind, level) == (want_kind, want_level), key
            if want_magnitude is None:
                assert magnitude is None, key
            else:
                assert type(magnitude) is float and magnitude.hex() == want_magnitude.hex(), key
        assert dict(outcome.events) == events
        assert list(outcome.zero_filled) == zero_filled
        assert outcome.conserving is (CellKind.SUPPRESSED not in out.columns.kind)
        assert outcome.input_total == sum(Fraction(row[5]) for row in zip(*columns) if row[5] is not None)
        assert outcome.output_total == sum(Fraction(m) for m in out.columns.magnitude if m is not None)
        assert outcome.output_magnitudes is out.columns.magnitude

    def test_totals_left_out_on_request(self):
        data = make_counts({"A": 100}, edition=E2011)
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        out, outcome = forward(data, table, False)
        assert outcome.input_total == outcome.output_total == 0
        assert outcome.output_magnitudes is None
        assert out == forward(data, table)[0]


def old_numerator(magnitude, denom_magnitude) -> float:
    """The rate route's numerator count before it used IEEE `*`: one int / int division."""
    n, q = magnitude.as_integer_ratio()
    denom_n, denom_q = denom_magnitude.as_integer_ratio()
    return n * denom_n / (q * denom_q)


def old_quotient(magnitude, denom_magnitude) -> float:
    """The rate route's quotient before it used IEEE `/`: one int / int division."""
    n, q = magnitude.as_integer_ratio()
    denom_n, denom_q = denom_magnitude.as_integer_ratio()
    return n * denom_q / (q * denom_n)


EDGE_MAGNITUDES = (
    0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, 2**53, 2**53 + 1, -(2**60) - 3, 3**40,
    1e308, 1.7976931348623157e308, 0.1, 7,
)
MAGNITUDES = (
    st.sampled_from(EDGE_MAGNITUDES)
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
)


def outcomes_of(fn, pairs):
    """fn on each pair, or OverflowError when fn overflows on any of them."""
    try:
        return [fn(a, b) for a, b in pairs]
    except OverflowError:
        return OverflowError


def rows_dataset(cells, kind):
    indicator = make_indicator(id=f"demo.{kind.value}", value_kind=kind)
    regions = tuple(f"R{i:02d}" for i in range(len(cells)))
    n = len(cells)
    columns = Columns(
        regions, (2016,) * n, ("0-4",) * n, ("male",) * n, (kind,) * n, tuple(cells), (UncertaintyLevel.LOW,) * n
    )
    return Dataset(indicator, columns, E2016, SA3)


class TestRateArithmeticMatchesExactDivision:
    """IEEE `*` and `/` give the bits of the old int / int divisions: signed zeros, subnormals, big ints, overflow."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(MAGNITUDES, MAGNITUDES), min_size=1, max_size=5))
    def test_numerator_counts(self, pairs):
        from ardkit.correspondence import _derive_count_pair

        want = outcomes_of(old_numerator, pairs)
        rates = rows_dataset([a for a, _ in pairs], CellKind.RATE)
        denominators = rows_dataset([b for _, b in pairs], CellKind.COUNT)
        if want is OverflowError:
            with pytest.raises(OverflowError):
                _derive_count_pair(rates, denominators)
            return
        numerator, denominator = _derive_count_pair(rates, denominators)
        assert denominator is denominators
        assert [m.hex() for m in numerator.columns.magnitude] == [m.hex() for m in want]
        assert all(type(m) is float for m in numerator.columns.magnitude)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(MAGNITUDES, MAGNITUDES.filter(bool)), min_size=1, max_size=5))
    def test_quotients(self, pairs):
        from ardkit.correspondence import _quotient

        want = outcomes_of(old_quotient, pairs)
        rates = rows_dataset([0.0] * len(pairs), CellKind.RATE)
        numerators = rows_dataset([a for a, _ in pairs], CellKind.COUNT)
        denominators = rows_dataset([b for _, b in pairs], CellKind.COUNT)
        outcome = CorrespondenceOutcome("forward", SA3, E2011, E2016, Fraction(0), Fraction(0), False, {})
        if want is OverflowError:
            with pytest.raises(OverflowError):
                _quotient(rates, numerators, denominators, outcome)
            return
        result, _ = _quotient(rates, numerators, denominators, outcome)
        assert [m.hex() for m in result.columns.magnitude] == [m.hex() for m in want]
        assert set(result.columns.kind) == {CellKind.RATE}

    def test_a_zero_keeps_the_sign_the_exact_division_gives(self):
        from ardkit.correspondence import _derive_count_pair, _quotient

        rates = rows_dataset([-0.0, 0.0, -1e-200], CellKind.RATE)
        numerator, _ = _derive_count_pair(rates, rows_dataset([5.0, -5.0, 1e-200], CellKind.COUNT))
        assert [m.hex() for m in numerator.columns.magnitude] == ["0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]
        outcome = CorrespondenceOutcome("forward", SA3, E2011, E2016, Fraction(0), Fraction(0), False, {})
        numerators = rows_dataset([-0.0, 0.0, 0.0], CellKind.COUNT)
        quotient, _ = _quotient(rates, numerators, rows_dataset([-5.0, 5.0, -5.0], CellKind.COUNT), outcome)
        assert [m.hex() for m in quotient.columns.magnitude] == ["-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]


class TestEventLedger:
    # The second age group needs quoting in a ledger line.
    STRATA = ((2016, "0-4", "male"), (2016, '5"9', "female"), (2017, "0-4", "male"))

    def dataset(self, rng, codes, edition, make_value, indicator=None):
        def cell():
            roll = rng.random()
            return missing() if roll < 0.1 else suppressed() if roll < 0.2 else make_value()

        rows = [make_row(code, cell(), *stratum) for code in codes for stratum in self.STRATA]
        return canonical_sort(make_dataset(rows, indicator=indicator, edition=edition))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["forward", "backward", "rate"]))
    def test_ledger_gives_assign_uncertainty_the_same_events(self, seed, route):
        rng = random.Random(seed)
        random_count = lambda: count(rng.randint(0, 500))  # noqa: E731
        if route == "rate":  # two forward hops, so the ledger holds two steps
            sources = [f"S{i:03d}" for i in range(rng.randint(1, 8))]
            t1, middle = random_hop(rng, sources, "M", E2006, E2011)
            t2, _ = random_hop(rng, middle, "T", E2011, E2016)
            rate_indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
            rates = self.dataset(rng, sources, E2006, lambda: rate(rng.randint(0, 400) / 4), rate_indicator)
            denominator = self.dataset(rng, sources, E2006, random_count)
            tables = {(E2006, E2011): t1, (E2011, E2016): t2}
            out, outcomes = convert(rates, E2016, tables, POLICY, denominator=denominator)
        else:
            table, sources = random_table(rng, max_regions=20)
            if route == "forward":
                out, outcome = forward(self.dataset(rng, sources, E2011, random_count), table)
            else:
                targets = sorted({edge.target for edge in table.edges})
                out, outcome = backward(self.dataset(rng, targets, E2016, random_count), table, POLICY)
            outcomes = (outcome,)
        summary, ledger = outcomes_report(outcomes)
        read = OutcomeSummary.from_json(json.loads(canonical_dumps(summary))).outcomes(ledger)
        assert len(read) == len(outcomes)
        for mine, theirs in zip(read, outcomes):
            assert mine.events == dict(theirs.events)
            assert mine.to_json() == theirs.to_json()
            assert assign_uncertainty(out, mine.events) == assign_uncertainty(out, theirs.events)
        assert outcomes_report(read) == (summary, ledger)

