"""Correspondence engine tests, checked against an independent dense oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.correspondence import (
    EVENT_BACKWARD_SUPPRESSED,
    EVENT_SUBTHRESHOLD_DISCARD,
    EVENT_ZERO_FILL,
    MODE_RATIONAL,
    BoundaryRule,
    CorrespondenceOutcome,
    CorrespondencePolicy,
    PlanStep,
    backward,
    execute_plan,
    forward,
    load_table,
    plan_route,
)
from ardkit.errors import CorrespondenceError, RouteError
from ardkit.model import BoundaryEdition, CellKind, CellValue, UncertaintyLevel

from conftest import E2011, E2016, E2021, SA3, make_counts, make_indicator, make_table
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
    return {r.key.region: r.value.magnitude for r in dataset.records}


def cells(dataset) -> dict[str, object]:
    return {r.key.region: r.value for r in dataset.records}


class TestLoadTable:
    def test_valid_split(self):
        table = load_table(
            "FROM_CODE,TO_CODE,RATIO\nA,B,0.3\nA,C,0.7\n",
            level=SA3, from_edition=E2011, to_edition=E2016,
        )
        assert table.validate() == []
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

    def test_small_deviation_renormalized(self):
        table = load_table(
            "FROM_CODE,TO_CODE,RATIO\nA,B,0.3333333\nA,C,0.6666666\n",
            level=SA3, from_edition=E2011, to_edition=E2016,
        )
        assert sum(e.ratio for e in table.edges) == 1
        assert table.validate() == []


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
        data = make_counts({"A": CellValue.suppressed(), "B": 10}, edition=E2011)
        table = make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1")])
        out, outcome = forward(data, table)
        by_code = cells(out)
        assert by_code["C"].kind is CellKind.SUPPRESSED
        assert by_code["D"].kind is CellKind.SUPPRESSED
        assert by_code["D"].uncertainty is UncertaintyLevel.HIGH
        assert not outcome.conserving

    def test_missing_input_zero_fills_with_medium(self):
        data = make_counts({"A": CellValue.missing(), "B": 10}, edition=E2011)
        table = make_table([("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "1")])
        out, outcome = forward(data, table)
        by_code = cells(out)
        assert by_code["D"].magnitude == 10.0
        assert by_code["D"].uncertainty is UncertaintyLevel.MEDIUM
        assert by_code["C"].magnitude == 0.0
        assert outcome.conserving
        assert outcome.zero_filled
        key = next(k for k in outcome.events if k.region == "D")
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
        data = make_counts({"A": CellValue.rate(5.0)}, edition=E2011, indicator=indicator)
        table = make_table([("A", "B", "1")])
        with pytest.raises(CorrespondenceError, match="counts only"):
            forward(data, table)

    def test_rate_with_denominator_weights_by_population(self):
        # Merging A (rate 10 per denom 100) and B (rate 20 per denom 300)
        # into C must give the pooled rate (10*100 + 20*300) / 400 = 17.5.
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        rates = make_counts(
            {"A": CellValue.rate(10.0), "B": CellValue.rate(20.0)},
            edition=E2011, indicator=indicator,
        )
        denom = make_counts({"A": 100, "B": 300}, edition=E2011)
        table = make_table([("A", "C", "1"), ("B", "C", "1")])
        out, _ = forward(rates, table, denominator=denom)
        assert magnitudes(out) == {"C": 17.5}
        assert cells(out)["C"].kind is CellKind.RATE

    def test_uncertainty_propagates_as_maximum(self):
        data = make_counts(
            {"A": CellValue.count(4, UncertaintyLevel.MEDIUM), "B": CellValue.count(6)},
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
        # Exact in rational mode.
        exact_out, exact_outcome = forward(data, table, mode=MODE_RATIONAL)
        assert sum(Fraction(m) for m in magnitudes(exact_out).values()) == sum(
            Fraction(m) for m in magnitudes(data).values()
        )
        assert exact_outcome.input_total == exact_outcome.output_total


class TestBackward:
    def test_pure_split_reconstructs_exactly(self):
        table = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
        original = make_counts({"A": 100}, edition=E2011)
        later, _ = forward(original, table)
        assert magnitudes(later) == {"B": 30.0, "C": 70.0}
        rebuilt, outcome = backward(later, table, POLICY)
        assert rebuilt == original
        assert outcome.events[original.records[0].key] == ()

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
        key = next(k for k in outcome.events if k.region == "A")
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
        key = next(k for k in outcome.events if k.region == "A")
        assert outcome.events[key] == (EVENT_BACKWARD_SUPPRESSED,)

    def test_threshold_boundary_defaults_to_suppression(self):
        table = make_table(
            [("A", "C", "0.9"), ("A", "D", "0.1"), ("B", "D", "0.9"), ("B", "E", "0.1")]
        )
        later = make_counts({"C": 90, "D": 100, "E": 10}, edition=E2016)
        rebuilt, _ = backward(later, table, POLICY)
        assert cells(rebuilt)["A"].kind is CellKind.SUPPRESSED
        keep = CorrespondencePolicy(boundary_rule=BoundaryRule.KEEP_AT_THRESHOLD)
        rebuilt_keep, _ = backward(later, table, keep)
        assert cells(rebuilt_keep)["A"].magnitude == 90.0
        assert cells(rebuilt_keep)["A"].uncertainty is UncertaintyLevel.MEDIUM

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
        later = make_counts({"B": CellValue.suppressed(), "C": 70}, edition=E2016)
        rebuilt, _ = backward(later, table, POLICY)
        assert cells(rebuilt)["A"].kind is CellKind.SUPPRESSED
        assert cells(rebuilt)["A"].uncertainty is UncertaintyLevel.HIGH

    def test_threshold_dichotomy(self):
        rng = random.Random(7)
        for _ in range(20):
            table, sources = random_table(rng, max_regions=12)
            data = random_counts(rng, sources)
            later, _ = forward(data, table)
            rebuilt, outcome = backward(later, table, POLICY)
            for record in rebuilt.records:
                events = outcome.events[record.key]
                if record.value.kind is CellKind.SUPPRESSED:
                    assert events == (EVENT_BACKWARD_SUPPRESSED,)
                elif events:
                    assert set(events) <= {EVENT_SUBTHRESHOLD_DISCARD}
                    assert record.value.uncertainty is UncertaintyLevel.MEDIUM
                else:
                    assert record.value.uncertainty is UncertaintyLevel.LOW

    def test_monotone_suppression_as_threshold_drops(self):
        rng = random.Random(11)
        for _ in range(20):
            table, sources = random_table(rng, max_regions=12)
            data = random_counts(rng, sources)
            later, _ = forward(data, table)
            low = CorrespondencePolicy(discard_threshold=Fraction(1, 100))
            high = CorrespondencePolicy(discard_threshold=Fraction(1, 10))
            suppressed_low = {
                r.key.region
                for r in backward(later, table, low)[0].records
                if r.value.kind is CellKind.SUPPRESSED
            }
            suppressed_high = {
                r.key.region
                for r in backward(later, table, high)[0].records
                if r.value.kind is CellKind.SUPPRESSED
            }
            assert suppressed_high <= suppressed_low


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(table_and_counts(split_only=True, max_regions=20))
    def test_rational_mode_round_trip_is_identity(self, case):
        table, data = case
        later, _ = forward(data, table, mode=MODE_RATIONAL)
        rebuilt, _ = backward(later, table, POLICY, mode=MODE_RATIONAL)
        assert rebuilt == data

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
    def test_identity_plan_is_empty(self):
        assert plan_route(E2016, E2016, [(E2011, E2016)]) == ()

    def test_direct_forward(self):
        plan = plan_route(E2011, E2016, [(E2011, E2016)])
        assert plan == (PlanStep("forward", E2011, E2016),)

    def test_backward_via_reversed_table(self):
        plan = plan_route(E2021, E2016, [(E2016, E2021)])
        assert plan == (PlanStep("backward", E2016, E2021),)

    def test_prefers_direct_table_when_present(self):
        plan = plan_route(E2021, E2016, [(E2016, E2021), (E2021, E2016)])
        assert plan == (PlanStep("forward", E2021, E2016),)

    def test_multi_hop_composes_in_edition_order(self):
        plan = plan_route(E2006, E2016, [(E2006, E2011), (E2011, E2016)])
        assert plan == (
            PlanStep("forward", E2006, E2011),
            PlanStep("forward", E2011, E2016),
        )

    def test_no_path_is_fatal(self):
        with pytest.raises(RouteError, match="2021"):
            plan_route(E2021, E2016, [(E2006, E2011)])

    def test_execute_plan_two_hops(self):
        t1 = make_table([("A", "B", "1")], from_edition=E2006, to_edition=E2011)
        t2 = make_table([("B", "C", "1")], from_edition=E2011, to_edition=E2016)
        data = make_counts({"A": 42}, edition=E2006)
        plan = plan_route(E2006, E2016, [t1, t2])
        out, outcomes, _ = execute_plan(
            data, plan, {(E2006, E2011): t1, (E2011, E2016): t2}, POLICY
        )
        assert magnitudes(out) == {"C": 42.0}
        assert out.edition is E2016
        assert len(outcomes) == 2


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
