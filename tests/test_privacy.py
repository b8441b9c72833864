"""Suppression, pseudonymisation, and randomisation behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.errors import PrivacyError
from ardkit.model import CellKind, CellValue, write_csv
from ardkit.privacy import (
    PseudonymMap,
    SuppressionPolicy,
    pseudonymize,
    randomize,
    suppress,
)

from conftest import make_counts, make_indicator

POLICY = SuppressionPolicy()


class TestSuppress:
    def test_small_count_suppressed(self):
        dataset = make_counts({"A": 3})
        out, log = suppress(dataset, POLICY)
        assert out.records[0].value.kind is CellKind.SUPPRESSED
        assert log.total == 1

    def test_threshold_value_kept(self):
        dataset = make_counts({"A": 5})
        out, _ = suppress(dataset, POLICY)
        assert out.records[0].value.magnitude == 5

    def test_zero_kept_by_default(self):
        dataset = make_counts({"A": 0})
        out, log = suppress(dataset, POLICY)
        assert out.records[0].value.magnitude == 0
        assert log.total == 0

    def test_zero_suppressed_when_configured(self):
        dataset = make_counts({"A": 0})
        out, _ = suppress(dataset, SuppressionPolicy(suppress_zero=True))
        assert out.records[0].value.kind is CellKind.SUPPRESSED

    def test_log_counts_per_stratum_without_values(self):
        dataset = make_counts({"A": 1, "B": 2, "C": 9})
        _, log = suppress(dataset, POLICY)
        doc = log.to_json()
        assert doc["total_suppressed"] == 2
        assert doc["strata"] == [
            {"calendar_year": 2016, "age_group": "0-4", "sex": "male", "suppressed_cell_count": 2}
        ]
        # Only stratum labels and a count: the suppressed magnitudes never appear.
        assert set(doc["strata"][0]) == {"calendar_year", "age_group", "sex", "suppressed_cell_count"}

    def test_non_count_kind_is_fatal(self):
        indicator = make_indicator(id="demo.rate", value_kind=CellKind.RATE)
        dataset = make_counts({"A": CellValue.rate(2.0)}, indicator=indicator)
        with pytest.raises(PrivacyError, match="count"):
            suppress(dataset, POLICY)

    def test_threshold_must_be_positive(self):
        with pytest.raises(PrivacyError):
            SuppressionPolicy(threshold=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="ABCDEFGH", min_size=1, max_size=2),
            st.one_of(st.integers(min_value=0, max_value=30), st.floats(min_value=0, max_value=30, allow_nan=False)),
            max_size=12,
        ),
        st.integers(min_value=1, max_value=10),
    )
    def test_safety_and_idempotence(self, cells, threshold):
        dataset = make_counts(cells)
        policy = SuppressionPolicy(threshold=threshold)
        once, _ = suppress(dataset, policy)
        for record in once.records:
            if record.value.kind is CellKind.COUNT:
                assert not (0 < record.value.magnitude < threshold)
        twice, second_log = suppress(once, policy)
        assert twice == once
        assert second_log.total == 0

    def test_emitted_csv_has_no_small_counts(self):
        dataset = make_counts({"A": 1, "B": 4, "C": 5, "D": 0})
        out, _ = suppress(dataset, POLICY)
        for line in write_csv(out).splitlines()[1:]:
            value = line.split(",")[4]
            if value not in ("S", ""):
                assert not (0 < float(value) < 5)


class TestPseudonymize:
    def test_stability_and_injectivity(self):
        column = ["id1", "id1", "id2"]
        out, pmap = pseudonymize(column, PseudonymMap(seed="k1"))
        assert out[0] == out[1] != out[2]
        assert len(set(pmap.mapping().values())) == len(pmap.mapping())

    def test_empty_column(self):
        out, pmap = pseudonymize([], PseudonymMap(seed="k1"))
        assert out == ()
        assert pmap.mapping() == {}

    def test_same_seed_two_runs_identical(self):
        column = ["alpha", "beta", "gamma"]
        first, _ = pseudonymize(column, PseudonymMap(seed="k1"))
        second, _ = pseudonymize(column, PseudonymMap(seed="k1"))
        assert first == second

    def test_different_seed_differs(self):
        column = ["alpha"]
        a, _ = pseudonymize(column, PseudonymMap(seed="k1"))
        b, _ = pseudonymize(column, PseudonymMap(seed="k2"))
        assert a != b

    def test_map_grows_incrementally(self):
        _, pmap = pseudonymize(["a1"], PseudonymMap(seed="k1"))
        out, updated = pseudonymize(["a1", "b2"], pmap)
        assert out[0] == pmap.mapping()["a1"]
        assert set(updated.mapping()) == {"a1", "b2"}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(min_size=1, max_size=12), max_size=40))
    def test_properties_over_arbitrary_token_multisets(self, column):
        out, pmap = pseudonymize(column, PseudonymMap(seed="prop"))
        mapping = pmap.mapping()
        # Stability: same token, same pseudonym.
        for token, pseudonym in zip(column, out):
            assert mapping[token] == pseudonym
        # Injectivity over the accumulated map.
        assert len(set(mapping.values())) == len(mapping)
        # Source identifiers never appear inside their replacement.
        for token, pseudonym in mapping.items():
            assert token not in pseudonym

    def test_map_round_trips_through_json(self):
        _, pmap = pseudonymize(["x", "y"], PseudonymMap(seed="k1"))
        assert PseudonymMap.from_json(pmap.to_json()) == pmap


class TestRandomize:
    def test_zero_noise_is_identity(self):
        dataset = make_counts({"A": 7, "B": 0})
        assert randomize(dataset, 0, seed=1) == dataset

    def test_same_seed_reproducible(self):
        dataset = make_counts({f"R{i}": i * 3 for i in range(10)})
        assert randomize(dataset, 2, seed=42) == randomize(dataset, 2, seed=42)

    def test_clamped_at_zero(self):
        dataset = make_counts({"A": 1})
        for seed in range(40):
            out = randomize(dataset, 3, seed=seed)
            assert out.records[0].value.magnitude >= 0

    def test_negative_noise_magnitude_fatal(self):
        with pytest.raises(PrivacyError):
            randomize(make_counts({"A": 1}), -1, seed=0)

    def test_markers_untouched(self):
        dataset = make_counts({"A": CellValue.suppressed(), "B": CellValue.missing()})
        out = randomize(dataset, 5, seed=3)
        kinds = {r.key.region: r.value.kind for r in out.records}
        assert kinds == {"A": CellKind.SUPPRESSED, "B": CellKind.MISSING}

    def test_noise_bounded_by_magnitude(self):
        dataset = make_counts({"A": 100})
        for seed in range(30):
            out = randomize(dataset, 2, seed=seed)
            assert 98 <= out.records[0].value.magnitude <= 102
