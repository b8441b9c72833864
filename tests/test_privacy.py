"""Suppression and randomisation behavior."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.errors import PrivacyError
from ardkit.model import CellKind, UncertaintyLevel, write_csv
from ardkit.privacy import (
    SuppressionPolicy,
    randomize,
    suppress,
)

from conftest import count, make_counts, make_dataset, make_indicator, make_row, missing, rate, suppressed

POLICY = SuppressionPolicy()


class TestSuppress:
    def test_small_count_suppressed(self):
        dataset = make_counts({"A": 3})
        out, log = suppress(dataset, POLICY)
        assert out.columns.kind[0] is CellKind.SUPPRESSED
        assert log.total == 1

    def test_threshold_value_kept(self):
        dataset = make_counts({"A": 5})
        out, _ = suppress(dataset, POLICY)
        assert out.columns.magnitude[0] == 5

    def test_zero_kept_by_default(self):
        dataset = make_counts({"A": 0})
        out, log = suppress(dataset, POLICY)
        assert out.columns.magnitude[0] == 0
        assert log.total == 0

    def test_zero_suppressed_when_configured(self):
        dataset = make_counts({"A": 0})
        out, _ = suppress(dataset, SuppressionPolicy(suppress_zero=True))
        assert out.columns.kind[0] is CellKind.SUPPRESSED

    def test_nothing_hidden_keeps_the_input_columns(self):
        # A stale indicator level is still refreshed.
        dataset = make_counts({"A": 0, "B": 5, "C": count(9, UncertaintyLevel.MEDIUM)})
        out, log = suppress(dataset, POLICY)
        assert log.total == 0
        assert out.columns is dataset.columns
        assert out.indicator.max_uncertainty is UncertaintyLevel.MEDIUM

    def test_hiding_builds_new_columns(self):
        dataset = make_counts({"A": 3, "B": 5})
        out, _ = suppress(dataset, POLICY)
        assert out.columns is not dataset.columns
        assert dataset.columns.kind == (CellKind.COUNT, CellKind.COUNT)

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
        dataset = make_counts({"A": rate(2.0)}, indicator=indicator)
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
        for kind, magnitude in zip(once.columns.kind, once.columns.magnitude):
            if kind is CellKind.COUNT:
                assert not (0 < magnitude < threshold)
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


def old_suppress(dataset, policy):
    """Suppression as it decided each row on its own: (kinds, magnitudes, strata log, total)."""
    c = dataset.columns
    kinds, magnitudes = list(c.kind), list(c.magnitude)
    per_stratum = {}
    for i, (kind, magnitude) in enumerate(zip(c.kind, c.magnitude)):
        if kind is CellKind.COUNT and (0 < magnitude < policy.threshold or (policy.suppress_zero and magnitude == 0)):
            stratum = (c.year[i], c.age[i], c.sex[i])
            per_stratum[stratum] = per_stratum.get(stratum, 0) + 1
            kinds[i], magnitudes[i] = CellKind.SUPPRESSED, None
    return tuple(kinds), tuple(magnitudes), tuple(sorted(per_stratum.items())), sum(per_stratum.values())


SUPPRESSION_CELLS = st.sampled_from(
    [count(m) for m in (0, 0.0, -0.0, 1, 1.0, 4, 4.999, 5, 5.0, 5.5, 7, 2.5)]
    + [rate(3.0), missing(), suppressed()]
)


class TestSuppressDecidesOncePerMagnitude:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["2016", "2017"]), SUPPRESSION_CELLS), max_size=12),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
    )
    def test_equals_the_row_by_row_decision(self, cells, threshold, suppress_zero):
        dataset = make_dataset(make_row(f"R{i:02d}", value, year=int(year)) for i, (year, value) in enumerate(cells))
        policy = SuppressionPolicy(threshold=threshold, suppress_zero=suppress_zero)
        out, log = suppress(dataset, policy)
        kinds, magnitudes, strata, total = old_suppress(dataset, policy)
        assert (out.columns.kind, out.columns.magnitude) == (kinds, magnitudes)
        assert [type(m) for m in out.columns.magnitude] == [type(m) for m in magnitudes]
        assert (log.strata, log.total) == (strata, total)
        if not total:
            assert out is dataset


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
            assert out.columns.magnitude[0] >= 0

    def test_negative_noise_magnitude_fatal(self):
        with pytest.raises(PrivacyError):
            randomize(make_counts({"A": 1}), -1, seed=0)

    def test_markers_untouched(self):
        dataset = make_counts({"A": suppressed(), "B": missing()})
        out = randomize(dataset, 5, seed=3)
        kinds = dict(zip(out.columns.region, out.columns.kind))
        assert kinds == {"A": CellKind.SUPPRESSED, "B": CellKind.MISSING}

    def test_noise_bounded_by_magnitude(self):
        dataset = make_counts({"A": 100})
        for seed in range(30):
            out = randomize(dataset, 2, seed=seed)
            assert 98 <= out.columns.magnitude[0] <= 102
