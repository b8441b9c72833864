"""The per-record stages against their transcriptions in `reference_run`, on random datasets."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_run as ref
from ardkit.model import CellKind, UncertaintyLevel, round_counts
from ardkit.privacy import SuppressionPolicy, suppress
from ardkit.qa import assign_uncertainty, filter_high_uncertainty

from conftest import make_dataset, make_indicator

EVENTS = ["subthreshold-discard", "missing-zero-fill", "backward-suppressed", "unresolvable-redistribution", "other-event"]
# Counts: small integers around the thresholds, quarters (so that stratum totals end in exactly one half), any float;
# a negative count, which QA reports, is drawn too.
MAGNITUDES = st.one_of(
    st.integers(-2, 12), st.integers(-8, 40).map(lambda n: n / 4), st.floats(-10, 1e6, allow_nan=False, allow_infinity=False)
)
CELLS = st.one_of(
    st.tuples(st.just(CellKind.COUNT), MAGNITUDES),
    st.tuples(st.just(CellKind.RATE), MAGNITUDES),  # a wrong kind in a count dataset is left alone
    st.tuples(st.sampled_from([CellKind.SUPPRESSED, CellKind.MISSING]), st.none()),
)
KEYS = st.tuples(st.sampled_from(["A", "B", "C10", "C2"]), st.sampled_from([2011, 2016]),
                 st.sampled_from(["0-4", "5-9"]), st.sampled_from(["female", "male"]))


@st.composite
def datasets(draw):
    """A count dataset in canonical order: up to 32 distinct keys, each with a drawn cell and level."""
    keys = sorted(draw(st.lists(KEYS, unique=True, max_size=32)))
    rows = [(*key, *draw(CELLS), draw(st.sampled_from(list(UncertaintyLevel)))) for key in keys]
    return make_dataset(rows, indicator=make_indicator())


def as_rows(cells):
    """`reference_run` cells as a list, so that row order counts, with each magnitude's type."""
    return [(key, cell, type(cell[1])) for key, cell in cells.items()]


def rows(dataset):
    return as_rows(ref.cells(dataset))


@settings(max_examples=200, deadline=None)
@given(datasets(), st.integers(1, 12), st.booleans())
def test_suppress_matches_the_reference(dataset, threshold, suppress_zero):
    out, log = suppress(dataset, SuppressionPolicy(threshold, suppress_zero))
    want, hidden = ref.suppress(ref.cells(dataset), threshold, suppress_zero)
    assert rows(out) == as_rows(want)
    assert log.strata == tuple(sorted(hidden.items()))
    assert log.total == sum(hidden.values())


@settings(max_examples=200, deadline=None)
@given(datasets(), st.data())
def test_assign_uncertainty_matches_the_reference(dataset, data):
    keys = list(ref.cells(dataset)) + [("Z", 2011, "0-4", "male")]  # a key the dataset lacks has no record to raise
    events = data.draw(st.dictionaries(st.sampled_from(keys), st.lists(st.sampled_from(EVENTS), max_size=3)))
    out = assign_uncertainty(dataset, events)
    assert rows(out) == as_rows(ref.assign_uncertainty(ref.cells(dataset), events))


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_filter_high_uncertainty_matches_the_reference(dataset):
    out, log = filter_high_uncertainty(dataset)
    kept, removed = ref.filter_high(ref.cells(dataset))
    assert rows(out) == as_rows(kept)
    assert list(log.removed_keys) == removed
    assert log.fully_removed == (bool(removed) and not kept)


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_round_counts_matches_the_reference(dataset):
    assert rows(round_counts(dataset)) == as_rows(ref.round_counts(ref.cells(dataset)))
