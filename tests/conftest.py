"""Shared builders for datasets, tables, and indicators used across tests."""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest

from ardkit.correspondence import CorrespondenceEdge, CorrespondenceTable
from ardkit.model import (
    BoundaryEdition,
    CellKind,
    Columns,
    Dataset,
    GeoLevel,
    Indicator,
    NestDomain,
    UncertaintyLevel,
    canonical_sort,
    check_cell,
)

E2011 = BoundaryEdition.ASGS2011
E2016 = BoundaryEdition.ASGS2016
E2021 = BoundaryEdition.ASGS2021
SA3 = GeoLevel.SA3


def make_indicator(
    id="demo.count",
    value_kind=CellKind.COUNT,
    name="Demo count indicator",
    source_id="src.demo",
    **kwargs,
):
    return Indicator(
        id=id,
        name=name,
        nest_domain=NestDomain.HEALTHY,
        value_kind=value_kind,
        source_id=source_id,
        **kwargs,
    )


def cell(kind, magnitude=None, uncertainty=UncertaintyLevel.LOW):
    """A checked (kind, magnitude, uncertainty) cell."""
    check_cell(kind, magnitude, uncertainty)
    return kind, magnitude, uncertainty


count = partial(cell, CellKind.COUNT)
rate = partial(cell, CellKind.RATE)
percentage = partial(cell, CellKind.PERCENTAGE)


def suppressed(uncertainty=UncertaintyLevel.LOW):
    return cell(CellKind.SUPPRESSED, None, uncertainty)


def missing(uncertainty=UncertaintyLevel.LOW):
    return cell(CellKind.MISSING, None, uncertainty)


def make_row(code, value, year=2016, age="0-4", sex="male"):
    """A (region, year, age, sex, kind, magnitude, uncertainty) row holding the cell `value`."""
    return (code, year, age, sex, *value)


def make_dataset(rows, *, indicator=None, edition=E2016, level=SA3):
    """A dataset holding `rows` in their order."""
    return Dataset(indicator or make_indicator(), Columns.from_rows(list(rows)), edition, level)


def make_counts(cells, *, edition=E2016, level=SA3, indicator=None, year=2016, age="0-4", sex="male"):
    """Build a count dataset from {code: magnitude-or-cell}."""
    rows = [
        make_row(code, value if isinstance(value, tuple) else count(value), year=year, age=age, sex=sex)
        for code, value in cells.items()
    ]
    return canonical_sort(make_dataset(rows, indicator=indicator, edition=edition, level=level))


def make_table(edges, *, level=SA3, from_edition=E2011, to_edition=E2016):
    built = tuple(CorrespondenceEdge(source, target, Fraction(str(ratio))) for source, target, ratio in edges)
    return CorrespondenceTable(from_edition, to_edition, level, built)


@pytest.fixture
def count_indicator():
    return make_indicator()
