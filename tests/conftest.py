"""Shared builders for datasets, tables, and indicators used across tests."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ardkit.correspondence import CorrespondenceEdge, CorrespondenceTable
from ardkit.model import (
    BoundaryEdition,
    CellKind,
    CellValue,
    Dataset,
    GeoLevel,
    Indicator,
    NestDomain,
    RecordKey,
    StandardRecord,
    canonical_sort,
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


def make_record(code, value, year=2016, age="0-4", sex="male"):
    return StandardRecord(RecordKey(code, year, age, sex), value)


def make_counts(cells, *, edition=E2016, level=SA3, indicator=None, year=2016, age="0-4", sex="male"):
    """Build a count dataset from {code: magnitude-or-CellValue}."""
    indicator = indicator or make_indicator()
    records = []
    for code, value in cells.items():
        if not isinstance(value, CellValue):
            value = CellValue.count(value)
        records.append(make_record(code, value, year=year, age=age, sex=sex))
    return canonical_sort(Dataset(indicator, tuple(records), edition, level))


def make_table(edges, *, level=SA3, from_edition=E2011, to_edition=E2016):
    built = tuple(CorrespondenceEdge(source, target, Fraction(str(ratio))) for source, target, ratio in edges)
    return CorrespondenceTable(from_edition, to_edition, level, built)


@pytest.fixture
def count_indicator():
    return make_indicator()
