"""The row-order contract: readers and key-rewriting stages sort, the rest keep order.

`forward` and `backward` emit canonical order by construction, and the
operations that rewrite cells or drop rows keep their input's order, so
every dataset a stage returns is in canonical order without re-sorting.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ardkit.cli import main
from ardkit.correspondence import CorrespondencePolicy, backward, convert, forward, outcomes_report
from ardkit.jsonio import canonical_dumps
from ardkit.model import CellKind, Columns, Dataset, UncertaintyLevel, canonical_sort, write_csv
from ardkit.privacy import SuppressionPolicy, randomize, suppress
from ardkit.qa import assign_uncertainty, filter_high_uncertainty

from conftest import E2011, E2016, SA3, make_indicator
from tabgen import random_table

STRATA = [(year, age, sex) for year in (2015, 2016) for age in ("0-4", "5-9") for sex in ("female", "male")]
RATE = make_indicator(id="demo.rate", value_kind=CellKind.RATE)


def shuffled_rows(rng: random.Random, codes) -> list[tuple]:
    """Rows over several strata with gaps, markers and mixed levels, in random order."""
    rows = []
    for code in codes:
        for stratum in STRATA:
            if rng.random() < 0.2:
                continue
            roll = rng.random()
            if roll < 0.1:
                cell = (CellKind.SUPPRESSED, None)
            elif roll < 0.2:
                cell = (CellKind.MISSING, None)
            else:
                cell = (CellKind.COUNT, rng.choice([rng.randint(0, 12), rng.randint(0, 10_000) / 4]))
            rows.append((code, *stratum, *cell, rng.choice(list(UncertaintyLevel))))
    rng.shuffle(rows)
    return rows


def dataset(rows, edition, indicator=None) -> Dataset:
    return Dataset(indicator or make_indicator(), Columns.from_rows(rows), edition, SA3)


def is_canonical(result: Dataset) -> bool:
    return canonical_sort(result) is result


class TestOperationsReturnCanonicalOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_operation(self, seed):
        rng = random.Random(seed)
        table, sources = random_table(rng, max_regions=12)
        targets = sorted({edge.target for edge in table.edges})
        policy = CorrespondencePolicy()

        counts = dataset(shuffled_rows(rng, sources), E2011)
        converted, outcome = forward(counts, table)
        assert is_canonical(converted)
        assert (converted, outcome) == forward(canonical_sort(counts), table)

        later = dataset(shuffled_rows(rng, targets), E2016)
        rebuilt, back_outcome = backward(later, table, policy)
        assert is_canonical(rebuilt)
        assert (rebuilt, back_outcome) == backward(canonical_sort(later), table, policy)

        rows = shuffled_rows(rng, sources)
        rate_rows = [(*row[:4], CellKind.RATE if row[4] is CellKind.COUNT else row[4], *row[5:]) for row in rows]
        rates = dataset(rate_rows, E2011, RATE)
        denominator = dataset(sorted(rows, key=lambda row: row[3]), E2011)
        quotient, _ = convert(rates, E2016, {(E2011, E2016): table}, policy, denominator=denominator)
        assert is_canonical(quotient)

        suppressed, _ = suppress(converted, SuppressionPolicy(threshold=5))
        noisy = randomize(converted, 3, seed)
        assigned = assign_uncertainty(converted, outcome.events)
        filtered, _ = filter_high_uncertainty(assigned)
        for result in (suppressed, noisy, assigned, filtered):
            assert is_canonical(result)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_cell_operations_keep_any_input_order(self, seed):
        rng = random.Random(seed)
        unsorted = dataset(shuffled_rows(rng, [f"R{i}" for i in range(6)]), E2016)
        keys = list(unsorted.columns.record_keys())
        suppressed, _ = suppress(unsorted, SuppressionPolicy(threshold=5))
        assigned = assign_uncertainty(unsorted, {})
        for result in (suppressed, randomize(unsorted, 2, seed), assigned):
            assert list(result.columns.record_keys()) == keys
        filtered, _ = filter_high_uncertainty(unsorted)
        kept = [key for key, level in zip(keys, unsorted.columns.uncertainty) if level is not UncertaintyLevel.HIGH]
        assert list(filtered.columns.record_keys()) == kept


class TestShuffledFileGivesSameBytes:
    """The CLI sorts what it reads, so an unsorted, hand-edited dataset file changes nothing."""

    def files(self, tmp_path, name, text):
        (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8", newline="")
        return tmp_path / f"{name}.csv"

    def test_suppress_and_qa(self, tmp_path):
        rng = random.Random(11)
        table, sources = random_table(rng, max_regions=12)
        converted, outcome = forward(canonical_sort(dataset(shuffled_rows(rng, sources), E2011)), table)
        text = write_csv(converted)
        header, *lines = text.splitlines(keepends=True)
        rng.shuffle(lines)
        assert "".join([header, *lines]) != text
        (tmp_path / "ind.json").write_text(canonical_dumps(converted.indicator.to_json()))
        summary, ledger = outcomes_report([outcome])
        (tmp_path / "outcomes.json").write_text(canonical_dumps(summary))
        (tmp_path / "outcomes.ledger.csv").write_text(ledger)
        inputs = {
            "sorted": self.files(tmp_path, "sorted", text),
            "shuffled": self.files(tmp_path, "shuffled", "".join([header, *lines])),
        }
        outputs = {}
        for name, data in inputs.items():
            out = tmp_path / name
            assert main([
                "suppress", "--data", str(data), "--indicator", str(tmp_path / "ind.json"),
                "--out-data", str(out / "40.csv"), "--out-indicator", str(out / "40.json"),
                "--log", str(out / "privacy.json"),
            ]) == 0
            code = main([
                "qa", "--data", str(data), "--indicator", str(tmp_path / "ind.json"),
                "--outcomes", str(tmp_path / "outcomes.json"), "--filter-high",
                "--out-data", str(out / "50.csv"), "--removals", str(out / "removals.json"),
                "--report", str(out / "qa.json"),
            ])
            assert code in (0, 1)
            outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert len(outputs["sorted"]) == 7
        assert outputs["shuffled"] == outputs["sorted"]
        assert json.loads(outputs["sorted"]["qa.json"])["dataset_id"] == converted.indicator.id
