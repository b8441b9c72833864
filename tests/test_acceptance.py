"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and runtime bound is pinned here.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from ardkit.correspondence import (
    EVENT_BACKWARD_SUPPRESSED,
    EVENT_SUBTHRESHOLD_DISCARD,
    EVENT_ZERO_FILL,
    CorrespondencePolicy,
    backward,
    forward,
)
from ardkit.docs import DMP_TOPICS
from ardkit.jsonio import validate_against_schema
from ardkit.errors import ArdkitError
from ardkit.model import CellKind, UncertaintyLevel, write_csv
from ardkit.pipeline import load_config, run
from ardkit.privacy import SuppressionPolicy, suppress
from ardkit.qa import (
    BUILTIN_RULES,
    QAContext,
    assign_uncertainty,
    filter_high_uncertainty,
    run_rules,
)

import oracle
from conftest import E2011, E2016, make_counts, make_table
from projectgen import build_demo_project
from tabgen import random_counts, random_table
from test_qa import fault_fixtures

POLICY = CorrespondencePolicy()


def report(name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE PASS: {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def magnitudes(dataset):
    return {r.key.region: r.value.magnitude for r in dataset.records}


def test_worked_correspondence_cases():
    started = time.monotonic()
    # Pure split: 100 distributed 0.3/0.7 and reassembled exactly.
    split = make_table([("A", "B", "0.3"), ("A", "C", "0.7")])
    original = make_counts({"A": 100}, edition=E2011)
    later, _ = forward(original, split)
    assert magnitudes(later) == {"B": 30.0, "C": 70.0}
    rebuilt, _ = backward(later, split, POLICY)
    assert magnitudes(rebuilt) == {"A": 100.0}
    assert rebuilt == original

    # Two sources, three targets, one shared: matches the dense oracle.
    shared = make_table(
        [("A", "C", "0.6"), ("A", "D", "0.4"), ("B", "D", "0.5"), ("B", "E", "0.5")]
    )
    data = make_counts({"A": 10, "B": 20}, edition=E2011)
    out, _ = forward(data, shared)
    sources = ["A", "B"]
    targets = ["C", "D", "E"]
    matrix = np.zeros((3, 2))
    for edge in shared.edges:
        matrix[targets.index(edge.target), sources.index(edge.source)] = float(edge.ratio)
    oracle = matrix @ np.array([10.0, 20.0])
    got = magnitudes(out)
    for code, want in zip(targets, oracle):
        assert abs(got[code] - want) <= 1e-12 * max(1.0, abs(want))

    # Shared ratio 0.05: the region keeps its sole target's value (medium).
    low_share = make_table(
        [("A", "C", "0.95"), ("A", "D", "0.05"), ("B", "D", "0.5"), ("B", "E", "0.5")]
    )
    later = make_counts({"C": 95, "D": 60, "E": 50}, edition=E2016)
    rebuilt, _ = backward(later, low_share, POLICY)
    by_code = {r.key.region: r.value for r in rebuilt.records}
    assert by_code["A"].magnitude == 95.0
    assert by_code["A"].uncertainty is UncertaintyLevel.MEDIUM

    # Shared ratio 0.5: suppressed.
    high_share = make_table(
        [("A", "C", "0.5"), ("A", "D", "0.5"), ("B", "D", "0.5"), ("B", "E", "0.5")]
    )
    later = make_counts({"C": 50, "D": 100, "E": 50}, edition=E2016)
    rebuilt, _ = backward(later, high_share, POLICY)
    by_code = {r.key.region: r.value for r in rebuilt.records}
    assert by_code["A"].kind is CellKind.SUPPRESSED
    assert by_code["A"].uncertainty is UncertaintyLevel.HIGH
    report("worked correspondence cases", started, 1.0)


def test_mass_conservation_200_random_tables():
    started = time.monotonic()
    rng = random.Random(2024)
    for _ in range(200):
        table, sources = random_table(rng, max_regions=50)
        data = random_counts(rng, sources)
        total_in = sum(r.value.magnitude for r in data.records)

        out, outcome = forward(data, table)
        total_out = sum(r.value.magnitude for r in out.records)
        assert abs(total_out - total_in) <= 1e-9 * max(1.0, abs(total_in))

        exact = oracle.forward(oracle.cells(data), table)
        exact_total = sum((value for _, value, _ in exact.cells.values()), Fraction(0))
        assert exact_total == Fraction(total_in) == outcome.input_total
    report("mass conservation over 200 random tables", started, 30.0)


def test_round_trip_100_split_only_tables():
    started = time.monotonic()
    rng = random.Random(77)
    for _ in range(100):
        table, sources = random_table(rng, max_regions=30, split_only=True)
        data = random_counts(rng, sources)
        original = oracle.cells(data)
        rebuilt = oracle.backward(oracle.forward(original, table).cells, table)
        assert rebuilt == (original, {}, [])
        # Double precision rebuilds the same cells to within rounding.
        later, _ = forward(data, table)
        doubled, _ = backward(later, table, POLICY)
        assert [r.key for r in doubled.records] == [r.key for r in data.records]
        for got, want in zip(doubled.records, data.records):
            assert abs(got.value.magnitude - want.value.magnitude) <= 1e-9 * max(1.0, want.value.magnitude)
    report("round trip on 100 split-only tables", started, 10.0)


def test_suppression_safety_and_idempotence():
    started = time.monotonic()
    rng = random.Random(5)
    policy = SuppressionPolicy(threshold=5)
    for _ in range(50):
        cells = {f"R{i:02d}": rng.choice([0, 1, 2, 3, 4, 5, 6, 50, 2.5, 4.9]) for i in range(30)}
        dataset = make_counts(cells)
        once, _ = suppress(dataset, policy)
        for line in write_csv(once).splitlines()[1:]:
            value = line.split(",")[4]
            if value not in ("S", ""):
                assert not (0 < float(value) < 5), line
        twice, second_log = suppress(once, policy)
        assert twice == once and second_log.total == 0
    report("suppression safety and idempotence", started, 5.0)


def test_uncertainty_semantics():
    started = time.monotonic()
    dataset = make_counts({"A": 10, "B": 11, "C": 12, "D": 13})
    keys = {r.key.region: r.key for r in dataset.records}
    provenance = {
        keys["A"]: (),
        keys["B"]: (EVENT_SUBTHRESHOLD_DISCARD,),
        keys["C"]: (EVENT_ZERO_FILL,),
        keys["D"]: (EVENT_BACKWARD_SUPPRESSED,),
    }
    assigned = assign_uncertainty(dataset, provenance)
    levels = {r.key.region: int(r.value.uncertainty) for r in assigned.records}
    assert levels == {"A": 0, "B": 1, "C": 1, "D": 2}

    filtered, removal_log = filter_high_uncertainty(assigned)
    assert {r.key.region for r in filtered.records} == {"A", "B", "C"}
    assert list(removal_log.removed_keys) == [keys["D"]]
    assert filtered.indicator.max_uncertainty is UncertaintyLevel.MEDIUM
    report("uncertainty level semantics and high-level removal", started, 5.0)


def test_qa_fault_matrix():
    started = time.monotonic()
    fixtures = fault_fixtures()
    assert set(fixtures) == set(BUILTIN_RULES)
    for rule_id, (dataset, context) in sorted(fixtures.items()):
        findings = run_rules(dataset, context).findings
        matching = [f for f in findings if f.rule_id == rule_id]
        assert len(matching) == 1, f"{rule_id}: expected exactly one finding, got {findings}"
        assert matching[0].severity is BUILTIN_RULES[rule_id].severity
        assert len(findings) == 1, f"{rule_id}: extra findings {findings}"
    clean_dataset = make_counts({"A": 10, "B": 20})
    assert run_rules(clean_dataset, QAContext()).findings == ()
    report("QA fault matrix (one seeded fault per rule)", started, 5.0)


def test_full_pipeline_determinism(tmp_path):
    started = time.monotonic()
    config_path = build_demo_project(tmp_path / "proj")
    base = load_config(config_path)

    run_started = time.monotonic()
    first = run(dataclasses.replace(base, output_dir=tmp_path / "a"))
    first_elapsed = time.monotonic() - run_started
    second = run(dataclasses.replace(base, output_dir=tmp_path / "b"))
    assert first.exit_code == 0 and second.exit_code == 0

    tree_a = {
        str(p.relative_to(tmp_path / "a")): p.read_bytes()
        for p in sorted((tmp_path / "a").rglob("*")) if p.is_file()
    }
    tree_b = {
        str(p.relative_to(tmp_path / "b")): p.read_bytes()
        for p in sorted((tmp_path / "b").rglob("*")) if p.is_file()
    }
    assert tree_a.keys() == tree_b.keys()
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"artifact differs between runs: {name}"

    records = 0
    for csv_path in (tmp_path / "a" / "datasets").glob("*.csv"):
        records += len(csv_path.read_text().splitlines()) - 1
    assert records > 5_000, "demo project should hold thousands of records"
    assert first_elapsed < 10.0, f"single run took {first_elapsed:.1f}s"
    report("byte-identical pipeline reruns on the demo project", started, 40.0)


def test_documentation_outputs(tmp_path):
    started = time.monotonic()
    config_path = build_demo_project(tmp_path / "proj")
    base = load_config(config_path)
    result = run(dataclasses.replace(base, output_dir=tmp_path / "out"))
    assert result.exit_code == 0
    out = tmp_path / "out"

    for name in ("demo.hospital_visits", "demo.school_enrolments"):
        doc = json.loads((out / f"metadata/{name}.metadata.json").read_text())
        validate_against_schema(doc, "metadata.schema.json", ArdkitError)
        assert set(doc) >= {"findable", "accessible", "interoperable", "reusable"}
        assert doc["findable"]["title"]
        assert doc["reusable"]["temporal_coverage"]
        assert not doc["draft"]

    published = (out / "dictionary.published.md").read_text()
    for fragment in (
        "Variable name:",
        "Definition:",
        "Variable type:",
        "Data source:",
        "Temporal correspondence applied:",
        "Uncertainty present:",
    ):
        assert fragment in published
    config_doc = json.loads(Path(config_path).read_text())
    for entry in config_doc["project"]["dictionary"].values():
        links = entry["researcher_links"]
        for secret in (links["cleaning_code"], *links["data_files"], *links["project_docs"]):
            assert secret not in published

    dmp = (out / "dmp.md").read_text()
    assert len(DMP_TOPICS) == 14
    for _, title, _ in DMP_TOPICS:
        assert f"## {title}" in dmp
    report("documentation outputs (metadata, dictionary, DMP)", started, 30.0)
