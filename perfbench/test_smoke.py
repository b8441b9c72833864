"""Smoke check for the benchmark harness: tiny projects, no timing bounds.

Run from the repository root:

    python3 -m pytest perfbench -q

It checks that the generator is seeded and that one traced repetition of
every workload passes the correctness gate and yields every declared
metric, so the harness cannot rot silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from projects import build_backward_rate, build_forward_messy  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("build", [build_forward_messy, build_backward_rate])
def test_generator_is_seeded(tmp_path, build):
    first = build(tmp_path / "a", 7, 10)
    again = build(tmp_path / "b", 7, 10)
    other = build(tmp_path / "c", 8, 10)
    assert _files(first.root) == _files(again.root)
    assert _files(first.root) != _files(other.root)
    assert first.logical_rows > 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_one_traced_repetition(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "MIN_REPS", 1)
    monkeypatch.setattr(bench, "TRACED_REPS", 1)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m for m in doc[kind]} for kind in ("end_to_end", "per_layer")}
    result = bench.run_workload(ROOT, name, 3, 0, True, declared, regions=10, work_root=tmp_path)
    assert result["correct"], capsys.readouterr()
    assert result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == set(declared["per_layer"])


def test_missing_binding_makes_its_metrics_absent():
    trace = {
        "spans": [["pipeline.run", 0.0, 2.0, -1], ["ingest.parse_raw", 0.5, 1.0, 0]],
        "counts": {},
        "distinct": {"ingest.parse_raw": 1},
        "missing": ["ardkit.cli.read_csv"],
    }
    metrics, warnings = layer_metrics(trace, {})
    assert "model.read_csv.calls" not in metrics and "model.read_csv.s" not in metrics
    assert "pipeline.self_s" not in metrics
    assert metrics["ingest.parse_raw.calls"] == 1 and metrics["ingest.parse_raw.unique_ratio"] == 1
    assert any("ardkit.cli.read_csv" in w for w in warnings)
