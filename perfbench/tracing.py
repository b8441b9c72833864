"""Span tracing for the traced benchmark run, installed from outside `src/`.

`Tracer.install()` replaces public ardkit functions with timing wrappers in
every module namespace that calls them, so calls made through `from . import
name` bindings are seen too.  Spans (name, start, end, parent) and counters
stay in memory and are written out with the child's result when the run
ends.  The untraced runs never import this module, so the end-to-end
measurements see unmodified code.

A binding that no longer exists (after a refactor, say) is recorded as
missing instead of raising; every metric that depends on that span name is
then reported absent, never as zero.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

CLI_STEPS = ("ingest", "clean", "correspond", "suppress", "qa", "emit-docs")


def _digest(data) -> str:
    return hashlib.sha1(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _parse_raw(tracer, args, result):
    tracer.distinct["ingest.parse_raw"].add(_digest(args[0]))


def _clean(tracer, args, result):
    tracer.counts["cleaning.changes"] += len(result[1].entries)


def _cycle(tracer, args, result):
    tracer.counts["qa.clean_qa_cycle.iterations"] += result.iterations


def _correspond(tracer, args, result):
    dataset, outcome = result
    tracer.counts["correspondence.records_out"] += len(dataset.records)
    tracer.counts["correspondence.records_with_events"] += sum(1 for e in outcome.events.values() if e)


def _privacy(tracer, args, result):
    tracer.counts["privacy.cells_suppressed"] += result[1]["suppression"]["total_suppressed"]


def _qa_stage(tracer, args, result):
    tracer.counts["qa.records_removed"] += len(result[1].removed_keys)


def _write_csv(tracer, args, result):
    tracer.distinct["model.write_csv"].add(_digest(result))


def _sha256(tracer, args, result):
    data = args[0]
    tracer.counts["jsonio.sha256_hex.bytes"] += len(data.encode("utf-8") if isinstance(data, str) else data)


def _dumps(tracer, args, result):
    tracer.counts["jsonio.canonical_dumps.bytes"] += len(result.encode("utf-8"))


# Span name -> (bindings "module.attribute" that callers resolve at call time, observer).
WRAPPED = {
    "ingest.parse_raw": (("ardkit.pipeline.parse_raw", "ardkit.cli.parse_raw"), _parse_raw),
    "cleaning.clean": (("ardkit.qa.clean",), _clean),
    "model.validate_dataset": (("ardkit.cleaning.validate_dataset", "ardkit.qa.validate_dataset"), None),
    "qa.run_rules": (("ardkit.qa.run_rules", "ardkit.pipeline.run_rules"), None),
    "qa.clean_qa_cycle": (("ardkit.pipeline.clean_qa_cycle", "ardkit.cli.clean_qa_cycle"), _cycle),
    "correspondence.load_table": (("ardkit.pipeline.load_table", "ardkit.cli.load_table"), None),
    "correspondence.forward": (("ardkit.correspondence.forward",), _correspond),
    "correspondence.backward": (("ardkit.correspondence.backward",), _correspond),
    "privacy.privacy_stage": (("ardkit.pipeline.privacy_stage", "ardkit.cli.privacy_stage"), _privacy),
    "privacy.randomize": (("ardkit.pipeline.randomize",), None),
    "qa.qa_stage": (("ardkit.pipeline.qa_stage", "ardkit.cli.qa_stage"), _qa_stage),
    "qa.assign_uncertainty": (("ardkit.pipeline.assign_uncertainty",), None),
    "model.write_csv": (("ardkit.pipeline.write_csv", "ardkit.cli.write_csv"), _write_csv),
    "model.read_csv": (("ardkit.cli.read_csv",), None),
    "jsonio.sha256_hex": (("ardkit.jsonio.sha256_hex", "ardkit.pipeline.sha256_hex", "ardkit.docs.sha256_hex"), _sha256),
    "jsonio.canonical_dumps": (("ardkit.pipeline.canonical_dumps", "ardkit.cli.canonical_dumps"), _dumps),
    "docs.emit_metadata": (("ardkit.pipeline.emit_metadata", "ardkit.cli.emit_metadata"), None),
    "docs.emit_dictionary": (("ardkit.pipeline.emit_dictionary", "ardkit.cli.emit_dictionary"), None),
    "docs.provenance": (("ardkit.pipeline.make_entry", "ardkit.pipeline.append_provenance"), None),
}
RUN_SPAN = "pipeline.run"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for name, (bindings, observe) in WRAPPED.items():
            for binding in bindings:
                module_name, attr = binding.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(binding)
                    continue
                setattr(module, attr, self._wrap(name, original, observe))
        return self

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {name: len(values) for name, values in self.distinct.items()},
            "missing": self.missing,
        }


def _inclusive(spans, name: str) -> tuple[int, float]:
    """Calls and total duration of `name`, not counting spans nested in a same-named one."""
    calls, total = 0, 0.0
    for span in spans:
        if span[0] != name:
            continue
        calls += 1
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return calls, total


def _self_time(spans, index: int) -> float:
    # Spans are sequential within one thread, so direct children never overlap.
    start, end = spans[index][1], spans[index][2]
    return (end - start) - sum(s[2] - s[1] for s in spans if s[3] == index)


def layer_metrics(trace: dict, report_bytes: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced child; returns (metrics, warnings).

    A metric is left out, with a warning, when a span it needs lost a
    binding or when its ratio has no calls to divide by.
    """
    spans, counts, distinct = trace["spans"], trace["counts"], trace["distinct"]
    broken = {name for name, (bindings, _) in WRAPPED.items() if set(bindings) & set(trace["missing"])}
    warnings = [f"wrapped name {b} no longer exists; its layer metrics are absent" for b in trace["missing"]]
    metrics: dict[str, float] = {}

    def put(metric: str, needs: tuple[str, ...], value) -> None:
        if not set(needs) & broken:
            metrics[metric] = value

    def ratio(metric: str, needs, numerator, denominator) -> None:
        if set(needs) & broken:
            return
        if denominator == 0:
            warnings.append(f"{metric} has no calls to divide by; absent")
            return
        metrics[metric] = numerator / denominator

    timed = {name: _inclusive(spans, name) for name in (*WRAPPED, *(f"cli.{s}" for s in CLI_STEPS))}
    for name in WRAPPED:
        calls, seconds = timed[name]
        put(f"{name}.s", (name,), seconds)
        put(f"{name}.calls", (name,), calls)
    put("cleaning.changes", ("cleaning.clean",), counts.get("cleaning.changes", 0))
    put("qa.clean_qa_cycle.iterations", ("qa.clean_qa_cycle",), counts.get("qa.clean_qa_cycle.iterations", 0))
    put("privacy.cells_suppressed", ("privacy.privacy_stage",), counts.get("privacy.cells_suppressed", 0))
    put("qa.records_removed", ("qa.qa_stage",), counts.get("qa.records_removed", 0))
    put("jsonio.sha256_hex.bytes", ("jsonio.sha256_hex",), counts.get("jsonio.sha256_hex.bytes", 0))
    put("jsonio.canonical_dumps.bytes", ("jsonio.canonical_dumps",), counts.get("jsonio.canonical_dumps.bytes", 0))
    ratio("ingest.parse_raw.unique_ratio", ("ingest.parse_raw",),
          distinct.get("ingest.parse_raw", 0), timed["ingest.parse_raw"][0])
    ratio("model.write_csv.distinct_ratio", ("model.write_csv",),
          distinct.get("model.write_csv", 0), timed["model.write_csv"][0])
    ratio("correspondence.events_nonempty_ratio", ("correspondence.forward", "correspondence.backward"),
          counts.get("correspondence.records_with_events", 0), counts.get("correspondence.records_out", 0))
    runs = [i for i, span in enumerate(spans) if span[0] == RUN_SPAN]
    put("pipeline.self_s", tuple(WRAPPED), sum(_self_time(spans, i) for i in runs))
    for step in CLI_STEPS:
        metrics[f"cli.{step}.s"] = timed[f"cli.{step}"][1]
    metrics.update(report_bytes)
    return metrics, warnings
