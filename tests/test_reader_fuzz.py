"""Every reader of a user file returns a value or raises an ArdkitError, whatever it is given.

The inputs are the demo project's files and the artifacts of one `run` over
it, mutated (spans cut, repeated, replaced or inserted; JSON values swapped,
dropped or added), or arbitrary bytes, text and JSON.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ardkit
from ardkit import cleaning, correspondence, docs, ingest, model, privacy
from ardkit.errors import ArdkitError
from ardkit.jsonio import parse_json, validate_against_schema
from ardkit.model import BoundaryEdition, GeoLevel, Indicator
from ardkit.pipeline import check_privacy_log, load_config, load_tables, run

DEMO = Path(__file__).resolve().parents[1] / "demo"
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Strings are at most 5 characters: a path a mutation writes names a file in the project or one such as `/tmp`.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
SPLICES = [",", "\n", "\r", '"', "\0", " ", "-", "1e9", "nan", "{", "}", "[", "]", ":", "null", "true", "-1", "1.5"]


@st.composite
def mutated(draw, seed):
    """`seed`, bytes or text, with one to four spans cut, repeated, replaced or inserted, or cut short."""
    splices = [s.encode() for s in SPLICES] + [b"\xff"] if isinstance(seed, bytes) else SPLICES
    pieces = st.sampled_from(splices) | (st.binary(max_size=8) if isinstance(seed, bytes) else st.text(max_size=8))
    data = seed
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 24)))
        op = draw(st.sampled_from(["cut", "repeat", "replace", "insert", "truncate"]))
        if op == "cut":
            data = data[:start] + data[end:]
        elif op == "repeat":
            data = data[:end] + data[start:end] + data[end:]
        elif op == "truncate":
            data = data[:start]
        else:
            data = data[:start] + draw(pieces) + data[end if op == "replace" else start:]
    return data


@st.composite
def mutated_doc(draw, seed):
    """`seed`, a JSON document, with one to three values somewhere in it replaced, dropped or added."""
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(1, 3))):
        holder, key, node = None, None, doc
        for _ in range(draw(st.integers(0, 4))):
            keys = sorted(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
            if not keys:
                break
            holder, key = node, draw(st.sampled_from(list(keys)))
            node = holder[key]
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if holder is None:
            doc = draw(JSON_VALUES) if action == "replace" else doc
        elif action == "replace":
            holder[key] = draw(JSON_VALUES)
        elif action == "drop":
            del holder[key]
        elif isinstance(holder, dict):
            holder[draw(st.text(max_size=5))] = draw(JSON_VALUES)
        else:
            holder.insert(key, draw(JSON_VALUES))
    return doc


def returns_or_raises_ardkit_error(read, *args) -> None:
    try:
        read(*args)
    except ArdkitError:
        pass


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    """A copy of the demo project, with the artifact tree of one run over it under `out/`."""
    root = tmp_path_factory.mktemp("demo")
    shutil.copytree(DEMO, root, dirs_exist_ok=True)
    assert not run(dataclasses.replace(load_config(root / "config.json"), output_dir=root / "out")).failed
    return root


def json_file(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def indicator(root: Path) -> Indicator:
    return Indicator.from_json(json_file(root / "out/datasets/demo.hospital_visits.indicator.json"))


def summary(root: Path):
    return correspondence.OutcomeSummary.from_json(json_file(root / "out/reports/demo.school_enrolments.correspondence.json"))


def parse_raw_with_each_mapping(root: Path, data: bytes) -> None:
    for item in json_file(root / "config.json")["indicators"]:
        mapping = ingest.SchemaMapping.from_json(json_file(root / item["mapping"]))
        returns_or_raises_ardkit_error(ingest.parse_raw, data, mapping, Indicator.from_json(item))


def replay_on_the_raw_dataset(root: Path, text: str) -> None:
    raw = (root / "raw/hospital_visits_2011.csv").read_bytes()
    mapping = ingest.SchemaMapping.from_json(json_file(root / "mappings/hospital_visits.json"))
    dataset, _ = ingest.parse_raw(raw, mapping, indicator(root))
    cleaning.replay(dataset, cleaning.CleaningLog.from_jsonl(text))


def read_csv_as_written(root: Path, text: str) -> None:
    """`read_csv`; a dataset it marks as written renders, as a fresh copy, to the text it read."""
    dataset = model.read_csv(text, indicator(root))
    assert not vars(dataset).get("_as_written") or model.write_csv(model.Dataset(*dataset)) == text


# Reader name -> (its seed files under the demo copy, the call that reads one input).
TEXT_READERS = {
    "read_csv": ("out/datasets/*.csv", read_csv_as_written),
    "load_table": (
        "tables/*.csv",
        lambda root, data: correspondence.load_table(
            data, level=GeoLevel.SA3, from_edition=BoundaryEdition.ASGS2011, to_edition=BoundaryEdition.ASGS2016
        ),
    ),
    "parse_raw": ("raw/*.csv", parse_raw_with_each_mapping),
    "detect_characteristics": ("raw/*.csv", lambda root, data: ingest.detect_characteristics(data)),
    "CleaningLog.from_jsonl": ("out/reports/demo.hospital_visits.cleaning.jsonl", replay_on_the_raw_dataset),
    "ProvenanceLog.from_jsonl": (
        "out/provenance.jsonl",
        lambda root, text: docs.verify_chain(docs.ProvenanceLog.from_jsonl(text)),
    ),
    "OutcomeSummary.outcomes": (
        "out/reports/demo.school_enrolments.correspondence.ledger.csv",
        lambda root, text: summary(root).outcomes(text),
    ),
}
BINARY = {"load_table", "parse_raw", "detect_characteristics"}


@pytest.mark.parametrize("name", TEXT_READERS)
@FUZZ
@given(data=st.data())
def test_text_reader(demo, name, data):
    pattern, read = TEXT_READERS[name]
    seeds = [p.read_bytes() if name in BINARY else p.read_text(encoding="utf-8") for p in sorted(demo.glob(pattern))]
    arbitrary = st.binary(max_size=64) if name in BINARY else st.text(max_size=64)
    returns_or_raises_ardkit_error(read, demo, data.draw(st.sampled_from(seeds).flatmap(mutated) | arbitrary))


def config_doc(root: Path) -> dict:
    return json_file(root / "config.json")


def lines_of(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def built(from_json):
    """A reader of one document that needs nothing else from the project."""
    return lambda root, doc: from_json(doc)


def validate_against_every_schema(root: Path, doc) -> None:
    for name in ("config.schema.json", "mapping.schema.json", "source.schema.json", "metadata.schema.json"):
        returns_or_raises_ardkit_error(validate_against_schema, doc, name, ArdkitError)


# Reader name -> (the seed documents it reads, the call that reads one document).
JSON_READERS = {
    "Indicator.from_json": (
        lambda root: [json_file(p) for p in sorted(root.glob("out/datasets/*.indicator.json"))],
        built(Indicator.from_json),
    ),
    "Vocabulary.from_json": (lambda root: [config_doc(root)["project"]["vocabulary"]], built(model.Vocabulary.from_json)),
    "SchemaMapping.from_json": (
        lambda root: [json_file(p) for p in sorted(root.glob("mappings/*.json"))],
        built(ingest.SchemaMapping.from_json),
    ),
    "SourceDescriptor.from_json": (lambda root: config_doc(root)["sources"], built(ingest.SourceDescriptor.from_json)),
    "CleaningRuleSet.from_json": (
        lambda root: [config_doc(root)["stages"]["clean"]],
        built(cleaning.CleaningRuleSet.from_json),
    ),
    "SuppressionPolicy.from_json": (
        lambda root: [config_doc(root)["stages"]["privacy"]],
        built(privacy.SuppressionPolicy.from_json),
    ),
    "CleaningEntry.from_json": (
        lambda root: lines_of(root / "out/reports/demo.hospital_visits.cleaning.jsonl"),
        built(cleaning.CleaningEntry.from_json),
    ),
    "ProvenanceEntry.from_json": (
        lambda root: lines_of(root / "out/provenance.jsonl")[1:],
        built(docs.ProvenanceEntry.from_json),
    ),
    "CorrespondenceOutcome.from_json": (
        lambda root: [step for p in sorted(root.glob("out/reports/*.correspondence.json")) for step in json_file(p)["steps"]],
        built(correspondence.CorrespondenceOutcome.from_json),
    ),
    "OutcomeSummary.from_json": (
        lambda root: [json_file(root / "out/reports/demo.school_enrolments.correspondence.json")],
        # With the ledger the run wrote beside it, so that every summary read meets the ledger check.
        lambda root, doc: correspondence.OutcomeSummary.from_json(doc).outcomes(
            (root / "out/reports/demo.school_enrolments.correspondence.ledger.csv").read_text(encoding="utf-8")
        ),
    ),
    "check_privacy_log": (
        lambda root: [json_file(p) for p in sorted(root.glob("out/reports/*.privacy.json"))],
        built(check_privacy_log),
    ),
    "validate_against_schema": (
        lambda root: [config_doc(root), *(json_file(p) for p in sorted(root.glob("mappings/*.json")))],
        validate_against_every_schema,
    ),
}


@pytest.mark.parametrize("name", JSON_READERS)
@FUZZ
@given(data=st.data())
def test_json_reader(demo, name, data):
    seeds, read = JSON_READERS[name]
    seed = data.draw(st.sampled_from(seeds(demo)))
    if data.draw(st.booleans()):  # the document's text mutated, then parsed as a reader of a file parses it
        text = data.draw(mutated(json.dumps(seed)))
        returns_or_raises_ardkit_error(lambda: read(demo, parse_json(text, ArdkitError, "document")))
    else:  # the document mutated as a value, or an arbitrary value
        returns_or_raises_ardkit_error(read, demo, data.draw(mutated_doc(seed) | JSON_VALUES))


def test_every_from_json_is_fuzzed():
    modules = [getattr(ardkit, name) for name in ("cleaning", "correspondence", "docs", "ingest", "model", "privacy")]
    classes = {
        f"{cls.__name__}.from_json"
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__ and "from_json" in vars(cls)
    }
    assert classes == {name for name in JSON_READERS if name.endswith(".from_json")}


@FUZZ
@given(data=st.data())
def test_load_config(demo, data):
    # The tables are read too, as a run's set-up reads them.
    doc = data.draw(mutated_doc(config_doc(demo)))
    path = demo / "fuzzed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    returns_or_raises_ardkit_error(lambda: load_tables(load_config(path).tables))
