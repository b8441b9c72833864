"""The stdlib schema validator: its keyword subset, its edge cases, and jsonschema as its oracle."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ardkit.errors import ArdkitError
from ardkit.jsonio import SUPPORTED_KEYWORDS, compile_schema, load_schema, validate_against_schema

SCHEMAS = ("config.schema.json", "mapping.schema.json", "metadata.schema.json", "source.schema.json")
DEMO = Path(__file__).resolve().parents[1] / "demo"


def subschemas(schema):
    """Every (sub)schema object of a schema, the root first."""
    if not isinstance(schema, dict):
        return
    yield schema
    for keyword in ("properties", "$defs"):
        for sub in schema.get(keyword, {}).values():
            yield from subschemas(sub)
    for keyword in ("items", "additionalProperties"):
        yield from subschemas(schema.get(keyword))
    for sub in schema.get("oneOf", ()):
        yield from subschemas(sub)


def message(doc, schema_name):
    try:
        validate_against_schema(doc, schema_name, ArdkitError)
    except ArdkitError as exc:
        return str(exc)
    return None


class TestKeywordSubset:
    @pytest.mark.parametrize("name", SCHEMAS)
    def test_shipped_schemas_use_only_supported_keywords(self, name):
        used = {keyword for sub in subschemas(load_schema(name)) for keyword in sub}
        assert used <= SUPPORTED_KEYWORDS, sorted(used - SUPPORTED_KEYWORDS)

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "array", "uniqueItems": True},
            {"properties": {"a": {"type": "string", "const": "x"}}},
            {"oneOf": [{"type": "string"}, {"not": {"type": "string"}}]},
            {"$defs": {"a": {"type": "string"}}, "items": {"$ref": "other.json#/a"}},
            {"items": {"$defs": {"a": {}}}},
            {"type": "text"},
            {"enum": [[1]]},
            {"items": False},
            {"properties": {"a": True}},
        ],
        ids=[
            "uniqueItems", "nested-const", "nested-not", "foreign-ref", "nested-defs", "unknown-type", "enum-of-arrays",
            "items-false", "boolean-property",
        ],
    )
    def test_unsupported_schema_is_refused_when_compiled(self, schema):
        with pytest.raises(ValueError, match="unsupported|unknown"):
            compile_schema(schema)

    def test_shipped_schema_is_compiled_once(self, monkeypatch):
        import ardkit.jsonio as jsonio

        jsonio._shipped_schema("mapping.schema.json")  # compiled here if no earlier test did
        monkeypatch.setattr(jsonio, "load_schema", lambda name: pytest.fail("schema parsed twice"))
        assert message(json.loads((DEMO / "mappings" / "hospital_visits.json").read_text()), "mapping.schema.json") is None


class TestJsonSchemaSemantics:
    @pytest.mark.parametrize(
        "schema, doc, expected",
        [
            ({"type": "integer"}, 1.0, None),
            ({"type": "integer"}, True, "True is not of type 'integer' (at document root)"),
            ({"type": "number"}, False, "False is not of type 'number' (at document root)"),
            ({"type": ["number", "string"]}, None, "None is not of type 'number', 'string' (at document root)"),
            ({"enum": [1, 2]}, True, "True is not one of [1, 2] (at document root)"),
            ({"enum": [1, 2]}, 3, "3 is not one of [1, 2] (at document root)"),
            ({"enum": [2011]}, 2011.0, None),
            ({"type": "string", "minLength": 1}, "", "'' should be non-empty (at document root)"),
            ({"type": "string", "maxLength": 1}, "ab", "'ab' is too long (at document root)"),
            ({"type": "integer", "minimum": 1}, 0, "0 is less than the minimum of 1 (at document root)"),
            ({"type": "array", "minItems": 1}, [], "[] should be non-empty (at document root)"),
            ({"type": "string", "pattern": "^[0-9]{4}$"}, "20x1", "'20x1' does not match '^[0-9]{4}$' (at document root)"),
            ({"required": ["a", "b"]}, {}, "'a' is a required property (at document root)"),
            (
                {"properties": {"a": {}}, "additionalProperties": False},
                {"z": 1, "a": 1, "b": 2},
                "Additional properties are not allowed ('b', 'z' were unexpected) (at document root)",
            ),
            ({"additionalProperties": {"type": "string"}}, {"a": "x", "b": 2}, "2 is not of type 'string' (at b)"),
            ({"items": {"type": "string"}}, ["a", 1], "1 is not of type 'string' (at 1)"),
            (
                {"oneOf": [{"type": "string"}, {"type": "object"}]},
                5,
                "5 is not valid under any of the given schemas (at document root)",
            ),
            (
                {"oneOf": [{"type": "integer"}, {"type": "number"}]},
                5,
                "5 is valid under each of {'type': 'number'}, {'type': 'integer'} (at document root)",
            ),
            (
                {"$defs": {"s": {"type": "string"}}, "properties": {"a": {"$ref": "#/$defs/s"}}},
                {"a": 1},
                "1 is not of type 'string' (at a)",
            ),
            # The first error in path order wins; at one path, schema keyword order decides.
            (
                {"properties": {"b": {"type": "string"}}, "required": ["a"]},
                {"b": 1},
                "'a' is a required property (at document root)",
            ),
        ],
    )
    def test_decision_and_message(self, monkeypatch, schema, doc, expected):
        import ardkit.jsonio as jsonio

        monkeypatch.setattr(jsonio, "_shipped_schema", lambda name: compile_schema(schema))
        assert message(doc, "t.json") == (None if expected is None else f"t.json: {expected}")

    def test_validator_reads_any_mapping_and_sequence(self):
        from types import MappingProxyType

        doc = json.loads((DEMO / "mappings" / "hospital_visits.json").read_text())
        doc["missing_tokens"] = tuple(doc["missing_tokens"])
        assert message(MappingProxyType(doc), "mapping.schema.json") is None


def _locations(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _locations(value, (*path, key))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _locations(value, (*path, index))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _vocabulary(schema):
    """The property names and enum members a schema mentions, to steer mutations near validity."""
    names, members = set(), []
    for sub in subschemas(schema):
        names.update(sub.get("properties", {}))
        members.extend(sub.get("enum", ()))
    return sorted(names), members


METADATA = {
    "indicator_id": "demo.x",
    "draft": False,
    "variable_type": "count",
    "findable": {"title": "t", "identifier": "i", "metadata_reference": "m"},
    "accessible": {"legal_ethical_requirements": "l", "access_rights": "a"},
    "interoperable": {"standard_vocabulary_note": "s"},
    "reusable": {
        "licence": "l",
        "geographical_coverage": "g",
        "temporal_coverage": "t",
        "fields_of_research": "f",
        "socio_economic_objectives": "s",
    },
}


def _valid_documents(name):
    config = json.loads((DEMO / "config.json").read_text())
    return {
        "config.schema.json": config,
        "mapping.schema.json": json.loads((DEMO / "mappings" / "hospital_visits.json").read_text()),
        "metadata.schema.json": METADATA,
        "source.schema.json": config["sources"][0],
    }[name]


@st.composite
def mutated(draw, name):
    """A valid document of the schema with one to three values replaced, deleted or added."""
    names, members = _vocabulary(load_schema(name))
    keys = st.sampled_from([*names, "x"])
    scalars = (
        st.none() | st.booleans() | st.integers(-2, 2100) | st.floats() | st.text(max_size=3)
        | st.sampled_from([*members, "", "2020-01-01", "2011", 1.0])
    )
    values = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=2) | st.dictionaries(keys, inner, max_size=2), max_leaves=3
    )
    doc = copy.deepcopy(_valid_documents(name))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(doc))))
        node = _at(doc, path)
        op = draw(st.sampled_from(("replace", "delete", "add")))
        if op == "add" and isinstance(node, dict):
            node[draw(keys)] = draw(values)
        elif op == "add" and isinstance(node, list):
            node.append(draw(values))
        elif not path:
            doc = draw(values)
        elif op == "delete":
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = draw(values)
    return doc


def oracle_message(validator, doc, schema_name):
    """jsonschema's verdict, reported as `validate_against_schema` reports it."""
    problems = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if not problems:
        return None
    first = problems[0]
    where = "/".join(str(p) for p in first.absolute_path) or "document root"
    return f"{schema_name}: {first.message} (at {where})"


@pytest.fixture(scope="module")
def oracles():
    jsonschema = pytest.importorskip("jsonschema")
    return {name: jsonschema.Draft202012Validator(load_schema(name)) for name in SCHEMAS}


@pytest.mark.parametrize("name", SCHEMAS)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_agrees_with_jsonschema(oracles, name, data):
    assert message(_valid_documents(name), name) is None
    doc = data.draw(mutated(name))
    assert message(doc, name) == oracle_message(oracles[name], doc, name)
