"""Canonical JSON rendering, digests, schema validation, and guarded decoding.

All machine-readable artifacts are serialized through these helpers so
reruns produce byte-identical files: keys sorted, two-space indent, LF
line endings, UTF-8.  User files are read through `read_user_file` and
decoded through `decode_utf8` and `parse_json`, which turn a file that
cannot be read, bad bytes or bad JSON into an `ArdkitError` naming it.

Documents are checked against the shipped schemas by a small JSON Schema
2020-12 validator that covers exactly the keywords those schemas use
(`SUPPORTED_KEYWORDS`); a schema with any other keyword is refused when it
is compiled.  It gives the same decisions and messages as jsonschema 4.x
on that subset, which the test suite checks against jsonschema itself.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import re
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from importlib import resources
from typing import Callable, Iterator, Type

from .errors import ArdkitError


def canonical_dumps(doc) -> str:
    """Pretty canonical rendering used for artifact files."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def compact_dumps(doc) -> str:
    """Single-line canonical rendering used for digests and JSON lines."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def ledger_path(report: str) -> str:
    """Where the per-record ledger of a report lives: a report at ``X.json`` has its rows at ``X.ledger.csv``."""
    return report.removesuffix(".json") + ".ledger.csv"


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def decode_utf8(data: bytes | str, error_cls: Type[ArdkitError], where: str) -> str:
    """Decode UTF-8 input; invalid bytes raise error_cls naming `where` and the offset."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error_cls(f"{where}: not valid UTF-8 at byte offset {exc.start}") from None


def parse_json(data: bytes | str, error_cls: Type[ArdkitError], where: str):
    """Parse UTF-8 JSON; a syntax error raises error_cls naming `where` and the line."""
    try:
        return json.loads(decode_utf8(data, error_cls, where))
    except json.JSONDecodeError as exc:
        raise error_cls(f"{where}: line {exc.lineno}: not valid JSON ({exc.msg})") from None


def read_user_file(path, error_cls: Type[ArdkitError]) -> bytes:
    """A user file's bytes; one that cannot be read (absent, a directory, no permission, NUL in its name) raises error_cls naming it."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except (OSError, ValueError) as exc:  # ValueError: a name that holds NUL
        raise error_cls(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


@contextmanager
def about(path):
    """Prefix an ArdkitError raised in the block with the user file it is about, keeping its class."""
    try:
        yield
    except ArdkitError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_doc(path, build, error_cls: Type[ArdkitError] = ArdkitError, parse=parse_json):
    """A user file read, parsed (as JSON unless `parse` is `decode_utf8`) and built; any failure names the file."""
    doc = parse(read_user_file(path, error_cls), error_cls, str(path))
    with about(path):
        return build(doc)


def load_schema(name: str) -> dict:
    text = resources.files("ardkit.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def validate_against_schema(doc, schema_name: str, error_cls: Type[ArdkitError]) -> None:
    """Validate a document against a shipped JSON schema; raise error_cls on failure.

    Of all violations, the one reported is the first in path order (ties
    keep the schema's keyword order), as jsonschema's sorted `iter_errors`.
    """
    errors = _shipped_schema(schema_name)(doc, ())
    first = min(errors, key=lambda error: error[0], default=None)
    if first is not None:
        path, message = first
        where = "/".join(str(p) for p in path) or "document root"
        raise error_cls(f"{schema_name}: {message} (at {where})")


# A compiled (sub)schema: called with an instance and its path from the
# document root, it yields one (path, message) pair per violation.
Check = Callable[[object, tuple], Iterator[tuple[tuple, str]]]

# Keywords that never constrain an instance.  `format` is an annotation by
# default in 2020-12; `$defs` is read only as the target of `$ref`.
_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title", "description", "format", "default", "examples"})


def _is_object(value) -> bool:
    return isinstance(value, Mapping)


def _is_array(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray))


def _is_integer(value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


_TYPES = {
    "object": _is_object,
    "array": _is_array,
    "string": lambda value: isinstance(value, str),
    "integer": _is_integer,
    "number": lambda value: isinstance(value, numbers.Number) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _type(types, schema, compile_sub) -> Check:
    names = [types] if isinstance(types, str) else list(types)
    unknown = [name for name in names if name not in _TYPES]
    if unknown:
        raise ValueError(f"unknown JSON Schema type {unknown[0]!r}")
    tests = [_TYPES[name] for name in names]
    expected = ", ".join(repr(name) for name in names)

    def check(instance, path):
        if not any(test(instance) for test in tests):
            yield path, f"{instance!r} is not of type {expected}"
    return check


def _enum(values, schema, compile_sub) -> Check:
    if any(isinstance(value, (list, dict)) for value in values):
        raise ValueError("unsupported enum of arrays or objects")

    def equal(value, instance):
        # JSON equality on scalars: `True` is not `1`, but `1.0` is.
        if isinstance(value, bool) or isinstance(instance, bool):
            return value is instance
        return value == instance

    def check(instance, path):
        if not any(equal(value, instance) for value in values):
            yield path, f"{instance!r} is not one of {values!r}"
    return check


def _required(names, schema, compile_sub) -> Check:
    def check(instance, path):
        if _is_object(instance):
            for name in names:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
    return check


def _properties(properties, schema, compile_sub) -> Check:
    subs = [(name, compile_sub(sub)) for name, sub in properties.items()]

    def check(instance, path):
        if _is_object(instance):
            for name, sub in subs:
                if name in instance:
                    yield from sub(instance[name], (*path, name))
    return check


def _additional_properties(allowed, schema, compile_sub) -> Check:
    declared = schema.get("properties", {})
    sub = None if allowed is False else compile_sub(allowed)

    def check(instance, path):
        if not _is_object(instance):
            return
        extras = [name for name in instance if name not in declared]
        if sub is not None:
            for name in extras:
                yield from sub(instance[name], (*path, name))
        elif extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(repr(name) for name in sorted(extras, key=str))
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
    return check


def _items(items, schema, compile_sub) -> Check:
    sub = compile_sub(items)

    def check(instance, path):
        if _is_array(instance):
            for index, item in enumerate(instance):
                yield from sub(item, (*path, index))
    return check


def _bound(is_applicable, holds, text) -> Callable[..., Check]:
    """A keyword with one numeric limit that applies to some instance types."""
    def keyword(limit, schema, compile_sub) -> Check:
        message = text(limit)

        def check(instance, path):
            if is_applicable(instance) and not holds(instance, limit):
                yield path, f"{instance!r} {message}"
        return check
    return keyword


def _pattern(regex, schema, compile_sub) -> Check:
    search = re.compile(regex).search

    def check(instance, path):
        if isinstance(instance, str) and not search(instance):
            yield path, f"{instance!r} does not match {regex!r}"
    return check


def _one_of(options, schema, compile_sub) -> Check:
    subs = [compile_sub(option) for option in options]

    def check(instance, path):
        valid = [index for index, sub in enumerate(subs) if next(sub(instance, path), None) is None]
        if not valid:
            yield path, f"{instance!r} is not valid under any of the given schemas"
        elif len(valid) > 1:
            # jsonschema lists the later matches first, then the first match.
            shown = ", ".join(repr(options[index]) for index in (*valid[1:], valid[0]))
            yield path, f"{instance!r} is valid under each of {shown}"
    return check


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _bound(
        _is_array, lambda value, limit: len(value) >= limit,
        lambda limit: "should be non-empty" if limit == 1 else "is too short",
    ),
    "minLength": _bound(
        lambda value: isinstance(value, str), lambda value, limit: len(value) >= limit,
        lambda limit: "should be non-empty" if limit == 1 else "is too short",
    ),
    "maxLength": _bound(
        lambda value: isinstance(value, str), lambda value, limit: len(value) <= limit,
        lambda limit: "is expected to be empty" if limit == 0 else "is too long",
    ),
    "minimum": _bound(
        _TYPES["number"], lambda value, limit: not value < limit,
        lambda limit: f"is less than the minimum of {limit!r}",
    ),
    "pattern": _pattern,
    "oneOf": _one_of,
}

SUPPORTED_KEYWORDS = _ANNOTATIONS | {"$ref"} | _KEYWORDS.keys()


def compile_schema(schema) -> Check:
    """Compile a schema once; a keyword outside SUPPORTED_KEYWORDS, or a boolean subschema, raises ValueError.

    `additionalProperties: false` is the one boolean read, as that keyword's value.

    `$ref` may only point into the root's `$defs` (`#/$defs/<name>`).
    """
    definitions: dict[str, Check] = {}

    def compile_sub(sub) -> Check:
        if not isinstance(sub, dict):
            raise ValueError(f"unsupported schema {sub!r}; a schema must be an object")
        checks = []
        for keyword, value in sub.items():
            if keyword == "$ref":
                checks.append(reference(value))
            elif keyword in _KEYWORDS:
                checks.append(_KEYWORDS[keyword](value, sub, compile_sub))
            elif keyword not in _ANNOTATIONS or (keyword == "$defs" and sub is not schema):
                raise ValueError(f"unsupported schema keyword {keyword!r}")

        def check(instance, path):
            for one in checks:
                yield from one(instance, path)
        return check

    def reference(ref) -> Check:
        name = ref.removeprefix("#/$defs/") if isinstance(ref, str) else None
        if name is None or name == ref or name not in schema.get("$defs", {}):
            raise ValueError(f"unsupported $ref {ref!r}; only #/$defs/<name> is resolved")
        # Looked up when called, so a definition may refer to itself.
        return lambda instance, path: definitions[name](instance, path)

    root = compile_sub(schema)
    for name, sub in schema.get("$defs", {}).items():
        definitions[name] = compile_sub(sub)
    return root


@functools.lru_cache(maxsize=None)
def _shipped_schema(name: str) -> Check:
    return compile_schema(load_schema(name))
