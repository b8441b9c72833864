"""Canonical JSON rendering, digests, schema validation, and guarded decoding.

All machine-readable artifacts are serialized through these helpers so
reruns produce byte-identical files: keys sorted, two-space indent, LF
line endings, UTF-8.  User files are decoded through `decode_utf8` and
`parse_json`, which turn bad bytes or bad JSON into an `ArdkitError`.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from typing import Type

import jsonschema

from .errors import ArdkitError


def canonical_dumps(doc) -> str:
    """Pretty canonical rendering used for artifact files."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def compact_dumps(doc) -> str:
    """Single-line canonical rendering used for digests and JSON lines."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_doc(doc) -> str:
    return sha256_hex(compact_dumps(doc))


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


def load_schema(name: str) -> dict:
    text = resources.files("ardkit.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def validate_against_schema(doc, schema_name: str, error_cls: Type[ArdkitError]) -> None:
    """Validate a document against a shipped JSON schema; raise error_cls on failure."""
    schema = load_schema(schema_name)
    validator = jsonschema.Draft202012Validator(schema)
    problems = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if problems:
        first = problems[0]
        where = "/".join(str(p) for p in first.absolute_path) or "document root"
        raise error_cls(f"{schema_name}: {first.message} (at {where})")
