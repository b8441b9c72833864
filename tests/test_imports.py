"""Static checks on the package source."""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ardkit

MODULES = sorted(p for p in Path(ardkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (anywhere in it) but never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    # An import kept only so that something else can patch it hides dead code.
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    assert unused_imports("import os\nimport re\nfrom json import dumps, loads\nre.compile(loads('1'))\n") == [
        "line 1: os",
        "line 3: dumps",
    ]


def test_every_export_resolves_and_the_record_classes_are_gone():
    import ardkit.model

    assert [name for name in ardkit.__all__ if not hasattr(ardkit, name)] == []
    gone = ("CellValue", "RecordKey", "StandardRecord")
    assert [f"{m.__name__}.{name}" for m in (ardkit, ardkit.model) for name in gone if hasattr(m, name)] == []


def records_reads(source: str) -> list[str]:
    """Lines that read an attribute named `records`."""
    tree = ast.parse(source)
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "records" and isinstance(node.ctx, ast.Load)
    )
    return [f"line {line}: .records" for line in lines]


NOT_MODEL = sorted(p for p in Path(ardkit.__file__).parent.rglob("*.py") if p.name != "model.py")


@pytest.mark.parametrize("path", NOT_MODEL, ids=[p.stem for p in NOT_MODEL])
def test_stages_do_not_read_the_records_view(path):
    # `Dataset.records` builds a tuple per row on every read; the stages read `columns`.
    assert records_reads(path.read_text(encoding="utf-8")) == []


def test_records_read_is_reported():
    assert records_reads("a = d.records\nd.columns\nb = [r for r in x.records]\n") == [
        "line 1: .records",
        "line 3: .records",
    ]


def max_uncertainty_arguments(source: str) -> list[str]:
    """Lines that pass a `max_uncertainty=` keyword argument."""
    tree = ast.parse(source)
    lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg == "max_uncertainty")
    return [f"line {line}: max_uncertainty=" for line in lines]


@pytest.mark.parametrize("path", NOT_MODEL, ids=[p.stem for p in NOT_MODEL])
def test_only_the_dataset_sets_max_uncertainty(path):
    # `Dataset` states its rows' worst level when it is built; a second writer can only disagree with it.
    assert max_uncertainty_arguments(path.read_text(encoding="utf-8")) == []


def test_max_uncertainty_argument_is_reported():
    assert max_uncertainty_arguments("replace(i, max_uncertainty=2)\nf(x)\nIndicator(a, max_uncertainty=m)\n") == [
        "line 1: max_uncertainty=",
        "line 3: max_uncertainty=",
    ]


# The docs tree's file names and the per-indicator report suffixes of a run's tree.
ARTIFACT_NAMES = (
    ".parse.json", ".lineage.csv", ".cleaning.jsonl", ".correspondence.json", ".privacy.json", ".removals.json",
    ".qa.json", ".qa.txt", ".indicator.json", ".metadata.json", ".metadata.md", "dictionary.", "dmp.md",
)


def spelling_modules(name: str, sources: dict[str, str]) -> list[str]:
    """The modules with a string literal, f-string parts included, that holds `name`."""
    return sorted(
        module
        for module, source in sources.items()
        if any(isinstance(node, ast.Constant) and name in str(node.value) for node in ast.walk(ast.parse(source)))
    )


@pytest.mark.parametrize("name", ARTIFACT_NAMES)
def test_each_artifact_name_is_spelt_in_one_module(name):
    # `run` and `emit-docs` take a name from the one module that states it, so their trees cannot drift apart.
    package = Path(ardkit.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.rglob("*.py"))}
    assert len(spelling_modules(name, sources)) == 1, spelling_modules(name, sources)


def test_spelling_modules_are_reported():
    sources = {"a": 'x = f"{i}.qa.json"\n', "b": "# .qa.json in a comment\ny = '.qa.txt'\n", "c": "z = 1\n"}
    assert spelling_modules(".qa.json", sources) == ["a"]
    assert spelling_modules(".qa.txt", sources) == ["b"]


def test_no_module_imports_jsonschema():
    # jsonschema is the test oracle of `jsonio`'s validator, not a runtime dependency.
    importers = [
        path.name
        for path in Path(ardkit.__file__).parent.rglob("*.py")
        if any(
            (isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "jsonschema" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "jsonschema")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert importers == []


def test_start_up_does_not_load_jsonschema(tmp_path):
    from projectgen import build_demo_project

    config_path = build_demo_project(tmp_path / "proj")
    src = str(Path(ardkit.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "import ardkit.cli, ardkit.pipeline\n"
        f"ardkit.pipeline.load_config({str(config_path)!r})\n"
        "print('jsonschema' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def typing_named_tuple_imports(source: str) -> list[str]:
    """Lines that import `NamedTuple` from `typing`, or reach it as `typing.NamedTuple`."""
    tree = ast.parse(source)
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "typing" and any(a.name == "NamedTuple" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "NamedTuple"
            and isinstance(node.value, ast.Name) and node.value.id == "typing")
    )
    return [f"line {line}: typing.NamedTuple" for line in lines]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_builds_a_typing_named_tuple(path):
    # `typing.NamedTuple` turns every annotation into a `ForwardRef` at import; a record subclasses `model.Record`.
    assert typing_named_tuple_imports(path.read_text(encoding="utf-8")) == []


def test_typing_named_tuple_import_is_reported():
    source = "from typing import Mapping, NamedTuple\nimport typing\nclass A(typing.NamedTuple):\n    x: int\n"
    assert typing_named_tuple_imports(source) == ["line 1: typing.NamedTuple", "line 3: typing.NamedTuple"]


def test_start_up_evaluates_no_annotation():
    # Counted in a fresh process: an `eval`-mode `compile` or a `ForwardRef` at import means an annotation was read.
    src = str(Path(ardkit.__file__).resolve().parents[1])
    code = (
        "import builtins, typing\n"
        "modes, refs = [], []\n"
        "compile_, forward_ref_init = builtins.compile, typing.ForwardRef.__init__\n"
        "def counting_compile(source, filename, mode, *args, **kwargs):\n"
        "    modes.append(mode)\n"
        "    return compile_(source, filename, mode, *args, **kwargs)\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    refs.append(self)\n"
        "    forward_ref_init(self, *args, **kwargs)\n"
        "builtins.compile, typing.ForwardRef.__init__ = counting_compile, counting_init\n"
        "import ardkit.cli\n"
        "print(modes.count('eval'), len(refs))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "0"]


ORACLE = Path(__file__).with_name("oracle.py")
ORACLE_MAY_IMPORT = {
    # Reading a table is not under test; everything the engine decides is.
    "ardkit.correspondence": {"load_table", "CorrespondenceTable"},
    "ardkit.model": {"CellKind", "UncertaintyLevel", "Dataset", "BoundaryEdition", "GeoLevel"},
}
TEST_HELPERS = {p.stem for p in Path(__file__).parent.glob("*.py")}
EVENT_NAMES = {"subthreshold-discard", "missing-zero-fill", "backward-suppressed", "unresolvable-redistribution"}


def oracle_dependencies(source: str, may_import: dict[str, set[str]] = ORACLE_MAY_IMPORT) -> list[str]:
    """Imports that would let an oracle share the engine's logic.

    Only the names in `may_import` may come from ardkit, and no test
    helper may be imported, since the helpers import ardkit freely.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
        else:
            continue
        for module, name in modules:
            top = module.partition(".")[0]
            engine = top in ("", "ardkit") and name not in may_import.get(module, ())
            if engine or top in TEST_HELPERS:
                found.append(f"line {node.lineno}: {module.rstrip('.')}" + (f".{name}" if name else ""))
    return found


def test_oracle_is_independent_of_the_engine():
    source = ORACLE.read_text(encoding="utf-8")
    assert oracle_dependencies(source) == []
    literals = {node.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant)}
    assert EVENT_NAMES <= literals


def test_oracle_dependency_is_reported():
    source = (
        "from fractions import Fraction\n"
        "from ardkit.model import CellKind, exact_total\n"
        "from ardkit.correspondence import EVENT_ZERO_FILL, load_table\n"
        "import ardkit.qa\n"
        "from . import sibling\n"
        "from tabgen import random_table\n"
    )
    assert oracle_dependencies(source) == [
        "line 2: ardkit.model.exact_total",
        "line 3: ardkit.correspondence.EVENT_ZERO_FILL",
        "line 4: ardkit.qa",
        "line 5: .sibling",
        "line 6: tabgen.random_table",
    ]


REFERENCES_MAY_IMPORT = {
    # The dataset reader may build its result and read the header; the field rules it restates itself.
    "reference_reader.py": {
        "ardkit.errors": {"ArdkitError"},
        "ardkit.model": {"CSV_COLUMNS", "CellKind", "Columns", "Dataset", "UncertaintyLevel", "parse_geography_column"},
    },
    "reference_run.py": {"ardkit.model": {"CellKind", "UncertaintyLevel"}},
}


def private_ardkit_uses(source: str) -> list[str]:
    """Private names of `ardkit` that a source imports, or reaches as an attribute of an `ardkit` module."""
    modules = {"ardkit", *(f"ardkit.{path.stem}" for path in MODULES)}
    bound: dict[str, str] = {}  # a local name -> the `ardkit` module it names
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "ardkit":
                    bound[alias.asname or "ardkit"] = alias.name if alias.asname else "ardkit"
                    if "._" in alias.name:
                        found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "ardkit":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if alias.name.startswith("_"):
                    found.append((node.lineno, name))
                elif name in modules:
                    bound[alias.asname or alias.name] = name

    def module_of(node) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        parent = module_of(node.value) if isinstance(node, ast.Attribute) else None
        return f"{parent}.{node.attr}" if parent and f"{parent}.{node.attr}" in modules else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and module_of(node.value):
            found.append((node.lineno, f"{module_of(node.value)}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("name", sorted(REFERENCES_MAY_IMPORT))
def test_references_reach_no_private_name_of_ardkit(name):
    # A reference that called `model._value` or `qa`'s own helpers would compare the engine with itself.
    source = Path(__file__).with_name(name).read_text(encoding="utf-8")
    assert private_ardkit_uses(source) == []
    assert oracle_dependencies(source, REFERENCES_MAY_IMPORT[name]) == []


def test_private_ardkit_use_is_reported():
    source = (
        "import ardkit.model\n"
        "import ardkit.model as m\n"
        "from ardkit import model, cli as c\n"
        "from ardkit.model import _value, Columns, read_csv\n"
        "ardkit.model._year('2016')\n"
        "m._LEVELS_BY_TEXT\n"
        "model._value('5'), c._given\n"
        "Columns._make(()), read_csv.__doc__, other._private\n"
    )
    assert private_ardkit_uses(source) == [
        "line 4: ardkit.model._value",
        "line 5: ardkit.model._year",
        "line 6: ardkit.model._LEVELS_BY_TEXT",
        "line 7: ardkit.cli._given",
        "line 7: ardkit.model._value",
    ]


INGEST_ORACLE = Path(__file__).with_name("ingest_oracle.py")
INGEST_ORACLE_MAY_IMPORT = {
    # The per-token helpers and the result types; the parse itself is under test.
    "ardkit.errors": {"IngestError"},
    "ardkit.ingest": {"Layout", "ParseReport", "Reject", "_parse_magnitude"},
    "ardkit.jsonio": {"decode_utf8"},
    "ardkit.model": {"CellKind", "Columns", "Dataset", "UncertaintyLevel", "_ascii_int", "csv_rows"},
}
ENGINE_PARSE_NAMES = {"parse_raw", "ledger_csv", "canonical_sort", "take"}


def engine_parse_references(source: str) -> list[str]:
    """Names or attributes by which the ingest oracle would reach the engine's parse, sort or lineage."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if isinstance(node, ast.alias):
            name = node.name
        if name in ENGINE_PARSE_NAMES:
            found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
    return found


def test_ingest_oracle_is_independent_of_the_engine():
    source = INGEST_ORACLE.read_text(encoding="utf-8")
    assert oracle_dependencies(source, INGEST_ORACLE_MAY_IMPORT) == []
    assert engine_parse_references(source) == []
    # It renders the lineage through csv.writer itself.
    assert "writer" in {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def test_ingest_oracle_reference_is_reported():
    source = (
        "from ardkit.ingest import parse_raw, _parse_magnitude\n"
        "from ardkit.model import canonical_sort\n"
        "import ardkit.ingest as ingest\n"
        "rows = columns.take(order)\n"
        "text = ingest.ledger_csv(header, keys, rows, names)\n"
    )
    assert oracle_dependencies(source, INGEST_ORACLE_MAY_IMPORT) == [
        "line 1: ardkit.ingest.parse_raw",
        "line 2: ardkit.model.canonical_sort",
        "line 3: ardkit.ingest",
    ]
    assert sorted(engine_parse_references(source)) == [
        "line 1: parse_raw",
        "line 2: canonical_sort",
        "line 4: take",
        "line 5: ledger_csv",
    ]


def record_classes() -> list[type]:
    """Every dataclass and `model.Record` an `ardkit` module defines, once `ardkit.cli` has imported them all."""
    import ardkit.cli  # noqa: F401

    found = {
        cls
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "ardkit"
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name
        and (dataclasses.is_dataclass(cls) or (issubclass(cls, tuple) and hasattr(cls, "_fields")))
    }
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


# What keeps a record class a dataclass, whose methods are generated at every start, not a `model.Record`.
# A record that checks its fields defines `__new__` in its `Record` class body (README "Record types").
REPLACED = "perfbench/child.py calls dataclasses.replace on it"
KEPT_DATACLASSES = {"ardkit.pipeline.PipelineConfig": REPLACED}
BENCH_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def dataclass_reason(cls: type) -> str | None:
    if cls.__name__ == "PipelineConfig" and "dataclasses.replace(load_config(" in BENCH_CHILD.read_text(encoding="utf-8"):
        return REPLACED
    return None


def test_only_records_that_need_a_dataclass_are_one():
    dataclasses_found = [cls for cls in record_classes() if dataclasses.is_dataclass(cls)]
    assert {f"{cls.__module__}.{cls.__name__}": dataclass_reason(cls) for cls in dataclasses_found} == KEPT_DATACLASSES


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    # Built without validation (a checked record's `_make` checks), since only the class's own guard is under test;
    # FrozenInstanceError is an AttributeError.
    if dataclasses.is_dataclass(cls):
        record, names = object.__new__(cls), [f.name for f in dataclasses.fields(cls)]
    else:
        record, names = tuple.__new__(cls, [None] * len(cls._fields)), cls._fields
    assert names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
