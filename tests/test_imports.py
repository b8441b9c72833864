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


INGEST_ORACLE = Path(__file__).with_name("ingest_oracle.py")
INGEST_ORACLE_MAY_IMPORT = {
    # The per-token helpers and the result types; the parse itself is under test.
    "ardkit.errors": {"IngestError"},
    "ardkit.ingest": {"Layout", "ParseReport", "Reject", "_parse_magnitude", "_parse_year"},
    "ardkit.jsonio": {"decode_utf8"},
    "ardkit.model": {"BoundaryEdition", "CellKind", "Columns", "Dataset", "GeoLevel", "UncertaintyLevel", "csv_rows"},
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
        "from ardkit.ingest import parse_raw, _parse_year\n"
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
    """Every dataclass and NamedTuple an `ardkit` module defines, once `ardkit.cli` has imported them all."""
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


# What keeps a record class a dataclass, whose methods are generated at every start, not a NamedTuple.
VALIDATES = "validates or normalises in __post_init__"
FIELD_OPTION = "a field is left out of repr or comparison"
REPLACED = "perfbench/child.py calls dataclasses.replace on it"
KEPT_DATACLASSES = {
    "ardkit.cleaning.CleaningRuleSet": VALIDATES,
    "ardkit.correspondence.CorrespondenceEdge": VALIDATES,
    "ardkit.correspondence.CorrespondenceOutcome": FIELD_OPTION,
    "ardkit.correspondence.CorrespondencePolicy": VALIDATES,
    "ardkit.correspondence.CorrespondenceTable": VALIDATES,
    "ardkit.ingest.ParseReport": FIELD_OPTION,
    "ardkit.ingest.SchemaMapping": VALIDATES,
    "ardkit.ingest.SourceDescriptor": VALIDATES,
    "ardkit.model.Dataset": VALIDATES,
    "ardkit.model.Indicator": VALIDATES,
    "ardkit.pipeline.PipelineConfig": REPLACED,
    "ardkit.privacy.SuppressionPolicy": VALIDATES,
    "ardkit.qa.ConservationRecord": FIELD_OPTION,
}
BENCH_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def dataclass_reason(cls: type) -> str | None:
    if "__post_init__" in vars(cls):
        return VALIDATES
    if not all(f.repr and f.compare for f in dataclasses.fields(cls)):
        return FIELD_OPTION
    if cls.__name__ == "PipelineConfig" and "dataclasses.replace(load_config(" in BENCH_CHILD.read_text(encoding="utf-8"):
        return REPLACED
    return None


def test_only_records_that_need_a_dataclass_are_one():
    dataclasses_found = [cls for cls in record_classes() if dataclasses.is_dataclass(cls)]
    assert {f"{cls.__module__}.{cls.__name__}": dataclass_reason(cls) for cls in dataclasses_found} == KEPT_DATACLASSES


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    # Built without validation, since only the class's own guard is under test; FrozenInstanceError is an AttributeError.
    if dataclasses.is_dataclass(cls):
        record, names = object.__new__(cls), [f.name for f in dataclasses.fields(cls)]
    else:
        record, names = cls._make([None] * len(cls._fields)), cls._fields
    assert names
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
