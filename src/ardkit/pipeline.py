"""Pipeline orchestration: configuration, stage wiring, artifact emission.

One `run` executes the enabled stages per indicator in the fixed order
ingest -> clean (with the QA loop) -> correspond -> privacy -> qa -> docs,
then writes every artifact under the output directory with stable names
and a hash-chained provenance log.  Reruns on identical inputs and seed
are byte-identical; to that end the provenance timestamp comes from the
config (or SOURCE_DATE_EPOCH) rather than the wall clock when provided.
"""

from __future__ import annotations

import datetime
import gc
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Mapping

from . import __version__
from .cleaning import CleaningLog, CleaningRuleSet
from .correspondence import (
    CorrespondenceOutcome,
    CorrespondencePolicy,
    CorrespondenceTable,
    convert,
    load_table,
    outcomes_report,
)
from .docs import (
    DMP_PATH,
    Audience,
    ProvenanceLog,
    append_provenance,
    dictionary_path,
    emit_dictionary,
    emit_metadata,
    make_entry,
    metadata_paths,
    scaffold_dmp,
)
from .errors import ArdkitError, ConfigError, CorrespondenceError
from .ingest import SchemaMapping, SourceDescriptor, parse_raw
from .jsonio import (
    about,
    canonical_dumps,
    decode_utf8,
    ledger_path,
    read_doc,
    read_user_file,
    sha256_hex,
    validate_against_schema,
)
from .model import (
    BoundaryEdition,
    CellKind,
    Dataset,
    GeoLevel,
    Indicator,
    Record,
    Vocabulary,
    _ascii_int,
    round_counts,
    write_csv,
)
from .privacy import SuppressionPolicy, check_seed, randomize, suppress
from .qa import (
    ConservationRecord,
    QAContext,
    QAReport,
    RemovalLog,
    assign_uncertainty,
    clean_qa_cycle,
    filter_high_uncertainty,
    run_rules,
)


class IndicatorSpec(Record):
    indicator: Indicator
    data_path: Path
    mapping_path: Path
    denominator: str | None = None


class TableSpec(Record):
    path: Path
    level: GeoLevel
    from_edition: BoundaryEdition
    to_edition: BoundaryEdition


class StageSettings(Record):
    clean_enabled: bool = True
    cleaning_rules: CleaningRuleSet = CleaningRuleSet()
    correspond_enabled: bool = True
    policy: CorrespondencePolicy = CorrespondencePolicy()
    privacy_enabled: bool = True
    suppression: SuppressionPolicy = SuppressionPolicy()
    noise_magnitude: int = 0
    qa_enabled: bool = True
    max_iterations: int = 10


@dataclass(frozen=True)
class PipelineConfig:
    name: str
    actor: str
    run_timestamp: str | None
    coverage: tuple[int, int]
    target_edition: BoundaryEdition
    target_level: GeoLevel
    vocabulary: Vocabulary
    docs: Mapping  # the project's name, metadata, dictionary and dmp_answers, as `docs` reads them
    sources: tuple[SourceDescriptor, ...]
    indicators: tuple[IndicatorSpec, ...]
    tables: tuple[TableSpec, ...]
    stages: StageSettings
    output_dir: Path
    seed: int | None
    round_counts: bool


def load_config(path: str | os.PathLike) -> PipelineConfig:
    """Parse and validate a pipeline configuration file; every refusal names it first."""
    config_path = Path(path)
    return read_doc(config_path, partial(_config_from, base=config_path.parent), ConfigError)


def _config_from(doc, base: Path) -> PipelineConfig:
    validate_against_schema(doc, "config.schema.json", ConfigError)
    project = doc["project"]

    vocabulary_doc = project.get("vocabulary", {})
    if isinstance(vocabulary_doc, str):
        vocabulary = read_doc(base / vocabulary_doc, Vocabulary.from_json, ConfigError)
    else:  # inline, and shaped as the schema checked
        vocabulary = Vocabulary.from_json(vocabulary_doc)

    sources = tuple(SourceDescriptor.from_json(item) for item in doc.get("sources", ()))
    source_ids = {s.source_id for s in sources}
    if len(source_ids) != len(sources):
        raise ConfigError("duplicate source_id in sources")

    specs: list[IndicatorSpec] = []
    seen_ids: set[str] = set()
    for item in doc["indicators"]:
        if item["id"] in seen_ids:
            raise ConfigError(f"duplicate indicator id {item['id']!r}")
        seen_ids.add(item["id"])
        if item["source_id"] not in source_ids:
            raise ConfigError(f"indicator {item['id']!r} references unknown source {item['source_id']!r}")
        # The schema has checked every key `from_json` reads.
        indicator = Indicator.from_json(item)
        specs.append(IndicatorSpec(indicator, base / item["data"], base / item["mapping"], item.get("denominator")))
    by_id = {spec.indicator.id: spec for spec in specs}
    for spec in specs:
        if spec.denominator is None:
            continue
        target = by_id.get(spec.denominator)
        if target is None or target.indicator.id == spec.indicator.id:
            raise ConfigError(
                f"indicator {spec.indicator.id!r} names unknown denominator {spec.denominator!r}"
            )
        if spec.indicator.value_kind is CellKind.COUNT:
            raise ConfigError(
                f"count indicator {spec.indicator.id!r} names a denominator; only rates "
                "and percentages take one"
            )
        if target.indicator.value_kind is not CellKind.COUNT:
            raise ConfigError(f"denominator {spec.denominator!r} must be a count indicator")

    tables = tuple(
        TableSpec(
            path=base / item["path"],
            level=GeoLevel(item["level"]),
            from_edition=BoundaryEdition(item["from_edition"]),
            to_edition=BoundaryEdition(item["to_edition"]),
        )
        for item in doc.get("correspondence_tables", ())
    )

    stages_doc = doc.get("stages", {})
    clean_doc = stages_doc.get("clean", {})
    correspond_doc = stages_doc.get("correspond", {})
    privacy_doc = stages_doc.get("privacy", {})
    qa_doc = stages_doc.get("qa", {})
    policy = CorrespondencePolicy()
    if "discard_threshold" in correspond_doc:
        try:
            policy = CorrespondencePolicy(correspond_doc["discard_threshold"])
        except CorrespondenceError as exc:
            raise ConfigError(f"stages.correspond.discard_threshold: {exc}") from None
    stages = StageSettings(
        clean_enabled=clean_doc.get("enabled", True),
        cleaning_rules=CleaningRuleSet.from_json(clean_doc),
        correspond_enabled=correspond_doc.get("enabled", True),
        policy=policy,
        privacy_enabled=privacy_doc.get("enabled", True),
        suppression=SuppressionPolicy.from_json(privacy_doc),
        noise_magnitude=privacy_doc.get("noise_magnitude", 0),
        qa_enabled=qa_doc.get("enabled", True),
        max_iterations=qa_doc.get("max_iterations", 10),
    )

    coverage_doc = project["temporal_coverage"]
    return PipelineConfig(
        name=project["name"],
        actor=project.get("actor", "ardkit"),
        run_timestamp=project.get("run_timestamp"),
        coverage=coverage_span(coverage_doc["start"], coverage_doc["end"]),
        target_edition=BoundaryEdition(project["target_edition"]),
        target_level=GeoLevel(project["target_level"]),
        vocabulary=vocabulary,
        docs={key: project[key] for key in ("name", "metadata", "dictionary", "dmp_answers") if key in project},
        sources=sources,
        indicators=tuple(specs),
        tables=tables,
        stages=stages,
        output_dir=base / doc.get("output_dir", "out"),
        seed=doc.get("seed"),
        round_counts=doc.get("round_counts", False),
    )


def coverage_span(start: int, end: int) -> tuple[int, int]:
    """A declared temporal coverage (start, end): its start may not be after its end."""
    if start > end:
        raise ConfigError("temporal coverage start is after its end")
    return start, end


# ---------------------------------------------------------------------------
# Stage functions (shared verbatim by `run` and the per-stage CLI subcommands)


def privacy_stage(
    dataset: Dataset,
    *,
    suppression: SuppressionPolicy,
    noise_magnitude: int = 0,
    seed=None,
) -> tuple[Dataset, dict]:
    """Randomise (when configured) then suppress; returns the privacy log doc."""
    if dataset.indicator.value_kind is not CellKind.COUNT:
        return dataset, {
            "noise_magnitude": 0,
            "skipped": "non-count indicator; suppression applies upstream via numerator counts",
            "suppression": {"strata": [], "total_suppressed": 0},
        }
    if noise_magnitude:
        dataset = randomize(dataset, noise_magnitude, seed)
    dataset, log = suppress(dataset, suppression)
    return dataset, {"noise_magnitude": noise_magnitude, "suppression": log.to_json()}


def check_privacy_log(doc) -> Mapping:
    """A privacy log read back from a file; the two counts QA relies on must be there."""
    if not isinstance(doc, Mapping):
        raise ArdkitError("privacy log is not a JSON object")
    for path in (("noise_magnitude",), ("suppression", "total_suppressed")):
        value = doc
        for key in path:
            value = value.get(key) if isinstance(value, Mapping) else None
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ArdkitError(f"privacy log {'.'.join(path)} must be a non-negative integer, not {value!r}")
    return doc


def conservation_from(
    outcomes: tuple[CorrespondenceOutcome, ...],
    privacy_log: Mapping | None,
    removal_log: RemovalLog,
) -> ConservationRecord | None:
    """Attach a mass-conservation expectation only when it can still hold."""
    if not outcomes or not all(o.conserving for o in outcomes):
        return None
    if privacy_log is not None:
        if privacy_log.get("noise_magnitude"):
            return None
        if privacy_log.get("suppression", {}).get("total_suppressed"):
            return None
    if removal_log.removed_keys:
        return None
    return ConservationRecord(outcomes[0].input_total, outcomes[-1].output_total, outcomes[-1].output_magnitudes)


def qa_stage(
    dataset: Dataset,
    *,
    outcomes: tuple[CorrespondenceOutcome, ...] = (),
    privacy_log: Mapping | None = None,
    vocabulary: Vocabulary | None = None,
    coverage: tuple[int, int] | None = None,
) -> tuple[Dataset, RemovalLog, QAReport]:
    """Assign uncertainty from provenance, drop high records, run the rules."""
    dataset = assign_uncertainty(dataset, outcomes[-1].events if outcomes else {})
    dataset, removal_log = filter_high_uncertainty(dataset)
    context = QAContext(
        vocabulary=vocabulary,
        coverage=coverage,
        conservation=conservation_from(outcomes, privacy_log, removal_log),
        removed_high=len(removal_log.removed_keys),
    )
    return dataset, removal_log, run_rules(dataset, context)


# ---------------------------------------------------------------------------
# Run orchestration


class StageRecord(Record):
    stage: str
    decision: str
    input_digests: tuple[str, ...]
    output_digests: tuple[str, ...]


class IndicatorResult(Record):
    stage_records: list[StageRecord]
    report: QAReport
    final_indicator: Indicator


class RunResult(Record):
    exit_code: int
    out_dir: Path
    failed: bool
    warnings: int
    errors: int
    message: str


def load_tables(
    specs: tuple[TableSpec, ...]
) -> dict[tuple[BoundaryEdition, BoundaryEdition], CorrespondenceTable]:
    tables = {}
    for spec in specs:
        build = partial(load_table, level=spec.level, from_edition=spec.from_edition, to_edition=spec.to_edition)
        tables[spec.from_edition, spec.to_edition] = read_doc(spec.path, build, ConfigError, decode_utf8)
    return tables


def _process_indicator(
    config: PipelineConfig,
    spec: IndicatorSpec,
    tables,
    denominator: tuple[Dataset, Dataset | None] | None,
    artifacts: dict[str, str],
) -> tuple[IndicatorResult, tuple[Dataset, Dataset | None]]:
    """Run every stage for one indicator, writing its artifacts into `artifacts`.

    Also returns its cleaned and its converted dataset: the converted one
    is the correspond stage's output, or None when that stage is off.
    `denominator` is that pair for the indicator `spec` names as its
    denominator, if any: a rate is split against the cleaned counts, and a
    rate with the same keys reuses their conversion.
    """
    ind_id = spec.indicator.id
    records: list[StageRecord] = []

    raw = read_user_file(spec.data_path, ConfigError)
    mapping = read_doc(spec.mapping_path, SchemaMapping.from_json, ConfigError)
    digest = sha256_hex(raw)
    rendered: tuple = (None, "", "")  # the dataset last rendered, its CSV text and digest
    texts: dict = {}  # the last rendering's VALUE texts, which seed the next

    def render(output: Dataset) -> tuple[str, str]:
        """CSV text and digest, reused while a stage hands back the dataset last rendered."""
        nonlocal rendered
        if output is not rendered[0]:
            text = write_csv(output, texts=texts)
            rendered = (output, text, sha256_hex(text))
        return rendered[1:]

    def add_report(name: str, report: tuple[dict, str]) -> None:
        """A report's JSON summary at `name` and its ledger beside it."""
        summary, ledger = report
        artifacts[name] = canonical_dumps(summary)
        artifacts[ledger_path(name)] = ledger

    def record_stage(stage: str, decision: str, output: Dataset) -> None:
        """Log a stage whose input is the previous stage's output, as `stage:<indicator id>`.

        A stage that changed nothing hands back its input dataset and so
        reuses its rendering: its output digest equals its input digest.
        """
        nonlocal digest
        before, digest = digest, render(output)[1]
        records.append(StageRecord(f"{stage}:{ind_id}", decision, (before,), (digest,)))

    with about(spec.data_path):
        dataset, parse_report = parse_raw(raw, mapping, spec.indicator)
    if dataset.level is not config.target_level:
        raise ConfigError(
            f"indicator {ind_id!r} is at level {dataset.level.value}, "
            f"but the project's target level is {config.target_level.value}"
        )
    artifacts[f"reports/{ind_id}.parse.json"] = canonical_dumps(parse_report.to_json())
    artifacts[f"reports/{ind_id}.lineage.csv"] = parse_report.lineage_csv
    record_stage(
        "ingest",
        f"parsed {parse_report.rows_in} logical rows into {parse_report.records_out} records, "
        f"{len(parse_report.rejects)} rejected",
        dataset,
    )

    cleaning_log = CleaningLog()
    if config.stages.clean_enabled:
        cycle = clean_qa_cycle(
            dataset,
            config.stages.cleaning_rules,
            QAContext(vocabulary=config.vocabulary),
            cap=config.stages.max_iterations,
        )
        dataset, cleaning_log = cycle.dataset, cycle.log
        record_stage(
            "clean",
            f"applied {len(cleaning_log.entries)} change(s) in {cycle.iterations} iteration(s)",
            dataset,
        )
    artifacts[f"reports/{ind_id}.cleaning.jsonl"] = cleaning_log.to_jsonl()
    cleaned = dataset

    outcomes: tuple[CorrespondenceOutcome, ...] = ()
    converted = None
    if config.stages.correspond_enabled:
        denominator_cleaned, denominator_converted = denominator or (None, None)
        dataset, outcomes = convert(
            dataset, config.target_edition, tables, config.stages.policy,
            denominator=denominator_cleaned, converted_denominator=denominator_converted,
        )
        converted = dataset
        if outcomes:
            record_stage(
                "correspond",
                f"converted {int(outcomes[0].from_edition)} to {int(outcomes[-1].to_edition)} "
                f"in {len(outcomes)} step(s)",
                dataset,
            )
    add_report(f"reports/{ind_id}.correspondence.json", outcomes_report(outcomes))

    privacy_log: dict | None = None
    if config.stages.privacy_enabled:
        dataset, privacy_log = privacy_stage(
            dataset,
            suppression=config.stages.suppression,
            noise_magnitude=config.stages.noise_magnitude,
            seed=config.seed,
        )
        artifacts[f"reports/{ind_id}.privacy.json"] = canonical_dumps(privacy_log)
        record_stage(
            "privacy",
            f"noise magnitude {privacy_log['noise_magnitude']}, "
            f"suppressed {privacy_log['suppression']['total_suppressed']} cell(s)",
            dataset,
        )

    report = QAReport(ind_id, ())
    if config.stages.qa_enabled:
        dataset, removal_log, report = qa_stage(
            dataset,
            outcomes=outcomes,
            privacy_log=privacy_log,
            vocabulary=config.vocabulary,
            coverage=config.coverage,
        )
        add_report(f"reports/{ind_id}.removals.json", removal_log.report())
        record_stage(
            "qa",
            f"report {'PASS' if report.passed else 'FAIL'} with {len(report.findings)} finding(s); "
            f"removed {len(removal_log.removed_keys)} high-uncertainty record(s)",
            dataset,
        )
    artifacts[f"reports/{ind_id}.qa.json"] = canonical_dumps(report.to_json())
    artifacts[f"reports/{ind_id}.qa.txt"] = report.to_text()

    if config.round_counts:
        dataset = round_counts(dataset)
    csv_text, csv_digest = render(dataset)
    texts.clear()  # no render follows, so the table would only hold memory
    artifacts[f"datasets/{ind_id}.csv"] = csv_text
    artifacts[f"datasets/{ind_id}.indicator.json"] = canonical_dumps(dataset.indicator.to_json())

    metadata = emit_metadata(dataset, config.docs)
    metadata_json, metadata_md = metadata_paths(ind_id)
    artifacts[metadata_json] = canonical_dumps(metadata.to_json())
    artifacts[metadata_md] = metadata.to_markdown()
    records.append(
        StageRecord(
            f"docs:{ind_id}",
            f"emitted dataset, metadata{' (draft)' if metadata.draft else ''}, and reports",
            (csv_digest,),
            (sha256_hex(artifacts[metadata_json]),),
        )
    )

    return IndicatorResult(records, report, dataset.indicator), (cleaned, converted)


def _run_timestamp(config: PipelineConfig) -> str:
    if config.run_timestamp:
        return config.run_timestamp
    epoch, utc = os.environ.get("SOURCE_DATE_EPOCH"), datetime.timezone.utc
    try:
        moment = datetime.datetime.fromtimestamp(_ascii_int(epoch), utc) if epoch else datetime.datetime.now(utc)
    except (ValueError, OverflowError, OSError):
        raise ConfigError(f"SOURCE_DATE_EPOCH {epoch!r} is not a whole number of seconds in range") from None
    return moment.isoformat(timespec="seconds").replace("+00:00", "Z")  # `strftime("%Y")` writes year 1 as "1"


def _write_artifacts(out_dir: Path, artifacts: Mapping[str, str]) -> None:
    root = out_dir.resolve()
    for relpath in sorted(artifacts):
        target = (root / relpath).resolve()
        if not target.is_relative_to(root):
            raise ConfigError(f"artifact path escapes the output directory: {relpath}")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(artifacts[relpath], encoding="utf-8", newline="")


@contextmanager
def collector_paused():
    """Switch the cyclic garbage collector off for the block or decorated call.

    A run's columns hold tuples, strings and numbers that form no reference
    cycles, so collections scan a growing heap and free almost nothing;
    reference counting frees the rest.  The collector is switched back on
    only if it was on before, so nesting and callers that keep it off are
    left as they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@collector_paused()
def run(config: PipelineConfig, *, strict: bool = False) -> RunResult:
    """Execute the pipeline; artifacts land under config.output_dir.

    A seed that does not match the noise setting raises ConfigError before
    anything is written.
    """
    check_seed(config.stages.noise_magnitude if config.stages.privacy_enabled else 0, config.seed)
    out_dir = config.output_dir
    timestamp = _run_timestamp(config)
    artifacts: dict[str, str] = {}

    results: dict[str, IndicatorResult] = {}
    failure: str | None = None
    defect: Exception | None = None
    try:
        sources = sorted(config.sources, key=lambda s: s.source_id)
        artifacts["registry.json"] = canonical_dumps({"sources": [s.to_json() for s in sources]})
        tables = load_tables(config.tables)

        # Denominators come first; only their cleaned and converted datasets are kept.
        needed = {spec.denominator for spec in config.indicators}
        denominators: dict[str, tuple[Dataset, Dataset | None]] = {}
        for spec in sorted(config.indicators, key=lambda s: (s.denominator is not None, s.indicator.id)):
            ind_id = spec.indicator.id
            results[ind_id], datasets = _process_indicator(
                config, spec, tables, denominators.get(spec.denominator), artifacts
            )
            if ind_id in needed:
                denominators[ind_id] = datasets

        final_indicators = [result.final_indicator for result in results.values()]
        for audience in Audience:
            artifacts[dictionary_path(audience)] = emit_dictionary(final_indicators, config.docs, audience)
        artifacts[DMP_PATH] = scaffold_dmp(config.docs)

        stage_records = [
            StageRecord(
                "registry", f"registered {len(sources)} source(s)", (), (sha256_hex(artifacts["registry.json"]),)
            ),
            *(record for ind_id in sorted(results) for record in results[ind_id].stage_records),
            StageRecord(
                "docs",
                "emitted dictionary views and the data management plan scaffold",
                (),
                (sha256_hex(artifacts[dictionary_path(Audience.PUBLISHED)]), sha256_hex(artifacts[DMP_PATH])),
            ),
        ]
        log = ProvenanceLog()
        for record in stage_records:
            log = append_provenance(log, make_entry(
                log,
                timestamp=timestamp,
                actor=config.actor,
                stage=record.stage,
                decision_text=record.decision,
                input_digests=record.input_digests,
                output_digests=record.output_digests,
                tool_version=__version__,
            ))
        artifacts["provenance.jsonl"] = log.to_jsonl()

        errors = sum(not result.report.passed for result in results.values())
        warnings = sum(result.report.warnings for result in results.values())
        if errors:
            exit_code = 2
        elif warnings:
            exit_code = 2 if strict else 1
        else:
            exit_code = 0
        summary = {
            "project": config.name,
            "exit_code": exit_code,
            "strict": strict,
            "indicators": {
                i: {"pass": results[i].report.passed, "warnings": results[i].report.warnings}
                for i in sorted(results)
            },
            "artifacts": sorted([*artifacts, "run.json"]),
        }
        artifacts["run.json"] = canonical_dumps(summary)
    except ArdkitError as exc:
        failure = str(exc)
    except Exception as exc:
        # A defect, not bad input: leave the partial tree, then let it propagate.
        failure = f"internal error: {type(exc).__name__}: {exc}"
        defect = exc

    if failure is None:
        _write_artifacts(out_dir, artifacts)
        (out_dir / "FAILED").unlink(missing_ok=True)
        message = f"{len(results)} indicator(s); {errors} failing, {warnings} warning(s)"
        return RunResult(exit_code, out_dir, False, warnings, errors, message)

    artifacts["FAILED"] = failure + "\n"
    _write_artifacts(out_dir, artifacts)
    if defect is not None:
        raise defect
    return RunResult(2, out_dir, True, 0, 1, failure)
