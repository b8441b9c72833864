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
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

from . import __version__
from .cleaning import CleaningLog, CleaningRuleSet
from .correspondence import (
    MODE_DOUBLE,
    MODE_RATIONAL,
    BoundaryRule,
    CorrespondenceOutcome,
    CorrespondencePolicy,
    CorrespondenceTable,
    execute_plan,
    load_table,
    plan_route,
)
from .docs import (
    Audience,
    ProvenanceLog,
    append_provenance,
    emit_dictionary,
    emit_metadata,
    make_entry,
    scaffold_dmp,
)
from .errors import ArdkitError, ConfigError
from .ingest import (
    SchemaMapping,
    SourceDescriptor,
    SourceRegistry,
    parse_raw,
    register_source,
)
from .jsonio import canonical_dumps, sha256_hex
from .model import (
    BoundaryEdition,
    CellKind,
    Dataset,
    GeoLevel,
    Indicator,
    NestDomain,
    Vocabulary,
    round_counts,
    write_csv,
)
from .privacy import SuppressionPolicy, randomize, suppress
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

STAGE_ORDER = ("ingest", "clean", "correspond", "privacy", "qa", "docs")


@dataclass(frozen=True)
class IndicatorSpec:
    indicator: Indicator
    data_path: Path
    mapping_path: Path
    denominator: str | None = None


@dataclass(frozen=True)
class TableSpec:
    path: Path
    level: GeoLevel
    from_edition: BoundaryEdition
    to_edition: BoundaryEdition


@dataclass(frozen=True)
class StageSettings:
    clean_enabled: bool = True
    cleaning_rules: CleaningRuleSet = CleaningRuleSet()
    correspond_enabled: bool = True
    policy: CorrespondencePolicy = CorrespondencePolicy()
    mode: str = MODE_DOUBLE
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
    metadata_config: dict
    dictionary_config: dict
    dmp_answers: dict
    sources: tuple[SourceDescriptor, ...]
    indicators: tuple[IndicatorSpec, ...]
    tables: tuple[TableSpec, ...]
    stages: StageSettings
    output_dir: Path
    seed: int | None
    round_counts: bool
    base_dir: Path

    def docs_config(self) -> dict:
        return {
            "name": self.name,
            "metadata": self.metadata_config,
            "dictionary": self.dictionary_config,
            "dmp_answers": self.dmp_answers,
        }


def load_config(path: str | os.PathLike) -> PipelineConfig:
    """Parse and validate a pipeline configuration file."""
    config_path = Path(path)
    try:
        doc = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {config_path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    from .jsonio import validate_against_schema

    validate_against_schema(doc, "config.schema.json", ConfigError)
    base = config_path.parent
    project = doc["project"]

    vocabulary_doc = project.get("vocabulary", {})
    if isinstance(vocabulary_doc, str):
        vocab_path = base / vocabulary_doc
        try:
            vocabulary_doc = json.loads(vocab_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"vocabulary file not found: {vocab_path}") from None
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
        indicator = Indicator(
            id=item["id"],
            name=item["name"],
            nest_domain=NestDomain(item["nest_domain"]),
            value_kind=CellKind(item["value_kind"]),
            source_id=item["source_id"],
        )
        specs.append(
            IndicatorSpec(
                indicator=indicator,
                data_path=base / item["data"],
                mapping_path=base / item["mapping"],
                denominator=item.get("denominator"),
            )
        )
    by_id = {spec.indicator.id: spec for spec in specs}
    for spec in specs:
        if spec.denominator is None:
            continue
        target = by_id.get(spec.denominator)
        if target is None or target.indicator.id == spec.indicator.id:
            raise ConfigError(
                f"indicator {spec.indicator.id!r} names unknown denominator {spec.denominator!r}"
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
    policy_kwargs = {}
    if "discard_threshold" in correspond_doc:
        policy_kwargs["discard_threshold"] = correspond_doc["discard_threshold"]
    if "boundary_rule" in correspond_doc:
        policy_kwargs["boundary_rule"] = BoundaryRule(correspond_doc["boundary_rule"])
    stages = StageSettings(
        clean_enabled=clean_doc.get("enabled", True),
        cleaning_rules=CleaningRuleSet.from_json(clean_doc),
        correspond_enabled=correspond_doc.get("enabled", True),
        policy=CorrespondencePolicy(**policy_kwargs),
        mode=correspond_doc.get("mode", MODE_DOUBLE),
        privacy_enabled=privacy_doc.get("enabled", True),
        suppression=SuppressionPolicy.from_json(privacy_doc),
        noise_magnitude=privacy_doc.get("noise_magnitude", 0),
        qa_enabled=qa_doc.get("enabled", True),
        max_iterations=qa_doc.get("max_iterations", 10),
    )

    seed = doc.get("seed")
    if stages.privacy_enabled and stages.noise_magnitude > 0 and seed is None:
        raise ConfigError("randomisation is enabled (noise_magnitude > 0) but no seed is configured")
    if seed is not None and (not stages.privacy_enabled or stages.noise_magnitude == 0):
        raise ConfigError("seed configured but randomisation is disabled; remove the seed")

    coverage_doc = project["temporal_coverage"]
    coverage = (coverage_doc["start"], coverage_doc["end"])
    if coverage[0] > coverage[1]:
        raise ConfigError("temporal coverage start is after its end")

    return PipelineConfig(
        name=project["name"],
        actor=project.get("actor", "ardkit"),
        run_timestamp=project.get("run_timestamp"),
        coverage=coverage,
        target_edition=BoundaryEdition(project["target_edition"]),
        target_level=GeoLevel(project["target_level"]),
        vocabulary=vocabulary,
        metadata_config=dict(project.get("metadata", {})),
        dictionary_config=dict(project.get("dictionary", {})),
        dmp_answers=dict(project.get("dmp_answers", {})),
        sources=sources,
        indicators=tuple(specs),
        tables=tables,
        stages=stages,
        output_dir=base / doc.get("output_dir", "out"),
        seed=seed,
        round_counts=doc.get("round_counts", False),
        base_dir=base,
    )


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


def conservation_from(
    outcomes: tuple[CorrespondenceOutcome, ...],
    privacy_log: Mapping | None,
    removal_log: RemovalLog,
    mode: str,
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
    return ConservationRecord(
        expected_total=outcomes[0].input_total,
        exact=(mode == MODE_RATIONAL),
    )


def qa_stage(
    dataset: Dataset,
    *,
    outcomes: tuple[CorrespondenceOutcome, ...] = (),
    privacy_log: Mapping | None = None,
    vocabulary: Vocabulary | None = None,
    coverage: tuple[int, int] | None = None,
    table: CorrespondenceTable | None = None,
    mode: str = MODE_DOUBLE,
) -> tuple[Dataset, RemovalLog, QAReport]:
    """Assign uncertainty from provenance, drop high records, run the rules."""
    events = dict(outcomes[-1].events) if outcomes else {}
    provenance = {r.key: tuple(events.get(r.key, ())) for r in dataset.records}
    dataset = assign_uncertainty(dataset, provenance)
    dataset, removal_log = filter_high_uncertainty(dataset)
    context = QAContext(
        vocabulary=vocabulary,
        coverage=coverage,
        table=table,
        conservation=conservation_from(outcomes, privacy_log, removal_log, mode),
        removed_high=len(removal_log.removed_keys),
    )
    return dataset, removal_log, run_rules(dataset, context)


def correspond_stage(
    dataset: Dataset,
    *,
    target_edition: BoundaryEdition,
    tables: Mapping[tuple[BoundaryEdition, BoundaryEdition], CorrespondenceTable],
    policy: CorrespondencePolicy,
    mode: str = MODE_DOUBLE,
    denominator: Dataset | None = None,
) -> tuple[Dataset, tuple[CorrespondenceOutcome, ...]]:
    plan = plan_route(dataset.edition, target_edition, tables.values())
    dataset, outcomes, _ = execute_plan(
        dataset, plan, tables, policy, mode=mode, denominator=denominator
    )
    if plan:
        dataset = replace(
            dataset, indicator=replace(dataset.indicator, correspondence_applied=True)
        )
    return dataset, outcomes


# ---------------------------------------------------------------------------
# Run orchestration


@dataclass
class StageRecord:
    stage: str
    decision: str
    input_digests: tuple[str, ...]
    output_digests: tuple[str, ...]


@dataclass
class IndicatorResult:
    indicator_id: str
    artifacts: dict[str, str]
    stage_records: list[StageRecord]
    report: QAReport
    final_indicator: Indicator


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    failed: bool
    warnings: int
    errors: int
    message: str


def _read_file(path: Path, kind: str) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{kind} file not found: {path}") from None


def load_tables(
    specs: tuple[TableSpec, ...]
) -> dict[tuple[BoundaryEdition, BoundaryEdition], CorrespondenceTable]:
    tables = {}
    for spec in specs:
        table = load_table(
            _read_file(spec.path, "correspondence table"),
            level=spec.level,
            from_edition=spec.from_edition,
            to_edition=spec.to_edition,
        )
        tables[(spec.from_edition, spec.to_edition)] = table
    return tables


def _prepare_denominator(config: PipelineConfig, spec: IndicatorSpec) -> Dataset:
    target = next(s for s in config.indicators if s.indicator.id == spec.denominator)
    mapping = SchemaMapping.from_json(
        json.loads(_read_file(target.mapping_path, "schema mapping").decode("utf-8"))
    )
    dataset, _ = parse_raw(_read_file(target.data_path, "raw data"), mapping, target.indicator)
    if config.stages.clean_enabled:
        cycle = clean_qa_cycle(
            dataset,
            config.stages.cleaning_rules,
            QAContext(vocabulary=config.vocabulary, coverage=config.coverage),
            cap=config.stages.max_iterations,
        )
        dataset = cycle.dataset
    return dataset


def _process_indicator(config: PipelineConfig, spec: IndicatorSpec, tables) -> IndicatorResult:
    ind_id = spec.indicator.id
    artifacts: dict[str, str] = {}
    records: list[StageRecord] = []

    raw = _read_file(spec.data_path, "raw data")
    mapping = SchemaMapping.from_json(
        json.loads(_read_file(spec.mapping_path, "schema mapping").decode("utf-8"))
    )
    digest = sha256_hex(raw)

    def record_stage(stage: str, decision: str, output: Dataset) -> None:
        """Log a stage whose input is the previous stage's output."""
        nonlocal digest
        before, digest = digest, sha256_hex(write_csv(output))
        records.append(StageRecord(stage, decision, (before,), (digest,)))

    dataset, parse_report = parse_raw(raw, mapping, spec.indicator)
    artifacts[f"reports/{ind_id}.parse.json"] = canonical_dumps(parse_report.to_json())
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
            QAContext(vocabulary=config.vocabulary, coverage=config.coverage),
            cap=config.stages.max_iterations,
        )
        dataset, cleaning_log = cycle.dataset, cycle.log
        record_stage(
            "clean",
            f"applied {len(cleaning_log.entries)} change(s) in {cycle.iterations} iteration(s)",
            dataset,
        )
    artifacts[f"reports/{ind_id}.cleaning.jsonl"] = cleaning_log.to_jsonl()

    outcomes: tuple[CorrespondenceOutcome, ...] = ()
    if config.stages.correspond_enabled:
        denominator = None
        if spec.denominator is not None:
            denominator = _prepare_denominator(config, spec)
        dataset, outcomes = correspond_stage(
            dataset,
            target_edition=config.target_edition,
            tables=tables,
            policy=config.stages.policy,
            mode=config.stages.mode,
            denominator=denominator,
        )
        if outcomes:
            record_stage(
                "correspond",
                f"converted {int(outcomes[0].from_edition)} to {int(outcomes[-1].to_edition)} "
                f"in {len(outcomes)} step(s)",
                dataset,
            )
    artifacts[f"reports/{ind_id}.correspondence.json"] = canonical_dumps(
        [outcome.to_json() for outcome in outcomes]
    )

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
            mode=config.stages.mode,
        )
        artifacts[f"reports/{ind_id}.removals.json"] = canonical_dumps(removal_log.to_json())
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
    csv_text = write_csv(dataset)
    artifacts[f"datasets/{ind_id}.csv"] = csv_text
    artifacts[f"datasets/{ind_id}.indicator.json"] = canonical_dumps(dataset.indicator.to_json())

    metadata = emit_metadata(dataset.indicator, dataset, config.docs_config())
    artifacts[f"metadata/{ind_id}.metadata.json"] = canonical_dumps(metadata.to_json())
    artifacts[f"metadata/{ind_id}.metadata.md"] = metadata.to_markdown()
    records.append(
        StageRecord(
            "docs",
            f"emitted dataset, metadata{' (draft)' if metadata.draft else ''}, and reports",
            (sha256_hex(csv_text),),
            (sha256_hex(artifacts[f"metadata/{ind_id}.metadata.json"]),),
        )
    )

    return IndicatorResult(
        indicator_id=ind_id,
        artifacts=artifacts,
        stage_records=records,
        report=report,
        final_indicator=dataset.indicator,
    )


def _run_timestamp(config: PipelineConfig) -> str:
    if config.run_timestamp:
        return config.run_timestamp
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        moment = datetime.datetime.fromtimestamp(int(epoch), datetime.timezone.utc)
    else:
        moment = datetime.datetime.now(datetime.timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_artifacts(out_dir: Path, artifacts: Mapping[str, str]) -> None:
    root = out_dir.resolve()
    for relpath in sorted(artifacts):
        target = (root / relpath).resolve()
        if not target.is_relative_to(root):
            raise ConfigError(f"artifact path escapes the output directory: {relpath}")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(artifacts[relpath], encoding="utf-8", newline="")


def run(config: PipelineConfig, *, strict: bool = False) -> RunResult:
    """Execute the pipeline; artifacts land under config.output_dir."""
    out_dir = config.output_dir
    timestamp = _run_timestamp(config)
    artifacts: dict[str, str] = {}

    registry = SourceRegistry()
    results: dict[str, IndicatorResult] = {}
    failure: str | None = None
    try:
        for source in config.sources:
            registry = register_source(registry, source)
        artifacts["registry.json"] = canonical_dumps(registry.to_json())
        tables = load_tables(config.tables)

        for spec in sorted(config.indicators, key=lambda s: s.indicator.id):
            result = _process_indicator(config, spec, tables)
            results[result.indicator_id] = result
    except ArdkitError as exc:
        failure = str(exc)

    for result in results.values():
        artifacts.update(result.artifacts)

    if failure is None:
        final_indicators = [results[i].final_indicator for i in sorted(results)]
        docs_config = config.docs_config()
        artifacts["dictionary.published.md"] = emit_dictionary(
            final_indicators, docs_config, Audience.PUBLISHED
        )
        artifacts["dictionary.researcher.md"] = emit_dictionary(
            final_indicators, docs_config, Audience.RESEARCHER
        )
        artifacts["dmp.md"] = scaffold_dmp(docs_config)

        log = ProvenanceLog()

        def add(stage: str, decision: str, inputs=(), outputs=()):
            nonlocal log
            log = append_provenance(
                log,
                make_entry(
                    log,
                    timestamp=timestamp,
                    actor=config.actor,
                    stage=stage,
                    decision_text=decision,
                    input_digests=inputs,
                    output_digests=outputs,
                    tool_version=__version__,
                ),
            )

        add(
            "registry",
            f"registered {len(registry.sources)} source(s)",
            outputs=(sha256_hex(artifacts["registry.json"]),),
        )
        for ind_id in sorted(results):
            for record in results[ind_id].stage_records:
                add(
                    f"{record.stage}:{ind_id}",
                    record.decision,
                    inputs=record.input_digests,
                    outputs=record.output_digests,
                )
        add(
            "docs",
            "emitted dictionary views and the data management plan scaffold",
            outputs=(
                sha256_hex(artifacts["dictionary.published.md"]),
                sha256_hex(artifacts["dmp.md"]),
            ),
        )
        artifacts["provenance.jsonl"] = log.to_jsonl()

        errors = sum(0 if results[i].report.passed else 1 for i in sorted(results))
        warnings = sum(results[i].report.warnings for i in sorted(results))
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
        _write_artifacts(out_dir, artifacts)
        message = f"{len(results)} indicator(s); {errors} failing, {warnings} warning(s)"
        return RunResult(exit_code, out_dir, False, warnings, errors, message)

    artifacts["FAILED"] = failure + "\n"
    _write_artifacts(out_dir, artifacts)
    return RunResult(2, out_dir, True, 0, 1, failure)
