"""Command-line interface.

`run` executes the whole pipeline from a config file.  The per-stage
subcommands (ingest, clean, correspond, suppress, qa, emit-docs,
scaffold-dmp, validate-table) read and write the same canonical file
formats the pipeline uses, so stages compose through files: running them
one by one over intermediate files yields byte-identical artifacts to a
single `run`.

Exit codes: 0 success, 1 completed with warnings, 2 failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .correspondence import CorrespondencePolicy, OutcomeSummary, convert, load_table, outcomes_report
from .docs import Audience, emit_dictionary, emit_metadata, scaffold_dmp
from .errors import ArdkitError, ConfigError
from .ingest import SchemaMapping, detect_characteristics, parse_raw
from .jsonio import about, canonical_dumps, decode_utf8, ledger_path, read_doc, read_user_file
from .model import (
    BoundaryEdition,
    GeoLevel,
    Indicator,
    Vocabulary,
    _ascii_int,
    canonical_sort,
    read_csv,
    round_counts,
    write_csv,
)
from .pipeline import (
    TableSpec,
    check_privacy_log,
    collector_paused,
    coverage_span,
    load_config,
    load_tables,
    privacy_stage,
    qa_stage,
    run,
)
from .privacy import SuppressionPolicy, check_seed
from .qa import clean_qa_cycle, QAContext
from .cleaning import CleaningRuleSet


def _write(path: str, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8", newline="")


def _read_dataset(data_path: str, indicator_path: str):
    """A dataset file in canonical order, so a hand-edited, unsorted file gives the same outputs."""
    indicator = read_doc(indicator_path, Indicator.from_json)
    return canonical_sort(read_doc(data_path, functools.partial(read_csv, indicator=indicator), parse=decode_utf8))


def _write_report(path: str, report: tuple[dict, str]) -> None:
    """A report's JSON summary at `path` and its ledger beside it."""
    summary, ledger = report
    _write(path, canonical_dumps(summary))
    _write(ledger_path(path), ledger)


def _read_outcomes(path: str):
    """A correspondence report's steps with their events, read from its ledger; errors name the file at fault."""
    summary = read_doc(path, OutcomeSummary.from_json)
    return read_doc(ledger_path(path), summary.outcomes, parse=decode_utf8)


def _write_dataset(dataset, data_path: str, indicator_path: str | None) -> None:
    _write(data_path, write_csv(dataset))
    if indicator_path:
        _write(indicator_path, canonical_dumps(dataset.indicator.to_json()))


def _cmd_run(args) -> int:
    config = load_config(args.config)
    updates = {}
    if args.out:
        updates["output_dir"] = Path(args.out)
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.round_counts:
        updates["round_counts"] = True
    if updates:
        import dataclasses

        config = dataclasses.replace(config, **updates)
    result = run(config, strict=args.strict)
    print(f"run finished with exit code {result.exit_code}: {result.message}")
    if result.failed:
        print(f"error: {result.message}", file=sys.stderr)
        print(f"FAILED marker written under {result.out_dir}", file=sys.stderr)
    return result.exit_code


def _cmd_ingest(args) -> int:
    raw = read_user_file(args.raw, ArdkitError)
    if args.detect:
        with about(args.raw):
            draft = detect_characteristics(raw)
        print(canonical_dumps(draft.to_json()), end="")
        return 0
    if not (args.mapping and args.indicator and args.out_data and args.report):
        raise ConfigError("ingest needs --mapping, --indicator, --out-data, and --report (or --detect)")
    mapping = read_doc(args.mapping, SchemaMapping.from_json)
    indicator = read_doc(args.indicator, Indicator.from_json)
    with about(args.raw):
        dataset, report = parse_raw(raw, mapping, indicator)
    _write_dataset(dataset, args.out_data, args.out_indicator)
    _write(args.report, canonical_dumps(report.to_json()))
    if args.lineage:
        _write(args.lineage, report.lineage_csv)
    print(f"parsed {report.rows_in} logical rows: {report.records_out} records, {len(report.rejects)} rejected")
    return 0


def _cmd_clean(args) -> int:
    dataset = _read_dataset(args.data, args.indicator)
    rules = read_doc(args.rules, CleaningRuleSet.from_json) if args.rules else CleaningRuleSet()
    vocabulary = read_doc(args.vocabulary, Vocabulary.from_json) if args.vocabulary else None
    coverage = _parse_coverage(args.coverage) if args.coverage else None
    cycle = clean_qa_cycle(
        dataset,
        rules,
        QAContext(vocabulary=vocabulary, coverage=coverage),
        cap=args.max_iterations,
    )
    _write_dataset(cycle.dataset, args.out_data, args.out_indicator)
    _write(args.log, cycle.log.to_jsonl())
    print(f"cleaned in {cycle.iterations} iteration(s); {len(cycle.log.entries)} change(s)")
    return 0


def _table_spec(spec: str, level: GeoLevel) -> TableSpec:
    try:
        from_text, to_text, path = spec.split(":", 2)
        return TableSpec(Path(path), level, BoundaryEdition(_ascii_int(from_text)), BoundaryEdition(_ascii_int(to_text)))
    except (ValueError, KeyError):
        raise ConfigError(f"bad --table spec {spec!r}; expected FROM:TO:PATH") from None


def _cmd_correspond(args) -> int:
    dataset = _read_dataset(args.data, args.indicator)
    tables = load_tables(tuple(_table_spec(spec, dataset.level) for spec in args.table))
    policy = CorrespondencePolicy() if args.discard_threshold is None else CorrespondencePolicy(args.discard_threshold)
    denominator = None
    if args.denominator_data:
        if not args.denominator_indicator:
            raise ConfigError("--denominator-data needs --denominator-indicator")
        denominator = _read_dataset(args.denominator_data, args.denominator_indicator)
    dataset, outcomes = convert(dataset, BoundaryEdition(args.to_edition), tables, policy, denominator=denominator)
    _write_dataset(dataset, args.out_data, args.out_indicator)
    if args.outcomes:
        _write_report(args.outcomes, outcomes_report(outcomes))
    print(f"converted to edition {int(dataset.edition)} in {len(outcomes)} step(s)")
    return 0


def _cmd_suppress(args) -> int:
    dataset = _read_dataset(args.data, args.indicator)
    check_seed(args.noise_magnitude, args.seed)
    dataset, log = privacy_stage(
        dataset,
        suppression=SuppressionPolicy(threshold=args.threshold, suppress_zero=args.suppress_zero),
        noise_magnitude=args.noise_magnitude,
        seed=args.seed,
    )
    _write_dataset(dataset, args.out_data, args.out_indicator)
    if args.log:
        _write(args.log, canonical_dumps(log))
    print(f"suppressed {log['suppression']['total_suppressed']} cell(s)")
    return 0


def _parse_coverage(text: str) -> tuple[int, int]:
    try:
        start, end = text.split(":")
        start, end = _ascii_int(start), _ascii_int(end)
    except ValueError:
        raise ConfigError(f"bad coverage {text!r}; expected START:END") from None
    return coverage_span(start, end)


def _cmd_qa(args) -> int:
    if args.round_counts and not args.filter_high:
        raise ConfigError("--round-counts needs --filter-high")
    if args.filter_high and not args.out_data:
        raise ConfigError("--filter-high needs --out-data")
    dataset = _read_dataset(args.data, args.indicator)
    outcomes = _read_outcomes(args.outcomes) if args.outcomes else ()
    privacy_log = read_doc(args.privacy_log, check_privacy_log) if args.privacy_log else None
    vocabulary = read_doc(args.vocabulary, Vocabulary.from_json) if args.vocabulary else None
    coverage = _parse_coverage(args.coverage) if args.coverage else None
    filtered, removal_log, report = qa_stage(
        dataset,
        outcomes=outcomes,
        privacy_log=privacy_log,
        vocabulary=vocabulary,
        coverage=coverage,
    )
    if args.filter_high:
        emitted = round_counts(filtered) if args.round_counts else filtered
        _write_dataset(emitted, args.out_data, args.out_indicator)
        if args.removals:
            _write_report(args.removals, removal_log.report())
    _write(args.report, canonical_dumps(report.to_json()))
    if args.text:
        _write(args.text, report.to_text())
    print(report.to_text(), end="")
    return report.exit_code()


def _cmd_emit_docs(args) -> int:
    config = load_config(args.config)
    docs_config = config.docs_config()
    data_paths = args.data or []
    indicator_paths = args.indicator or []
    if len(data_paths) != len(indicator_paths):
        raise ConfigError("--data and --indicator must be given in matching pairs")
    out = Path(args.out)
    indicators = []
    for data_path, indicator_path in zip(data_paths, indicator_paths):
        dataset = _read_dataset(data_path, indicator_path)
        indicators.append(dataset.indicator)
        metadata = emit_metadata(dataset.indicator, dataset, docs_config, publishable=args.publishable)
        _write(str(out / "metadata" / f"{dataset.indicator.id}.metadata.json"), canonical_dumps(metadata.to_json()))
        _write(str(out / "metadata" / f"{dataset.indicator.id}.metadata.md"), metadata.to_markdown())
    indicators.sort(key=lambda i: i.id)
    _write(str(out / "dictionary.published.md"), emit_dictionary(indicators, docs_config, Audience.PUBLISHED))
    _write(str(out / "dictionary.researcher.md"), emit_dictionary(indicators, docs_config, Audience.RESEARCHER))
    _write(str(out / "dmp.md"), scaffold_dmp(docs_config))
    print(f"emitted documentation for {len(indicators)} indicator(s) under {out}")
    return 0


def _cmd_scaffold_dmp(args) -> int:
    config = load_config(args.config)
    _write(args.out, scaffold_dmp(config.docs_config()))
    print(f"wrote DMP scaffold to {args.out}")
    return 0


def _cmd_validate_table(args) -> int:
    build = functools.partial(
        load_table,
        level=GeoLevel(args.level),
        from_edition=BoundaryEdition(args.from_edition),
        to_edition=BoundaryEdition(args.to_edition),
    )
    read_doc(args.table, build, parse=decode_utf8)
    print("correspondence table is valid")
    return 0


EDITIONS = [int(edition) for edition in BoundaryEdition]


def integer(text: str) -> int:
    """An integer flag's value: ASCII decimal text, as `_ascii_int` reads it; argparse names this in its message."""
    return _ascii_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ardkit",
        description="Turn raw spatio-temporal count tables into analysis ready data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the configured output directory")
    p.add_argument("--seed", type=integer)
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.add_argument("--round-counts", action="store_true", help="round corresponded counts at emission")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("ingest", help="parse a raw table into the standardized format")
    p.add_argument("--raw", required=True)
    p.add_argument("--mapping")
    p.add_argument("--indicator")
    p.add_argument("--out-data")
    p.add_argument("--out-indicator")
    p.add_argument("--report")
    p.add_argument("--lineage", help="write the per-record lineage CSV here")
    p.add_argument("--detect", action="store_true", help="print an unconfirmed mapping draft and exit")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("clean", help="apply cleaning rules with the QA loop")
    p.add_argument("--data", required=True)
    p.add_argument("--indicator", required=True)
    p.add_argument("--rules")
    p.add_argument("--vocabulary")
    p.add_argument("--coverage", help="declared coverage as START:END")
    p.add_argument("--max-iterations", type=integer, default=10)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-indicator")
    p.add_argument("--log", required=True)
    p.set_defaults(fn=_cmd_clean)

    p = sub.add_parser("correspond", help="convert a dataset to another boundary edition")
    p.add_argument("--data", required=True)
    p.add_argument("--indicator", required=True)
    p.add_argument("--to-edition", type=integer, required=True, choices=EDITIONS)
    p.add_argument("--table", action="append", required=True, help="FROM:TO:PATH, repeatable")
    p.add_argument("--discard-threshold")
    p.add_argument("--denominator-data")
    p.add_argument("--denominator-indicator")
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-indicator")
    p.add_argument("--outcomes")
    p.set_defaults(fn=_cmd_correspond)

    p = sub.add_parser("suppress", help="apply disclosure control (noise, then small-cell suppression)")
    p.add_argument("--data", required=True)
    p.add_argument("--indicator", required=True)
    p.add_argument("--threshold", type=integer, default=5)
    p.add_argument("--suppress-zero", action="store_true")
    p.add_argument("--noise-magnitude", type=integer, default=0)
    p.add_argument("--seed", type=integer)
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-indicator")
    p.add_argument("--log")
    p.set_defaults(fn=_cmd_suppress)

    p = sub.add_parser("qa", help="assign uncertainty, filter high records, run the rules")
    p.add_argument("--data", required=True)
    p.add_argument("--indicator", required=True)
    p.add_argument("--outcomes")
    p.add_argument("--privacy-log")
    p.add_argument("--vocabulary")
    p.add_argument("--coverage", help="declared coverage as START:END")
    p.add_argument("--filter-high", action="store_true")
    p.add_argument("--round-counts", action="store_true")
    p.add_argument("--out-data")
    p.add_argument("--out-indicator")
    p.add_argument("--removals")
    p.add_argument("--report", required=True)
    p.add_argument("--text")
    p.set_defaults(fn=_cmd_qa)

    p = sub.add_parser("emit-docs", help="emit metadata, dictionaries, and the DMP scaffold")
    p.add_argument("--config", required=True)
    p.add_argument("--data", action="append")
    p.add_argument("--indicator", action="append")
    p.add_argument("--out", required=True)
    p.add_argument("--publishable", action="store_true")
    p.set_defaults(fn=_cmd_emit_docs)

    p = sub.add_parser("scaffold-dmp", help="write the data-management-plan scaffold")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_scaffold_dmp)

    p = sub.add_parser("validate-table", help="validate a correspondence file")
    p.add_argument("--table", required=True)
    p.add_argument("--level", required=True, choices=[l.value for l in GeoLevel])
    p.add_argument("--from-edition", type=integer, required=True, choices=EDITIONS)
    p.add_argument("--to-edition", type=integer, required=True, choices=EDITIONS)
    p.set_defaults(fn=_cmd_validate_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` uses, built on its first call in a process."""
    return build_parser()


@collector_paused()
def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ArdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An output that cannot be written (a directory, no permission) is a user error too.
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect, not bad input; exit 1 would read as "completed with warnings".
        import traceback  # imported here so that start-up does not pay for it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
