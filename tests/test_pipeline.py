"""Full-pipeline behavior: artifacts, determinism, exit codes, file composition."""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import ardkit
from ardkit.docs import ProvenanceLog, verify_chain
from ardkit.errors import ArdkitError, ConfigError
from ardkit.jsonio import load_schema, sha256_hex
from ardkit.model import _INDICATOR_ID_RE, BoundaryEdition, CellKind
from ardkit.pipeline import load_config, load_tables, run

from projectgen import build_demo_project


@pytest.fixture(scope="module")
def demo_project(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    config_path = build_demo_project(root)
    return config_path


@pytest.fixture(scope="module")
def demo_run(demo_project, tmp_path_factory):
    import dataclasses

    out = tmp_path_factory.mktemp("out")
    config = dataclasses.replace(load_config(demo_project), output_dir=out)
    result = run(config)
    return config, result


def tree_digest(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestRunArtifacts:
    def test_declared_output_tree(self, demo_run):
        _, result = demo_run
        assert result.exit_code == 0, result.message
        out = result.out_dir
        for name in (
            "datasets/demo.hospital_visits.csv",
            "datasets/demo.school_enrolments.csv",
            "datasets/demo.hospital_visits.indicator.json",
            "metadata/demo.hospital_visits.metadata.json",
            "metadata/demo.school_enrolments.metadata.json",
            "reports/demo.hospital_visits.parse.json",
            "reports/demo.hospital_visits.lineage.csv",
            "reports/demo.school_enrolments.lineage.csv",
            "reports/demo.hospital_visits.cleaning.jsonl",
            "reports/demo.hospital_visits.qa.json",
            "reports/demo.school_enrolments.qa.json",
            "reports/demo.hospital_visits.privacy.json",
            "reports/demo.school_enrolments.removals.json",
            "dictionary.published.md",
            "dictionary.researcher.md",
            "dmp.md",
            "registry.json",
            "provenance.jsonl",
            "run.json",
        ):
            assert (out / name).is_file(), f"missing artifact {name}"
        assert not (out / "FAILED").exists()

    def test_final_datasets_are_2016_edition(self, demo_run):
        _, result = demo_run
        for name in ("demo.hospital_visits", "demo.school_enrolments"):
            text = (result.out_dir / f"datasets/{name}.csv").read_text(encoding="utf-8")
            assert text.splitlines()[0].startswith("SA3CODE_16,")

    def test_indicator_sidecars_reflect_processing(self, demo_run):
        _, result = demo_run
        doc = json.loads(
            (result.out_dir / "datasets/demo.school_enrolments.indicator.json").read_text()
        )
        assert doc["correspondence_applied"] is True
        assert doc["max_uncertainty"] <= 1

    def test_backward_suppressed_regions_removed(self, demo_run):
        _, result = demo_run
        reports = result.out_dir / "reports"
        removals = json.loads((reports / "demo.school_enrolments.removals.json").read_text())
        header, *lines = (reports / "demo.school_enrolments.removals.ledger.csv").read_text().splitlines()
        assert header == "REGION,CALENDAR_YEAR,AGE_GROUP,SEX"
        assert removals["records_removed"] == len(lines) > 0
        # The shared-merge block pattern suppresses every tenth 2016 region.
        assert any(line.startswith("T009") for line in lines)

    def test_no_small_counts_survive_suppression(self, demo_run):
        _, result = demo_run
        for name in ("demo.hospital_visits", "demo.school_enrolments"):
            text = (result.out_dir / f"datasets/{name}.csv").read_text(encoding="utf-8")
            for line in text.splitlines()[1:]:
                value = line.split(",")[4]
                if value not in ("S", ""):
                    assert not (0 < float(value) < 5), line

    def test_provenance_chain_verifies_and_covers_stages(self, demo_run):
        _, result = demo_run
        log = ProvenanceLog.from_jsonl((result.out_dir / "provenance.jsonl").read_text())
        assert verify_chain(log) == (True, None)
        stages = {entry.stage.split(":")[0] for entry in log.entries}
        assert {"registry", "ingest", "clean", "correspond", "privacy", "qa", "docs"} <= stages
        # Every transforming stage appended at least one entry per indicator.
        for ind in ("demo.hospital_visits", "demo.school_enrolments"):
            for stage in ("ingest", "clean", "correspond", "privacy", "qa"):
                assert any(e.stage == f"{stage}:{ind}" for e in log.entries)
            # Each stage consumes exactly what the previous stage produced.
            chain = [e for e in log.entries if e.stage.endswith(f":{ind}")]
            for previous, entry in zip(chain, chain[1:]):
                assert entry.input_digests == previous.output_digests, entry.stage
            (qa,) = [e for e in chain if e.stage == f"qa:{ind}"]
            published = (result.out_dir / "datasets" / f"{ind}.csv").read_bytes()
            assert qa.output_digests == (sha256_hex(published),)

    def test_published_dictionary_has_no_researcher_strings(self, demo_run):
        _, result = demo_run
        published = (result.out_dir / "dictionary.published.md").read_text(encoding="utf-8")
        for secret in (
            "cleaning/hospital_visits.py",
            "hospital_visits_2011.csv",
            "decisions/school_enrolments.md",
        ):
            assert secret not in published

    def test_run_summary_lists_artifacts(self, demo_run):
        _, result = demo_run
        summary = json.loads((result.out_dir / "run.json").read_text(encoding="utf-8"))
        assert summary["exit_code"] == 0
        assert "datasets/demo.hospital_visits.csv" in summary["artifacts"]
        assert "reports/demo.hospital_visits.lineage.csv" in summary["artifacts"]
        assert sorted(summary["artifacts"]) == sorted(
            str(p.relative_to(result.out_dir)) for p in result.out_dir.rglob("*") if p.is_file()
        )

    def test_registry_lists_sources_sorted_by_id(self, demo_run):
        config, result = demo_run
        configured = [source.source_id for source in config.sources]
        assert configured != sorted(configured)  # the demo config lists them out of order
        registry = json.loads((result.out_dir / "registry.json").read_text(encoding="utf-8"))
        assert [source["source_id"] for source in registry["sources"]] == sorted(configured)

    def test_parse_report_digests_the_lineage_file(self, demo_run):
        _, result = demo_run
        for name in ("demo.hospital_visits", "demo.school_enrolments"):
            report = json.loads((result.out_dir / f"reports/{name}.parse.json").read_text(encoding="utf-8"))
            lineage = (result.out_dir / f"reports/{name}.lineage.csv").read_bytes()
            assert set(report) == {"rows_in", "records_out", "rejects", "lineage_digest"}
            assert report["lineage_digest"] == sha256_hex(lineage)
            assert lineage.count(b"\n") == report["records_out"] + 1


class TestDeterminism:
    def test_rerun_is_byte_identical(self, demo_project, tmp_path):
        import dataclasses

        base = load_config(demo_project)
        first = run(dataclasses.replace(base, output_dir=tmp_path / "a"))
        second = run(dataclasses.replace(base, output_dir=tmp_path / "b"))
        assert first.exit_code == second.exit_code == 0
        tree_a = tree_digest(tmp_path / "a")
        tree_b = tree_digest(tmp_path / "b")
        assert tree_a.keys() == tree_b.keys()
        for name in tree_a:
            assert tree_a[name] == tree_b[name], f"artifact differs: {name}"


class TestConfigValidation:
    def test_unknown_stage_name_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["stages"]["frobnicate"] = {"enabled": True}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(bad)

    def run_doc(self, doc, tmp_path):
        import dataclasses

        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return run(dataclasses.replace(load_config(path), output_dir=tmp_path / "out"))

    # `run` checks the seed it will use, so these load and are refused before anything is written.
    def test_seed_without_noise_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["seed"] = 7
        with pytest.raises(ConfigError, match="seed"):
            self.run_doc(doc, tmp_path)
        assert not (tmp_path / "out").exists()

    def test_noise_without_seed_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["stages"]["privacy"]["noise_magnitude"] = 2
        with pytest.raises(ConfigError, match="no seed"):
            self.run_doc(doc, tmp_path)
        assert not (tmp_path / "out").exists()

    def cli(self, *argv):
        from ardkit.cli import main

        return main([str(a) for a in argv])

    def test_cli_seed_without_noise_exit_2(self, demo_project, tmp_path, capsys):
        assert self.cli("run", "--config", demo_project, "--out", tmp_path / "out", "--seed", "7") == 2
        assert "a seed is given but randomisation is disabled" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_indicator_id_with_a_final_newline_exit_2(self, demo_project, tmp_path, capsys):
        # The schema's `^...$` pattern lets the newline through; the indicator's own rule does not.
        doc = json.loads(Path(demo_project).read_text())
        doc["indicators"][0]["id"] += "\n"
        bad = Path(demo_project).with_name("newline-id.json")  # beside it, so relative paths resolve alike
        bad.write_text(json.dumps(doc))
        assert self.cli("run", "--config", bad, "--out", tmp_path / "out") == 2
        message = "indicator id 'demo.hospital_visits\\n' may hold only letters, digits, '.', '_' and '-'"
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_seed_supplies_the_noise_seed(self, tmp_path):
        config_path = build_demo_project(tmp_path / "proj")
        doc = json.loads(config_path.read_text())
        doc["stages"]["privacy"]["noise_magnitude"] = 2
        config_path.write_text(json.dumps(doc))
        seeded = config_path.with_name("seeded.json")  # beside it, so relative paths resolve alike
        seeded.write_text(json.dumps({**doc, "seed": 7}))
        assert self.cli("run", "--config", config_path, "--out", tmp_path / "a", "--seed", "7") in (0, 1)
        assert self.cli("run", "--config", seeded, "--out", tmp_path / "b") in (0, 1)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_duplicate_source_id_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["sources"].append(dict(doc["sources"][0], name="Another name"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="duplicate source_id"):
            load_config(bad)

    def test_unknown_denominator_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["indicators"][0]["denominator"] = "nope"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="denominator"):
            load_config(bad)

    def test_count_indicator_with_denominator_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["indicators"][0]["denominator"] = doc["indicators"][1]["id"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="count indicator .* names a denominator"):
            load_config(bad)

    @pytest.mark.parametrize(
        "path, value, where, kind",
        [
            (("researcher_links", "data_files"), "raw/a.csv", "researcher_links/data_files", "array"),
            (("researcher_links", "project_docs"), ["a.md", 3], "researcher_links/project_docs/1", "string"),
            (("researcher_links", "cleaning_code"), ["a.py"], "researcher_links/cleaning_code", "string"),
            (("definition",), 5, "definition", "string"),
            (("data_source",), None, "data_source", "string"),
        ],
        ids=["data-files-string", "project-docs-number", "cleaning-code-list", "definition-number", "data-source-null"],
    )
    def test_wrongly_typed_dictionary_entry_exit_2(self, demo_project, tmp_path, capsys, path, value, where, kind):
        doc = json.loads(Path(demo_project).read_text())
        entry = doc["project"]["dictionary"]["demo.hospital_visits"]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        message = f"is not of type '{kind}' (at project/dictionary/demo.hospital_visits/{where})"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(bad)
        assert self.cli("run", "--config", bad, "--out", tmp_path / "out") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data, message",
        [(b"{\xff}", "not valid UTF-8 at byte offset 1"), (b"{\n,", "line 2: not valid JSON")],
        ids=["not-utf8", "not-json"],
    )
    def test_unreadable_config_names_the_file(self, tmp_path, data, message):
        bad = tmp_path / "config.json"
        bad.write_bytes(data)
        with pytest.raises(ConfigError) as excinfo:
            load_config(bad)
        assert str(excinfo.value).startswith(f"{bad}: {message}")

    # One non-default value for every `stages.*` key of the config schema.
    STAGE_VALUES = {
        "clean.enabled": False,
        "clean.dedupe_policy": "keep_first",
        "clean.whitespace_normalization": False,
        "clean.code_case_fold": True,
        "clean.year_format_coercions": ["YY->2000+YY"],
        "clean.missing_policy": "drop_row",
        "correspond.enabled": False,
        "correspond.discard_threshold": 0.2,
        "privacy.enabled": False,
        "privacy.threshold": 7,
        "privacy.suppress_zero": True,
        "privacy.noise_magnitude": 2,
        "qa.enabled": False,
        "qa.max_iterations": 3,
    }

    def test_every_stage_key_changes_the_config(self, demo_project, tmp_path):
        # A schema key that the loader ignores is a knob only half removed (or
        # half added); a key without an entry above fails here too.
        stages = load_schema("config.schema.json")["properties"]["stages"]["properties"]
        keys = {f"{stage}.{key}" for stage, doc in stages.items() for key in doc["properties"]}
        assert keys == set(self.STAGE_VALUES)

        doc = json.loads(Path(demo_project).read_text())
        doc["stages"] = {}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        default = load_config(path)
        for key in sorted(keys):
            stage, name = key.split(".")
            variant = {**doc, "stages": {stage: {name: self.STAGE_VALUES[key]}}}
            if key == "privacy.noise_magnitude":
                variant["seed"] = 1  # noise needs a seed; the seed lives outside `stages`
            path.write_text(json.dumps(variant))
            assert load_config(path).stages != default.stages, key


class TestFailureHandling:
    def test_fatal_stage_leaves_failed_marker(self, demo_project, tmp_path):
        import dataclasses

        root = Path(demo_project).parent
        doc = json.loads(Path(demo_project).read_text())
        doc["correspondence_tables"] = doc["correspondence_tables"][:1]  # drop 2016->2021
        for item in (*doc["indicators"], *doc["correspondence_tables"]):
            for key in ("data", "mapping", "path"):
                if key in item:
                    item[key] = str(root / item[key])
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        config = dataclasses.replace(load_config(broken), output_dir=tmp_path / "out")
        result = run(config)
        assert result.exit_code == 2
        assert result.failed
        marker = tmp_path / "out" / "FAILED"
        assert marker.is_file()
        assert "2021" in marker.read_text()
        # Artifacts completed before the failure are retained.
        assert (tmp_path / "out" / "registry.json").is_file()

    def test_wrongly_shaped_mapping_named_in_failed_marker(self, demo_project, tmp_path):
        import dataclasses

        config_path = build_demo_project(tmp_path / "proj")
        mapping = tmp_path / "proj" / "mapping_long_2011.json"
        doc = json.loads(mapping.read_text())
        del doc["layout"]
        mapping.write_text(json.dumps(doc))
        result = run(dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out"))
        assert result.exit_code == 2 and result.failed
        expected = f"{mapping}: mapping.schema.json: 'layout' is a required property (at document root)"
        assert result.message == expected
        assert (tmp_path / "out" / "FAILED").read_text() == expected + "\n"

    # The project's inputs `run` reads after the config, by the names `build_demo_project` gives them.
    INPUTS = {"data": "hospital_visits_2011.csv", "mapping": "mapping_long_2011.json", "table": "table_2011_2016.csv"}

    @pytest.mark.parametrize("state, reason", [("directory", "Is a directory"), ("missing", "No such file or directory")])
    @pytest.mark.parametrize("name", INPUTS.values(), ids=INPUTS)
    def test_unreadable_input_fails_the_run_naming_it(self, tmp_path, capsys, name, state, reason):
        import dataclasses
        from ardkit.cli import main

        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        target = tmp_path / "proj" / name
        target.unlink()
        if state == "directory":
            target.mkdir()
        failure = f"{target}: {reason}"
        result = run(dataclasses.replace(load_config(config_path), output_dir=tmp_path / "lib"))
        assert (result.exit_code, result.failed, result.message) == (2, True, failure)
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "cli")]) == 2
        out, err = capsys.readouterr()
        assert out == f"run finished with exit code 2: {failure}\n"
        assert err == f"error: {failure}\nFAILED marker written under {tmp_path / 'cli'}\n"
        for side in ("lib", "cli"):
            assert (tmp_path / side / "FAILED").read_text() == failure + "\n"

    @pytest.mark.parametrize("key", ["data", "mapping"])
    def test_path_holding_nul_fails_the_run_naming_it(self, tmp_path, key):
        import dataclasses

        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        doc = json.loads(config_path.read_text())
        doc["indicators"][0][key] = "a\0b"
        config_path.write_text(json.dumps(doc))
        result = run(dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out"))
        assert (result.exit_code, result.failed, result.message) == (2, True, f"{tmp_path / 'proj' / 'a'}\0b: embedded null byte")

    @pytest.mark.parametrize(
        "content, error, reason",
        [(None, ConfigError, "Is a directory"), ('{"sexes": "male"}', ArdkitError, "sexes must be a list of strings, not 'male'")],
        ids=["directory", "wrongly-shaped"],
    )
    def test_vocabulary_file_named_when_it_cannot_be_read(self, tmp_path, content, error, reason):
        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        doc = json.loads(config_path.read_text())
        doc["project"]["vocabulary"] = "vocabulary.json"
        config_path.write_text(json.dumps(doc))
        vocabulary = tmp_path / "proj" / "vocabulary.json"
        if content is None:
            vocabulary.mkdir()
        else:
            vocabulary.write_text(content)
        with pytest.raises(error, match=f"^{re.escape(f'{config_path}: {vocabulary}: {reason}')}$"):
            load_config(config_path)

    @pytest.mark.parametrize("stage", ["_process_indicator", "emit_dictionary"])
    def test_unexpected_exception_leaves_failed_tree_and_exits_2(
        self, demo_project, tmp_path, capsys, monkeypatch, stage
    ):
        import ardkit.pipeline as pipeline
        from ardkit.cli import main

        def broken_stage(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, stage, broken_stage)
        out = tmp_path / "out"
        assert main(["run", "--config", str(demo_project), "--out", str(out)]) == 2
        assert (out / "FAILED").read_text() == "internal error: RuntimeError: boom\n"
        # The same partial tree as a fatal input error: what was done before the failure.
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert "registry.json" in written and "run.json" not in written
        assert ("datasets/demo.hospital_visits.csv" in written) is (stage == "emit_dictionary")
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("internal error: RuntimeError: boom\n")

    def test_successful_rerun_clears_stale_failed_marker(self, demo_project, tmp_path):
        import dataclasses

        out = tmp_path / "out"
        out.mkdir()
        (out / "FAILED").write_text("an earlier run failed\n")
        config = dataclasses.replace(load_config(demo_project), output_dir=out)
        result = run(config)
        assert result.exit_code == 0, result.message
        assert not (out / "FAILED").exists()

    def test_strict_elevates_warnings(self, demo_project, tmp_path):
        import dataclasses

        # Punch a year hole into the first indicator to provoke a coverage warning.
        doc = json.loads(Path(demo_project).read_text())
        root = Path(demo_project).parent
        for item in (*doc["indicators"], *doc["correspondence_tables"]):
            for key in ("data", "mapping", "path"):
                if key in item:
                    item[key] = str(root / item[key])
        raw_path = root / "hospital_visits_2011.csv"
        lines = raw_path.read_text().splitlines()
        kept = [line for line in lines if line.split(",")[1] != "2010"]
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join(kept) + "\n")
        doc["indicators"][0]["data"] = str(gapped)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out1")
        result = run(config)
        assert result.exit_code == 1
        assert result.warnings >= 1
        config_strict = dataclasses.replace(config, output_dir=tmp_path / "out2")
        assert run(config_strict, strict=True).exit_code == 2

    def test_dataset_off_the_target_level_fails(self, tmp_path):
        import dataclasses

        config_path = build_demo_project(tmp_path / "proj")
        doc = json.loads(config_path.read_text())
        doc["project"]["target_level"] = "SA2"
        config_path.write_text(json.dumps(doc))
        result = run(dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out"))
        assert result.exit_code == 2 and result.failed
        assert "indicator 'demo.hospital_visits' is at level SA3" in result.message
        assert "target level is SA2" in (tmp_path / "out" / "FAILED").read_text()
        assert not (tmp_path / "out" / "datasets").exists()


class TestFileComposedStages:
    """Stage subcommands over intermediate files equal one in-process run."""

    def cli(self, *argv):
        from ardkit.cli import main

        code = main([str(a) for a in argv])
        return code

    def test_composed_equals_run(self, demo_project, demo_run, tmp_path):
        _, result = demo_run
        root = Path(demo_project).parent
        out = result.out_dir
        work = tmp_path / "stages"
        ind = "demo.hospital_visits"
        indicator_doc = {
            "id": ind,
            "name": "Hospital attendances",
            "nest_domain": "healthy",
            "value_kind": "count",
            "source_id": "src.health",
        }
        (work / "in").mkdir(parents=True)
        (work / "in" / "indicator.json").write_text(json.dumps(indicator_doc))
        vocab = {
            "age_groups": ["0-4", "5-9", "10-14", "15-19"],
            "sexes": ["male", "female"],
        }
        (work / "in" / "vocab.json").write_text(json.dumps(vocab))
        (work / "in" / "rules.json").write_text(json.dumps({"dedupe_policy": "sum"}))

        assert self.cli(
            "ingest",
            "--raw", root / "hospital_visits_2011.csv",
            "--mapping", root / "mapping_long_2011.json",
            "--indicator", work / "in" / "indicator.json",
            "--out-data", work / "10.csv",
            "--out-indicator", work / "10.indicator.json",
            "--report", work / "parse.json",
            "--lineage", work / "lineage.csv",
        ) == 0
        assert self.cli(
            "clean",
            "--data", work / "10.csv",
            "--indicator", work / "10.indicator.json",
            "--rules", work / "in" / "rules.json",
            "--vocabulary", work / "in" / "vocab.json",
            "--coverage", "2007:2021",
            "--out-data", work / "20.csv",
            "--out-indicator", work / "20.indicator.json",
            "--log", work / "cleaning.jsonl",
        ) == 0
        assert self.cli(
            "correspond",
            "--data", work / "20.csv",
            "--indicator", work / "20.indicator.json",
            "--to-edition", "2016",
            "--table", f"2011:2016:{root / 'table_2011_2016.csv'}",
            "--table", f"2016:2021:{root / 'table_2016_2021.csv'}",
            "--out-data", work / "30.csv",
            "--out-indicator", work / "30.indicator.json",
            "--outcomes", work / "outcomes.json",
        ) == 0
        assert self.cli(
            "suppress",
            "--data", work / "30.csv",
            "--indicator", work / "30.indicator.json",
            "--threshold", "5",
            "--out-data", work / "40.csv",
            "--out-indicator", work / "40.indicator.json",
            "--log", work / "privacy.json",
        ) == 0
        assert self.cli(
            "qa",
            "--data", work / "40.csv",
            "--indicator", work / "40.indicator.json",
            "--outcomes", work / "outcomes.json",
            "--privacy-log", work / "privacy.json",
            "--vocabulary", work / "in" / "vocab.json",
            "--coverage", "2007:2021",
            "--filter-high",
            "--out-data", work / "50.csv",
            "--out-indicator", work / "50.indicator.json",
            "--removals", work / "removals.json",
            "--report", work / "qa.json",
            "--text", work / "qa.txt",
        ) == 0
        assert self.cli(
            "emit-docs",
            "--config", demo_project,
            "--data", work / "50.csv",
            "--indicator", work / "50.indicator.json",
            "--out", work / "docs",
        ) == 0

        pairs = [
            (work / "parse.json", out / f"reports/{ind}.parse.json"),
            (work / "lineage.csv", out / f"reports/{ind}.lineage.csv"),
            (work / "cleaning.jsonl", out / f"reports/{ind}.cleaning.jsonl"),
            (work / "outcomes.json", out / f"reports/{ind}.correspondence.json"),
            (work / "outcomes.ledger.csv", out / f"reports/{ind}.correspondence.ledger.csv"),
            (work / "privacy.json", out / f"reports/{ind}.privacy.json"),
            (work / "removals.json", out / f"reports/{ind}.removals.json"),
            (work / "removals.ledger.csv", out / f"reports/{ind}.removals.ledger.csv"),
            (work / "qa.json", out / f"reports/{ind}.qa.json"),
            (work / "qa.txt", out / f"reports/{ind}.qa.txt"),
            (work / "50.csv", out / f"datasets/{ind}.csv"),
            (work / "50.indicator.json", out / f"datasets/{ind}.indicator.json"),
            (work / "docs" / "metadata" / f"{ind}.metadata.json", out / f"metadata/{ind}.metadata.json"),
            (work / "docs" / "metadata" / f"{ind}.metadata.md", out / f"metadata/{ind}.metadata.md"),
            (work / "docs" / "dmp.md", out / "dmp.md"),
        ]
        for composed, reference in pairs:
            assert composed.read_bytes() == reference.read_bytes(), f"differs: {reference.name}"


    def test_ingest_report_alone_equals_run(self, demo_project, demo_run, tmp_path):
        # --lineage is optional; without it the parse report still carries the digest.
        _, result = demo_run
        root = Path(demo_project).parent
        ind = "demo.school_enrolments"
        config = json.loads(Path(demo_project).read_text())
        spec = next(item for item in config["indicators"] if item["id"] == ind)
        indicator_doc = {k: spec[k] for k in ("id", "name", "nest_domain", "value_kind", "source_id")}
        (tmp_path / "indicator.json").write_text(json.dumps(indicator_doc))
        assert self.cli(
            "ingest", "--raw", root / spec["data"], "--mapping", root / spec["mapping"],
            "--indicator", tmp_path / "indicator.json", "--out-data", tmp_path / "10.csv",
            "--report", tmp_path / "parse.json",
        ) == 0
        assert (tmp_path / "parse.json").read_bytes() == (result.out_dir / f"reports/{ind}.parse.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["10.csv", "indicator.json", "parse.json"]


class TestRateIndicators:
    def build_rate_project(self, root: Path, *, backward: bool = False, rate_rows: int = 2) -> Path:
        """A population and a rate over it, converted forward 2011 -> 2016 or backward 2016 -> 2011.

        The rate has the population's two keys, or only its first `rate_rows`.
        """
        root.mkdir(parents=True, exist_ok=True)
        # Backward, B is rebuilt from Y alone: its other sole target Z has no data.
        edges = "A,X,1\nB,Y,0.5\nB,Z,0.5\n" if backward else "A,X,1\nB,X,1\n"
        (root / "table.csv").write_text(f"FROM_CODE,TO_CODE,RATIO\n{edges}", encoding="utf-8")
        first, second = ("X", "Y") if backward else ("A", "B")
        header = "SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
        rows = [f"{first},2016,0-4,male,100\n", f"{second},2016,0-4,male,300\n"]
        (root / "population.csv").write_text(header + "".join(rows), encoding="utf-8")
        rows = [f"{first},2016,0-4,male,10\n", f"{second},2016,0-4,male,20\n"][:rate_rows]
        (root / "attendance_rate.csv").write_text(header + "".join(rows), encoding="utf-8")
        for name, kind in (("map_count.json", "count"), ("map_rate.json", "rate")):
            (root / name).write_text(
                json.dumps(
                    {
                        "layout": "long",
                        "columns": {
                            "geography_code": "SA3CODE_11",
                            "calendar_year": "CALENDAR_YEAR",
                            "age_group": "AGE_GROUP",
                            "sex": "SEX",
                            "value": "VALUE",
                        },
                        "geography": {"level": "SA3", "edition": 2016 if backward else 2011},
                        "value_kind": kind,
                    }
                )
            )
        config = {
            "project": {
                "name": "rate-demo",
                "run_timestamp": "2024-06-01T00:00:00Z",
                "temporal_coverage": {"start": 2016, "end": 2016},
                "target_edition": 2011 if backward else 2016,
                "target_level": "SA3",
                "vocabulary": {"age_groups": ["0-4"], "sexes": ["male"]},
                "metadata": {
                    "metadata_reference": "profile v1",
                    "access_rights": "open",
                    "licence": "CC-BY-4.0",
                    "fields_of_research": "demography",
                    "socio_economic_objectives": "wellbeing",
                    "legal_ethical_requirements": "approved",
                },
            },
            "sources": [
                {
                    "source_id": "src.rate",
                    "name": "Rate extract",
                    "custodian": "Unit",
                    "access_mode": "public",
                    "collection_start": "2016-01-01",
                    "collection_end": "2016-12-31",
                    "url_or_locator": "https://example.org",
                }
            ],
            "indicators": [
                {
                    "id": "demo.population",
                    "name": "Population",
                    "nest_domain": "healthy",
                    "value_kind": "count",
                    "source_id": "src.rate",
                    "data": "population.csv",
                    "mapping": "map_count.json",
                },
                {
                    "id": "demo.rate",
                    "name": "Attendance rate",
                    "nest_domain": "healthy",
                    "value_kind": "rate",
                    "source_id": "src.rate",
                    "data": "attendance_rate.csv",
                    "mapping": "map_rate.json",
                    "denominator": "demo.population",
                },
            ],
            "correspondence_tables": [
                {"path": "table.csv", "level": "SA3", "from_edition": 2011, "to_edition": 2016}
            ],
            "output_dir": "out",
        }
        path = root / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_rate_corresponds_via_denominator_weights(self, tmp_path):
        import dataclasses

        config_path = self.build_rate_project(tmp_path / "proj")
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")
        result = run(config)
        assert result.exit_code == 0, result.message
        text = (tmp_path / "out" / "datasets" / "demo.rate.csv").read_text()
        # Pooled rate: (10*100 + 20*300) / 400 = 17.5, not the naive mean 15.
        assert text.splitlines()[1] == "X,2016,0-4,male,17.5,0"
        privacy = json.loads((tmp_path / "out" / "reports" / "demo.rate.privacy.json").read_text())
        assert privacy["suppression"]["total_suppressed"] == 0
        assert "skipped" in privacy

    def test_each_raw_file_parsed_once(self, tmp_path, monkeypatch):
        import collections
        import dataclasses

        parsed = collections.Counter()
        real_parse_raw = ardkit.pipeline.parse_raw

        def counting_parse_raw(data, mapping, indicator):
            parsed[indicator.id] += 1
            return real_parse_raw(data, mapping, indicator)

        monkeypatch.setattr(ardkit.pipeline, "parse_raw", counting_parse_raw)
        config_path = self.build_rate_project(tmp_path / "proj")
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")
        assert run(config).exit_code == 0
        assert parsed == {"demo.population": 1, "demo.rate": 1}

    def convert_counts(self, monkeypatch):
        """Count each `forward` and `backward` call by (op, the indicator id of its input)."""
        import collections

        import ardkit.correspondence as correspondence

        converted = collections.Counter()
        for op in ("forward", "backward"):
            def counting(dataset, *args, _op=op, _real=getattr(correspondence, op)):
                converted[_op, dataset.indicator.id] += 1
                return _real(dataset, *args)

            monkeypatch.setattr(correspondence, op, counting)
        return converted

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_each_count_dataset_converted_once(self, tmp_path, monkeypatch, backward):
        import dataclasses

        converted = self.convert_counts(monkeypatch)
        config_path = self.build_rate_project(tmp_path / "proj", backward=backward)
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")
        assert not run(config).failed
        op = "backward" if backward else "forward"
        # The rate reuses the population's own conversion instead of converting it again.
        assert converted == {(op, "demo.population"): 1, (op, "demo.rate.numerator"): 1}

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_rate_on_fewer_keys_converts_its_denominator_share(self, tmp_path, monkeypatch, backward):
        import dataclasses

        import ardkit.pipeline as pipeline
        import oracle
        from test_correspondence import assert_matches_oracle

        calls = []

        def recording_convert(dataset, *args, **kwargs):
            result = real_convert(dataset, *args, **kwargs)
            calls.append((dataset, kwargs, result))
            return result

        real_convert = pipeline.convert
        monkeypatch.setattr(pipeline, "convert", recording_convert)
        converted = self.convert_counts(monkeypatch)
        config_path = self.build_rate_project(tmp_path / "proj", backward=backward, rate_rows=1)
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")
        assert not run(config).failed
        op = "backward" if backward else "forward"
        assert converted == {(op, "demo.population"): 2, (op, "demo.rate.numerator"): 1}
        rates, kwargs, (out, outcomes) = next(call for call in calls if call[0].indicator.id == "demo.rate")
        table = load_tables(config.tables)[BoundaryEdition.ASGS2011, BoundaryEdition.ASGS2016]
        want = oracle.rate_route(
            oracle.cells(rates), oracle.cells(kwargs["denominator"]), [(op, table)], value_kind=CellKind.RATE
        )
        assert_matches_oracle(out, outcomes[-1], want)

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_run_rate_equals_composed_correspond_with_denominator(self, tmp_path, backward):
        import dataclasses

        from ardkit.cli import main

        config_path = self.build_rate_project(tmp_path / "proj", backward=backward)
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")
        assert not run(config).failed
        root, work, out = tmp_path / "proj", tmp_path / "work", tmp_path / "out"
        work.mkdir()
        doc = json.loads(config_path.read_text())
        (work / "vocab.json").write_text(json.dumps(doc["project"]["vocabulary"]))
        common = ["--vocabulary", work / "vocab.json", "--coverage", "2016:2016"]
        argvs = []
        for item in doc["indicators"]:
            d = work / item["id"]
            indicator = {k: item[k] for k in ("id", "name", "nest_domain", "value_kind", "source_id")}
            Path(f"{d}.json").write_text(json.dumps(indicator))
            argvs += [
                ["ingest", "--raw", root / item["data"], "--mapping", root / item["mapping"],
                 "--indicator", f"{d}.json", "--out-data", f"{d}.10.csv", "--out-indicator", f"{d}.10.json",
                 "--report", f"{d}.parse.json"],
                ["clean", "--data", f"{d}.10.csv", "--indicator", f"{d}.10.json", *common,
                 "--out-data", f"{d}.20.csv", "--out-indicator", f"{d}.20.json", "--log", f"{d}.cleaning.jsonl"],
            ]
        rate, population = work / "demo.rate", work / "demo.population"
        argvs += [
            ["correspond", "--data", f"{rate}.20.csv", "--indicator", f"{rate}.20.json",
             "--to-edition", doc["project"]["target_edition"], "--table", f"2011:2016:{root / 'table.csv'}",
             "--denominator-data", f"{population}.20.csv", "--denominator-indicator", f"{population}.20.json",
             "--out-data", f"{rate}.30.csv", "--out-indicator", f"{rate}.30.json",
             "--outcomes", f"{rate}.outcomes.json"],
            ["suppress", "--data", f"{rate}.30.csv", "--indicator", f"{rate}.30.json",
             "--out-data", f"{rate}.40.csv", "--out-indicator", f"{rate}.40.json", "--log", f"{rate}.privacy.json"],
            ["qa", "--data", f"{rate}.40.csv", "--indicator", f"{rate}.40.json", "--outcomes", f"{rate}.outcomes.json",
             "--privacy-log", f"{rate}.privacy.json", *common, "--filter-high",
             "--out-data", f"{rate}.50.csv", "--out-indicator", f"{rate}.50.json", "--report", f"{rate}.qa.json",
             "--removals", f"{rate}.removals.json"],
        ]
        for argv in argvs:
            assert main([str(a) for a in argv]) in (0, 1), argv
        reports = out / "reports"
        for composed, artifact in (
            (f"{rate}.50.csv", out / "datasets" / "demo.rate.csv"),
            (f"{rate}.outcomes.json", reports / "demo.rate.correspondence.json"),
            (f"{rate}.outcomes.ledger.csv", reports / "demo.rate.correspondence.ledger.csv"),
            (f"{rate}.removals.json", reports / "demo.rate.removals.json"),
            (f"{rate}.removals.ledger.csv", reports / "demo.rate.removals.ledger.csv"),
        ):
            assert Path(composed).read_bytes() == artifact.read_bytes(), artifact.name
        if backward:  # B is rebuilt with its absent sole target Z counted as zero
            ledger = (reports / "demo.rate.correspondence.ledger.csv").read_text()
            assert "B,2016,0-4,male,1,missing-zero-fill\n" in ledger


class TestOutputContainment:
    def test_artifact_paths_cannot_escape(self, tmp_path):
        from ardkit.pipeline import _write_artifacts

        with pytest.raises(ConfigError, match="escapes"):
            _write_artifacts(tmp_path / "out", {"../evil.txt": "boom"})
        assert not (tmp_path / "evil.txt").exists()


class TestCliBasics:
    def cli(self, *argv, capture=False):
        # The child imports ardkit from this source tree, installed or not.
        src = str(Path(ardkit.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path}
        cmd = [sys.executable, "-m", "ardkit.cli", *[str(a) for a in argv]]
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    def test_validate_table_bad_ratio_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("FROM_CODE,TO_CODE,RATIO\nA,B,0.3\nA,C,0.6\n")
        proc = self.cli(
            "validate-table", "--table", bad, "--level", "SA3",
            "--from-edition", "2011", "--to-edition", "2016",
        )
        assert proc.returncode == 2
        assert "ratios for A sum to 0.9" in proc.stderr

    def test_validate_table_good_exit_0(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("FROM_CODE,TO_CODE,RATIO\nA,B,0.3\nA,C,0.7\n")
        proc = self.cli(
            "validate-table", "--table", good, "--level", "SA3",
            "--from-edition", "2011", "--to-edition", "2016",
        )
        assert proc.returncode == 0

    def test_validate_table_not_utf8_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"FROM_CODE,TO_CODE,RATIO\nA,B,1\n\xff\xfe\n")
        proc = self.cli(
            "validate-table", "--table", bad, "--level", "SA3",
            "--from-edition", "2011", "--to-edition", "2016",
        )
        assert proc.returncode == 2
        assert f"error: {bad}: not valid UTF-8 at byte offset 30" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("table_2011_2016.csv", b"\xff\xfeFROM_CODE", "table_2011_2016.csv: not valid UTF-8 at byte offset 0"),
            ("mapping_long_2011.json", b'{"layout":\n', "mapping_long_2011.json: line 2: not valid JSON"),
        ],
        ids=["table-not-utf8", "mapping-not-json"],
    )
    def test_run_with_unreadable_input_leaves_failed_tree(self, tmp_path, name, data, message):
        config_path = build_demo_project(tmp_path / "proj")
        (tmp_path / "proj" / name).write_bytes(data)
        proc = self.cli("run", "--config", config_path, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in (tmp_path / "out" / "FAILED").read_text()

    @pytest.mark.parametrize(
        "command, name, data, message",
        [
            ("clean", "rules.json", b'{"dedupe_policy": "sum",\n}', "rules.json: line 2: not valid JSON"),
            ("qa", "data.csv", b"SA3CODE_16,CALENDAR_YEAR\n\xff", "data.csv: not valid UTF-8 at byte offset 25"),
        ],
        ids=["clean-rules-not-json", "qa-data-not-utf8"],
    )
    def test_unreadable_user_file_exit_2(self, tmp_path, command, name, data, message):
        indicator = {
            "id": "demo.x",
            "name": "X",
            "nest_domain": "healthy",
            "value_kind": "count",
            "source_id": "src",
        }
        (tmp_path / "ind.json").write_text(json.dumps(indicator))
        (tmp_path / "data.csv").write_text("SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\nA,2016,0-4,male,9,0\n")
        (tmp_path / "rules.json").write_text("{}")
        (tmp_path / name).write_bytes(data)
        extra = {
            "clean": ["--rules", tmp_path / "rules.json", "--out-data", tmp_path / "o.csv", "--log", tmp_path / "log.jsonl"],
            "qa": ["--report", tmp_path / "r.json"],
        }[command]
        proc = self.cli(command, "--data", tmp_path / "data.csv", "--indicator", tmp_path / "ind.json", *extra)
        assert proc.returncode == 2
        assert f"error: {tmp_path / message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_detect_prints_draft(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n")
        proc = self.cli("ingest", "--raw", raw, "--detect")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["unconfirmed"] is True
        assert doc["level_guess"] == "SA3"

    def run_at_epoch(self, tmp_path, monkeypatch, epoch):
        # Without `project.run_timestamp`, the run's timestamp comes from SOURCE_DATE_EPOCH.
        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        doc = json.loads(config_path.read_text())
        del doc["project"]["run_timestamp"]
        config_path.write_text(json.dumps(doc))
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        return self.cli("run", "--config", config_path, "--out", tmp_path / "out")

    @pytest.mark.parametrize("epoch", ["abc", "1e3", " 5", "99999999999999"])
    def test_malformed_source_date_epoch_exit_2(self, tmp_path, monkeypatch, epoch):
        proc = self.run_at_epoch(tmp_path, monkeypatch, epoch)
        assert proc.returncode == 2
        assert f"error: SOURCE_DATE_EPOCH {epoch!r} is not a whole number of seconds in range" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "epoch, timestamp",
        [("0", "1970-01-01T00:00:00Z"), ("-5", "1969-12-31T23:59:55Z"), ("-62135596800", "0001-01-01T00:00:00Z")],
    )
    def test_source_date_epoch_sets_the_timestamp(self, tmp_path, monkeypatch, epoch, timestamp):
        assert self.run_at_epoch(tmp_path, monkeypatch, epoch).returncode == 0
        log = ProvenanceLog.from_jsonl((tmp_path / "out" / "provenance.jsonl").read_text())
        assert {entry.timestamp for entry in log.entries} == {timestamp}

    def test_config_mode_key_exit_2(self, tmp_path):
        # Removed `stages.correspond` keys fail schema validation.
        config_path = build_demo_project(tmp_path / "proj")
        for key, value in (("mode", "rational"), ("boundary_rule", "keep_at_threshold")):
            doc = json.loads(config_path.read_text())
            doc["stages"]["correspond"][key] = value
            path = config_path.parent / f"{key}.json"
            path.write_text(json.dumps(doc))
            proc = self.cli("run", "--config", path, "--out", tmp_path / "out")
            assert proc.returncode == 2
            assert f"'{key}' was unexpected" in proc.stderr
            assert "stages/correspond" in proc.stderr

    CORRESPOND_ARGV = ["--to-edition", "2016", "--table", "2011:2016:t.csv", "--out-data", "o.csv"]

    @pytest.mark.parametrize(
        "command, argv, flag",
        [
            ("correspond", CORRESPOND_ARGV, ["--mode", "rational"]),
            ("qa", ["--report", "r.json"], ["--mode", "rational"]),
            ("correspond", CORRESPOND_ARGV, ["--boundary-rule", "keep_at_threshold"]),
        ],
        ids=["correspond", "qa", "correspond-boundary-rule"],
    )
    def test_mode_flag_exit_2(self, command, argv, flag):
        # A removed flag is refused while the arguments are parsed, before any file is read.
        proc = self.cli(command, "--data", "d.csv", "--indicator", "i.json", *argv, *flag)
        assert proc.returncode == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr

    def test_scaffold_dmp(self, tmp_path):
        config_path = build_demo_project(tmp_path / "proj")
        out = tmp_path / "dmp.md"
        proc = self.cli("scaffold-dmp", "--config", config_path, "--out", out)
        assert proc.returncode == 0
        assert "OPEN" in out.read_text()

    def test_qa_exit_codes(self, tmp_path):
        indicator = {
            "id": "demo.x",
            "name": "X",
            "nest_domain": "healthy",
            "value_kind": "count",
            "source_id": "src",
        }
        (tmp_path / "ind.json").write_text(json.dumps(indicator))
        clean_csv = "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\nA,2016,0-4,male,9,0\n"
        (tmp_path / "clean.csv").write_text(clean_csv)
        proc = self.cli(
            "qa", "--data", tmp_path / "clean.csv", "--indicator", tmp_path / "ind.json",
            "--report", tmp_path / "r0.json",
        )
        assert proc.returncode == 0

        gap_csv = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\n"
            "A,2016,0-4,male,9,0\nA,2018,0-4,male,9,0\n"
        )
        (tmp_path / "gap.csv").write_text(gap_csv)
        proc = self.cli(
            "qa", "--data", tmp_path / "gap.csv", "--indicator", tmp_path / "ind.json",
            "--coverage", "2016:2018", "--report", tmp_path / "r1.json",
        )
        assert proc.returncode == 1
        assert "temporal coverage gap: 2017" in proc.stdout

        dup_csv = (
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\n"
            "A,2016,0-4,male,9,0\nA,2016,0-4,male,9,0\n"
        )
        (tmp_path / "dup.csv").write_text(dup_csv)
        proc = self.cli(
            "qa", "--data", tmp_path / "dup.csv", "--indicator", tmp_path / "ind.json",
            "--report", tmp_path / "r2.json",
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("A,2016,0-4,male,9,x", "line 3: invalid UNCERTAINTY 'x'"),
            ("A,2016,0-4,male,9,7", "line 3: invalid UNCERTAINTY '7'"),
            ("A,2016,0-4,male,abc,0", "line 3: invalid VALUE 'abc'"),
            ("A,20x6,0-4,male,9,0", "line 3: invalid CALENDAR_YEAR '20x6'"),
        ],
    )
    def test_qa_malformed_csv_exit_2(self, tmp_path, row, message):
        indicator = {
            "id": "demo.x",
            "name": "X",
            "nest_domain": "healthy",
            "value_kind": "count",
            "source_id": "src",
        }
        (tmp_path / "ind.json").write_text(json.dumps(indicator))
        (tmp_path / "bad.csv").write_text(
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\n"
            f"A,2016,5-9,male,9,0\n{row}\n"
        )
        proc = self.cli(
            "qa", "--data", tmp_path / "bad.csv", "--indicator", tmp_path / "ind.json",
            "--report", tmp_path / "r.json",
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    def qa_on_bad_row(self, tmp_path, row):
        indicator = {
            "id": "demo.x",
            "name": "X",
            "nest_domain": "healthy",
            "value_kind": "count",
            "source_id": "src",
        }
        (tmp_path / "ind.json").write_text(json.dumps(indicator))
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\n"
            f"A,2016,5-9,male,9,0\n{row}\n"
        )
        proc = self.cli("qa", "--data", bad, "--indicator", tmp_path / "ind.json", "--report", tmp_path / "r.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        return bad, proc.stderr

    def test_canonical_csv_error_names_the_file(self, tmp_path):
        bad, stderr = self.qa_on_bad_row(tmp_path, "A,2016,0-4,male,9,x")
        assert f"error: {bad}: line 3: invalid UNCERTAINTY 'x'" in stderr

    @pytest.mark.parametrize("text", ["inf", "nan"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, text):
        bad, stderr = self.qa_on_bad_row(tmp_path, f"A,2016,0-4,male,{text},0")
        assert f"error: {bad}: line 3: invalid VALUE '{text}'" in stderr


class TestFinalRender:
    """A stage output, and the published CSV, reuse the last rendering when nothing changed it."""

    def run_counting_renders(self, demo_project, out, monkeypatch, **changes):
        """Run the demo; returns every text `write_csv` rendered and the logged stage entries."""
        import dataclasses

        rendered = []
        real_write_csv = ardkit.pipeline.write_csv

        def counting_write_csv(dataset, **seed):
            rendered.append(real_write_csv(dataset, **seed))
            return rendered[-1]

        monkeypatch.setattr(ardkit.pipeline, "write_csv", counting_write_csv)
        config = dataclasses.replace(load_config(demo_project), output_dir=out, **changes)
        assert run(config).exit_code == 0
        log = ProvenanceLog.from_jsonl((out / "provenance.jsonl").read_text())
        for ind in ("demo.hospital_visits", "demo.school_enrolments"):
            (docs,) = [e for e in log.entries if e.stage == f"docs:{ind}"]
            published = (out / "datasets" / f"{ind}.csv").read_bytes()
            assert docs.input_digests == (sha256_hex(published),)
        logged = [e for e in log.entries if ":" in e.stage and not e.stage.startswith("docs:")]
        return rendered, logged

    def test_one_render_per_distinct_logged_digest(self, demo_project, tmp_path, monkeypatch):
        rendered, logged = self.run_counting_renders(demo_project, tmp_path / "out", monkeypatch)
        digests = {digest for entry in logged for digest in entry.output_digests}
        assert len(digests) < len(logged)  # the demo has a stage that changes nothing
        assert len(rendered) == len(digests)
        assert {sha256_hex(text) for text in rendered} == digests

    def test_each_render_formats_only_the_magnitudes_the_last_one_lacked(self, tmp_path, monkeypatch):
        # A render is seeded with the previous render's table, so along an indicator's stage chain
        # `format_magnitude` runs once per magnitude that the render before did not hold.
        import dataclasses
        from collections import Counter, defaultdict

        import ardkit.model

        renders, formats, current = defaultdict(list), Counter(), [None]
        real_format, real_write_csv = ardkit.model.format_magnitude, ardkit.pipeline.write_csv

        def counting_format(magnitude):
            formats[current[0]] += 1
            return real_format(magnitude)

        def spying_write_csv(dataset, **seed):
            current[0] = dataset.indicator.id
            renders[current[0]].append({m for m in dataset.columns.magnitude if m is not None})
            try:
                return real_write_csv(dataset, **seed)
            finally:
                current[0] = None

        monkeypatch.setattr(ardkit.model, "format_magnitude", counting_format)
        monkeypatch.setattr(ardkit.pipeline, "write_csv", spying_write_csv)
        config_path = build_demo_project(tmp_path / "proj", rate=True)
        assert run(dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")).exit_code in (0, 1)
        assert len(renders) == 3 and None not in formats
        for indicator, magnitudes in renders.items():
            assert all(abs(m) < 2**53 for render in magnitudes for m in render)
            expected = sum(len(render - before) for before, render in zip([set()] + magnitudes, magnitudes))
            assert formats[indicator] == expected < sum(map(len, magnitudes)), indicator

    def test_rounded_counts_are_rendered_again(self, demo_project, tmp_path, monkeypatch):
        rendered, logged = self.run_counting_renders(
            demo_project, tmp_path / "out", monkeypatch, round_counts=True
        )
        assert len(rendered) > len({digest for entry in logged for digest in entry.output_digests})


class TestRunBuildsNoRecordObjects:
    """`run` works on columns: it never reads the `Dataset.records` row view.

    A correspondence event is keyed by the plain (region, year, age group,
    sex) tuple, not by an object built for it.
    """

    def run_counting(self, config_path, out, monkeypatch):
        import dataclasses

        import ardkit.correspondence
        from ardkit.model import Dataset

        reads = []
        view = Dataset.records.fget
        monkeypatch.setattr(Dataset, "records", property(lambda dataset: reads.append(1) or view(dataset)))

        conversions = []
        for op in ("forward", "backward"):
            real = getattr(ardkit.correspondence, op)

            def recording(*args, real=real, **kwargs):
                result = real(*args, **kwargs)
                conversions.append(result[1])
                return result

            monkeypatch.setattr(ardkit.correspondence, op, recording)
        config = dataclasses.replace(load_config(config_path), output_dir=out)
        assert run(config).exit_code in (0, 1)
        return reads, [key for outcome in conversions for key in outcome.events]

    @pytest.mark.parametrize("rate", [False, True], ids=["demo", "rate-and-backward"])
    def test_no_record_objects(self, tmp_path, monkeypatch, rate):
        config_path = build_demo_project(tmp_path / "proj", rate=rate)
        reads, keys = self.run_counting(config_path, tmp_path / "out", monkeypatch)
        assert reads == []
        assert keys and {type(key) for key in keys} == {tuple}


class TestOnePassPerFact:
    """`run` validates each indicator at most twice and totals a forward count at most twice."""

    def count_calls(self, monkeypatch):
        import collections

        import ardkit.cleaning
        import ardkit.correspondence
        import ardkit.pipeline
        import ardkit.qa

        validated, totalled, current = collections.Counter(), collections.Counter(), [None]

        def counting_parse_raw(data, mapping, indicator, _real=ardkit.pipeline.parse_raw):
            current[0] = indicator.id
            return _real(data, mapping, indicator)

        monkeypatch.setattr(ardkit.pipeline, "parse_raw", counting_parse_raw)
        for module in (ardkit.cleaning, ardkit.qa):
            def counting_validate(dataset, *args, _real=module.validate_dataset):
                validated[dataset.indicator.id] += 1
                return _real(dataset, *args)

            monkeypatch.setattr(module, "validate_dataset", counting_validate)
        for module in (ardkit.correspondence, ardkit.qa):
            def counting_total(values, _real=module.exact_total):
                totalled[current[0]] += 1
                return _real(values)

            monkeypatch.setattr(module, "exact_total", counting_total)
        return validated, totalled

    @pytest.mark.parametrize("project", ["repo-demo", "messy", "messy-unsuppressed", "messy-rate"])
    def test_validations_and_exact_totals_per_indicator(self, tmp_path, monkeypatch, project):
        import dataclasses

        if project == "repo-demo":
            config_path = Path(__file__).resolve().parents[1] / "demo" / "config.json"
        else:
            config_path = build_demo_project(tmp_path / "proj", rate=project == "messy-rate")
        validated, totalled = self.count_calls(monkeypatch)
        config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / "out")
        if project == "messy-unsuppressed":
            # Without suppression the forward indicator keeps its conservation check, as on fwd-messy.
            config = dataclasses.replace(config, stages=config.stages._replace(privacy_enabled=False))
        result = run(config)
        assert not result.failed
        qa = json.loads((tmp_path / "out" / "reports" / "demo.hospital_visits.qa.json").read_text())
        assert qa["pass"] and (project != "messy-unsuppressed" or result.exit_code == 0)
        ids = {spec.indicator.id for spec in config.indicators}
        assert set(validated) == ids
        assert all(calls <= 2 for calls in validated.values()), validated
        forward_counts = {
            "demo.hospital_visits": 2,  # forward input and output; the QA rule reuses the output's
            "demo.school_enrolments": 2,  # backward input and output; backward is never conserving
            "demo.enrolment_rate": 0,  # the rate's numerator steps keep no totals
        }
        assert totalled == {i: n for i, n in forward_counts.items() if i in ids and n}


class TestBadCliInputs:
    """Bad sidecars, editions and thresholds end with exit 2 and a message, never a traceback."""

    INDICATOR = {"id": "demo.x", "name": "X", "nest_domain": "healthy", "value_kind": "count", "source_id": "src"}
    DATA = "SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,UNCERTAINTY\nA,2016,0-4,male,9,0\n"

    def files(self, tmp_path, **indicator_changes):
        doc = {**self.INDICATOR, **indicator_changes}
        (tmp_path / "ind.json").write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        (tmp_path / "data.csv").write_text(self.DATA)
        (tmp_path / "table.csv").write_text("FROM_CODE,TO_CODE,RATIO\nA,X,1\n")
        return tmp_path / "data.csv", tmp_path / "ind.json"

    def main(self, *argv):
        from ardkit.cli import main

        return main([str(a) for a in argv])

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"name": None}, "indicator document lacks 'name'"),
            ({"nest_domain": "nope"}, "indicator document has an invalid nest_domain 'nope'"),
            ({"value_kind": "suppressed"}, "indicator value kind must be count/rate/percentage"),
            ({"value_kind": "volume"}, "indicator document has an invalid value_kind 'volume'"),
            ({"max_uncertainty": 7}, "indicator document has an invalid max_uncertainty 7"),
        ],
        ids=["missing-name", "bad-nest-domain", "marker-value-kind", "bad-value-kind", "bad-max-uncertainty"],
    )
    def test_bad_indicator_sidecar_exit_2(self, tmp_path, capsys, changes, message):
        data, indicator = self.files(tmp_path, **changes)
        assert self.main("qa", "--data", data, "--indicator", indicator, "--report", tmp_path / "r.json") == 2
        assert f"error: {indicator}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rules, code, message",
        [
            (
                {"whitespace_normalization": False}, 2,
                "error: cleaning left 1 validation violation(s); first: row 0: geography code 'c\\rr': "
                "token contains a delimiter character",
            ),
            ({}, 0, "cleaned in 1 iteration(s); 1 change(s)"),
        ],
        ids=["kept-exit-2", "normalised-exit-0"],
    )
    def test_ingested_carriage_return_in_a_code_reads_back(self, tmp_path, capsys, rules, code, message):
        # `ingest` quotes a code holding `\r`, so `clean` reads the file and judges the code itself.
        _, indicator = self.files(tmp_path)
        mapping = {
            "layout": "long",
            "columns": {
                "geography_code": "SA3CODE_16", "calendar_year": "CALENDAR_YEAR", "age_group": "AGE_GROUP",
                "sex": "SEX", "value": "VALUE",
            },
            "value_kind": "count",
            "geography": {"level": "SA3", "edition": 2016},
        }
        (tmp_path / "mapping.json").write_text(json.dumps(mapping))
        (tmp_path / "raw.csv").write_bytes(b'SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"c\rr",2016,0-4,male,5\n')
        (tmp_path / "rules.json").write_text(json.dumps(rules))
        assert self.main(
            "ingest", "--raw", tmp_path / "raw.csv", "--mapping", tmp_path / "mapping.json", "--indicator", indicator,
            "--out-data", tmp_path / "10.csv", "--out-indicator", tmp_path / "10.json", "--report", tmp_path / "p.json",
        ) == 0
        assert b'"c\rr",2016' in (tmp_path / "10.csv").read_bytes()
        capsys.readouterr()
        assert self.main(
            "clean", "--data", tmp_path / "10.csv", "--indicator", tmp_path / "10.json", "--rules", tmp_path / "rules.json",
            "--out-data", tmp_path / "20.csv", "--log", tmp_path / "log.jsonl",
        ) == code
        assert message in "".join(capsys.readouterr())

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate-table", "--level", "SA3", "--from-edition", "2013", "--to-edition", "2016"],
            ["correspond", "--data", "d.csv", "--indicator", "i.json", "--to-edition", "2013", "--out-data", "o.csv"],
        ],
        ids=["validate-table", "correspond"],
    )
    def test_unknown_edition_refused_by_argparse(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self.main(*argv, "--table", tmp_path / "t.csv")
        assert exc.value.code == 2
        assert "invalid choice: 2013" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, outputs",
        [("clean", {"--out-data": "o.csv", "--log": "log.jsonl"}), ("qa", {"--report": "r.json"})],
        ids=["clean", "qa"],
    )
    def test_reversed_coverage_exit_2(self, tmp_path, capsys, command, outputs):
        data, indicator = self.files(tmp_path)
        flags = [item for flag, name in outputs.items() for item in (flag, tmp_path / name)]
        code = self.main(command, "--data", data, "--indicator", indicator, "--coverage", "2020:2010", *flags)
        assert code == 2
        assert "error: temporal coverage start is after its end" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in outputs.values())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["qa", "--round-counts", "--report", "r.json"], "--round-counts needs --filter-high"),
            (["suppress", "--seed", "7", "--out-data", "o.csv"], "a seed is given but randomisation is disabled"),
            (["suppress", "--noise-magnitude", "2", "--out-data", "o.csv"], "randomisation is enabled (noise magnitude 2) but no seed is given"),
        ],
        ids=["qa-round-counts-alone", "suppress-seed-without-noise", "suppress-noise-without-seed"],
    )
    def test_flag_without_its_partner_exit_2(self, tmp_path, capsys, argv, message):
        data, indicator = self.files(tmp_path)
        argv = [tmp_path / arg if arg.endswith((".csv", ".json")) else arg for arg in argv]
        assert self.main(*argv, "--data", data, "--indicator", indicator) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "ind.json", "table.csv"]

    def test_sidecar_id_cannot_escape_the_output_directory(self, demo_project, tmp_path, capsys):
        # The id names the metadata files, so a path in it would write outside --out.
        data, indicator = self.files(tmp_path, id="../../escaped")
        out = tmp_path / "out" / "docs"
        assert self.main("emit-docs", "--config", demo_project, "--data", data, "--indicator", indicator, "--out", out) == 2
        message = "indicator id '../../escaped' may hold only letters, digits, '.', '_' and '-'"
        assert f"error: {indicator}: {message}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*escaped*")) == []
        # One rule for a sidecar and a config: the config schema's id pattern.
        indicator_item = load_schema("config.schema.json")["properties"]["indicators"]["items"]
        assert indicator_item["properties"]["id"]["pattern"] == f"^{_INDICATOR_ID_RE.pattern}$"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["clean", "--coverage", "２０１１:2016", "--out-data", "o.csv", "--log", "l.jsonl"],
             "error: bad coverage '２０１１:2016'; expected START:END"),
            (["qa", "--coverage", "2011:２０１６", "--report", "r.json"],
             "error: bad coverage '2011:２０１６'; expected START:END"),
            (["correspond", "--to-edition", "2016", "--table", "２０１１:2016:table.csv", "--out-data", "o.csv"],
             "error: bad --table spec '２０１１:2016:table.csv'; expected FROM:TO:PATH"),
            (["correspond", "--to-edition", "２０１６", "--table", "2011:2016:table.csv", "--out-data", "o.csv"],
             "argument --to-edition: invalid integer value: '２０１６'"),
            (["clean", "--max-iterations", "１０", "--out-data", "o.csv", "--log", "l.jsonl"],
             "argument --max-iterations: invalid integer value: '１０'"),
            (["suppress", "--threshold", "５", "--out-data", "o.csv"], "argument --threshold: invalid integer value: '５'"),
            (["suppress", "--noise-magnitude", "2", "--seed", "７", "--out-data", "o.csv"],
             "argument --seed: invalid integer value: '７'"),
            (["suppress", "--noise-magnitude", "2_0", "--seed", "7", "--out-data", "o.csv"],
             "argument --noise-magnitude: invalid integer value: '2_0'"),
            (["suppress", "--noise-magnitude", "2", "--seed", " 7", "--out-data", "o.csv"],
             "argument --seed: invalid integer value: ' 7'"),
            (["suppress", "--threshold", "+5", "--out-data", "o.csv"], "argument --threshold: invalid integer value: '+5'"),
            (["validate-table", "--table", "table.csv", "--level", "SA3", "--from-edition", "２０１１",
              "--to-edition", "2016"], "argument --from-edition: invalid integer value: '２０１１'"),
        ],
        ids=["clean-coverage", "qa-coverage", "table-spec", "to-edition", "max-iterations", "threshold", "seed",
             "noise-magnitude", "seed-space", "threshold-plus", "validate-table"],
    )
    def test_integer_is_ascii_decimal_exit_2(self, tmp_path, capsys, argv, message):
        data, indicator = self.files(tmp_path)
        argv = [tmp_path / arg if arg.endswith((".csv", ".json", ".jsonl")) and ":" not in arg else arg for arg in argv]
        if argv[0] != "validate-table":
            argv += ["--data", data, "--indicator", indicator]
        try:
            code = self.main(*argv)
        except SystemExit as exc:  # argparse refuses the flag
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "ind.json", "table.csv"]

    def test_emit_docs_states_the_data_level_over_a_stale_sidecar(self, demo_project, tmp_path):
        data, indicator = self.files(tmp_path, max_uncertainty=0)
        data.write_text(self.DATA.replace(",9,0\n", ",9,1\n"))
        out = tmp_path / "docs"
        assert self.main("emit-docs", "--config", demo_project, "--data", data, "--indicator", indicator, "--out", out) == 0
        for view in ("published", "researcher"):
            assert "Uncertainty present: 1 (medium)" in (out / f"dictionary.{view}.md").read_text(encoding="utf-8")

    def test_non_numeric_threshold_in_config_exit_2(self, tmp_path, capsys):
        config_path = build_demo_project(tmp_path / "proj")
        doc = json.loads(config_path.read_text())
        doc["stages"]["correspond"]["discard_threshold"] = "abc"
        config_path.write_text(json.dumps(doc))
        assert self.main("run", "--config", config_path, "--out", tmp_path / "out") == 2
        assert f"error: {config_path}: stages.correspond.discard_threshold: cannot interpret ratio 'abc'" in capsys.readouterr().err

    def test_non_numeric_threshold_flag_exit_2(self, tmp_path, capsys):
        data, indicator = self.files(tmp_path)
        code = self.main(
            "correspond", "--data", data, "--indicator", indicator, "--to-edition", "2016",
            "--table", f"2011:2016:{tmp_path / 'table.csv'}", "--discard-threshold", "abc",
            "--out-data", tmp_path / "o.csv",
        )
        assert code == 2
        assert "error: cannot interpret ratio 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, text, message",
        [
            ("--rules", '{"dedupe_policy": 5}', "invalid dedupe_policy 5"),
            ("--rules", "[1]", "cleaning rules document is not a JSON object"),
            ("--rules", '{"year_format_coercions": "YY->2000+YY"}', "year_format_coercions must be a list of strings"),
            (
                "--rules",
                '{"code_case_fold": "false", "dedupe_policy": "sum"}',
                "code_case_fold must be true or false, not 'false'",
            ),
            ("--rules", '{"whitespace_normalization": 0}', "whitespace_normalization must be true or false, not 0"),
            ("--vocabulary", '{"age_groups": 5}', "age_groups must be a list of strings, not 5"),
            ("--vocabulary", "[1]", "vocabulary document is not a JSON object"),
            ("--outcomes", '{"a": 1}', "correspondence report is not a JSON object with a list of steps"),
            ("--outcomes", '{"steps": [1], "ledger_digest": ""}', "correspondence outcome 1 is not a JSON object"),
            (
                "--outcomes",
                '{"steps": [{"op": "forward"}], "ledger_digest": ""}',
                "correspondence outcome lacks 'conserving'",
            ),
            (
                "--outcomes",
                '{"steps": [{"conserving": "false"}], "ledger_digest": ""}',
                "correspondence outcome conserving must be true or false, not 'false'",
            ),
            (
                "--outcomes",
                '{"steps": [{"conserving": true, "zero_filled": "abc"}], "ledger_digest": ""}',
                "correspondence outcome zero_filled must be a list of strings, not 'abc'",
            ),
            ("--outcomes", "[]", "correspondence report is not a JSON object with a list of steps"),
            ("--privacy-log", "[1]", "privacy log is not a JSON object"),
            ("--privacy-log", '{"a": 1}', "privacy log noise_magnitude must be a non-negative integer, not None"),
            (
                "--privacy-log",
                '{"noise_magnitude": 0, "suppression": {"total_suppressed": "3"}}',
                "privacy log suppression.total_suppressed must be a non-negative integer, not '3'",
            ),
            (
                "--privacy-log",
                '{"noise_magnitude": true, "suppression": {"total_suppressed": 0}}',
                "privacy log noise_magnitude must be a non-negative integer, not True",
            ),
        ],
        ids=[
            "rules-policy-number", "rules-list", "rules-coercions-string", "rules-flag-string", "rules-flag-number",
            "vocabulary-number",
            "vocabulary-list", "outcomes-object", "outcomes-number", "outcomes-missing-keys",
            "outcomes-conserving-string", "outcomes-zero-filled-string", "outcomes-older-list",
            "privacy-log-list", "privacy-log-no-counts", "privacy-log-string-total", "privacy-log-bool-noise",
        ],
    )
    def test_wrongly_shaped_document_exit_2(self, tmp_path, capsys, option, text, message):
        # Valid JSON of the wrong shape names the file instead of raising a traceback.
        data, indicator = self.files(tmp_path)
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        if option in ("--outcomes", "--privacy-log"):
            argv = ["qa", "--report", tmp_path / "r.json"]
        else:
            argv = ["clean", "--out-data", tmp_path / "o.csv", "--log", tmp_path / "log.jsonl"]
        assert self.main(*argv, "--data", data, "--indicator", indicator, option, doc) == 2
        assert f"error: {doc}: {message}" in capsys.readouterr().err

    HEADER = "REGION,CALENDAR_YEAR,AGE_GROUP,SEX,STEP,EVENT\n"
    TWO_LINES = ("X,2016,0-4,female,1,missing-zero-fill\n", "X,2016,0-4,male,1,subthreshold-discard\n")

    @pytest.mark.parametrize(
        "text, rows, message",
        [
            (None, 0, "No such file or directory"),
            (HEADER + "".join(TWO_LINES), 2, "SHA-256 "),
            (HEADER + "X,2016,0-4,male,1\n", 1, "line 2: expected 6 fields, got 5"),
            (HEADER + "X,2016.0,0-4,male,1,missing-zero-fill\n", 1, "line 2: invalid CALENDAR_YEAR '2016.0'"),
            (HEADER + "X,2016,0-4,male,1,made-up\n", 1, "line 2: unknown EVENT 'made-up'"),
            (HEADER + "".join(TWO_LINES[::-1]), 2, "line 2: not as written: out of order, or a field spelt otherwise"),
            (HEADER + "X,02016,0-4,male,1,missing-zero-fill\n", 1, "line 2: not as written"),
            (HEADER + "X,2016,0-4,male,2,missing-zero-fill\n", 1, "line 2: invalid STEP '2'; the report has 1 step(s)"),
            ("KEY,EVENT\nX,missing-zero-fill\n", 1, "line 1: expected the header"),
            (HEADER + "".join(TWO_LINES), 1, "[2] line(s) per step, but the report counts [1]"),
        ],
        ids=["missing", "digest-mismatch", "short-row", "bad-year", "unknown-event", "out-of-order", "padded-year",
             "bad-step", "bad-header", "row-count"],
    )
    def test_corrupted_event_ledger_exit_2(self, tmp_path, capsys, text, rows, message):
        data, indicator = self.files(tmp_path)
        report, ledger = tmp_path / "o.json", tmp_path / "o.ledger.csv"
        assert self.main(
            "correspond", "--data", data, "--indicator", indicator, "--to-edition", "2016",
            "--table", f"2011:2016:{tmp_path / 'table.csv'}", "--out-data", tmp_path / "c.csv", "--outcomes", report,
        ) == 0
        assert ledger.read_text() == self.HEADER
        if text is None:
            ledger.unlink()
        else:
            # The summary counts `rows` lines and, unless the digest is the fault, binds the new ledger.
            ledger.write_text(text)
            summary = json.loads(report.read_text())
            summary["steps"][0]["event_rows"] = rows
            if message != "SHA-256 ":
                summary["ledger_digest"] = sha256_hex(text)
            report.write_text(json.dumps(summary))
        argv = ["qa", "--data", data, "--indicator", indicator, "--outcomes", report, "--report", tmp_path / "r.json"]
        assert self.main(*argv) == 2
        assert f"error: {ledger}: {message}" in capsys.readouterr().err

    MAPPING = {
        "layout": "long",
        "columns": {
            "geography_code": "SA3CODE_11", "calendar_year": "CALENDAR_YEAR",
            "age_group": "AGE_GROUP", "sex": "SEX", "value": "VALUE",
        },
        "value_kind": "count",
        "geography": {"level": "SA3", "edition": 2011},
    }

    def ingest_argv(self, tmp_path, raw, mapping):
        _, indicator = self.files(tmp_path)
        return [
            "ingest", "--raw", raw, "--mapping", mapping, "--indicator", indicator,
            "--out-data", tmp_path / "o.csv", "--report", tmp_path / "r.json",
        ]

    def test_wrongly_shaped_mapping_names_the_file(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\nA,2016,0-4,male,9\n")
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps({k: v for k, v in self.MAPPING.items() if k != "layout"}))
        assert self.main(*self.ingest_argv(tmp_path, raw, mapping)) == 2
        err = capsys.readouterr().err
        assert f"error: {mapping}: mapping.schema.json: 'layout' is a required property (at document root)" in err

    def test_directory_for_a_file_exit_2(self, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps(self.MAPPING))
        folder = tmp_path / "folder"
        folder.mkdir()
        assert self.main(*self.ingest_argv(tmp_path, folder, mapping)) == 2
        assert capsys.readouterr().err == f"error: {folder}: Is a directory\n"

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads any file")
    def test_unreadable_file_exit_2(self, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps(self.MAPPING))
        raw = tmp_path / "raw.csv"
        raw.write_text("SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n")
        raw.chmod(0)
        try:
            assert self.main(*self.ingest_argv(tmp_path, raw, mapping)) == 2
        finally:
            raw.chmod(0o600)
        assert capsys.readouterr().err == f"error: {raw}: Permission denied\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps(self.MAPPING))
        raw = tmp_path / "absent.csv"
        assert self.main(*self.ingest_argv(tmp_path, raw, mapping)) == 2
        assert capsys.readouterr().err == f"error: {raw}: No such file or directory\n"

    @pytest.mark.parametrize(
        "state, reason",
        [("missing", "No such file or directory"), ("directory", "Is a directory"), ("not-utf8", "not valid UTF-8 at byte offset 9")],
    )
    def test_correspond_unreadable_table_exit_2(self, tmp_path, capsys, state, reason):
        data, indicator = self.files(tmp_path)
        table = tmp_path / "bad_table.csv"
        if state == "directory":
            table.mkdir()
        elif state == "not-utf8":
            table.write_bytes(b"FROM_CODE\xff,TO_CODE,RATIO\nA,X,1\n")
        argv = ["correspond", "--data", data, "--indicator", indicator, "--to-edition", "2016"]
        assert self.main(*argv, "--table", f"2011:2016:{table}", "--out-data", tmp_path / "o.csv") == 2
        assert capsys.readouterr().err == f"error: {table}: {reason}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["qa", "ingest", "validate-table"])
    def test_oversized_csv_field_exit_2_naming_the_file(self, tmp_path, capsys, command):
        data, indicator = self.files(tmp_path)
        big = tmp_path / "big.csv"
        huge = "m" * 200_000
        if command == "qa":
            big.write_text(self.DATA + f"A,2016,0-4,{huge},9,0\n")
            argv = ["qa", "--data", big, "--indicator", indicator, "--report", tmp_path / "r.json"]
        elif command == "ingest":
            mapping = {
                "layout": "long",
                "columns": {
                    "geography_code": "SA3CODE_11", "calendar_year": "CALENDAR_YEAR",
                    "age_group": "AGE_GROUP", "sex": "SEX", "value": "VALUE",
                },
                "value_kind": "count",
                "geography": {"level": "SA3", "edition": 2011},
            }
            (tmp_path / "mapping.json").write_text(json.dumps(mapping))
            big.write_text(f"SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\nA,2016,0-4,{huge},9\n")
            argv = [
                "ingest", "--raw", big, "--mapping", tmp_path / "mapping.json", "--indicator", indicator,
                "--out-data", tmp_path / "o.csv", "--report", tmp_path / "r.json",
            ]
        else:
            big.write_text(f"FROM_CODE,TO_CODE,RATIO\nA,{huge},1\n")
            argv = ["validate-table", "--table", big, "--level", "SA3", "--from-edition", "2011", "--to-edition", "2016"]
        line = 3 if command == "qa" else 2
        assert self.main(*argv) == 2
        assert f"error: {big}: line {line}: field larger than field limit (131072)" in capsys.readouterr().err

    # A table has one level and one edition, which its mapping states as constants.
    LEVEL_EDITION_CHANGES = {
        "level-column": (
            ("columns", "geography_level", "LEVEL"),
            "Additional properties are not allowed ('geography_level' was unexpected) (at columns)",
        ),
        "edition-column": (
            ("columns", "boundary_edition", "EDITION"),
            "Additional properties are not allowed ('boundary_edition' was unexpected) (at columns)",
        ),
        "no-edition": (("geography", "edition", None), "'edition' is a required property (at geography)"),
    }

    @staticmethod
    def change_mapping(path, part, key, value):
        doc = json.loads(path.read_text())
        if value is None:
            del doc[part][key]
        else:
            doc[part][key] = value
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("change, message", LEVEL_EDITION_CHANGES.values(), ids=LEVEL_EDITION_CHANGES)
    def test_ingest_mapping_without_constant_level_and_edition_exit_2(self, tmp_path, capsys, change, message):
        raw = tmp_path / "raw.csv"
        raw.write_text("SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE,LEVEL,EDITION\nA,2016,0-4,male,9,SA3,2011\n")
        mapping = tmp_path / "mapping.json"
        mapping.write_text(json.dumps(self.MAPPING))
        self.change_mapping(mapping, *change)
        assert self.main(*self.ingest_argv(tmp_path, raw, mapping)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {mapping}: mapping.schema.json: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("change, message", LEVEL_EDITION_CHANGES.values(), ids=LEVEL_EDITION_CHANGES)
    def test_run_mapping_without_constant_level_and_edition_exit_2(self, tmp_path, capsys, change, message):
        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        mapping = tmp_path / "proj" / "mapping_long_2011.json"
        self.change_mapping(mapping, *change)
        assert self.main("run", "--config", config_path, "--out", tmp_path / "out") == 2
        out, err = capsys.readouterr()
        assert out == f"run finished with exit code 2: {mapping}: mapping.schema.json: {message}\n"
        assert err == f"error: {mapping}: mapping.schema.json: {message}\nFAILED marker written under {tmp_path / 'out'}\n"
        assert (tmp_path / "out" / "FAILED").read_text() == f"{mapping}: mapping.schema.json: {message}\n"

    @pytest.mark.parametrize("key", ["collection_start", "collection_end"])
    @pytest.mark.parametrize("text", ["2020-13-01", "2021-02-30"])
    def test_run_impossible_source_date_exit_2(self, tmp_path, capsys, key, text):
        # `YYYY-MM-DD` passes the schema's pattern; the date itself is checked when the config loads.
        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        doc = json.loads(config_path.read_text())
        doc["sources"][0][key] = text
        config_path.write_text(json.dumps(doc))
        source_id = doc["sources"][0]["source_id"]
        assert self.main("run", "--config", config_path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {config_path}: source {source_id}: {key} '{text}' is not a calendar date\n"
        assert not (tmp_path / "out").exists()

    def test_run_reversed_coverage_names_the_config(self, tmp_path, capsys):
        # The same check as the `--coverage` flag's, with the config's name in front.
        config_path = build_demo_project(tmp_path / "proj", n_2011=10, n_2016=10)
        doc = json.loads(config_path.read_text())
        doc["project"]["temporal_coverage"] = {"start": 2020, "end": 2010}
        config_path.write_text(json.dumps(doc))
        assert self.main("run", "--config", config_path, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == f"error: {config_path}: temporal coverage start is after its end\n"
        assert not (tmp_path / "out").exists()

    def test_clean_non_boolean_flag_in_indicator_sidecar_exit_2(self, tmp_path, capsys):
        # `bool("false")` is True, so a quoted flag would read as set.
        data, indicator = self.files(tmp_path, correspondence_applied="false")
        outputs = ["--out-data", tmp_path / "o.csv", "--log", tmp_path / "log.jsonl"]
        assert self.main("clean", "--data", data, "--indicator", indicator, *outputs) == 2
        message = "correspondence_applied must be true or false, not 'false'"
        assert capsys.readouterr().err == f"error: {indicator}: {message}\n"
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "log.jsonl").exists()


@contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic collector on or off, restoring the caller's state."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """`run` and `main` pause the cyclic collector and leave its state as they found it."""

    @pytest.fixture(scope="class")
    def small_project(self, tmp_path_factory):
        return build_demo_project(tmp_path_factory.mktemp("small"), n_2011=10, n_2016=10)

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_run_restores_state(self, small_project, tmp_path, enabled):
        import dataclasses

        config = dataclasses.replace(load_config(small_project), output_dir=tmp_path / "ok")
        broken = dataclasses.replace(
            config,
            output_dir=tmp_path / "failed",
            indicators=tuple(s._replace(data_path=tmp_path / "absent.csv") for s in config.indicators),
        )
        with collector(enabled):
            seen = []
            for cfg in (config, broken):
                result = run(cfg)
                seen.append((result.failed, gc.isenabled()))
        assert seen == [(False, enabled), (True, enabled)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_main_restores_state(self, small_project, tmp_path, capsys, enabled):
        from ardkit.cli import main

        table = tmp_path / "t.csv"
        table.write_text("FROM_CODE,TO_CODE,RATIO\nA,B,1\n")
        argv = ["validate-table", "--table", str(table), "--level", "SA3", "--from-edition", "2011"]
        with collector(enabled):
            seen = []
            for to_edition in ("2016", "2011"):  # valid, then identical editions: exit 2
                seen.append((main([*argv, "--to-edition", to_edition]), gc.isenabled()))
            seen.append((main(["run", "--config", str(small_project), "--out", str(tmp_path / "out")]), gc.isenabled()))
        assert seen == [(0, enabled), (2, enabled), (0, enabled)]
        assert f"error: {table}: a correspondence table needs two distinct editions" in capsys.readouterr().err

    def test_cyclic_garbage_does_not_grow_with_the_data(self, tmp_path):
        import dataclasses

        def garbage_after_run(n: int, name: str) -> int:
            config_path = build_demo_project(tmp_path / name, n_2011=n, n_2016=n)
            config = dataclasses.replace(load_config(config_path), output_dir=tmp_path / name / "out")
            gc.collect()
            with collector(False):
                assert run(config).exit_code == 0
                return gc.collect()

        garbage_after_run(10, "warm-up")  # first-use caches are not garbage of a run
        small, large = garbage_after_run(10, "small"), garbage_after_run(60, "large")
        assert large <= small


class TestCliProcess:
    def test_parser_built_once(self, tmp_path, monkeypatch):
        import ardkit.cli as cli

        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        table = tmp_path / "t.csv"
        table.write_text("FROM_CODE,TO_CODE,RATIO\nA,B,1\n")
        argv = [
            "validate-table", "--table", str(table), "--level", "SA3", "--from-edition", "2011", "--to-edition", "2016",
        ]
        assert [cli.main(argv), cli.main(argv)] == [0, 0]
        assert built == [1]

    @pytest.mark.parametrize("argv", [["--help"], ["qa", "--help"]], ids=["top", "qa"])
    def test_help_unchanged(self, capsys, argv):
        from ardkit.cli import build_parser, main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        got = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert got == capsys.readouterr().out
        assert got.startswith("usage: ardkit")

    def test_internal_error_exits_2_with_traceback(self, tmp_path, capsys, monkeypatch):
        import ardkit.cli as cli

        def broken_stage(*args, **kwargs):
            raise RuntimeError("stage broke")

        monkeypatch.setattr(cli, "privacy_stage", broken_stage)
        (tmp_path / "ind.json").write_text(json.dumps(TestBadCliInputs.INDICATOR))
        (tmp_path / "data.csv").write_text(TestBadCliInputs.DATA)
        argv = [
            "suppress", "--data", tmp_path / "data.csv", "--indicator", tmp_path / "ind.json",
            "--out-data", tmp_path / "o.csv",
        ]
        with collector(True):
            assert cli.main([str(a) for a in argv]) == 2
            assert gc.isenabled()
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: stage broke\ninternal error: RuntimeError: stage broke\n")
        assert not (tmp_path / "o.csv").exists()


class TestNoPerRecordListInJson:
    """Per-record facts go to CSV ledgers: no JSON document a run renders holds a list that grows with its records."""

    LIMIT = 100

    def long_lists(self, doc, where="$"):
        if isinstance(doc, list):
            if len(doc) > self.LIMIT:
                yield f"{where}: {len(doc)} items"
            for n, item in enumerate(doc):
                yield from self.long_lists(item, f"{where}[{n}]")
        elif isinstance(doc, dict):
            for key, value in doc.items():
                yield from self.long_lists(value, f"{where}.{key}")

    def test_rate_project_run(self, tmp_path, monkeypatch):
        import dataclasses

        from ardkit import jsonio

        # Clean raw tables: parse rejects and zero-fill lines stay few, and a stratum list has at most 80 entries.
        config_path = build_demo_project(tmp_path / "proj", messy=False, rate=True)
        real, rendered = jsonio.canonical_dumps, []

        def spy(doc):
            rendered.append(doc)
            return real(doc)

        for name, module in list(sys.modules.items()):
            if (name == "ardkit" or name.startswith("ardkit.")) and getattr(module, "canonical_dumps", None) is real:
                monkeypatch.setattr(module, "canonical_dumps", spy)
        out = tmp_path / "out"
        assert run(dataclasses.replace(load_config(config_path), output_dir=out)).exit_code in (0, 1)
        records = sum(json.loads(path.read_text())["records_out"] for path in (out / "reports").glob("*.parse.json"))
        assert records >= 2000
        assert len(rendered) >= 3 * 7  # the seven JSON reports, sidecars and metadata of each indicator
        assert [problem for doc in rendered for problem in self.long_lists(doc)] == []


class TestOneCsvRenderer:
    """Every per-record CSV a run writes is the text of one `ledger_csv` call."""

    def test_every_csv_of_a_run(self, tmp_path, monkeypatch):
        import dataclasses

        from ardkit import model

        config_path = build_demo_project(tmp_path / "proj", messy=True, rate=True)
        real, rendered = model.ledger_csv, set()

        def spy(*args):
            text = real(*args)
            rendered.add(text)
            return text

        for name, module in list(sys.modules.items()):
            if (name == "ardkit" or name.startswith("ardkit.")) and getattr(module, "ledger_csv", None) is real:
                monkeypatch.setattr(module, "ledger_csv", spy)
        out = tmp_path / "out"
        assert run(dataclasses.replace(load_config(config_path), output_dir=out)).exit_code in (0, 1)
        written = {str(path.relative_to(out)): path.read_bytes().decode("utf-8") for path in out.rglob("*.csv")}
        kinds = {name.split(".", 2)[-1] for name in written}  # names are <dir>/demo.<indicator>.<kind>
        assert kinds == {"csv", "lineage.csv", "correspondence.ledger.csv", "removals.ledger.csv"}
        assert [name for name, text in sorted(written.items()) if text not in rendered] == []
