"""Full-pipeline behavior: artifacts, determinism, exit codes, file composition."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ardkit.docs import ProvenanceLog, verify_chain
from ardkit.errors import ConfigError
from ardkit.jsonio import sha256_hex
from ardkit.pipeline import load_config, run

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
        removals = json.loads(
            (result.out_dir / "reports/demo.school_enrolments.removals.json").read_text()
        )
        assert len(removals["removed_keys"]) > 0
        # The shared-merge block pattern suppresses every tenth 2016 region.
        assert any(key.startswith("T009") for key in removals["removed_keys"])

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

    def test_seed_without_noise_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["seed"] = 7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="seed"):
            load_config(bad)

    def test_noise_without_seed_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["stages"]["privacy"]["noise_magnitude"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="no seed"):
            load_config(bad)

    def test_unknown_denominator_rejected(self, demo_project, tmp_path):
        doc = json.loads(Path(demo_project).read_text())
        doc["indicators"][0]["denominator"] = "nope"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="denominator"):
            load_config(bad)


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


class TestFileComposedStages:
    """Stage subcommands over intermediate files equal one in-process run."""

    def cli(self, *argv):
        from ardkit.cli import main

        code = main([str(a) for a in argv])
        return code

    def test_composed_equals_run(self, demo_run, tmp_path):
        config, result = demo_run
        root = config.base_dir
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
            "--config", config.base_dir / "config.json",
            "--data", work / "50.csv",
            "--indicator", work / "50.indicator.json",
            "--out", work / "docs",
        ) == 0

        pairs = [
            (work / "parse.json", out / f"reports/{ind}.parse.json"),
            (work / "cleaning.jsonl", out / f"reports/{ind}.cleaning.jsonl"),
            (work / "outcomes.json", out / f"reports/{ind}.correspondence.json"),
            (work / "privacy.json", out / f"reports/{ind}.privacy.json"),
            (work / "removals.json", out / f"reports/{ind}.removals.json"),
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


class TestRateIndicators:
    def build_rate_project(self, root: Path) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        (root / "table.csv").write_text(
            "FROM_CODE,TO_CODE,RATIO\nA,X,1\nB,X,1\n", encoding="utf-8"
        )
        (root / "population.csv").write_text(
            "SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "A,2016,0-4,male,100\nB,2016,0-4,male,300\n",
            encoding="utf-8",
        )
        (root / "attendance_rate.csv").write_text(
            "SA3CODE_11,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n"
            "A,2016,0-4,male,10\nB,2016,0-4,male,20\n",
            encoding="utf-8",
        )
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
                        "geography": {"level": "SA3", "edition": 2011},
                        "value_kind": kind,
                    }
                )
            )
        config = {
            "project": {
                "name": "rate-demo",
                "run_timestamp": "2024-06-01T00:00:00Z",
                "temporal_coverage": {"start": 2016, "end": 2016},
                "target_edition": 2016,
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


class TestOutputContainment:
    def test_artifact_paths_cannot_escape(self, tmp_path):
        from ardkit.pipeline import _write_artifacts

        with pytest.raises(ConfigError, match="escapes"):
            _write_artifacts(tmp_path / "out", {"../evil.txt": "boom"})
        assert not (tmp_path / "evil.txt").exists()


class TestCliBasics:
    def cli(self, *argv, capture=False):
        cmd = [sys.executable, "-m", "ardkit.cli", *[str(a) for a in argv]]
        return subprocess.run(cmd, capture_output=True, text=True)

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

    def test_detect_prints_draft(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("SA3CODE_16,CALENDAR_YEAR,AGE_GROUP,SEX,VALUE\n")
        proc = self.cli("ingest", "--raw", raw, "--detect")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["unconfirmed"] is True
        assert doc["level_guess"] == "SA3"

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
