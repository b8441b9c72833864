"""Metadata, dictionary, DMP scaffold, and provenance-chain behavior."""

from __future__ import annotations

import dataclasses
import json

import pytest

from ardkit.docs import (
    Audience,
    DMP_TOPICS,
    FAIR_LAYOUT,
    GENESIS_DIGEST,
    ProvenanceLog,
    append_provenance,
    coverage_summary,
    emit_dictionary,
    emit_metadata,
    make_entry,
    scaffold_dmp,
    verify_chain,
)
from ardkit.errors import DocsError
from ardkit.jsonio import canonical_dumps, load_schema
from ardkit.model import UncertaintyLevel

from conftest import count, make_counts, make_dataset, make_indicator, make_row

FULL_CONFIG = {
    "metadata": {
        "metadata_reference": "project metadata profile v1",
        "access_rights": "open",
        "licence": "CC-BY-4.0",
        "fields_of_research": "demography",
        "socio_economic_objectives": "community wellbeing",
        "legal_ethical_requirements": "aggregate, de-identified release approved",
    },
    "dictionary": {
        "demo.count": {
            "definition": "Number of events observed in each region-year cell.",
            "researcher_links": {
                "cleaning_code": "repo/cleaning/demo.py",
                "data_files": ["raw/demo.csv"],
                "project_docs": ["docs/decisions/demo.md"],
            },
        }
    },
}


class TestMetadata:
    def dataset(self):
        return make_dataset([make_row("A", count(1), year=2006), make_row("A", count(2), year=2022)])

    def test_auto_coverage_fields(self):
        doc = emit_metadata(make_indicator(), self.dataset(), FULL_CONFIG)
        assert doc.fields["temporal_coverage"] == "2006–2022"
        assert doc.fields["geographical_coverage"] == "SA3 (ASGS2016), Australia"
        assert not doc.draft

    def test_auto_fields_match_independent_recomputation(self):
        dataset = self.dataset()
        years = sorted(set(dataset.columns.year))
        expected = f"{years[0]}–{years[-1]}"
        assert coverage_summary(dataset)[1] == expected

    def test_missing_licence_makes_draft(self):
        config = {"metadata": dict(FULL_CONFIG["metadata"])}
        del config["metadata"]["licence"]
        doc = emit_metadata(make_indicator(), self.dataset(), config)
        assert doc.draft
        assert doc.fields["licence"] == ""

    def test_publishable_with_missing_fields_fatal(self):
        config = {"metadata": dict(FULL_CONFIG["metadata"])}
        del config["metadata"]["licence"]
        with pytest.raises(DocsError, match="licence"):
            emit_metadata(make_indicator(), self.dataset(), config, publishable=True)

    def test_deterministic_machine_rendering(self):
        first = emit_metadata(make_indicator(), self.dataset(), FULL_CONFIG)
        second = emit_metadata(make_indicator(), self.dataset(), FULL_CONFIG)
        assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())

    def test_json_contains_all_element_groups(self):
        doc = emit_metadata(make_indicator(), self.dataset(), FULL_CONFIG).to_json()
        assert set(doc["findable"]) == {"title", "identifier", "metadata_reference"}
        assert set(doc["accessible"]) == {"legal_ethical_requirements", "access_rights"}
        assert set(doc["interoperable"]) == {"standard_vocabulary_note"}
        assert set(doc["reusable"]) == {
            "licence",
            "geographical_coverage",
            "temporal_coverage",
            "fields_of_research",
            "socio_economic_objectives",
        }

    def test_single_year_coverage(self):
        dataset = make_counts({"A": 1})
        doc = emit_metadata(make_indicator(), dataset, FULL_CONFIG)
        assert doc.fields["temporal_coverage"] == "2016"

    def test_schema_states_the_layout_table(self):
        # The schema is the one other statement of the layout: same groups, same fields, same order.
        schema = load_schema("metadata.schema.json")
        groups = [(key, list(group["properties"])) for key, group in schema["properties"].items() if "properties" in group]
        assert groups == [(key, [name for name, _ in fields]) for key, _, fields in FAIR_LAYOUT]
        for key, fields in groups:
            assert schema["properties"][key]["required"] == fields


class TestDictionary:
    def indicators(self):
        return [
            dataclasses.replace(
                make_indicator(),
                correspondence_applied=True,
                max_uncertainty=UncertaintyLevel.MEDIUM,
            )
        ]

    def test_published_omits_researcher_block_entirely(self):
        text = emit_dictionary(self.indicators(), FULL_CONFIG, Audience.PUBLISHED)
        assert "Researcher-only" not in text
        assert "repo/cleaning/demo.py" not in text
        assert "raw/demo.csv" not in text
        assert "docs/decisions/demo.md" not in text

    def test_researcher_view_includes_links(self):
        text = emit_dictionary(self.indicators(), FULL_CONFIG, Audience.RESEARCHER)
        assert "repo/cleaning/demo.py" in text
        assert "raw/demo.csv" in text

    def test_published_fields_present(self):
        text = emit_dictionary(self.indicators(), FULL_CONFIG, Audience.PUBLISHED)
        for fragment in (
            "Variable name:",
            "Definition:",
            "Variable type: count",
            "Data source:",
            "Temporal correspondence applied: yes",
            "Uncertainty present: 1 (medium)",
        ):
            assert fragment in text

    def test_uncertainty_level_propagates_to_both_views(self):
        for audience in Audience:
            text = emit_dictionary(self.indicators(), FULL_CONFIG, audience)
            assert "Uncertainty present: 1 (medium)" in text

    def test_legend_explains_levels(self):
        text = emit_dictionary(self.indicators(), FULL_CONFIG, Audience.PUBLISHED)
        assert "Uncertainty levels:" in text


class TestDmp:
    def test_empty_config_leaves_all_topics_open(self):
        text = scaffold_dmp({})
        assert len(DMP_TOPICS) == 14
        assert text.count("OPEN") >= 14
        for _, title, _ in DMP_TOPICS:
            assert f"## {title}" in text

    def test_answered_topics_counted(self):
        config = {"dmp_answers": {"data_storage": "encrypted project share", "data_ownership": "statistics office"}}
        text = scaffold_dmp(config)
        open_headers = [line for line in text.splitlines() if line.endswith("— OPEN")]
        assert len(open_headers) == 12

    def test_regeneration_identical(self):
        config = {"dmp_answers": {"metadata": "profile applied"}}
        assert scaffold_dmp(config) == scaffold_dmp(config)

    def test_every_topic_has_prompts(self):
        for _, _, questions in DMP_TOPICS:
            assert questions


class TestProvenance:
    def entry(self, log, stage="ingest", text="parsed raw table"):
        return make_entry(
            log,
            timestamp="2024-01-01T00:00:00Z",
            actor="pipeline",
            stage=stage,
            decision_text=text,
            input_digests=("a" * 64,),
            output_digests=("b" * 64,),
            tool_version="0.1.0",
        )

    def test_first_append(self):
        log = ProvenanceLog()
        entry = self.entry(log)
        appended = append_provenance(log, entry)
        assert len(appended.entries) == 1
        assert entry.prev_digest == GENESIS_DIGEST
        assert verify_chain(appended) == (True, None)

    def test_order_preserved(self):
        log = ProvenanceLog()
        log = append_provenance(log, self.entry(log, stage="ingest"))
        log = append_provenance(log, self.entry(log, stage="clean"))
        assert [e.stage for e in log.entries] == ["ingest", "clean"]
        assert verify_chain(log) == (True, None)

    def test_tampered_middle_entry_detected_at_index(self):
        log = ProvenanceLog()
        for stage in ("ingest", "clean", "qa"):
            log = append_provenance(log, self.entry(log, stage=stage))
        tampered = log.entries[1]._replace(decision_text="rewritten history")
        broken = ProvenanceLog((log.entries[0], tampered, log.entries[2]))
        ok, index = verify_chain(broken)
        assert not ok and index == 1

    def test_forked_append_rejected(self):
        log = ProvenanceLog()
        log = append_provenance(log, self.entry(log))
        stale = ProvenanceLog()
        entry = self.entry(stale)
        with pytest.raises(DocsError, match="tampered or forked"):
            append_provenance(log, entry)

    def test_jsonl_round_trip_with_header(self):
        log = ProvenanceLog()
        log = append_provenance(log, self.entry(log))
        text = log.to_jsonl()
        first_line = text.splitlines()[0]
        assert "digest_algorithm" in first_line and "sha256" in first_line
        assert ProvenanceLog.from_jsonl(text) == log

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0", "entry is not a JSON object"),
            ("x", "not valid JSON"),
            ('{"a":1}', "timestamp must be a string"),
            ('{"op":"set","row":"a","rule":"r"}', "timestamp must be a string"),
        ],
    )
    def test_bad_entry_line_is_named(self, line, message):
        log = ProvenanceLog()
        text = append_provenance(log, self.entry(log)).to_jsonl() + line + "\n"
        with pytest.raises(DocsError, match=f"provenance log line 3: .*{message}"):
            ProvenanceLog.from_jsonl(text)

    @pytest.mark.parametrize("line", ["0", "x", '{"a":1}', '["ardkit-provenance/1"]'])
    def test_bad_header_line_is_named(self, line):
        with pytest.raises(DocsError, match="provenance log line 1: "):
            ProvenanceLog.from_jsonl(line + "\n")

    def test_digest_list_of_the_wrong_shape_is_named(self):
        log = ProvenanceLog()
        header, line = append_provenance(log, self.entry(log)).to_jsonl().splitlines()
        doc = json.loads(line)
        doc["input_digests"] = "a" * 64
        with pytest.raises(DocsError, match="provenance log line 2: input_digests must be a list of strings"):
            ProvenanceLog.from_jsonl(f"{header}\n{json.dumps(doc)}\n")
