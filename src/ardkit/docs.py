"""Documentation artifacts: metadata, data dictionary, DMP scaffold, provenance.

Metadata documents group their elements under the four FAIR headings
(findable, accessible, interoperable, reusable), laid out once in
`FAIR_LAYOUT`; coverage fields are computed from the dataset, the rest
comes from project configuration, and a document with an empty field is a
draft.  The dictionary is rendered straight from the indicators and the
project's dictionary configuration, for two audiences: the published view
never contains the researcher-only links block.  The provenance log is an
append-only JSON-lines file whose entries chain a digest of their
predecessor, so any mutation of history is detectable.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DocsError
from .jsonio import compact_dumps, parse_json, sha256_hex
from .model import Dataset, Indicator

EN_DASH = "–"

# The FAIR layout, stated once: (JSON group, Markdown heading,
# ((field, Markdown label), ...)).  The JSON document, the Markdown
# rendering and the missing-field check all walk this table.
FAIR_LAYOUT: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    ("findable", "Findable", (
        ("title", "Title"),
        ("identifier", "Identifier"),
        ("metadata_reference", "Metadata reference"),
    )),
    ("accessible", "Accessible", (
        ("legal_ethical_requirements", "Legal and ethical requirements"),
        ("access_rights", "Access rights"),
    )),
    ("interoperable", "Interoperable", (
        ("standard_vocabulary_note", "Standard vocabulary"),
    )),
    ("reusable", "Reusable", (
        ("licence", "Licence"),
        ("geographical_coverage", "Geographical coverage"),
        ("temporal_coverage", "Temporal coverage"),
        ("fields_of_research", "Fields of research"),
        ("socio_economic_objectives", "Socio-economic objectives"),
    )),
)


class MetadataDoc(NamedTuple):
    """FAIR metadata for one published dataset; `fields` holds every FAIR_LAYOUT field."""

    indicator_id: str
    variable_type: str
    draft: bool
    fields: Mapping[str, str]

    def missing_fields(self) -> tuple[str, ...]:
        return tuple(name for _, _, group in FAIR_LAYOUT for name, _ in group if not self.fields[name])

    def to_json(self) -> dict:
        doc = {"indicator_id": self.indicator_id, "draft": self.draft, "variable_type": self.variable_type}
        for key, _, group in FAIR_LAYOUT:
            doc[key] = {name: self.fields[name] for name, _ in group}
        return doc

    def to_markdown(self) -> str:
        status = " (draft)" if self.draft else ""
        lines = [f"# Metadata: {self.fields['title'] or self.indicator_id}{status}", ""]
        for _, heading, group in FAIR_LAYOUT:
            lines.append(f"## {heading}")
            lines.extend(f"- {label}: {self.fields[name]}" for name, label in group)
            lines.append("")
        lines.append(f"Variable type: {self.variable_type}")
        return "\n".join(lines) + "\n"


def coverage_summary(dataset: Dataset) -> tuple[str, str]:
    """(geographical, temporal) coverage strings computed from the data."""
    geographical = f"{dataset.level.value} (ASGS{int(dataset.edition)}), Australia"
    years = dataset.years()
    if not years:
        return geographical, ""
    if years[0] == years[-1]:
        return geographical, str(years[0])
    return geographical, f"{years[0]}{EN_DASH}{years[-1]}"


def emit_metadata(
    indicator: Indicator,
    dataset: Dataset,
    project_config: Mapping,
    *,
    publishable: bool = False,
) -> MetadataDoc:
    """Build the metadata document; publishable mode refuses missing fields."""
    config = project_config.get("metadata", {})
    defaults = {
        "title": indicator.name,
        "identifier": f"ard:{indicator.id}",
        "standard_vocabulary_note": "Compiled in the project's standardized record format with controlled filter vocabulary.",
    }
    fields = {name: config.get(name, defaults.get(name, "")) for _, _, group in FAIR_LAYOUT for name, _ in group}
    fields["geographical_coverage"], fields["temporal_coverage"] = coverage_summary(dataset)
    doc = MetadataDoc(indicator.id, indicator.value_kind.value, False, fields)
    missing = doc.missing_fields()
    if missing:
        if publishable:
            raise DocsError(f"metadata not publishable; missing fields: {', '.join(missing)}")
        doc = doc._replace(draft=True)
    return doc


class Audience(enum.Enum):
    PUBLISHED = "published"
    RESEARCHER = "researcher"


UNCERTAINTY_LEGEND = (
    "Uncertainty levels: 0 = no approximation touched the value; "
    "1 = boundary conversion discarded only contributions below the discard "
    "threshold (10% by default) or counted a missing input as zero; "
    "2 = the value could not be reconstructed and was suppressed. "
    "Level-2 records are removed before release; levels 0 and 1 are retained."
)


def emit_dictionary(
    indicators: Sequence[Indicator],
    project_config: Mapping,
    audience: Audience,
) -> str:
    """Render the dictionary for one audience as Markdown."""
    per_indicator = project_config.get("dictionary", {})
    lines = [
        f"# Data dictionary ({audience.value} view)",
        "",
        UNCERTAINTY_LEGEND,
        "",
    ]
    for indicator in sorted(indicators, key=lambda i: i.id):
        entry = per_indicator.get(indicator.id, {})
        level = indicator.max_uncertainty
        lines.extend(
            [
                f"## {indicator.name}",
                "",
                f"- Variable name: {indicator.name}",
                f"- Definition: {entry.get('definition', '')}",
                f"- Variable type: {indicator.value_kind.value}",
                f"- Data source: {entry.get('data_source', indicator.source_id)}",
                f"- Temporal correspondence applied: {'yes' if indicator.correspondence_applied else 'no'}",
                f"- Uncertainty present: {int(level)} ({level.name.lower()})",
            ]
        )
        if audience is Audience.RESEARCHER:
            links = entry.get("researcher_links", {})
            lines.extend(
                [
                    "- Researcher-only links:",
                    f"  - Cleaning code: {links.get('cleaning_code', '')}",
                    f"  - Data files: {', '.join(links.get('data_files', ()))}",
                    f"  - Project documentation: {', '.join(links.get('project_docs', ()))}",
                ]
            )
        lines.append("")
    return "\n".join(lines)


DMP_TOPICS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("data_discovery", "Data discovery", (
        "What type of data will the project collect?",
    )),
    ("data_description", "Data description", (
        "Describe the data to be collected: specifications, participants, and characteristics.",
    )),
    ("data_collection", "Data collection", (
        "Who is responsible for collecting the data, and where does collection occur?",
        "Is special equipment required?",
        "What are the expected data characteristics?",
        "What are the start and end dates of collection?",
        "What volume of data is expected?",
    )),
    ("data_organisation", "Data organisation", (
        "How will received data be stored, catalogued, and documented?",
        "Are quality-control measures in place on receipt?",
    )),
    ("data_preservation", "Data preservation procedures", (
        "Do preservation obligations extend beyond the life of the project?",
    )),
    ("data_storage", "Data storage", (
        "Where will the data be stored?",
        "Does the chosen storage account for data loss?",
    )),
    ("data_volume", "Data volume", (
        "What data volume is expected over the project?",
        "Can the chosen storage handle that volume?",
    )),
    ("data_loss_procedures", "Data loss procedures", (
        "Are multiple storage options in place to prevent loss?",
        "If loss occurs, what recovery measures apply?",
    )),
    ("data_privacy_confidentiality", "Data privacy and confidentiality", (
        "Have participant privacy and confidentiality been considered, including ethics approval?",
        "Is the residual risk to participants low, and how was it minimised?",
    )),
    ("data_ownership", "Data ownership", (
        "Which organisation or individual owns the collected data?",
    )),
    ("quality_assurance", "Quality assurance", (
        "What quality-assurance procedures are in place?",
    )),
    ("documentation", "Documentation", (
        "Where are decisions about collection and processing recorded, and by whom?",
        "Which decisions must be documented?",
    )),
    ("dissemination", "Dissemination", (
        "Will the data be disseminated, and through which channels?",
        "Have legal, licensing, and ethical requirements been considered?",
    )),
    ("metadata", "Metadata", (
        "Have metadata principles been applied so the data is easy to find and reuse?",
    )),
)


def scaffold_dmp(project_config: Mapping) -> str:
    """Data-management-plan scaffold: every topic, its prompts, answers or OPEN."""
    answers = project_config.get("dmp_answers", {})
    name = project_config.get("name", "unnamed project")
    lines = [
        f"# Data management plan: {name}",
        "",
        "Complete every topic before collection begins; revisit the plan at "
        "least annually. Ethics approval, governance obligations, and storage "
        "decisions belong here before any data is touched.",
        "",
    ]
    for key, title, questions in DMP_TOPICS:
        answer = answers.get(key, "")
        status = "" if answer else " — OPEN"
        lines.append(f"## {title}{status}")
        lines.append("")
        for question in questions:
            lines.append(f"- {question}")
        lines.append("")
        lines.append(f"Answer: {answer if answer else 'OPEN'}")
        lines.append("")
    return "\n".join(lines)


GENESIS_DIGEST = "0" * 64
PROVENANCE_HEADER = {"format": "ardkit-provenance/1", "digest_algorithm": "sha256"}


class ProvenanceEntry(NamedTuple):
    timestamp: str
    actor: str
    stage: str
    decision_text: str
    input_digests: tuple[str, ...]
    output_digests: tuple[str, ...]
    tool_version: str
    prev_digest: str
    digest: str

    def body(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "actor": self.actor,
            "stage": self.stage,
            "decision_text": self.decision_text,
            "input_digests": list(self.input_digests),
            "output_digests": list(self.output_digests),
            "tool_version": self.tool_version,
            "prev_digest": self.prev_digest,
        }

    def expected_digest(self) -> str:
        return sha256_hex(compact_dumps(self.body()))

    def to_json(self) -> dict:
        doc = self.body()
        doc["digest"] = self.digest
        return doc

    @classmethod
    def from_json(cls, doc, where: str = "provenance entry") -> "ProvenanceEntry":
        """Build from one entry's document; a wrongly shaped one raises DocsError naming `where`."""
        if not isinstance(doc, Mapping):
            raise DocsError(f"{where}: entry is not a JSON object")
        for key in _ENTRY_TEXT_KEYS:
            if not isinstance(doc.get(key), str):
                raise DocsError(f"{where}: {key} must be a string, not {doc.get(key)!r}")
        for key in ("input_digests", "output_digests"):
            if not isinstance(doc.get(key), list) or not all(isinstance(d, str) for d in doc[key]):
                raise DocsError(f"{where}: {key} must be a list of strings, not {doc.get(key)!r}")
        return cls(
            **{key: doc[key] for key in _ENTRY_TEXT_KEYS},
            input_digests=tuple(doc["input_digests"]),
            output_digests=tuple(doc["output_digests"]),
        )


_ENTRY_TEXT_KEYS = ("timestamp", "actor", "stage", "decision_text", "tool_version", "prev_digest", "digest")


class ProvenanceLog(NamedTuple):
    entries: tuple[ProvenanceEntry, ...] = ()

    @property
    def head_digest(self) -> str:
        return self.entries[-1].digest if self.entries else GENESIS_DIGEST

    def to_jsonl(self) -> str:
        lines = [compact_dumps(PROVENANCE_HEADER)]
        lines.extend(compact_dumps(entry.to_json()) for entry in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ProvenanceLog":
        """Parse a log; a line that is not the header or one entry raises DocsError naming it."""
        lines = [(f"provenance log line {n}", line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
        if not lines:
            raise DocsError("provenance log is empty; expected a header line")
        where, line = lines[0]
        header = parse_json(line, DocsError, where)
        if not isinstance(header, Mapping) or header.get("format") != PROVENANCE_HEADER["format"]:
            raise DocsError(f"{where}: not a {PROVENANCE_HEADER['format']} header")
        entries = (ProvenanceEntry.from_json(parse_json(line, DocsError, where), where) for where, line in lines[1:])
        return cls(tuple(entries))


def make_entry(
    log: ProvenanceLog,
    *,
    timestamp: str,
    actor: str,
    stage: str,
    decision_text: str,
    input_digests: Iterable[str] = (),
    output_digests: Iterable[str] = (),
    tool_version: str = "",
) -> ProvenanceEntry:
    """Build an entry chained onto the log's current head."""
    entry = ProvenanceEntry(
        timestamp=timestamp,
        actor=actor,
        stage=stage,
        decision_text=decision_text,
        input_digests=tuple(input_digests),
        output_digests=tuple(output_digests),
        tool_version=tool_version,
        prev_digest=log.head_digest,
        digest="",
    )
    return entry._replace(digest=entry.expected_digest())


def append_provenance(log: ProvenanceLog, entry: ProvenanceEntry) -> ProvenanceLog:
    """Append one entry; a mismatched chain or digest is fatal."""
    if entry.prev_digest != log.head_digest or entry.digest != entry.expected_digest():
        raise DocsError("provenance log tampered or forked")
    return ProvenanceLog((*log.entries, entry))


def verify_chain(log: ProvenanceLog) -> tuple[bool, int | None]:
    """Check every entry's digest and linkage; returns (ok, first bad index)."""
    prev = GENESIS_DIGEST
    for index, entry in enumerate(log.entries):
        if entry.prev_digest != prev or entry.digest != entry.expected_digest():
            return False, index
        prev = entry.digest
    return True, None
