"""Builds a complete demo project on disk: raw tables, mappings, tables, config.

Two indicators, three boundary editions: counts collected at the 2011
edition flow forward to 2016; counts collected at the 2021 edition flow
backward to 2016 through the 2016->2021 table, whose merge shapes exercise
exact reconstruction, sub-threshold discards, and suppression.  The raw
tables carry deterministic messiness (whitespace, missing tokens, a
duplicate pair, a bad year) for cleaning and parse reporting to chew on.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

AGES = ("0-4", "5-9", "10-14", "15-19")
SEXES = ("male", "female")


def forward_table_rows(n_sources=60):
    """2011->2016: the first 40 regions map 1:1, the rest split 0.3/0.7."""
    rows = []
    for i in range(n_sources):
        source = f"S{i:03d}"
        if i < 40:
            rows.append((source, f"T{i:03d}", "1"))
        else:
            rows.append((source, f"T{i:03d}", "0.3"))
            rows.append((source, f"T{i + 20:03d}", "0.7"))
    return rows


def backward_table_rows(n_sources=100):
    """2016->2021 in blocks of ten sources.

    Within each block: seven map 1:1, one splits in two, and two share a
    target (one at ratio 0.05, reconstructable with a discard; one at 0.5,
    suppressed on the way back).
    """
    rows = []
    targets = []
    u = 0
    for i in range(n_sources):
        source = f"T{i:03d}"
        pos = i % 10
        if pos <= 6:
            rows.append((source, f"U{u:03d}", "1"))
            targets.append(f"U{u:03d}")
            u += 1
        elif pos == 7:
            rows.append((source, f"U{u:03d}", "0.4"))
            rows.append((source, f"U{u + 1:03d}", "0.6"))
            targets.extend((f"U{u:03d}", f"U{u + 1:03d}"))
            u += 2
        elif pos == 8:
            # shares U{u+1} with the pos==9 source of the same block
            rows.append((source, f"U{u:03d}", "0.95"))
            rows.append((source, f"U{u + 1:03d}", "0.05"))
            targets.extend((f"U{u:03d}", f"U{u + 1:03d}"))
            u += 2
        else:
            rows.append((source, f"U{u - 1:03d}", "0.5"))
            rows.append((source, f"U{u:03d}", "0.5"))
            targets.append(f"U{u:03d}")
            u += 1
    return rows, targets


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def build_demo_project(root: Path, *, n_2011=60, n_2016=100, messy=True, rate=False) -> Path:
    """Write the demo project under `root`; returns the config path.

    With rate=True a third indicator, an enrolment rate at the 2021 edition
    whose denominator is the enrolment count, goes backward with it.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(20240601)

    fwd_rows = forward_table_rows(n_2011)
    bwd_rows, u_targets = backward_table_rows(n_2016)
    _write_csv(root / "table_2011_2016.csv", ("FROM_CODE", "TO_CODE", "RATIO"), fwd_rows)
    _write_csv(root / "table_2016_2021.csv", ("FROM_CODE", "TO_CODE", "RATIO"), bwd_rows)

    # Indicator 1: long layout, 2011 edition, years 2007-2016.
    rows = []
    for i in range(n_2011):
        code = f"S{i:03d}"
        for year in range(2007, 2017):
            for age in AGES:
                for sex in SEXES:
                    value = rng.randint(0, 400)
                    if rng.random() < 0.03:
                        value = rng.randint(1, 4)
                    cell_code = code
                    if messy and rng.random() < 0.02:
                        cell_code = f" {code} "
                    cell_value = "n.p." if messy and rng.random() < 0.005 else value
                    rows.append((cell_code, year, age, sex, cell_value))
    if messy:
        rows.append(("S000", "20xx", "0-4", "male", 3))  # rejected: bad year
        rows.append(("S001", 2007, "0-4", "male", 2))  # duplicate key, summed
    _write_csv(root / "hospital_visits_2011.csv", ("SA3CODE_11", "CALENDAR_YEAR", "AGE_GROUP", "SEX", "VALUE"), rows)

    # Indicator 2: wide layout, 2021 edition, years 2017-2021.
    wide_years = [str(y) for y in range(2017, 2022)]
    rows = []
    for code in u_targets:
        for age in AGES:
            for sex in SEXES:
                values = [rng.randint(0, 400) for _ in wide_years]
                if messy and rng.random() < 0.004:
                    values[rng.randrange(len(values))] = "n.p."
                rows.append((code, age, sex, *values))
    _write_csv(root / "school_enrolments_2021.csv", ("SA3CODE_21", "AGE_GROUP", "SEX", *wide_years), rows)

    (root / "mapping_long_2011.json").write_text(
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
                "value_kind": "count",
                "missing_tokens": ["", "n.p."],
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    (root / "mapping_wide_2021.json").write_text(
        json.dumps(
            {
                "layout": "wide_by_year",
                "columns": {
                    "geography_code": "SA3CODE_21",
                    "age_group": "AGE_GROUP",
                    "sex": "SEX",
                },
                "geography": {"level": "SA3", "edition": 2021},
                "value_kind": "count",
                "missing_tokens": ["", "n.p."],
                "year_columns": wide_years,
            },
            indent=2,
        ),
        encoding="utf-8",
    )

    config = {
        "project": {
            "name": "demo-wellbeing",
            "run_timestamp": "2024-06-01T00:00:00Z",
            "temporal_coverage": {"start": 2007, "end": 2021},
            "target_edition": 2016,
            "target_level": "SA3",
            "vocabulary": {
                "age_groups": list(AGES),
                "sexes": list(SEXES),
                "marginal_tokens": ["total", "all", "persons"],
            },
            "metadata": {
                "metadata_reference": "project metadata profile v1",
                "access_rights": "open",
                "licence": "CC-BY-4.0",
                "fields_of_research": "demography; public health",
                "socio_economic_objectives": "community wellbeing",
                "legal_ethical_requirements": "aggregate, de-identified release approved",
            },
            "dictionary": {
                "demo.hospital_visits": {
                    "definition": "Count of hospital attendances by region, year, age group, and sex.",
                    "researcher_links": {
                        "cleaning_code": "cleaning/hospital_visits.py",
                        "data_files": ["hospital_visits_2011.csv"],
                        "project_docs": ["decisions/hospital_visits.md"],
                    },
                },
                "demo.school_enrolments": {
                    "definition": "Count of school enrolments by region, year, age group, and sex.",
                    "researcher_links": {
                        "cleaning_code": "cleaning/school_enrolments.py",
                        "data_files": ["school_enrolments_2021.csv"],
                        "project_docs": ["decisions/school_enrolments.md"],
                    },
                },
            },
            "dmp_answers": {
                "data_storage": "encrypted project share with nightly backup",
                "data_ownership": "the contributing statistics office",
            },
        },
        "sources": [
            {
                "source_id": "src.health",
                "name": "Hospital attendance extract",
                "custodian": "Health statistics unit",
                "access_mode": "request",
                "collection_start": "2007-01-01",
                "collection_end": "2016-12-31",
                "url_or_locator": "request://health-unit/hospital-visits",
            },
            {
                "source_id": "src.education",
                "name": "School enrolment extract",
                "custodian": "Education statistics unit",
                "access_mode": "public",
                "collection_start": "2017-01-01",
                "collection_end": "2021-12-31",
                "url_or_locator": "https://example.org/enrolments",
            },
        ],
        "indicators": [
            {
                "id": "demo.hospital_visits",
                "name": "Hospital attendances",
                "nest_domain": "healthy",
                "value_kind": "count",
                "source_id": "src.health",
                "data": "hospital_visits_2011.csv",
                "mapping": "mapping_long_2011.json",
            },
            {
                "id": "demo.school_enrolments",
                "name": "School enrolments",
                "nest_domain": "learning",
                "value_kind": "count",
                "source_id": "src.education",
                "data": "school_enrolments_2021.csv",
                "mapping": "mapping_wide_2021.json",
            },
        ],
        "correspondence_tables": [
            {"path": "table_2011_2016.csv", "level": "SA3", "from_edition": 2011, "to_edition": 2016},
            {"path": "table_2016_2021.csv", "level": "SA3", "from_edition": 2016, "to_edition": 2021},
        ],
        "stages": {
            "clean": {"enabled": True, "dedupe_policy": "sum"},
            "correspond": {"enabled": True, "discard_threshold": 0.1},
            "privacy": {"enabled": True, "threshold": 5},
            "qa": {"enabled": True, "max_iterations": 10},
        },
        "output_dir": "out",
        "round_counts": False,
    }
    if rate:
        rows = []
        for code in u_targets:
            for age in AGES:
                for sex in SEXES:
                    values = [f"{rng.uniform(0, 100):.1f}" for _ in wide_years]
                    if messy and rng.random() < 0.004:
                        values[rng.randrange(len(values))] = "n.p."
                    rows.append((code, age, sex, *values))
        _write_csv(root / "enrolment_rate_2021.csv", ("SA3CODE_21", "AGE_GROUP", "SEX", *wide_years), rows)
        mapping = json.loads((root / "mapping_wide_2021.json").read_text(encoding="utf-8"))
        (root / "mapping_rate_2021.json").write_text(json.dumps({**mapping, "value_kind": "rate"}), encoding="utf-8")
        config["indicators"].append(
            {
                "id": "demo.enrolment_rate",
                "name": "School enrolment rate",
                "nest_domain": "learning",
                "value_kind": "rate",
                "source_id": "src.education",
                "data": "enrolment_rate_2021.csv",
                "mapping": "mapping_rate_2021.json",
                "denominator": "demo.school_enrolments",
            }
        )
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path
