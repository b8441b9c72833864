"""Seeded synthetic ardkit projects for the benchmark workloads.

Each build function writes a complete project (raw tables, schema mappings,
correspondence tables, config) from a workload seed and returns a `Project`
describing it: the logical input row count, the stage-subcommand plan that
composes through files to the same artifacts as one `ardkit run`, and what
the generator knows independently about the correct output.  The program
under test sees only the files; the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

AGES = tuple(f"{a}-{a + 4}" for a in range(0, 85, 5)) + ("85+",)
SEXES = ("female", "male")
VOCABULARY = {"age_groups": list(AGES), "sexes": list(SEXES)}

# Cleaning rules of the messy forward project: every repair class the raw
# table exhibits (padding, lower-case codes, two-digit years, duplicates).
MESSY_RULES = {
    "dedupe_policy": "sum",
    "code_case_fold": True,
    "year_format_coercions": ["YY->2000+YY"],
}
NOISE_MAGNITUDE = 2
SUPPRESSION_THRESHOLD = 5


@dataclass
class Project:
    root: Path
    config: Path
    logical_rows: int
    indicators: tuple[dict, ...]
    tables: tuple[tuple[int, int, str], ...]
    to_edition: int
    coverage: str
    rules: dict
    noise_seed: int | None
    expected: dict

    def stage_plan(self, work: Path) -> list[tuple[str, list[str]]]:
        """The stage subcommands, in order, writing under `work`."""
        root = self.root
        inputs = work / "in"
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "rules.json").write_text(json.dumps(self.rules), encoding="utf-8")
        (inputs / "vocab.json").write_text(json.dumps(VOCABULARY), encoding="utf-8")
        privacy = ["--threshold", str(SUPPRESSION_THRESHOLD)]
        if self.noise_seed is not None:
            privacy += ["--noise-magnitude", str(NOISE_MAGNITUDE), "--seed", str(self.noise_seed)]
        tables = [a for f, t, path in self.tables for a in ("--table", f"{f}:{t}:{root / path}")]
        common = ["--vocabulary", str(inputs / "vocab.json"), "--coverage", self.coverage]
        steps: dict[str, list[list[str]]] = {s: [] for s in ("ingest", "clean", "correspond", "suppress", "qa")}
        docs = ["emit-docs", "--config", str(self.config), "--out", str(work / "docs")]
        for ind in self.indicators:
            d = work / ind["id"]
            ind_json = inputs / f"{ind['id']}.json"
            ind_json.write_text(json.dumps(_indicator_doc(ind)), encoding="utf-8")
            steps["ingest"].append([
                "ingest", "--raw", str(root / ind["data"]), "--mapping", str(root / ind["mapping"]),
                "--indicator", str(ind_json), "--out-data", f"{d}.10.csv",
                "--out-indicator", f"{d}.10.json", "--report", f"{d}.parse.json",
            ])
            steps["clean"].append([
                "clean", "--data", f"{d}.10.csv", "--indicator", f"{d}.10.json",
                "--rules", str(inputs / "rules.json"), *common,
                "--out-data", f"{d}.20.csv", "--out-indicator", f"{d}.20.json",
                "--log", f"{d}.cleaning.jsonl",
            ])
            denominator = []
            if "denominator" in ind:
                den = work / ind["denominator"]
                denominator = ["--denominator-data", f"{den}.20.csv", "--denominator-indicator", f"{den}.20.json"]
            steps["correspond"].append([
                "correspond", "--data", f"{d}.20.csv", "--indicator", f"{d}.20.json",
                "--to-edition", str(self.to_edition), *tables, *denominator,
                "--out-data", f"{d}.30.csv", "--out-indicator", f"{d}.30.json",
                "--outcomes", f"{d}.outcomes.json",
            ])
            steps["suppress"].append([
                "suppress", "--data", f"{d}.30.csv", "--indicator", f"{d}.30.json", *privacy,
                "--out-data", f"{d}.40.csv", "--out-indicator", f"{d}.40.json",
                "--log", f"{d}.privacy.json",
            ])
            steps["qa"].append([
                "qa", "--data", f"{d}.40.csv", "--indicator", f"{d}.40.json",
                "--outcomes", f"{d}.outcomes.json", "--privacy-log", f"{d}.privacy.json", *common,
                "--filter-high", "--out-data", f"{d}.50.csv", "--out-indicator", f"{d}.50.json",
                "--removals", f"{d}.removals.json", "--report", f"{d}.qa.json", "--text", f"{d}.qa.txt",
            ])
            docs += ["--data", f"{d}.50.csv", "--indicator", f"{d}.50.json"]
        plan = [(name, argv) for name, argvs in steps.items() for argv in argvs]
        return plan + [("emit-docs", docs)]

    def composed_pairs(self) -> list[tuple[str, str]]:
        """(stage output relative to the work dir, run artifact relative to the out dir)."""
        pairs = [(f"docs/{name}", name) for name in ("dictionary.published.md", "dictionary.researcher.md", "dmp.md")]
        for ind in self.indicators:
            i = ind["id"]
            pairs += [
                (f"{i}.parse.json", f"reports/{i}.parse.json"),
                (f"{i}.cleaning.jsonl", f"reports/{i}.cleaning.jsonl"),
                (f"{i}.outcomes.json", f"reports/{i}.correspondence.json"),
                (f"{i}.privacy.json", f"reports/{i}.privacy.json"),
                (f"{i}.removals.json", f"reports/{i}.removals.json"),
                (f"{i}.qa.json", f"reports/{i}.qa.json"),
                (f"{i}.qa.txt", f"reports/{i}.qa.txt"),
                (f"{i}.50.csv", f"datasets/{i}.csv"),
                (f"{i}.50.json", f"datasets/{i}.indicator.json"),
                (f"docs/metadata/{i}.metadata.json", f"metadata/{i}.metadata.json"),
                (f"docs/metadata/{i}.metadata.md", f"metadata/{i}.metadata.md"),
            ]
        return pairs


def _indicator_doc(ind: dict) -> dict:
    return {k: ind[k] for k in ("id", "name", "nest_domain", "value_kind", "source_id")}


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="")


def _mapping(layout: str, code_column: str, edition: int, kind: str, years=()) -> dict:
    columns = {"geography_code": code_column, "age_group": "AGE_GROUP", "sex": "SEX"}
    doc = {
        "layout": layout,
        "columns": columns,
        "geography": {"level": "SA3", "edition": edition},
        "value_kind": kind,
        "missing_tokens": ["", "n.p."],
    }
    if layout == "long":
        columns.update(calendar_year="CALENDAR_YEAR", value="VALUE")
    else:
        doc["year_columns"] = list(years)
    return doc


def _config(name: str, coverage: tuple[int, int], target_edition: int, indicators, tables,
            stages: dict, seed: int | None) -> dict:
    doc = {
        "project": {
            "name": name,
            "run_timestamp": "2024-06-01T00:00:00Z",
            "temporal_coverage": {"start": coverage[0], "end": coverage[1]},
            "target_edition": target_edition,
            "target_level": "SA3",
            "vocabulary": VOCABULARY,
            "metadata": {
                "metadata_reference": "benchmark metadata profile v1",
                "access_rights": "open",
                "licence": "CC-BY-4.0",
                "fields_of_research": "demography",
                "socio_economic_objectives": "community wellbeing",
                "legal_ethical_requirements": "synthetic data",
            },
            "dictionary": {
                ind["id"]: {
                    "definition": f"{ind['name']} by region, year, age group, and sex.",
                    "researcher_links": {"data_files": [ind["data"]]},
                }
                for ind in indicators
            },
            "dmp_answers": {"data_storage": "project share", "data_ownership": "synthetic"},
        },
        "sources": [
            {
                "source_id": "src.bench",
                "name": "Synthetic extract",
                "custodian": "Benchmark generator",
                "access_mode": "public",
                "collection_start": f"{coverage[0]}-01-01",
                "collection_end": f"{coverage[1]}-12-31",
                "url_or_locator": "https://example.org/synthetic",
            }
        ],
        "indicators": list(indicators),
        "correspondence_tables": [
            {"path": path, "level": "SA3", "from_edition": f, "to_edition": t} for f, t, path in tables
        ],
        "stages": stages,
        "output_dir": "out",
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def build_forward_messy(root: Path, seed: int, regions: int) -> Project:
    """One count indicator, long layout at edition 2011, messy, forward to 2016.

    Counts are 0 or at least 17, so that no cell falls under the suppression
    threshold even after a 0.3 split: the pipeline then keeps its
    mass-conservation expectation and the QA rule is exercised.
    """
    rng = random.Random(f"fwd-messy:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    years = range(2011, 2016)
    table = []
    target = 0
    for i in range(regions):
        source = f"SA{i:05d}"
        if i % 3 == 0:
            table += [(source, f"TB{target:05d}", "0.3"), (source, f"TB{target + 1:05d}", "0.7")]
            target += 2
        else:
            table.append((source, f"TB{target:05d}", "1"))
            target += 1
    _write_csv(root / "table_2011_2016.csv", ("FROM_CODE", "TO_CODE", "RATIO"), table)

    rows = []
    for i in range(regions):
        for year in years:
            for age in AGES:
                for sex in SEXES:
                    code = f"SA{i:05d}"
                    if rng.random() < 0.03:
                        code = code.lower()
                    if rng.random() < 0.02:
                        code = f" {code} "
                    year_token = str(year - 2000) if rng.random() < 0.05 else str(year)
                    if rng.random() < 0.005:
                        value = "n.p."
                    elif rng.random() < 0.02:
                        value = 0
                    else:
                        value = rng.randint(17, 200)
                    rows.append((code, year_token, age, sex, value))
    rows += [rows[i] for i in sorted(rng.sample(range(len(rows)), len(rows) // 100))]
    expected_total = sum(row[4] for row in rows if row[4] != "n.p.")
    _write_csv(root / "admissions_2011.csv", ("SA3CODE_11", "CALENDAR_YEAR", "AGE_GROUP", "SEX", "VALUE"), rows)
    _write_json(root / "mapping_admissions.json", _mapping("long", "SA3CODE_11", 2011, "count"))

    indicator = {
        "id": "bench.admissions",
        "name": "Hospital admissions",
        "nest_domain": "healthy",
        "value_kind": "count",
        "source_id": "src.bench",
        "data": "admissions_2011.csv",
        "mapping": "mapping_admissions.json",
    }
    tables = ((2011, 2016, "table_2011_2016.csv"),)
    stages = {
        "clean": {"enabled": True, **MESSY_RULES},
        "correspond": {"enabled": True},
        "privacy": {"enabled": True, "threshold": SUPPRESSION_THRESHOLD},
        "qa": {"enabled": True, "max_iterations": 10},
    }
    config = root / "config.json"
    _write_json(config, _config("bench-forward", (2011, 2015), 2016, [indicator], tables, stages, None))
    return Project(
        root=root,
        config=config,
        logical_rows=len(rows),
        indicators=(indicator,),
        tables=tables,
        to_edition=2016,
        coverage="2011:2015",
        rules=MESSY_RULES,
        noise_seed=None,
        expected={"totals": {indicator["id"]: expected_total}},
    )


def build_backward_rate(root: Path, seed: int, regions: int) -> Project:
    """A count and a rate over it, wide layout at edition 2021, backward to 2016.

    The 2016->2021 table repeats a block of ten 2016 regions: seven map 1:1,
    one splits 0.4/0.6, one sends 0.05 into a target it shares with the
    tenth (a discard), and the tenth sends 0.5 into it (not rebuildable, so
    its records are suppressed, then removed at QA as high uncertainty).
    """
    rng = random.Random(f"bwd-rate:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    years = [str(y) for y in range(2017, 2022)]
    table = []
    targets = []
    u = 0
    for i in range(regions):
        source = f"TB{i:05d}"
        pos = i % 10
        if pos <= 6:
            table.append((source, f"UC{u:05d}", "1"))
            targets.append(u)
            u += 1
        elif pos == 7:
            table += [(source, f"UC{u:05d}", "0.4"), (source, f"UC{u + 1:05d}", "0.6")]
            targets += [u, u + 1]
            u += 2
        elif pos == 8:
            table += [(source, f"UC{u:05d}", "0.95"), (source, f"UC{u + 1:05d}", "0.05")]
            targets += [u, u + 1]
            u += 2
        else:
            table += [(source, f"UC{u - 1:05d}", "0.5"), (source, f"UC{u:05d}", "0.5")]
            targets.append(u)
            u += 1
    _write_csv(root / "table_2016_2021.csv", ("FROM_CODE", "TO_CODE", "RATIO"), table)

    header = ("SA3CODE_21", "AGE_GROUP", "SEX", *years)
    population, rate = [], []
    for t in targets:
        for age in AGES:
            for sex in SEXES:
                counts = [rng.randint(1, 4) if rng.random() < 0.03 else rng.randint(20, 3000) for _ in years]
                population.append((f"UC{t:05d}", age, sex, *counts))
                rate.append((f"UC{t:05d}", age, sex, *(f"{rng.randint(0, 8000) / 100:.2f}" for _ in years)))
    _write_csv(root / "population_2021.csv", header, population)
    _write_csv(root / "attendance_rate_2021.csv", header, rate)
    _write_json(root / "mapping_population.json", _mapping("wide_by_year", "SA3CODE_21", 2021, "count", years))
    _write_json(root / "mapping_rate.json", _mapping("wide_by_year", "SA3CODE_21", 2021, "rate", years))

    indicators = (
        {
            "id": "bench.attendance_rate",
            "name": "Attendance rate",
            "nest_domain": "learning",
            "value_kind": "rate",
            "source_id": "src.bench",
            "data": "attendance_rate_2021.csv",
            "mapping": "mapping_rate.json",
            "denominator": "bench.population",
        },
        {
            "id": "bench.population",
            "name": "Resident population",
            "nest_domain": "material_basics",
            "value_kind": "count",
            "source_id": "src.bench",
            "data": "population_2021.csv",
            "mapping": "mapping_population.json",
        },
    )
    tables = ((2016, 2021, "table_2016_2021.csv"),)
    stages = {
        "clean": {"enabled": True},
        "correspond": {"enabled": True},
        "privacy": {"enabled": True, "threshold": SUPPRESSION_THRESHOLD, "noise_magnitude": NOISE_MAGNITUDE},
        "qa": {"enabled": True, "max_iterations": 10},
    }
    noise_seed = 1000 + seed
    config = root / "config.json"
    _write_json(config, _config("bench-backward", (2017, 2021), 2016, indicators, tables, stages, noise_seed))
    return Project(
        root=root,
        config=config,
        logical_rows=(len(population) + len(rate)) * len(years),
        indicators=indicators,
        tables=tables,
        to_edition=2016,
        coverage="2017:2021",
        rules={},
        noise_seed=noise_seed,
        expected={
            "regions": {
                ind["id"]: sorted(f"TB{i:05d}" for i in range(regions) if i % 10 != 9)
                for ind in indicators
            }
        },
    )
