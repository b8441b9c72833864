"""ardkit benchmark: seeded batch workloads, end-to-end and per-layer metrics.

Run from the root of an ardkit checkout:

    python3 perfbench/run.py --workload fwd-messy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

For each workload the harness generates a seeded project under
`.perfbench/`, then repeats, one child process at a time, an `ardkit run`
of the project and the same pipeline composed from the stage subcommands.
Every repetition passes a correctness gate (exit codes, byte-identical
reruns, composition equal to `run`, conservation and expected contents).
Timings are medians in reference seconds: each is scaled by a fixed probe
job timed in the same child, so host contention cancels (perfbench/README.md).
`--trace 1` adds traced repetitions that report the per-layer metrics.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Metric names
and units are those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from projects import Project, build_backward_rate, build_forward_messy  # noqa: E402
from tracing import layer_metrics  # noqa: E402

MIN_REPS = 3
TRACED_REPS = 3
CHILD_TIMEOUT_S = 150
# Timings are reported in reference seconds: each is divided by the time the
# same child took for a fixed probe job (child._probe) and multiplied by this.
PROBE_REF_S = 0.1
MB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    build: Callable[[Path, int, int], Project]
    regions: int
    primary: str  # the path the traced repetitions follow: "run" or "stages"


# Region counts keep each repetition near one second on a 2-core machine, so
# that a run holds enough repetitions for a steady median.
WORKLOADS = {
    "fwd-messy": Workload(build_forward_messy, 36, "run"),
    "bwd-rate": Workload(build_backward_rate, 20, "run"),
    "stages-cli": Workload(build_forward_messy, 12, "stages"),
}


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(root).as_posix()}\0".encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def tree_bytes(root: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in root.rglob(pattern) if p.is_file())


def _data_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def content_problems(project: Project, out: Path) -> list[str]:
    """Checks from what the generator knows, independent of ardkit's own QA."""
    problems = []
    for report in sorted(out.glob("reports/*.qa.json")):
        for finding in json.loads(report.read_text(encoding="utf-8"))["findings"]:
            if finding["rule_id"] == "mass-conservation" and finding["severity"] == "error":
                problems.append(f"{report.name}: mass-conservation error: {finding['message']}")
    for ind, expected in project.expected.get("totals", {}).items():
        rows = _data_rows(out / "datasets" / f"{ind}.csv")
        total = sum(float(row[4]) for row in rows if row[4] not in ("", "S"))
        if abs(total - expected) > 1e-6 * max(1, expected):
            problems.append(f"{ind}: output total {total} differs from the input total {expected}")
    for ind, expected in project.expected.get("regions", {}).items():
        codes = sorted({row[0] for row in _data_rows(out / "datasets" / f"{ind}.csv")})
        if codes != expected:
            problems.append(f"{ind}: {len(codes)} output regions, expected {len(expected)}")
    return problems


def reference_seconds(result: dict, seconds: float) -> float:
    """`seconds`, measured in a child, scaled to a host on which that child's probe takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / result["probe_s"]


def median(values):
    return statistics.median(values) if values else None


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it, when above the median."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11
    if index < (n - 1) // 2 + 1:
        return f"n={n}; no percentile above the median has 10 samples beyond it"
    return f"p{100 * (index + 1) // n}={ordered[index]:.6g} (n={n})"


class Bench:
    """One workload at one seed: project, child processes, gate, metrics."""

    def __init__(self, root: Path, name: str, seed: int, regions: int | None, work_root: Path):
        self.root = root
        self.workload = WORKLOADS[name]
        self.work = work_root / f"{name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        start = perf_counter()
        self.project = self.workload.build(self.work / "project", seed, regions or self.workload.regions)
        self.generation_s = perf_counter() - start
        self.out = self.work / "out"
        self.stages_dir = self.work / "stages"
        self.primary_tree = self.out if self.workload.primary == "run" else self.stages_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, mode: str, **request) -> dict:
        request_path = self.work / "request.json"
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        request_path.write_text(json.dumps({"mode": mode, **request}), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(request_path), str(result_path)],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} child exceeded {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result_path.is_file():
            lines = proc.stderr.strip().splitlines()
            return {"error": f"{mode} child exited {proc.returncode}: {lines[-1] if lines else ''}"}
        return json.loads(result_path.read_text(encoding="utf-8"))

    def _run(self, trace: bool = False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        return self.child("run", config=str(self.project.config), out=str(self.out), trace=trace)

    def _stages(self, trace: bool = False) -> dict:
        shutil.rmtree(self.stages_dir, ignore_errors=True)
        return self.child("stages", config=str(self.project.config),
                          plan=self.project.stage_plan(self.stages_dir), trace=trace)

    def _record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def repetition(self) -> dict:
        """`run` and the composed stages, each in a fresh process that first times its set-up."""
        run, stages = self._run(), self._stages()
        problems = []
        for label, result in (("run", run), ("stages", stages)):
            if "error" in result:
                problems.append(result["error"])
            elif any(code not in (0, 1) for code in result.get("codes", ())):
                problems.append(f"{label} exit codes {result['codes']}")
        if not problems:
            digests = {"run": tree_digest(self.out), "stages": tree_digest(self.stages_dir)}
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems.append("artifact tree differs from the first repetition of this seed")
            for composed, artifact in self.project.composed_pairs():
                a, b = self.stages_dir / composed, self.out / artifact
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    problems.append(f"composed {composed} differs from run artifact {artifact}")
            problems += content_problems(self.project, self.out)
        if not self._record(problems):
            return {"ok": False}
        return {
            "ok": True,
            "wall": {"run_s": run["seconds"], "stages_s": stages["seconds"],
                     "setup_s": [run["setup_s"], stages["setup_s"]]},
            "run_s": reference_seconds(run, run["seconds"]),
            "stages_s": reference_seconds(stages, stages["seconds"]),
            "setup_s": [reference_seconds(run, run["setup_s"]), reference_seconds(stages, stages["setup_s"])],
            "peak_rss_mb": run["peak_rss_mb"],
            "artifact_mb": tree_bytes(self.primary_tree) / MB,
        }

    def traced(self, untraced_s: float) -> tuple[dict, list[str], dict | None]:
        """One traced repetition of the primary path; its bytes must match the untraced ones."""
        primary, tree = self.workload.primary, self.primary_tree
        result = self._run(trace=True) if primary == "run" else self._stages(trace=True)
        if "error" in result:
            self._record([result["error"]])
            return {}, [], None
        problems = []
        if any(code not in (0, 1) for code in result["codes"]):
            problems.append(f"traced {primary} exit codes {result['codes']}")
        elif self.reference is not None and tree_digest(tree) != self.reference[primary]:
            problems.append(f"traced {primary} artifact tree differs from the untraced one")
        self._record(problems)
        report_bytes = {
            "ingest.report_bytes": tree_bytes(tree, "*.parse.json"),
            "correspondence.report_bytes": tree_bytes(tree, "*.correspondence.json")
            + tree_bytes(tree, "*.outcomes.json"),
        }
        metrics, warnings = layer_metrics(result["trace"], report_bytes)
        metrics["trace.overhead_s"] = result["seconds"] - untraced_s
        return metrics, warnings, result["trace"]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 declared: dict, regions: int | None = None, work_root: Path | None = None) -> dict:
    work_root = work_root or root / ".perfbench"
    bench = Bench(root, name, seed, regions, work_root)
    project = bench.project
    print(f"== {name} seed={seed}: {project.logical_rows} logical input rows; project generated in "
          f"{bench.generation_s:.3f} s (benchmark cost, not a metric)")

    bench.repetition()  # warm-up: fills caches and fixes the reference digests
    samples = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(samples) < MIN_REPS:
        samples.append(bench.repetition())

    def values(key, wall=False):
        kept = [(s["wall"] if wall else s)[key] for s in samples if s["ok"]]
        return [v for vs in kept for v in vs] if key == "setup_s" else kept

    timed = {key: median(values(key)) for key in ("run_s", "stages_s", "setup_s")}
    e2e = {
        **timed,
        "records_per_s": project.logical_rows / timed["run_s"] if timed["run_s"] else None,
        "peak_rss_mb": median(values("peak_rss_mb")),
        "artifact_mb": median(values("artifact_mb")),
    }

    print(f"   repetitions: {len(samples)} timed after 1 warm-up, one process at a time")
    for metric in declared["end_to_end"]:
        value, unit = e2e.get(metric), declared["end_to_end"][metric]["unit"]
        shown = "absent" if value is None else f"median {value:.6g} {unit}"
        if metric in timed and value is not None:
            shown = f"{shown:<24} {tail(values(metric))}; wall median {median(values(metric, True)):.6g} s"
        elif metric == "records_per_s" and value is not None:
            shown = f"{value:.6g} {unit} at the median run_s"
        print(f"   {metric:<14} {shown}")

    layer: dict = {}
    if trace:
        untraced = median(values("run_s" if bench.workload.primary == "run" else "stages_s", True))
        runs = [bench.traced(untraced or 0.0) for _ in range(TRACED_REPS)]
        kept = [m for m, _, t in runs if t is not None]
        for warning in sorted({w for _, ws, _ in runs for w in ws}):
            print(f"warning: {warning}", file=sys.stderr)
        for metric in declared["per_layer"]:
            present = [m[metric] for m in kept if metric in m]
            if kept and len(present) == len(kept):
                layer[metric] = median(present)
        spans = next((t for _, _, t in runs if t is not None), None)
        if spans is not None:
            traces = work_root / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / f"{name}-seed{seed}.json").write_text(json.dumps(spans), encoding="utf-8")
        print(f"   per-layer metrics: median of {len(kept)} traced {bench.workload.primary} repetition(s)")
        for metric, decl in declared["per_layer"].items():
            shown = f"{layer[metric]:.6g} {decl['unit']}" if metric in layer else "absent"
            print(f"   {metric:<38} {shown}")

    print(f"   fail_ratio {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.3f}")
    if bench.reference is not None:
        print(f"   tree digest run={bench.reference['run']} stages={bench.reference['stages']}")
    for problem in bench.problems[:10]:
        print(f"gate: {problem}", file=sys.stderr)
    shutil.rmtree(bench.work, ignore_errors=True)

    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    source = layer if trace else e2e
    metrics = {
        m: {"value": source[m], "unit": wanted[m]["unit"]} for m in wanted if source.get(m) is not None
    }
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regions", type=int, default=None,
                        help="override the workload's region count, e.g. 500 for ROADMAP scale S")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ardkit" / "__init__.py").is_file():
        print("error: src/ardkit not found; run from the root of an ardkit checkout", file=sys.stderr)
        return 2
    declared_doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m for m in declared_doc[kind]} for kind in ("end_to_end", "per_layer")}
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace), declared,
                                  regions=args.regions)
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
