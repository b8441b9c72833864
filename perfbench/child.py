"""One benchmark repetition in a fresh process.

Usage: python3 perfbench/child.py REQUEST.json RESULT.json

Every child first times a fixed probe job, which gauges the host's speed,
then its set-up: `import ardkit.cli`, `load_config` and `load_tables` for
the project.  The request then names a mode:
  run     time one `ardkit.pipeline.run` from the loaded config to the
          artifact tree on disk;
  stages  time the stage subcommands, in order, through `ardkit.cli.main`.
With "trace": true the span wrappers are installed after the set-up.  The
result holds the timings, exit codes, the process's peak RSS and, when
traced, the spans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter


def _setup(request: dict) -> float:
    start = perf_counter()
    import ardkit.cli  # noqa: F401  (the import is what is timed)
    from ardkit.pipeline import load_config, load_tables

    load_tables(load_config(request["config"]).tables)
    return perf_counter() - start


def _probe() -> float:
    """Time a fixed pure-Python job shaped like ardkit's work, as a gauge of host speed.

    It builds tuple-keyed records, sums `Fraction`s per key, sorts, formats
    and hashes, over a working set of a few MB.  It imports nothing of
    ardkit and runs before anything else in the process, so the program
    under test cannot change its time; only the host can.
    """
    start = perf_counter()
    records = [
        (f"SA{(i * 7919) % 20000:05d}", 2011 + i % 5, str(i % 18), "male" if i & 1 else "female", i % 200)
        for i in range(16000)
    ]
    records.sort()
    totals: dict = {}
    for region, year, age, sex, value in records:
        key = (region, year)
        totals[key] = totals.get(key, 0) + Fraction(value) * Fraction(3, 10)
    text = "\n".join(f"{region},{year},{float(v)!r}" for (region, year), v in sorted(totals.items()))
    hashlib.sha256(json.dumps(text.splitlines()).encode()).hexdigest()
    return perf_counter() - start


def _run(request: dict, tracer) -> dict:
    from ardkit.pipeline import load_config, run

    config = dataclasses.replace(load_config(request["config"]), output_dir=Path(request["out"]))
    start = perf_counter()
    with tracer.span("pipeline.run") if tracer else nullcontext():
        result = run(config)
    return {"seconds": perf_counter() - start, "codes": [result.exit_code]}


def _stages(request: dict, tracer) -> dict:
    from ardkit.cli import main

    codes = []
    start = perf_counter()
    for name, argv in request["plan"]:
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            codes.append(main(argv))
    return {"seconds": perf_counter() - start, "codes": codes}


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    probe_s = _probe()
    setup_s = _setup(request)
    tracer = None
    if request.get("trace"):
        from tracing import Tracer

        tracer = Tracer().install()
    result = (_run if request["mode"] == "run" else _stages)(request, tracer)
    result["setup_s"] = setup_s
    result["probe_s"] = probe_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
