"""Benchmark worker: runs one workload's jobs in a fresh interpreter.

run.py starts it with the checkout's src/ first on PYTHONPATH and
OpenBLAS/OpenMP pinned to one thread.  It prints one JSON line of raw
samples, which run.py normalises into metrics:

    python3 perfbench/worker.py --workload survey --seed 1 --seconds 10 --trace 0 --work DIR
    python3 perfbench/worker.py --setup-only --seed 1 --work DIR

Each step times a drift reference (a CPU kernel in process, or a bare
numpy start for subprocess jobs), then the job, then checks the job's
output; one more reference after the last job closes the bracket.  A
job that raises or fails its check is recorded as failed; the run goes
on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cslbounds"
WORKLOADS = ("survey", "oracle", "cli")
PROBE_SURVEY_JOBS = 3
PROBE_REFS = 9
# the drift reference timed beside each job of a workload
REFERENCE = {"survey": "cpu", "oracle": "array", "cli": "start"}


def _timed_imports() -> tuple[float, float]:
    """(numpy import ms, cslbounds import ms after numpy), refusing any other cslbounds."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import cslbounds

    t2 = time.perf_counter()
    if Path(cslbounds.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"error: cslbounds was imported from {cslbounds.__file__}, not from {PACKAGE}")
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


class Runner:
    """Runs jobs and records (kind, job label, ms, error)."""

    def __init__(self):
        self.records: list[dict] = []
        self.outputs: dict = {}

    def run(self, kind, job, tr):
        label, run, check = job
        tr.job = f"{kind}:{label}:{len(self.records)}"
        error = ms = None
        t0 = time.perf_counter()
        try:
            out = run(tr)
            ms = (time.perf_counter() - t0) * 1e3
            check(out)
            self.outputs[label] = out
        except Exception as exc:  # a failed job is counted, never aborts the run
            if ms is None:
                ms = (time.perf_counter() - t0) * 1e3
            error = f"{label}: {type(exc).__name__}: {exc}"
        self.records.append({"kind": kind, "job": label, "ms": ms, "error": error})


def reference_ms(ref, wl, fx) -> float:
    """Time one run of a drift reference: "cpu", "array" or "start"."""
    if ref == "start":
        seconds, code, text = wl.run_child(wl.BARE_START, fx.work)
        if code != 0:
            raise RuntimeError(f"bare interpreter start failed ({code}): {text.strip()}")
        return seconds * 1e3
    kernel = wl.cpu_reference if ref == "cpu" else wl.array_reference
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def _step(workload, wl, fx, runner, i, tracer, kind, refs):
    """One closed-loop step: the reference, then the job (and its traced twins)."""
    ref = REFERENCE[workload]
    refs[ref].append(reference_ms(ref, wl, fx))
    if workload == "cli":
        runner.run(kind, wl.cli_subprocess_job(fx, i), wl.UNTRACED)
        if tracer is not None:
            # the same command in process, untraced and traced, in alternating order
            twins = [("plain", wl.UNTRACED), ("traced", tracer)]
            for twin, tr in twins if i % 2 else twins[::-1]:
                runner.run(twin if kind == "e2e" else kind, wl.cli_inprocess_job(fx, i), tr)
        return
    job = wl.survey_job(fx) if workload == "survey" else wl.oracle_job(fx)
    if tracer is not None and i % 2:
        runner.run("traced" if kind == "e2e" else kind, job, tracer)
    runner.run(kind, job, wl.UNTRACED)
    if tracer is not None and not i % 2:
        runner.run("traced" if kind == "e2e" else kind, job, tracer)


def _probe(wl, fx, runner, tracer, refs) -> dict:
    """Traced pass over every layer, whatever the workload."""
    for _ in range(PROBE_SURVEY_JOBS):
        runner.run("probe", wl.survey_job(fx), tracer)
    runner.run("probe", wl.oracle_job(fx), tracer)
    for i in range(len(fx.commands)):
        runner.run("probe", wl.cli_inprocess_job(fx, i), tracer)
        runner.run("probe-subprocess", wl.cli_subprocess_job(fx, i), wl.UNTRACED)
    runner.run("probe", ("layers", lambda tr: wl.probe_layers(fx, tr), lambda counts: None), tracer)
    for ref in ("cpu", "array"):
        refs[ref].extend(reference_ms(ref, wl, fx) for _ in range(PROBE_REFS))
    try:
        layers = wl.layer_metrics(tracer, runner.outputs["layers"], runner.outputs["oracle"])
    except (KeyError, statistics.StatisticsError) as exc:
        # a failed job left spans or outputs out; the run already counts it as failed
        print(f"per-layer metrics incomplete: {type(exc).__name__}: {exc}", file=sys.stderr)
        layers = {}
    # subprocess minus in-process time of the same command, averaged over the cycle
    sub, inproc = defaultdict(list), defaultdict(list)
    labels = {label for label, _, _ in fx.commands}
    for r in runner.records:
        if r["job"] in labels and r["error"] is None and r["kind"] != "warmup":
            (sub if r["kind"] in ("e2e", "probe-subprocess") else inproc)[r["job"]].append(r["ms"])
    gaps = [statistics.median(sub[k]) - statistics.median(inproc[k]) for k in labels if sub[k] and inproc[k]]
    if gaps:
        layers["cli.startup_ms"] = (statistics.fmean(gaps), "ms")
    return layers


def _write_spans(tracer, path) -> None:
    keys = ("name", "start", "end", "parent", "job")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, span)) for span in tracer.spans], fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for generated inputs and outputs")
    parser.add_argument("--setup-only", action="store_true", help="set up, report import times and exit")
    args = parser.parse_args(argv)

    numpy_ms, import_ms = _timed_imports()
    import numpy as np
    import workloads as wl

    fx = wl.Fixture(ROOT, Path(args.work), args.seed)
    if args.setup_only:
        print(json.dumps({"numpy_import_ms": numpy_ms, "import_ms": import_ms}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    tracer = wl.Tracer() if args.trace else None
    runner = Runner()
    refs = {"cpu": [], "array": [], "start": []}
    _step(args.workload, wl, fx, runner, 0, tracer, "warmup", {"cpu": [], "array": [], "start": []})
    deadline = time.perf_counter() + args.seconds
    i = 1
    while time.perf_counter() < deadline:
        _step(args.workload, wl, fx, runner, i, tracer, "e2e", refs)
        i += 1
    # closes the bracket around the last job
    ref = REFERENCE[args.workload]
    refs[ref].append(reference_ms(ref, wl, fx))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = _probe(wl, fx, runner, tracer, refs)
        _write_spans(tracer, Path(args.work).parent / f"spans-{args.workload}.json")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "package": str(PACKAGE),
    }
    result = {"records": runner.records, "refs": refs, "peak_rss_mb": peak_rss_mb, "layers": layers, "env": env}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
