"""cslbounds benchmark: one closed-loop client on one of three workloads.

    python3 perfbench/run.py --workload {survey,oracle,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  It measures the checkout's own src/
(the package need not be installed) and checks the output of every job
against the golden files of the same checkout.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones.  See
perfbench/README.md for the workloads and the drift normalisation.

This script imports neither numpy nor cslbounds: the jobs run in a
worker process (worker.py) and in its children, so the load on the host
is this idle process plus one busy one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("survey", "oracle", "cli")

# Nominal reference times: every timed end-to-end metric is reported "at
# reference speed", i.e. multiplied by nominal / the reference time measured
# beside it.  "cpu" and "array" are workloads.cpu_reference() and
# workloads.array_reference() in process, "start" a bare
# `python -c "import numpy"`; the nominal values are their fast-state times
# on the 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) the benchmark was defined on.
NOMINAL_MS = {"cpu": 1.0, "array": 45.0, "start": 150.0}
REFERENCE = {"survey": "cpu", "oracle": "array", "cli": "start"}
SETUP_STARTS = 7
RUN_LIMIT_S = 175.0


def worker_env() -> dict:
    """Environment of every worker: this checkout's src/ first, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def spawn(argv, env, cwd, timeout) -> tuple[float, str]:
    """Run a child in its own process group to completion: (wall seconds, stdout).

    Its stderr passes through.  A child that fails or overruns is an error
    of the benchmark, not of a job; its whole process group is killed.
    """
    t0 = time.perf_counter()
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"{argv[1]} overran {timeout:.0f} s") from None
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited with code {proc.returncode}")
    return seconds, out.decode("utf-8", "replace")


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def measure_setup(env, work, seed) -> dict:
    """Fresh-interpreter set-up, each start paired with a bare numpy start beside it."""
    setup_cmd = [sys.executable, str(HERE / "worker.py"), "--setup-only", "--seed", str(seed), "--work", str(work)]
    bare_cmd = [sys.executable, "-c", "import numpy"]
    spawn(setup_cmd, env, work, 60)  # fills the bytecode caches; not timed
    setup, bare, imports = [], [], []
    for _ in range(SETUP_STARTS):
        bare.append(spawn(bare_cmd, env, work, 60)[0])
        seconds, out = spawn(setup_cmd, env, work, 60)
        setup.append(seconds)
        imports.append(last_json(out)["import_ms"])
    return {"setup_s": setup, "bare_s": bare, "import_ms": imports}


def normalise(times, refs, nominal) -> list[float]:
    """Each time scaled by nominal / the mean of the references just before and after it."""
    return [t * nominal / (0.5 * (before + after)) for t, before, after in zip(times, refs, refs[1:])]


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(workload, setup, result) -> dict:
    ref = REFERENCE[workload]
    e2e = [r["ms"] for r in result["records"] if r["kind"] == "e2e"]
    jobs = normalise(e2e, result["refs"][ref], NOMINAL_MS[ref])
    setup_ratio = statistics.median(s / b for s, b in zip(setup["setup_s"], setup["bare_s"]))
    return {
        "setup_s": (setup_ratio * NOMINAL_MS["start"] / 1e3, "s"),
        "job_p50_ms": (statistics.median(jobs), "ms"),
        "job_p90_ms": (p90(jobs), "ms"),
        "jobs_per_s": (len(jobs) / (sum(jobs) / 1e3), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(workload, setup, result) -> dict:
    records = result["records"]
    refs = result["refs"]
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    raw = [r["ms"] for r in records if r["kind"] == "e2e"]
    # each traced job ran right after an untraced copy of the same job
    traced = [r["ms"] for r in records if r["kind"] == "traced"]
    base = [r["ms"] for r in records if r["kind"] == ("plain" if workload == "cli" else "e2e")]
    overhead = statistics.median(t / b for t, b in zip(traced, base)) - 1.0
    metrics["init.import_ms"] = (statistics.median(setup["import_ms"]), "ms")
    metrics["ref.cpu_ms"] = (statistics.median(refs["cpu"]), "ms")
    metrics["ref.array_ms"] = (statistics.median(refs["array"]), "ms")
    metrics["ref.start_ms"] = (statistics.median(refs["start"] + [s * 1e3 for s in setup["bare_s"]]), "ms")
    metrics["raw.job_p50_ms"] = (statistics.median(raw), "ms")
    metrics["trace.overhead_frac"] = (overhead, "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cslbounds benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cslbounds/__init__.py", "tests/golden/ligo_scan.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a cslbounds checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = worker_env()
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        setup = measure_setup(env, work, args.seed)
        worker_cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
        worker_cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
        _, out = spawn(worker_cmd, env, work, RUN_LIMIT_S - (time.perf_counter() - started))
        result = last_json(out)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(args.workload, setup, result) if args.trace else end_to_end(args.workload, setup, result)
    records = result["records"]
    errors = [r["error"] for r in records if r["error"]]
    kinds = sorted({r["kind"] for r in records})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "jobs": {k: sum(r["kind"] == k for r in records) for k in kinds},
        "setup_starts": SETUP_STARTS,
        "reference": REFERENCE[args.workload],
        "nominal_ms": NOMINAL_MS,
        "raw_setup_s": statistics.median(setup["setup_s"]),
        "first_errors": errors[:5],
    }
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(records),
                "failed": len(errors),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
