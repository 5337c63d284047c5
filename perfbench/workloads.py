"""Fixtures, jobs, output checks and layer probes of the benchmark workloads.

Only worker.py imports this module, after it has put the checkout's src/
first on sys.path and pinned the BLAS thread count, so the numpy and
cslbounds imported here are the ones under test.  The benchmark calls
only the package's public functions; spans wrap those calls from the
outside (spans inside src/ are a later change).
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import cslbounds
from cslbounds import cli, cslnoise, detector, exclusion, io, kspace, response, specfun

CONFIGS = ("ligo", "lisa_pathfinder", "auriga")
# survey curves: key -> (config, bar variant)
CURVES = {
    "ligo": ("ligo", None),
    "lisa_pathfinder": ("lisa_pathfinder", None),
    "auriga_rederived": ("auriga", "rederived"),
    "auriga_printed": ("auriga", "printed"),
}
# 1991 log-spaced points from 1e-9 to 1e2 m: every 10th point is a point of
# the CLI's default 200-point grid, on which the golden files are written.
SURVEY_POINTS = 1991
GOLDEN_STRIDE = 10
GOLDEN_RTOL = 1e-12
# the `validate` default ranges, and the closed-form limits: acceptance
# criterion 4 for the pairs, the `validate` threshold for the bar
ORACLE_POINTS = 9
ORACLE_RANGES = {"ligo": (1e-8, 1.0), "lisa_pathfinder": (1e-8, 1.0), "auriga": (1e-3, 10.0)}
ORACLE_LIMITS = {"ligo": 1e-4, "lisa_pathfinder": 1e-4, "auriga": 1e-3}
SPECTRUM_ROWS = 2000
# CODATA 2018 values, for the independent check of `ellis`
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
M_NUCLEON = 1.66053906660e-27
M_PLANCK = 2.176434e-8
# the CLI prints 9 significant digits
PRINTED_RTOL = 5e-9

PYTHON = sys.executable
BARE_START = (PYTHON, "-c", "import numpy")
CHILD_TIMEOUT_S = 120.0

_REF_SMALL = np.linspace(0.0, 20.0, 40_000)
_REF_MID = np.linspace(0.0, 20.0, 100_000)
_REF_BIG = np.linspace(0.0, 20.0, 1_000_000)
_REF_SERIES = np.linspace(0.0, 16.0, 200_000)


# Drift references: fixed kernels that run no package code.  One is timed
# before every job of the workload whose shape it matches, and the job time
# is scaled by nominal / measured (see run.py).


def cpu_reference() -> float:
    """Scalar `math` loop plus numpy elementwise transcendentals (survey)."""
    s = 0.0
    for i in range(1, 4001):
        x = i * 1e-3
        s += math.exp(-x) * math.sin(x)
    y = np.exp(-_REF_SMALL) * np.cos(_REF_SMALL)
    return s + float(y.sum())


def array_reference() -> float:
    """numpy array kernels in the quadrature's mix (oracle): exp*cos out of
    and in cache, a J1-like power series, and sqrt with division.

    Kernels of one kind alone tracked the quadrature's slow-downs badly.
    """
    x = _REF_BIG
    s = float((np.exp(-x) * np.cos(x)).sum() + (np.sqrt(x) / (1.0 + x)).sum())
    for _ in range(10):
        s += float((np.exp(-_REF_MID) * np.cos(_REF_MID)).sum())
    term = 0.5 * _REF_SERIES
    q = 0.25 * _REF_SERIES * _REF_SERIES
    for k in range(1, 20):
        term = term * (-q) / (k * (k + 1))
        s += float(term.sum())
    return s


def run_child(argv, cwd) -> tuple[float, int, str]:
    """Run a child process to completion: (wall seconds, exit code, stdout+stderr)."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    return time.perf_counter() - t0, proc.returncode, out.decode("utf-8", "replace")


class CheckFailed(Exception):
    """A job's output differs from its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _check_close(label: str, got, expected, rtol: float) -> None:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(got.shape == expected.shape, f"{label}: shape {got.shape} != {expected.shape}")
    rel = np.abs(got - expected) / np.abs(expected)
    bad = ~(rel <= rtol)  # NaN counts as bad
    if bad.any():
        i = int(np.argmax(np.where(bad, np.nan_to_num(rel, nan=np.inf), -1.0)))
        raise CheckFailed(f"{label}: point {i} is {got.flat[i]!r}, expected {expected.flat[i]!r} (rel {rel.flat[i]:.3e})")


def _check_printed(label: str, lines: dict, key: str, expected: float) -> None:
    _require(key in lines, f"{label}: no {key!r} line in output")
    _check_close(f"{label} {key}", float(lines[key]), expected, PRINTED_RTOL + GOLDEN_RTOL)


def _key_values(text: str) -> dict:
    pairs = (line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    return {k.strip(): v.strip() for k, v in pairs}


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(r_c, lambda_max) columns of a curve CSV, parsed without the package."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#") and line != "r_c_m,lambda_max_per_s":
            rc, lam = line.split(",")
            rows.append((float(rc), float(lam)))
    data = np.array(rows, dtype=float).reshape(-1, 2)
    return data[:, 0], data[:, 1]


class NoTrace:
    """Calls straight through; used by the untraced jobs."""

    job = None

    @staticmethod
    def span(name):
        return contextlib.nullcontext()

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


UNTRACED = NoTrace()


class Tracer:
    """In-memory spans: [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def median_ms(self, name) -> float:
        """Median duration of the spans with this name."""
        return statistics.median((s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name)


class Fixture:
    """Everything the jobs need, built once per process: the set-up being timed."""

    def __init__(self, root, work, seed: int):
        self.root, self.work = Path(root), Path(work)
        self.dets = {name: io.load_detector_config(name) for name in CONFIGS}
        data = Path(cslbounds.__file__).parent / "data"
        self.raw = {name: json.loads((data / f"{name}.json").read_text(encoding="utf-8")) for name in CONFIGS}
        self.golden = {name: read_curve_csv(self.root / "tests" / "golden" / f"{name}_scan.csv") for name in CONFIGS}
        self.default_grid = self.golden["ligo"][0]
        self.grid = np.geomspace(1e-9, 1e2, SURVEY_POINTS)
        _check_close("survey grid", self.grid[::GOLDEN_STRIDE], self.default_grid, GOLDEN_RTOL)
        self.oracle_rc = {name: np.geomspace(*ORACLE_RANGES[name], ORACLE_POINTS) for name in CONFIGS}
        rng = random.Random(seed)
        self.spectrum_path, self.spectrum = self._write_spectrum(np.random.default_rng(seed))
        self.commands = self._cli_commands(rng)

    def entry(self, name):
        return self.dets[name].noise_entry()

    def _write_spectrum(self, rng):
        """Seeded strain ASD of a free-mass interferometer: seismic wall, flat floor, shot noise."""
        f = np.geomspace(5.0, 5000.0, SPECTRUM_ROWS)
        shape = 1e-23 * ((f / 60.0) ** -4.0 + 1.0 + (f / 300.0) ** 2)
        asd = shape * rng.uniform(0.7, 1.3, SPECTRUM_ROWS)
        path = self.work / "strain_asd.csv"
        lines = ["# seeded synthetic strain spectrum", "# sidedness: one_sided", "frequency_hz,asd_strain_per_sqrt_hz"]
        lines += [f"{a!r},{b!r}" for a, b in zip(f.tolist(), asd.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, (f, asd)

    def _cli_commands(self, rng):
        """One cycle of CLI commands, in seeded order: (label, argv, check)."""
        commands = []
        for name in CONFIGS:
            i = rng.randrange(len(self.default_grid))
            argv = ["bound", "--config", name, "--rc", repr(float(self.default_grid[i]))]
            commands.append((f"bound.{name}", argv, self._bound_check(name, i)))
            out = self.work / f"scan_{name}.csv"
            argv = ["scan", "--config", name, "--out", str(out)]
            commands.append((f"scan.{name}", argv, self._scan_check(name, out)))
        i = rng.randrange(len(self.default_grid))
        rate = 10.0 ** rng.uniform(-12.0, -2.0)
        argv = ["noise", "--config", "ligo", "--rc", repr(float(self.default_grid[i])), "--lambda", repr(rate)]
        commands.append(("noise.ligo", argv, self._noise_check(i, rate)))
        commands.append(("ellis.ligo", ["ellis", "--config", "ligo"], self._ellis_check()))
        out = self.work / "spectrum_bound.csv"
        argv = ["spectrum-bound", "--config", "ligo", "--asd", str(self.spectrum_path), "--out", str(out)]
        commands.append(("spectrum-bound.ligo", argv, self._spectrum_check(out)))
        rng.shuffle(commands)
        return commands

    # --- CLI output checks: exit code, then every number against an independent reference

    def _ligo_force_psd(self) -> float:
        noise = self.raw["ligo"]["noise"][0]
        return noise["asd_force_n_per_sqrt_hz"] ** 2 * noise.get("csl_fraction", 1.0)

    def _bound_check(self, name, i):
        def check(code, text):
            _require(code == 0, f"bound {name}: exit code {code}: {text.strip()}")
            _check_printed(f"bound {name}", _key_values(text), "lambda_max_per_s", self.golden[name][1][i])

        return check

    def _scan_check(self, name, out):
        def check(code, text):
            _require(code == 0, f"scan {name}: exit code {code}: {text.strip()}")
            try:
                rc, lam = read_curve_csv(out)
            finally:
                out.unlink(missing_ok=True)
            _check_close(f"scan {name} r_c", rc, self.golden[name][0], GOLDEN_RTOL)
            _check_close(f"scan {name} lambda_max", lam, self.golden[name][1], GOLDEN_RTOL)

        return check

    def _noise_check(self, i, rate):
        # lambda_golden = S_meas / (2 S_model(1, r_c)), so S_ff(one-sided) = 2 rate S_model = rate S_meas / lambda_golden
        s_ff = rate * self._ligo_force_psd() / self.golden["ligo"][1][i]
        raw = self.raw["ligo"]
        freq = raw["noise"][0]["frequency_hz"]
        mass, arm = raw["geometry"]["mass_kg"], raw["readout"]["arm_length_m"]
        s_hh = 4.0 * s_ff / (mass**2 * (2.0 * math.pi * freq) ** 4 * arm**2)

        def check(code, text):
            _require(code == 0, f"noise: exit code {code}: {text.strip()}")
            lines = _key_values(text)
            _check_printed("noise", lines, "s_ff_one_sided_n2_per_hz", s_ff)
            _check_printed("noise", lines, "frequency_hz", freq)
            _check_printed("noise", lines, "s_hh_one_sided_per_hz", s_hh)

        return check

    def _ellis_check(self):
        mass = self.raw["ligo"]["geometry"]["mass_kg"]
        eta_ellis = (C_LIGHT * M_NUCLEON) ** 4 * mass * mass / (HBAR * M_PLANCK) ** 3
        eta_exp = self._ligo_force_psd() / HBAR**2

        def check(code, text):
            _require(code == 0, f"ellis: exit code {code}: {text.strip()}")
            lines = _key_values(text)
            _check_printed("ellis", lines, "eta_ellis_per_m2_s", eta_ellis)
            _check_printed("ellis", lines, "eta_exp_per_m2_s", eta_exp)
            _check_printed("ellis", lines, "eta_ratio", eta_ellis / eta_exp)

        return check

    def _spectrum_check(self, out):
        f, asd = self.spectrum
        raw = self.raw["ligo"]
        mass, arm = raw["geometry"]["mass_kg"], raw["readout"]["arm_length_m"]
        force = 0.5 * mass * arm * (2.0 * math.pi * f) ** 2 * asd
        i = int(np.argmin(force))
        # the curve is the golden LIGO curve rescaled from its measured figure to the spectrum minimum
        expected = self.golden["ligo"][1] * (force[i] * force[i] / self._ligo_force_psd())

        def check(code, text):
            _require(code == 0, f"spectrum-bound: exit code {code}: {text.strip()}")
            lines = _key_values(text)
            _check_printed("spectrum-bound", lines, "optimal_frequency_hz", f[i])
            _check_printed("spectrum-bound", lines, "min_force_asd_n_per_sqrt_hz", force[i])
            try:
                rc, lam = read_curve_csv(out)
            finally:
                out.unlink(missing_ok=True)
            _check_close("spectrum-bound r_c", rc, self.default_grid, GOLDEN_RTOL)
            _check_close("spectrum-bound lambda_max", lam, expected, GOLDEN_RTOL)

        return check


# --- jobs: each returns (label, run(tracer) -> output, check(output))


def survey_job(fx: Fixture):
    """The four exclusion curves on the 1991-point grid."""

    def run(tr):
        return {
            key: tr.call(f"exclusion.dense_curve.{key}", exclusion.exclusion_curve, fx.dets[name], fx.entry(name), fx.grid, variant)
            for key, (name, variant) in CURVES.items()
        }

    def check(curves):
        for key, (name, variant) in CURVES.items():
            curve = curves[key]
            _check_close(f"{key} r_c", curve.r_c_grid, fx.grid, 0.0)
            if variant == "printed":
                # no golden file: the scalar public API is the reference
                expected = [exclusion.lambda_max(fx.dets[name], fx.entry(name), float(rc), variant) for rc in fx.default_grid]
            else:
                expected = fx.golden[name][1]
            _check_close(f"{key} lambda_max", curve.lambda_max[::GOLDEN_STRIDE], expected, GOLDEN_RTOL)

    return "survey", run, check


def oracle_job(fx: Fixture):
    """Quadrature at 9 r_c points per bundled config."""

    def run(tr):
        out = {}
        for name in CONFIGS:
            det = fx.dets[name]
            with tr.span(f"kspace.sweep.{name}"):
                out[name] = [
                    tr.call(
                        "kspace.force_psd_by_quadrature",
                        kspace.force_psd_by_quadrature,
                        cslnoise.CslParams(1.0, float(rc)),
                        det.geometry,
                        det.arrangement,
                    )
                    for rc in fx.oracle_rc[name]
                ]
        return out

    def check(results):
        for name in CONFIGS:
            det = fx.dets[name]
            variant = "rederived" if name == "auriga" else None
            for rc, res in zip(fx.oracle_rc[name], results[name]):
                closed = exclusion.model_force_psd(det, cslnoise.CslParams(1.0, float(rc)), variant)
                rel = abs(closed - res.value) / res.value
                _require(rel <= ORACLE_LIMITS[name], f"oracle {name} r_c={rc:g}: closed form off by {rel:.3e}")

    return "oracle", run, check


def cli_subprocess_job(fx: Fixture, i: int):
    """Command i of the cycle, as a fresh `python -m cslbounds.cli` process."""
    label, argv, check = fx.commands[i % len(fx.commands)]

    def run(tr):
        _, code, text = run_child([PYTHON, "-m", "cslbounds.cli", *argv], fx.work)
        return code, text

    return label, run, lambda out: check(*out)


def _main_captured(argv):
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def cli_inprocess_job(fx: Fixture, i: int):
    """Command i of the cycle, through `cli.main(argv)` in this process."""
    label, argv, check = fx.commands[i % len(fx.commands)]

    def run(tr):
        return tr.call("cli.main", _main_captured, argv)

    return label, run, lambda out: check(*out)


# --- layer probes (traced runs only)

PROBE_REPEATS = 3
CALL_REPEATS = 1000


def probe_layers(fx: Fixture, tr: Tracer) -> dict:
    """Time each layer's public functions on the survey grid and the CLI inputs.

    Returns the work counts the probes saw.
    """
    counts = {}
    grid = [float(rc) for rc in fx.grid]
    ligo, lisa, auriga = (fx.dets[name] for name in CONFIGS)
    unit = [cslnoise.CslParams(1.0, rc) for rc in grid]
    strain = fx.raw["auriga"]["noise"][0]["asd_strain_per_sqrt_hz"] ** 2
    for _ in range(PROBE_REPEATS):
        with tr.span("detector.detector_archetype"):
            for _ in range(CALL_REPEATS):
                for det in (ligo, lisa, auriga):
                    detector.detector_archetype(det)
        with tr.span("response.force_psd_from"):
            for _ in range(CALL_REPEATS):
                response.force_psd_from_acceleration(lisa.noise[0].psd, lisa.geometry.mass)
                response.force_psd_from_strain_bar(strain, auriga.geometry.mass, auriga.response.omega0, auriga.response.length)
                response.force_psd_from_strain_free_mass(strain, ligo.geometry.mass, 2 * math.pi * 32.5, ligo.readout.arm_length)
        with tr.span("cslnoise.cylinder_pair_force_psd"):
            for p in unit:
                cslnoise.cylinder_pair_force_psd(p, ligo.geometry, ligo.arrangement.separation, ligo.arrangement.arm_count)
        with tr.span("cslnoise.cube_pair_force_psd"):
            for p in unit:
                cslnoise.cube_pair_force_psd(p, lisa.geometry, lisa.arrangement.separation)
        with tr.span("cslnoise.bar_force_psd"):
            for variant in cslnoise.BAR_VARIANTS:
                for p in unit:
                    cslnoise.bar_force_psd(p, auriga.geometry, variant)
        with tr.span("cslnoise.axial_factor"):
            for rc in grid:
                cslnoise.axial_factor(ligo.arrangement.separation, ligo.geometry.length, rc)
        with tr.span("specfun.i0e_i1e"):
            for radius in (ligo.geometry.radius, auriga.geometry.radius):
                for rc in grid:
                    x = radius * radius / (2.0 * rc * rc)
                    specfun.i0e(x)
                    specfun.i1e(x)
        for key, (name, variant) in CURVES.items():
            # the curve and the model PSD alone, back to back, for exclusion.self_frac
            det = fx.dets[name]
            tr.call(f"exclusion.paired_curve.{key}", exclusion.exclusion_curve, det, fx.entry(name), fx.grid, variant)
            with tr.span(f"cslnoise.force_noise_psd.{key}"):
                for p in unit:
                    cslnoise.force_noise_psd(p, det.geometry, det.arrangement, variant)
        for name in CONFIGS:
            path = io.bundled_config_path(name)
            tr.call("io.load_detector_config", io.load_detector_config, path)
            curve = tr.call("exclusion.default_curve", exclusion.exclusion_curve, fx.dets[name], fx.entry(name), fx.default_grid)
            out = fx.work / f"probe_{name}.csv"
            tr.call("io.write_exclusion_csv", io.write_exclusion_csv, curve, out)
            counts[f"io.bytes_written.{name}"] = out.stat().st_size
            out.unlink()
        series = tr.call("io.load_spectrum_csv", io.load_spectrum_csv, fx.spectrum_path, "strain")
        counts["io.spectrum_rows"] = len(series)
        tr.call("response.equivalent_force_asd_free_mass", response.equivalent_force_asd_free_mass, series, ligo.geometry.mass, ligo.readout.arm_length)
        tr.call("exclusion.optimal_frequency", exclusion.optimal_frequency, series, ligo)
    return counts


def layer_metrics(tr: Tracer, counts: dict, oracle_results) -> dict:
    """Per-layer metrics from the spans of a traced run: {name: (value, unit)}."""
    n = SURVEY_POINTS
    med = tr.median_ms
    m = {
        "cli.main_ms": (med("cli.main"), "ms"),
        "io.load_config_ms": (med("io.load_detector_config"), "ms"),
        "io.load_spectrum_ms": (med("io.load_spectrum_csv"), "ms"),
        "io.spectrum_rows": (counts["io.spectrum_rows"], "count"),
        "io.write_csv_ms": (med("io.write_exclusion_csv"), "ms"),
        "io.bytes_written": (sum(counts[f"io.bytes_written.{name}"] for name in CONFIGS), "bytes"),
        "detector.archetype_us": (med("detector.detector_archetype") * 1e3 / (3 * CALL_REPEATS), "us"),
        "response.conversion_us": (med("response.force_psd_from") * 1e3 / (3 * CALL_REPEATS), "us"),
        "response.equivalent_force_ms": (med("response.equivalent_force_asd_free_mass"), "ms"),
        "cslnoise.cylinder_us_per_point": (med("cslnoise.cylinder_pair_force_psd") * 1e3 / n, "us"),
        "cslnoise.cube_us_per_point": (med("cslnoise.cube_pair_force_psd") * 1e3 / n, "us"),
        "cslnoise.bar_us_per_point": (med("cslnoise.bar_force_psd") * 1e3 / (2 * n), "us"),
        "cslnoise.axial_us_per_point": (med("cslnoise.axial_factor") * 1e3 / n, "us"),
        "specfun.ie_us_per_point": (med("specfun.i0e_i1e") * 1e3 / (2 * n), "us"),
        "exclusion.default_curve_ms": (med("exclusion.default_curve"), "ms"),
        "exclusion.optimal_frequency_ms": (med("exclusion.optimal_frequency"), "ms"),
    }
    curve_ms = {key: med(f"exclusion.dense_curve.{key}") for key in CURVES}
    for key, value in curve_ms.items():
        m[f"exclusion.dense_curve_ms.{key}"] = (value, "ms")
    model_ms = sum(med(f"cslnoise.force_noise_psd.{key}") for key in CURVES)
    paired_ms = sum(med(f"exclusion.paired_curve.{key}") for key in CURVES)
    m["exclusion.self_frac"] = (1.0 - model_ms / paired_ms, "1")
    total_ns = 0.0
    total_evals = 0
    for name in CONFIGS:
        sweep_ms = med(f"kspace.sweep.{name}")
        evals = sum(r.evaluations for r in oracle_results[name])
        m[f"kspace.sweep_ms.{name}"] = (sweep_ms, "ms")
        m[f"kspace.evaluations.{name}"] = (evals, "count")
        total_ns += sweep_ms * 1e6
        total_evals += evals
    m["kspace.ns_per_eval"] = (total_ns / total_evals, "ns")
    m["kspace.max_rel_error"] = (max(r.rel_error for rs in oracle_results.values() for r in rs), "1")
    return m
