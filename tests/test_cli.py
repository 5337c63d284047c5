"""CLI behavior: outputs, determinism, exit codes."""

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import cslbounds
from cslbounds import cli, lambda_max, load_detector_config
from cslbounds.cli import MAX_POINTS, main
from cslbounds.io import bundled_config_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_v_spectrum(tmp_path):
    """Synthetic convex strain spectrum with its force minimum at 32.5 Hz."""
    kink = 32.5
    freqs = np.unique(np.concatenate([np.geomspace(10.0, 200.0, 60), [kink]]))
    asd = 2.85e-23 * 0.5 * ((freqs / kink) ** -3 + (freqs / kink) ** -1)
    lines = ["frequency_hz,asd_strain_per_sqrt_hz"]
    lines += [f"{float(f)!r},{float(a)!r}" for f, a in zip(freqs, asd)]
    path = tmp_path / "strain.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("config", ["ligo", "lisa_pathfinder", "auriga"])
def test_noise_closes_the_loop(capsys, monkeypatch, config):
    # at lambda = lambda_max(r_c), noise prints the first entry's measured figure
    # back: its native PSD times csl_fraction, or, for ligo's force entry, the
    # force PSD and its strain 4 S / (m^2 omega^4 a^2)
    monkeypatch.setattr(cli, "_fmt", lambda x: repr(float(x)))  # every digit
    det = load_detector_config(config)
    entry = det.noise_entry()
    rate = lambda_max(det, entry, 1e-7)
    code, out, err = run(capsys, "noise", "--config", config, "--rc", "1e-7", "--lambda", repr(rate))
    assert code == 0 and err == ""
    values = {key: float(value) for key, value in (line.split(" = ") for line in out.splitlines())}
    if config == "ligo":
        m, a = det.geometry.mass, det.readout.arm_length
        omega = 2.0 * math.pi * values["frequency_hz"]
        s_ff = values["s_ff_one_sided_n2_per_hz"]
        assert values["frequency_hz"] == entry.frequency_hz
        assert s_ff == pytest.approx(entry.psd, rel=1e-12, abs=0.0)
        assert values["s_hh_one_sided_per_hz"] == pytest.approx(4.0 * s_ff / (m * m * omega**4 * a * a), rel=1e-12, abs=0.0)
    else:
        key = "s_gg_one_sided_m2_s4_per_hz" if config == "lisa_pathfinder" else "s_hh_one_sided_per_hz"
        assert values[key] == pytest.approx(entry.psd * entry.csl_fraction, rel=1e-12, abs=0.0)


def test_noise_zero_rate(capsys):
    code, out, _ = run(capsys, "noise", "--config", "lisa_pathfinder", "--rc", "1e-7", "--lambda", "0")
    assert code == 0
    assert out.splitlines()[0].endswith("0.00000000e+00")


@pytest.mark.parametrize("frequency", ["0", "-5", "nan", "inf", "1e308", "1e-300", "1e200"])
def test_noise_nonpositive_frequency_exit_2(capsys, frequency):
    # a frequency with no finite angular frequency > 0, or whose transfer
    # (m omega^2 a / 2)^2 underflows or overflows, names --frequency-hz
    code, out, err = run(
        capsys, "noise", "--config", "ligo", "--rc", "1e-7", "--lambda", "1", f"--frequency-hz={frequency}"
    )
    message = {
        "1e-300": "strain-to-force transfer must be finite and > 0, got 0.0",
        "1e200": "strain-to-force transfer must be finite and > 0, got inf",
    }.get(frequency, f"angular frequency 2 pi f must be finite and > 0, got f = {float(frequency)!r} Hz")
    assert code == 2 and out == ""
    assert err == f"error: --frequency-hz: {message}\n"


@pytest.mark.parametrize("frequency", ["10", "nan", "-5"])
@pytest.mark.parametrize("config", ["auriga", "lisa_pathfinder"])
def test_noise_frequency_on_a_non_interferometer_exit_2(capsys, config, frequency):
    # only the free-mass strain transfer depends on frequency
    code, out, err = run(capsys, "noise", "--config", config, "--rc", "1e-7", "--lambda", "1", f"--frequency-hz={frequency}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --frequency-hz: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("noise", "--rc", "1e-7", "--lambda", "1"),
        ("bound", "--rc", "1e-7"),
        ("scan", "--points", "2", "--out", "never.csv"),
    ],
    ids=["noise", "bound", "scan"],
)
@pytest.mark.parametrize("config", ["ligo", "lisa_pathfinder"])
def test_variant_on_a_non_bar_exit_2(tmp_path, monkeypatch, capsys, config, argv):
    # only the bar has two axial factors to choose between
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, argv[0], "--config", config, *argv[1:], "--variant", "printed")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --variant: ")
    assert not (tmp_path / "never.csv").exists()


def test_noise_bar_variants_differ(capsys):
    _, out_r, _ = run(capsys, "noise", "--config", "auriga", "--rc", "1.0", "--lambda", "1")
    _, out_p, _ = run(capsys, "noise", "--config", "auriga", "--rc", "1.0", "--lambda", "1", "--variant", "printed")
    v_r = float(out_r.splitlines()[0].split(" = ")[1])
    v_p = float(out_p.splitlines()[0].split(" = ")[1])
    assert v_p > 2.0 * v_r


def test_bound_lisa(capsys):
    code, out, _ = run(capsys, "bound", "--config", "lisa_pathfinder", "--rc", "1e-7")
    assert code == 0
    value = float(out.split(" = ")[1])
    assert value == pytest.approx(3e-8, rel=0.2)
    # far below the test-mass scale lambda_max ~ 1/rc^2, with nothing underflowing on the way
    code, out, err = run(capsys, "bound", "--config", "lisa_pathfinder", "--rc", "1e-70")
    assert code == 0, err
    assert float(out.split(" = ")[1]) == pytest.approx(value * 1e126, rel=1e-5)


def test_scan_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", "--config", "lisa_pathfinder", "--rc-min", "1e-8", "--rc-max", "1.0", "--points", "50"]
    code1, stdout1, _ = run(capsys, *args, "--out", str(out1))
    code2, stdout2, _ = run(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1.replace(str(out1), "") == stdout2.replace(str(out2), "")


def test_scan_reports_minimum_near_test_mass_scale(tmp_path, capsys):
    code, out, _ = run(
        capsys, "scan", "--config", "lisa_pathfinder", "--out", str(tmp_path / "c.csv")
    )
    assert code == 0
    rc_min = float(out.splitlines()[1].split(" = ")[1])
    assert 1e-3 < rc_min < 1.0  # order of the 4.6 cm test mass


def test_scan_single_point_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "scan", "--config", "lisa_pathfinder", "--points", "1", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert "--points" in err


@pytest.mark.parametrize("points", [MAX_POINTS + 1, 10**15])
def test_scan_points_cap_rejected_before_allocating(tmp_path, capsys, monkeypatch, points):
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "geomspace", no_grid)
    code, _, err = run(
        capsys, "scan", "--config", "lisa_pathfinder", "--points", str(points), "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert "--points" in err and str(MAX_POINTS) in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "field,mutate",
    [
        ("schema_version", lambda d: d.update(schema_version=True)),
        ("schema_version", lambda d: d.update(schema_version=1.0)),
        ("noise[0].csl_fraction", lambda d: d["noise"][0].update(csl_fraction=True)),
        ("noise[0].csl_fraction", lambda d: d["noise"][0].update(csl_fraction="0.1")),
    ],
)
def test_mistyped_config_fields_exit_2(tmp_path, capsys, field, mutate):
    doc = json.loads(bundled_config_path("lisa_pathfinder").read_text())
    mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bound", "--config", str(path), "--rc", "1e-7")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize(
    "config, arrangement, message",
    [
        ("lisa_pathfinder", {"arm_count": 2}, "arrangement.arm_count: Cube is a single-arm system, got 2"),
        (
            "auriga",
            {"separation_m": 1.0},
            "arrangement.separation_m: HalfCylinderBar forces separation = length/2 = 1.5 m, got 1.0",
        ),
    ],
    ids=["cube_arm_count", "bar_separation"],
)
def test_pairing_errors_exit_2(tmp_path, capsys, config, arrangement, message):
    # MassArrangement.check's message, prefixed by the config section
    path = write_config(tmp_path, config, lambda d: d["arrangement"].update(arrangement))
    code, out, err = run(capsys, "bound", "--config", str(path), "--rc", "1e-7")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "section, field, message",
    [
        ("response", {"bar_length_m": 2.0}, "response.bar_length_m: must equal geometry.length_m = 3.0 m, got 2.0"),
        ("readout", {"arm_length_m": 3.0}, "readout.arm_length_m: bars take no arm length, got 3.0"),
    ],
    ids=["bar_length", "arm_length"],
)
@pytest.mark.parametrize("command", ["bound", "ellis"])
def test_bar_config_states_each_input_once_exit_2(tmp_path, capsys, command, section, field, message):
    # a bar length of 2.0 once printed a bound and an Ellis ratio for a 2 m bar; an arm length went unread
    path = write_config(tmp_path, "auriga", lambda d: d[section].update(field))
    code, out, err = run(capsys, command, "--config", str(path), *command_args(command, tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_spectrum_bound_end_to_end(tmp_path, capsys):
    spectrum = write_v_spectrum(tmp_path)
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys,
        "spectrum-bound", "--config", "ligo", "--asd", str(spectrum),
        "--rc-min", "1e-8", "--rc-max", "1.0", "--points", "40", "--out", str(out_csv),
    )
    assert code == 0
    lines = out.splitlines()
    freq = float(lines[0].split(" = ")[1])
    force = float(lines[1].split(" = ")[1])
    assert freq == pytest.approx(32.5, rel=1e-9)
    assert force == pytest.approx(95e-15, rel=0.01, abs=0.0)
    assert out_csv.exists()


def test_spectrum_bound_rejects_resonant_config(tmp_path, capsys):
    spectrum = write_v_spectrum(tmp_path)
    code, _, err = run(
        capsys,
        "spectrum-bound", "--config", "auriga", "--asd", str(spectrum),
        "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert "free-mass" in err


def test_spectrum_bound_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run(
        capsys, "spectrum-bound", "--config", "ligo", "--asd", str(path), "--out", str(tmp_path / "c.csv")
    )
    assert code == 2
    assert "header" in err


def test_ellis_lisa(capsys):
    code, out, _ = run(capsys, "ellis", "--config", "lisa_pathfinder")
    assert code == 0
    ratio = float(out.splitlines()[2].split(" = ")[1])
    assert 1e12 <= ratio <= 1e13


def test_ellis_doubled_noise_halves_ratio(capsys):
    _, out1, _ = run(capsys, "ellis", "--config", "lisa_pathfinder", "--noise-entry", "published_minimum")
    _, out2, _ = run(capsys, "ellis", "--config", "lisa_pathfinder", "--noise-entry", "foreseen_x2")
    r1 = float(out1.splitlines()[2].split(" = ")[1])
    r2 = float(out2.splitlines()[2].split(" = ")[1])
    # foreseen_x2 is half the published power, so the ratio doubles;
    # tolerance set by the 9-significant-digit stdout formatting
    assert r2 == pytest.approx(2.0 * r1, rel=1e-7)


def test_validate_lisa_small_grid(capsys):
    code, out, err = run(
        capsys,
        "validate", "--config", "lisa_pathfinder", "--rc-min", "1e-7", "--rc-max", "0.1", "--points", "5",
    )
    assert code == 0, err
    assert "max_rel_diff" in out
    assert float(out.splitlines()[-1].split(" = ")[1]) <= 1e-3


def test_validate_auriga_endorses_rederived(capsys):
    code, out, err = run(
        capsys,
        "validate", "--config", "auriga", "--rc-min", "1e-3", "--rc-max", "10", "--points", "7",
    )
    assert code == 0, err
    assert "endorsed_variant = rederived" in out


def test_validate_deviation_exit_3(capsys, monkeypatch):
    code, out, _ = run(capsys, "validate", "--config", "ligo", "--points", "3")
    assert code == 0 and out.splitlines()[-1].startswith("max_rel_diff = ")
    worst = out.splitlines()[-1].removeprefix("max_rel_diff = ")
    assert float(worst) > 1e-12
    monkeypatch.setattr(cli, "VALIDATE_THRESHOLD", 1e-12)
    # a failed check prints none of its rows: stdout stays empty
    code, out, err = run(capsys, "validate", "--config", "ligo", "--points", "3")
    assert (code, out) == (3, "")
    assert err == f"error: closed form deviates from quadrature by {float(worst):.3e}\n"


@pytest.mark.parametrize("threshold, within", [(1e-12, []), (1e3, ["printed", "rederived"])])
def test_validate_auriga_endorses_none_unless_exactly_one_variant_is_within(capsys, monkeypatch, threshold, within):
    # the default grid's printed variant deviates by about 177 at 10 m
    monkeypatch.setattr(cli, "VALIDATE_THRESHOLD", threshold)
    code, out, err = run(capsys, "validate", "--config", "auriga", "--points", "3")
    assert (code, out) == (3, "")
    assert err == f"error: expected exactly one variant within {threshold:g}, got {within!r}\n"


def test_missing_config_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "bound", "--config", str(tmp_path / "no.json"), "--rc", "1e-7")
    assert code == 2
    assert "not found" in err


def test_malformed_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = json.loads(bundled_config_path("lisa_pathfinder").read_text())
    doc["geometry"]["side_m"] = -1.0
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "bound", "--config", str(path), "--rc", "1e-7")
    assert code == 2
    assert "geometry" in err


def test_unbounded_config_exit_3(tmp_path, capsys):
    doc = json.loads(bundled_config_path("lisa_pathfinder").read_text())
    doc["arrangement"]["separation_m"] = 0.0
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "bound", "--config", str(path), "--rc", "1e-7")
    assert code == 3
    assert "no finite bound" in err


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so numpy's warnings reach stderr."""
    src = str(Path(cslbounds.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "cslbounds.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("config", ["ligo", "auriga", "lisa_pathfinder"])
def test_tiny_rc_prints_only_the_error_line(config):
    # below rc ~ 1e-154 the closed forms' scaled lengths overflow; numpy
    # must not print a RuntimeWarning, neither with the bound at 7e-155 m,
    # where the model PSD is a subnormal, nor ahead of the error at 1e-160 m
    variants = [["--variant", v] for v in cslbounds.BAR_VARIANTS] if config == "auriga" else [[]]
    for rc, variant in itertools.product(["7e-155", "1e-160"], variants):
        proc = run_process("bound", "--config", config, "--rc", rc, *variant)
        if rc == "7e-155":
            assert proc.returncode == 0 and proc.stderr == "", (rc, variant, proc.stderr)
            assert len(proc.stdout.splitlines()) == 1 and proc.stdout.startswith("lambda_max_per_s = "), (rc, variant)
            continue
        assert proc.returncode == 3 and proc.stdout == "", (rc, variant)
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), (rc, variant, proc.stderr)


@pytest.mark.parametrize("config, rc", [("ligo", "1e-7"), ("auriga", "1e-3"), ("lisa_pathfinder", "1e-7")])
def test_overflowing_force_psd_exit_3(config, rc):
    # q^2 lambda B passes the largest double: one error line, no numpy
    # RuntimeWarning and no printed inf
    proc = run_process("noise", "--config", config, "--rc", rc, "--lambda", "1e308")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: model force PSD overflows for {config!r} at r_c = {float(rc):g} m and lambda = 1e+308 /s; no finite value exists\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--config", "auriga", "--rc", "1e-310"),
        ("noise", "--config", "lisa_pathfinder", "--rc", "5e-324", "--lambda", "1"),
        ("validate", "--config", "lisa_pathfinder", "--rc-min", "1e-310", "--rc-max", "1e-300", "--points", "2"),
    ],
)
def test_subnormal_rc_exit_2_naming_the_value(argv):
    # 1/rc overflows for a subnormal rc; it must be rejected, not printed as nan
    proc = run_process(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: correlation_length") and f"got {argv[4]}" in proc.stderr


@pytest.mark.parametrize("readout", ["force", "displacement"])
@pytest.mark.parametrize("command", ["noise", "spectrum-bound", "bound"])
def test_non_strain_interferometer_readout_exit_2(tmp_path, capsys, command, readout):
    # the archetype accepts these readouts, but converting strain needs an arm length
    doc = json.loads(bundled_config_path("ligo").read_text())
    doc["readout"] = {"kind": readout}
    doc["noise"][0] = {
        "name": "strain_minimum", "kind": "strain", "asd_strain_per_sqrt_hz": 1e-23, "frequency_hz": 32.5,
        "provenance": "synthetic",
    }
    path = tmp_path / "ligo.json"
    path.write_text(json.dumps(doc))
    argv = {
        "noise": ["--rc", "1e-7", "--lambda", "1"],
        "spectrum-bound": ["--asd", str(write_v_spectrum(tmp_path)), "--out", str(tmp_path / "c.csv")],
        "bound": ["--rc", "1e-7"],
    }[command]
    code, out, err = run(capsys, command, "--config", str(path), *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: readout.arm_length_m: ")


def write_config(tmp_path, config, mutate):
    """The bundled config changed by mutate(doc); a str that mutate returns is written in its place."""
    doc = json.loads(bundled_config_path(config).read_text())
    text = mutate(doc)
    path = tmp_path / f"{config}.json"
    path.write_text(text if isinstance(text, str) else json.dumps(doc))
    return path


def command_args(command, tmp_path):
    return {"bound": ["--rc", "1e-7"], "ellis": [], "scan": ["--out", str(tmp_path / "c.csv")]}[command]


@pytest.mark.parametrize("frequency, transfer", [(1e-300, "0.0"), (1e200, "inf")])
@pytest.mark.parametrize("command", ["bound", "ellis", "scan"])
def test_strain_entry_without_a_finite_transfer_exit_2(tmp_path, capsys, command, frequency, transfer):
    # (m omega^2 a / 2)^2 underflows to 0 or overflows; it once gave a bound of 0 or inf
    def mutate(doc):
        doc["noise"][0] = {
            "name": "strain_minimum", "kind": "strain", "asd_strain_per_sqrt_hz": 1e-23, "frequency_hz": frequency,
            "provenance": "synthetic",
        }

    path = write_config(tmp_path, "ligo", mutate)
    code, out, err = run(capsys, command, "--config", str(path), *command_args(command, tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: noise entry 'strain_minimum': strain-to-force transfer must be finite and > 0, got {transfer}\n"


@pytest.mark.parametrize(
    "config, key, value, csl_fraction, got",
    [
        ("lisa_pathfinder", "psd_acceleration_m2_s4_per_hz", 5e-324, 0.1, "0.0"),
        ("auriga", "asd_strain_per_sqrt_hz", 1e150, 1.0, "inf"),
    ],
    ids=["underflow", "overflow"],
)
@pytest.mark.parametrize("command", ["bound", "ellis"])
def test_measured_force_psd_out_of_range_exit_2(tmp_path, capsys, command, config, key, value, csl_fraction, got):
    def mutate(doc):
        entry = doc["noise"][0]
        for old in [k for k in entry if k.startswith(("asd_", "psd_"))]:
            del entry[old]
        entry.update({key: value, "csl_fraction": csl_fraction})

    path = write_config(tmp_path, config, mutate)
    name = json.loads(path.read_text())["noise"][0]["name"]
    code, out, err = run(capsys, command, "--config", str(path), *command_args(command, tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: noise entry {name!r}: force PSD must be finite and > 0, got {got}\n"


OVERFLOW_MESSAGES = {
    "bound": "lambda_max overflows for 'lisa_pathfinder' at r_c = 1e-07 m; no finite bound exists",
    "scan": "lambda_max overflows for 'lisa_pathfinder' at r_c = 1e-09 m; no finite bound exists",
    "ellis": "eta_exp overflows for 'lisa_pathfinder'; no finite comparison exists",
}


# A ligo body 1e-160 m long: axial / L^2 overflows, so the model force PSD is inf at r_c = 1e-170 m.
TINY_BODY_ARGS = {"bound": ["--rc", "1e-170"], "scan": ["--rc-min", "1e-170", "--rc-max", "1e-160", "--points", "3"]}


def tiny_body(doc):
    doc["geometry"].update(length_m=1e-160, radius_m=1e-10)
    del doc["geometry"]["density_kg_m3"]


@pytest.mark.parametrize("command", list(OVERFLOW_MESSAGES))
def test_overflowing_inversion_exit_3(tmp_path, command):
    # a finite force PSD of ~1e308 N^2/Hz over a model PSD below 1 overflows
    path = write_config(tmp_path, "lisa_pathfinder", lambda d: d["noise"][0].update(psd_acceleration_m2_s4_per_hz=1e308))
    proc = run_process(command, "--config", str(path), *command_args(command, tmp_path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: {OVERFLOW_MESSAGES[command]}\n"
    assert not (tmp_path / "c.csv").exists()
    if command in TINY_BODY_ARGS:  # an overflowing model PSD once gave a bound of 0 and exit 0
        path = write_config(tmp_path, "ligo", tiny_body)
        out = ["--out", str(tmp_path / "c.csv")] if command == "scan" else []
        proc = run_process(command, "--config", str(path), *TINY_BODY_ARGS[command], *out)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "error: model force PSD overflows for 'ligo' at r_c = 1e-170 m; no finite bound exists\n"
        assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("config, rc_min", [("ligo", "1e-170"), ("auriga", "1e-200")])
def test_validate_zero_quadrature_exit_3(capsys, config, rc_min):
    # the force PSD, ~rc^2, itself underflows to 0 below rc ~ 2e-159 m for
    # ligo; no relative difference exists
    code, _, err = run(capsys, "validate", "--config", config, "--rc-min", rc_min, "--rc-max", "1e-90", "--points", "2")
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: quadrature force PSD is 0 at r_c = ")


def test_validate_prints_nothing_before_a_quadrature_failure(capsys):
    # the third point misses the quadrature target; the first two rows once reached stdout
    code, out, err = run(capsys, "validate", "--config", "lisa_pathfinder", "--rc-min", "1", "--rc-max", "100", "--points", "5")
    assert (code, out) == (3, "")
    assert err.startswith("error: quadrature reached relative error ") and err.count("\n") == 1


def test_validate_at_the_largest_rc_exit_3(capsys):
    # at 1e308 m, s = r_c/R overflows to inf and the resolved range U/s is
    # empty; 1e307 m, the first point, already gives a zero PSD
    code, out, err = run(capsys, "validate", "--config", "ligo", "--rc-min", "1e307", "--rc-max", "1e308", "--points", "2")
    assert (code, out) == (3, "")
    assert err == "error: quadrature force PSD is 0 at r_c = 1e+307 m; no relative difference exists\n"


def test_validate_compares_below_the_old_prefactor_underflow(capsys):
    # hbar^2 rc^3 alone underflows below rc ~ 1e-86 m, hbar^2 m^2 rc^4 below
    # 1e-65 m; the PSD does not, in the oracle or the closed forms
    ranges = [("1e-140", "1e-130"), ("1e-100", "1e-90")]
    for config, (rc_min, rc_max) in itertools.product(["ligo", "lisa_pathfinder"], ranges):
        argv = ["validate", "--config", config, "--rc-min", rc_min, "--rc-max", rc_max, "--points", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out.splitlines()[-1].startswith("max_rel_diff = "), argv


@pytest.mark.parametrize("config", ["ligo", "lisa_pathfinder", "auriga"])
def test_validate_at_the_smallest_rc_never_prints_nan(capsys, config):
    # 60/rc overflows on [tiny, ~1e-305]; it once gave NaN, a QuadratureError
    # or "cannot convert float NaN to integer"
    for rc in [2.3e-308, 6e-307, 3.1e-306, *np.geomspace(2.3e-308, 1e-300, 5)[1:]]:
        code, out, err = run(capsys, "validate", "--config", config, "--rc-min", repr(float(rc)), "--rc-max", "1e-299", "--points", "2")
        assert "nan" not in (out + err).lower(), rc
        assert code == 0 or (code == 3 and len(err.splitlines()) == 1 and err.startswith("error: ")), (rc, err)


@pytest.mark.parametrize("config, key", [("ligo", "radius_m"), ("lisa_pathfinder", "side_m"), ("auriga", "radius_m")])
def test_overflowing_volume_exit_2(tmp_path, capsys, config, key):
    doc = json.loads(bundled_config_path(config).read_text())
    doc["geometry"][key] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bound", "--config", str(path), "--rc", "1e-7")
    assert code == 2 and out == ""
    assert err.startswith("error: geometry: volume must be finite")


@pytest.mark.parametrize(
    "config, dims",
    [
        ("lisa_pathfinder", {"side_m": 1e60}),
        ("lisa_pathfinder", {"side_m": 1e-60}),
        ("ligo", {"radius_m": 1e-90, "length_m": 1e-90}),
        ("auriga", {"radius_m": 1e-90, "length_m": 1e-90}),
    ],
)
def test_extreme_body_sizes_give_a_finite_bound(tmp_path, capsys, config, dims):
    # the schema accepts these bodies; their side^6 or L^2 R^2 once ended
    # `bound` in an OverflowError or ZeroDivisionError traceback, and the
    # tiny bar's axial factor, which underflows, once made it exit 3
    doc = json.loads(bundled_config_path(config).read_text())
    doc["geometry"].update(dims)
    doc["geometry"].pop("density_kg_m3", None)
    if "bar_length_m" in doc["response"]:  # a bar states its length twice, and the two must agree
        doc["response"]["bar_length_m"] = doc["geometry"]["length_m"]
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bound", "--config", str(path), "--rc", "1")
    assert code == 0 and err == ""
    assert out.startswith("lambda_max_per_s = ") and len(out.splitlines()) == 1
    value = float(out.split("=")[1])
    assert math.isfinite(value) and value > 0.0


def test_only_validate_imports_the_oracle():
    src = str(Path(cslbounds.__file__).parents[1])
    script = (
        "import sys\n"
        "from cslbounds.cli import main\n"
        "assert main(['bound', '--config', 'ligo', '--rc', '1e-7']) == 0\n"
        "assert 'cslbounds.kspace' not in sys.modules\n"
        "from cslbounds import force_psd_by_quadrature\n"
        "assert force_psd_by_quadrature.__module__ == 'cslbounds.kspace'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_oscillator_response_exit_2(tmp_path, capsys):
    doc = json.loads(bundled_config_path("ligo").read_text())
    doc["response"] = {"kind": "oscillator", "resonance_hz": 1.0, "q_factor": 1e3}
    path = tmp_path / "oscillator.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bound", "--config", str(path), "--rc", "1e-7")
    assert code == 2 and out == ""
    assert err.startswith("error: response")


def test_unknown_noise_entry_exit_2(capsys):
    code, _, err = run(capsys, "ellis", "--config", "lisa_pathfinder", "--noise-entry", "nope")
    assert code == 2
    assert "no noise entry" in err


def test_bad_rc_exit_2(capsys):
    code, _, err = run(capsys, "bound", "--config", "lisa_pathfinder", "--rc", "-1.0")
    assert code == 2


def test_help_and_version_exit_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "cslbounds" in out


def test_usage_error_exit_2(capsys):
    assert main(["noise", "--config", "lisa_pathfinder"]) == 2  # missing required flags


def _drop_frequencies(doc):
    for entry in doc["noise"]:
        del entry["frequency_hz"]


def _overflowing_ellis_rate(doc):
    doc["geometry"]["mass_kg"] = 1e160
    del doc["geometry"]["density_kg_m3"]


def _bar_with_empty_halves(doc):
    # a valid bar whose halves are not: length/2 rounds to 0
    doc["geometry"].update(radius_m=1e150, length_m=5e-324, mass_kg=1.0)
    del doc["geometry"]["density_kg_m3"]


def _forged_csv_rows(doc):
    # each line break, written as is, would forge a bare line and a header row with a data row
    doc["name"] = "ligo\nx"
    doc["noise"][0]["provenance"] = "paper\nr_c_m,lambda_max_per_s\n1,2"


def _repeated_side(doc):
    return json.dumps(doc).replace('"side_m": 0.046', '"side_m": 0.046, "side_m": 0.05')


def _integer_past_str_digits_limit(doc):
    # json.dumps would refuse the integer itself, so the literal is written as text
    return json.dumps(doc).replace('"mass_kg": 1.928', '"mass_kg": ' + "9" * 5000)


def _underflowing_bound(doc):
    # a huge model PSD over a subnormal measured one: lambda_max rounds to 0
    doc["geometry"]["mass_kg"] = 1e30
    del doc["geometry"]["density_kg_m3"]
    doc["noise"][0]["asd_force_n_per_sqrt_hz"] = 1e-160


SPECTRUM_HEADER = "frequency_hz,asd_strain_per_sqrt_hz\n"
SPECTRUM_ARGS = ["--config", "ligo", "--asd", "strain.csv", "--out", "c.csv"]


@pytest.mark.parametrize(
    "command, config, mutate, argv, spectrum, code, message",
    [
        ("scan", "ligo", None, ["--rc-min", "1", "--rc-max", "0.5", "--out", "c.csv"], None, 2,
         "--rc-min must be positive and below --rc-max"),
        ("noise", "ligo", _drop_frequencies, ["--rc", "1e-7", "--lambda", "1"], None, 2,
         "strain equivalent needs --frequency-hz (config has no noise entry with a frequency)"),
        ("bound", "ligo", _underflowing_bound, ["--rc", "1e-7"], None, 3,
         "lambda_max underflows for 'ligo' at r_c = 1e-07 m; no finite bound exists"),
        ("bound", "ligo", lambda d: d["arrangement"].pop("separation_m"), ["--rc", "1e-7"], None, 2,
         "arrangement.separation_m: required field is missing"),
        ("bound", "auriga", lambda d: d["noise"][0].update(csl_fraction=0.0), ["--rc", "1e-7"], None, 2,
         "noise[0]: csl_fraction must be in (0, 1], got 0.0"),
        ("bound", "ligo", lambda d: d.update(noise={}), ["--rc", "1e-7"], None, 2,
         "noise: expected a list of noise entries"),
        ("bound", "ligo", lambda d: d["arrangement"].update(arm_count=2.0), ["--rc", "1e-7"], None, 2,
         "arrangement.arm_count: expected an integer, got 2.0"),
        ("ellis", "ligo", lambda d: d.update(noise=[]), [], None, 2,
         "detector 'ligo' declares no noise entries"),
        ("spectrum-bound", None, None, SPECTRUM_ARGS, SPECTRUM_HEADER + "10.0,1e-22,3\n", 2,
         "line 2: expected two comma-separated values, got '10.0,1e-22,3'"),
        ("spectrum-bound", None, None, SPECTRUM_ARGS, SPECTRUM_HEADER + "10.0,abc\n", 2,
         "line 2: could not parse numbers from '10.0,abc'"),
        ("spectrum-bound", None, None, ["--config", "ligo", "--asd", "missing.csv", "--out", "c.csv"], None, 2,
         "spectrum file not found: missing.csv"),
        ("bound", None, None, ["--config", "sub", "--rc", "1e-7"], None, 2, "[Errno 21] Is a directory: 'sub'"),
        ("spectrum-bound", None, None, ["--config", "ligo", "--asd", "sub", "--out", "c.csv"], None, 2,
         "[Errno 21] Is a directory: 'sub'"),
        ("scan", "ligo", None, ["--out", "sub"], None, 2, "[Errno 21] Is a directory: 'sub'"),
        ("spectrum-bound", None, None, ["--config", "ligo", "--asd", "strain.csv", "--out", "missing/c.csv"],
         SPECTRUM_HEADER + "10.0,1e-22\n", 2, "[Errno 2] No such file or directory: 'missing/c.csv'"),
        ("spectrum-bound", None, None, SPECTRUM_ARGS, SPECTRUM_HEADER + "10.0,1e300\n", 2,
         "equivalent force ASD at 10 Hz must be finite and > 0, got inf"),
        ("spectrum-bound", None, None, SPECTRUM_ARGS, SPECTRUM_HEADER + "1e-300,1e-22\n", 2,
         "equivalent force ASD at 1e-300 Hz must be finite and > 0, got 0.0"),
        ("spectrum-bound", None, None, SPECTRUM_ARGS, SPECTRUM_HEADER + "10.0,1e150\n", 2,
         "force PSD of the spectrum minimum at 10 Hz must be finite and > 0, got inf"),
        ("spectrum-bound", None, None, SPECTRUM_ARGS, SPECTRUM_HEADER + "10.0,1e-300\n", 2,
         "force PSD of the spectrum minimum at 10 Hz must be finite and > 0, got 0.0"),
        ("spectrum-bound", None, None, ["--config", "auriga", "--asd", "strain.csv", "--out", "c.csv"],
         SPECTRUM_HEADER + "10.0,1e-22\n", 2, "a strain spectrum needs a free-mass interferometer config, not 'auriga' (bar)"),
        ("scan", "ligo", None, ["--rc-max", "inf", "--out", "c.csv"], None, 2, "--rc-max must be finite and > 0, got inf"),
        ("bound", "lisa_pathfinder", lambda d: d["geometry"].update(mass_kg=10**400), ["--rc", "1e-7"], None, 2,
         "geometry.mass_kg: integer is too large for a double"),
        ("bound", "lisa_pathfinder", _integer_past_str_digits_limit, ["--rc", "1e-7"], None, 2,
         "geometry.mass_kg: integer is too large for a double"),
        ("bound", "lisa_pathfinder", _repeated_side, ["--rc", "1e-7"], None, 2, "repeated field 'side_m' (strict schema)"),
        ("ellis", "ligo", _overflowing_ellis_rate, [], None, 3, "eta_ellis overflows for 'ligo'; no finite comparison exists"),
        ("ellis", "ligo", lambda d: d["noise"][0].update(asd_force_n_per_sqrt_hz=1e125), [], None, 3,
         "eta_exp overflows for 'ligo'; no finite comparison exists"),
        ("noise", "ligo", None, ["--rc", "1e-7", "--lambda", "1e307"], None, 3,
         "model force PSD overflows for 'ligo' at r_c = 1e-07 m and lambda = 1e+307 /s; no finite value exists"),
        ("scan", "ligo", _forged_csv_rows, ["--out", "c.csv"], None, 2,
         "curve detector_id 'ligo\\nx' holds a line break; a CSV header value must be one line"),
        ("scan", "ligo", lambda d: d["noise"][0].update(provenance="paper\u2028r_c_m"), ["--out", "c.csv"], None, 2,
         "curve provenance 'paper\\u2028r_c_m' holds a line break; a CSV header value must be one line"),
        ("bound", "auriga", _bar_with_empty_halves, ["--rc", "1e-7"], None, 2,
         "geometry: half-cylinder length must be finite and > 0, got 0.0"),
    ],
    ids=[
        "rc_range", "no_frequency", "lambda_underflow", "no_separation", "csl_fraction", "noise_not_a_list",
        "float_arm_count", "no_noise_entries", "three_columns", "unparsable_row", "missing_spectrum",
        "config_is_a_directory", "spectrum_is_a_directory", "out_is_a_directory", "out_in_a_missing_directory",
        "force_asd_overflow", "force_asd_underflow", "minimum_psd_overflow", "minimum_psd_underflow",
        "spectrum_on_a_bar", "infinite_rc_max", "integer_beyond_double",
        "integer_past_str_digits_limit", "repeated_key", "ellis_rate_overflow",
        "eta_exp_overflow", "model_psd_overflow", "name_forges_csv_rows", "provenance_holds_a_line_separator",
        "bar_halves_invalid",
    ],
)
def test_input_and_numerical_errors_print_one_line(
    tmp_path, monkeypatch, capsys, command, config, mutate, argv, spectrum, code, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if spectrum is not None:
        (tmp_path / "strain.csv").write_text(spectrum)
    if config is not None:
        argv = ["--config", str(write_config(tmp_path, config, mutate) if mutate else config), *argv]
    got, out, err = run(capsys, command, *argv)
    assert (got, out, err) == (code, "", f"error: {message}\n")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("config", ["ligo", "lisa_pathfinder", "auriga"])
def test_noise_at_negative_zero_rate_prints_positive_zero(capsys, config):
    code, out, err = run(capsys, "noise", "--config", config, "--rc", "1e-7", "--lambda", "-0.0")
    assert (code, err) == (0, "")
    assert out.startswith("s_ff_one_sided_n2_per_hz = 0.00000000e+00\n") and "= -" not in out


CLASSIFIED_COMMANDS = [
    *(
        [command, "--config", config, *args]
        for config in ("ligo", "lisa_pathfinder", "auriga")
        for command, args in (
            ("noise", ["--rc", "1e-7", "--lambda", "1"]),
            ("bound", ["--rc", "1e-7"]),
            ("scan", ["--points", "5", "--out", "c.csv"]),
            ("ellis", []),
            ("validate", ["--points", "2"]),
        )
    ),
    ["spectrum-bound", "--config", "ligo", "--asd", "strain.csv", "--points", "5", "--out", "c.csv"],
]


@pytest.mark.parametrize("argv", CLASSIFIED_COMMANDS, ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_each_command_classifies_its_detector_once(tmp_path, monkeypatch, capsys, argv):
    from cslbounds import detector

    classified = []
    classify = detector.detector_archetype

    def counted(det):
        classified.append(det.name)
        return classify(det)

    # every module that imported the classifier by name gets the counter too
    for name, module in list(sys.modules.items()):
        if name.startswith("cslbounds") and getattr(module, "detector_archetype", None) is classify:
            monkeypatch.setattr(module, "detector_archetype", counted)
    monkeypatch.chdir(tmp_path)
    write_v_spectrum(tmp_path)
    code, _, err = run(capsys, *argv)
    assert (code, err, classified) == (0, "", [argv[2]])


def _quadrature_failure(config, rc):
    from cslbounds import CslParams, QuadratureError, force_psd_by_quadrature

    det = load_detector_config(config)
    with pytest.raises(QuadratureError) as info:
        force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
    return info.value


VALIDATE_ARGS = ["validate", "--config", "lisa_pathfinder", "--rc-min", "1e-3", "--rc-max", "1e-2", "--points", "2"]


def test_validate_budget_exhaustion_states_the_achieved_error(capsys, monkeypatch):
    from cslbounds import kspace

    # on the first pass no error estimate exists yet: so with the zero mode's memo empty, and with it filled
    monkeypatch.setattr(kspace, "_ZERO_MODE", [])
    det = load_detector_config("lisa_pathfinder")
    for warm in (False, True):
        if warm:
            kspace.force_psd_by_quadrature(cslbounds.CslParams(1.0, 1e-3), det.geometry, det.arrangement)
        with monkeypatch.context() as m:
            m.setattr(kspace, "BUDGET", 100)
            code, out, err = run(capsys, *VALIDATE_ARGS)
        assert (code, out, err) == (3, "", "error: evaluation budget exhausted while integrating cosine mode at 0 rad per r_c\n")
        assert len(kspace._ZERO_MODE) == (3 if warm else 0)
    # a target beyond the first pass makes the slab integral double; one node short of its need it stops
    monkeypatch.setattr(kspace, "REL_TOL", 1e-12)
    monkeypatch.setattr(kspace, "BUDGET", 10**8)
    need = kspace.force_psd_by_quadrature(cslbounds.CslParams(1.0, 1e-3), det.geometry, det.arrangement).evaluations
    monkeypatch.setattr(kspace, "BUDGET", need - 1)
    achieved = _quadrature_failure("lisa_pathfinder", 1e-3).achieved_rel_error
    assert achieved is not None
    code, out, err = run(capsys, *VALIDATE_ARGS)
    assert (code, out) == (3, "")
    assert err == f"error: evaluation budget exhausted while integrating slab form-factor integral (achieved {achieved:.3e})\n"


def test_validate_missed_target_states_the_achieved_error_once(capsys, monkeypatch):
    from cslbounds import kspace

    monkeypatch.setattr(kspace, "REL_TOL", 1e-20)
    achieved = _quadrature_failure("lisa_pathfinder", 1e-3).achieved_rel_error
    code, out, err = run(capsys, *VALIDATE_ARGS)
    assert (code, out) == (3, "")
    assert err == f"error: quadrature reached relative error {achieved:.3e}, above the target 1.000e-20\n"


def run_in_process(*argv):
    """main(argv) with stdout and stderr captured, for Hypothesis tests (no function-scoped fixture)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_normal_or_named(code, out, err, names):
    """Exit 0 printing only normal doubles > 0, or exit 3, stdout empty, one error line naming a quantity."""
    if code == 0:
        assert err == ""
        values = [float(line.split(" = ")[1]) for line in out.splitlines()]
        assert values and all(sys.float_info.min <= v < math.inf for v in values), out
    else:
        assert (code, out) == (3, "") and err.count("\n") == 1, (code, out, err)
        assert err.split()[1] in names and err.split()[2] in ("underflows", "overflows"), err


@settings(derandomize=True, max_examples=30)
@given(st.sampled_from(["ligo", "lisa_pathfinder", "auriga"]), st.floats(min_value=-320.0, max_value=0.0))
@example("ligo", -300.0)
def test_noise_prints_a_normal_double_or_exits_3(config, rate_exponent):
    # lambda = 1e-300 once printed a subnormal s_ff and s_hh = 0 with exit 0
    code, out, err = run_in_process("noise", "--config", config, "--rc", "1e-7", "--lambda", repr(10.0**rate_exponent))
    names = ["s_ff_one_sided_n2_per_hz", "frequency_hz", "s_hh_one_sided_per_hz", "s_gg_one_sided_m2_s4_per_hz"]
    assert_normal_or_named(code, out, err, names)


@settings(derandomize=True, max_examples=30)
@given(st.floats(min_value=-200.0, max_value=3.0))
@example(-170.0)
def test_ellis_prints_a_normal_double_or_exits_3(mass_exponent):
    # a ligo mass of 1e-170 kg once printed eta_ratio = 0 with exit 0
    def mutate(doc):
        doc["geometry"]["mass_kg"] = 10.0**mass_exponent
        del doc["geometry"]["density_kg_m3"]

    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_in_process("ellis", "--config", str(write_config(Path(tmp), "ligo", mutate)))
    assert_normal_or_named(code, out, err, ["eta_exp", "eta_ellis", "eta_ratio"])


def numeric_fields(doc, prefix=()):
    """Key paths to every number in a config document but its schema_version."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from numeric_fields(value, (*prefix, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and key != "schema_version":
            yield (*prefix, key)


BUNDLED_DOCS = {name: json.loads(bundled_config_path(name).read_text()) for name in ("ligo", "lisa_pathfinder", "auriga")}
# 0 or +-10^U(-320, 308): subnormal, tiny, huge and negative values alike
FIELD_VALUES = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(min_value=-320.0, max_value=308.0)),
)
# mostly physical correlation lengths, sometimes any double's exponent
RC_EXPONENTS = st.one_of(st.floats(min_value=-12.0, max_value=4.0), st.floats(min_value=-320.0, max_value=308.0))


# a field's own value times 10^U(-3, 3): mostly a config that still passes its checks
OWN_SCALES = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


@st.composite
def mutated_configs(draw):
    """(bundled config name, ((key path, new value), ...)) with 1-3 numeric fields changed."""
    config = draw(st.sampled_from(sorted(BUNDLED_DOCS)))
    paths = draw(st.lists(st.sampled_from(list(numeric_fields(BUNDLED_DOCS[config]))), min_size=1, max_size=3, unique=True))
    mutations = []
    for path in paths:
        own = functools.reduce(operator.getitem, path, BUNDLED_DOCS[config])
        mutations.append((path, draw(st.one_of(FIELD_VALUES, OWN_SCALES.map(lambda scale: own * scale)))))
    return config, tuple(mutations)


@st.composite
def commands(draw):
    """argv after --config for a drawn bound, noise, ellis, scan or validate; scan's --out is added later."""
    command = draw(st.sampled_from(["bound", "noise", "ellis", "scan", "validate"]))
    rc = repr(10.0 ** draw(RC_EXPONENTS))
    if command == "bound":
        return [command, "--rc", rc]
    if command == "noise":
        rate = draw(st.one_of(st.just(0.0), st.floats(min_value=-320.0, max_value=308.0).map(lambda e: 10.0**e)))
        return [command, "--rc", rc, "--lambda", repr(rate)]
    if command == "ellis":
        return [command]
    low = draw(RC_EXPONENTS)
    high = min(low + draw(st.floats(min_value=0.0, max_value=6.0)), 308.0)
    points = draw(st.integers(min_value=2, max_value=3 if command == "validate" else 20))
    return [command, "--rc-min", repr(10.0**low), "--rc-max", repr(10.0**high), "--points", str(points)]


def check_printed_quantities(argv, out):
    """Every number stdout prints is a normal double > 0; a rel_diff may be 0, and so may all but the
    frequency at a zero collapse rate."""
    zero_rate = argv[0] == "noise" and float(argv[argv.index("--lambda") + 1]) == 0.0
    columns = None
    for line in out.splitlines():
        if line.startswith("wrote "):
            continue
        if " = " in line:
            name, text = line.split(" = ")
            if name == "endorsed_variant":
                assert text in cslbounds.BAR_VARIANTS, line
                continue
            pairs = [(name, text)]
        elif columns is None:
            columns = line.split()  # validate's table header
            continue
        else:
            pairs = list(zip(columns, line.split(), strict=True))
        for name, text in pairs:
            value = float(text)
            if value == 0.0 and (name.endswith("rel_diff") or (zero_rate and name != "frequency_hz")):
                continue
            assert sys.float_info.min <= value < math.inf, (argv, line)


LISA_SIDE, LISA_MASS, LISA_SEPARATION = ("geometry", "side_m"), ("geometry", "mass_kg"), ("arrangement", "separation_m")


# the caller's numpy error state around cli.main: numpy's default, or every float error raising or warning
CALLER_STATES = st.sampled_from([None, "raise", "warn"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_configs(), commands(), CALLER_STATES)
@example(("lisa_pathfinder", ()), ["validate", "--rc-min", "1", "--rc-max", "100", "--points", "5"], None)
@example(("ligo", ()), ["noise", "--rc", "1e-7", "--lambda", "1e-300"], None)
@example(("ligo", ()), ["noise", "--rc", "1e-7", "--lambda", "0.0"], None)
# q = hbar (m / m0) r_c overflows: times a zero rate it gave nan, and its own overflow warned
@example(("lisa_pathfinder", ((LISA_MASS, 1e282),)), ["noise", "--rc", "1.0", "--lambda", "0.0"], None)
@example(("lisa_pathfinder", ((LISA_MASS, 1e8),)), ["bound", "--rc", "1e+308"], None)
# the cube kernel overflows below a side of about 1e-79 m: it warned on stderr before the error line
@example(("lisa_pathfinder", ((LISA_SIDE, 2.4837437548017116e-83),)), ["noise", "--rc", "2.1312103355487525e-122", "--lambda", "0.0"], None)
@example(
    ("lisa_pathfinder", ((LISA_SIDE, 2.5992238871804614e-104), (LISA_SEPARATION, 1.7040011330365456e-214))),
    ["scan", "--rc-min", "1.7040011330365456e-214", "--rc-max", "1.4033260096407647e-208", "--points", "14"],
    None,
)
# validate printed a subnormal PSD, and an infinite one with a nan rel_diff and exit 0
@example(("lisa_pathfinder", ()), ["validate", "--rc-min", "5.6578840278345395e-158", "--rc-max", "6.371934547653664e-157", "--points", "3"], None)
@example(
    ("lisa_pathfinder", ((LISA_SIDE, 1.0), (LISA_MASS, 1.2455384601557503e288), (LISA_SEPARATION, 1.2455384601557503e288))),
    ["validate", "--rc-min", "1.2521534916962425e-09", "--rc-max", "0.0007393779741563973", "--points", "3"],
    None,
)
# r_c / side underflows to 0 in the oracle: ZeroDivisionError
@example(
    ("lisa_pathfinder", ((LISA_SEPARATION, 2.3118510031630038e-126), (LISA_SIDE, 1.7145338943266905e47))),
    ["validate", "--rc-min", "3.05484003575819e-290", "--rc-max", "6.730034130394141e-286", "--points", "3"],
    None,
)
# under a caller's np.seterr(all="raise"): the closed forms' exp underflow, and np.geomspace's on a subnormal grid,
# ended in FloatingPointError
@example(("lisa_pathfinder", ()), ["bound", "--rc", "1e-7"], "raise")
@example(("ligo", ()), ["scan", "--rc-min", "1e-315", "--rc-max", "1e-310", "--points", "3"], "raise")
# a body length of 1e200 m: the oracle's float ell**2 raised OverflowError
@example(
    ("ligo", ((("geometry", "length_m"), 1e200), (("geometry", "density_kg_m3"), 4.4056731651735724e-198))),
    ["validate", "--rc-min", "1e-3", "--rc-max", "1", "--points", "2"],
    None,
)
def test_every_command_keeps_the_exit_code_and_stdout_contract(config, argv, state):
    # exit 0: stderr empty and every printed quantity a normal double > 0;
    # exit 2 or 3: stdout empty and one `error: ` line on stderr, and no curve written;
    # whatever numpy error state the caller set, with warnings raised as errors
    name, mutations = config

    def mutate(doc):
        for (*keys, last), value in mutations:
            target = doc
            for key in keys:
                target = target[key]
            target[last] = value

    with tempfile.TemporaryDirectory() as tmp:
        path, out_csv = write_config(Path(tmp), name, mutate), Path(tmp) / "c.csv"
        full = [argv[0], "--config", str(path), *argv[1:], *(["--out", str(out_csv)] if argv[0] == "scan" else [])]
        with warnings.catch_warnings(), np.errstate(all=state) if state else contextlib.nullcontext():
            warnings.simplefilter("error")
            code, out, err = run_in_process(*full)
        event(f"exit {code}")
        if code == 0:
            assert err == "", (full, err)
            assert argv[0] != "scan" or out.startswith(f"wrote {out_csv} (") and out_csv.exists(), (full, out)
            check_printed_quantities(argv, out)
        else:
            assert code in (2, 3) and out == "", (full, code, out)
            assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (full, err)
            assert not out_csv.exists()


GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPT_RCS = ["1e-09", "1e-07", "1e-05", "0.001", "0.1", "10"]


def transcript_commands():
    """Every command of the committed transcript; relative paths keep it independent of the directory."""
    commands = []
    for config in ("ligo", "lisa_pathfinder", "auriga"):
        variants = [[], ["--variant", "printed"], ["--variant", "rederived"]] if config == "auriga" else [[]]
        for rc, variant in itertools.product(TRANSCRIPT_RCS, variants):
            commands.append(["noise", "--config", config, "--rc", rc, "--lambda", "1", *variant])
            commands.append(["bound", "--config", config, "--rc", rc, *variant])
        commands.append(["scan", "--config", config, "--out", f"{config}_scan.csv"])
        commands.append(["ellis", "--config", config])
    commands.append(["noise", "--config", "ligo", "--rc", "1e-07", "--lambda", "1", "--frequency-hz", "100"])
    commands.append(["bound", "--config", "ligo", "--noise-entry", "design", "--rc", "1e-07"])
    commands.append(["spectrum-bound", "--config", "ligo", "--asd", "strain.csv", "--out", "spectrum.csv"])
    return commands


def cli_transcript(workdir: Path) -> str:
    """Run transcript_commands in workdir, in process; each command's line, then its stdout."""
    import contextlib
    import io

    write_v_spectrum(workdir)
    chunks = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in transcript_commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, err.getvalue()) == (0, ""), (argv, err.getvalue())
            chunks.append(f"$ cslbounds {' '.join(argv)}\n{out.getvalue()}")
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_cli_transcript_is_byte_identical(tmp_path):
    # regenerate after an intended change: PYTHONPATH=src python tests/test_cli.py > tests/golden/cli_transcript.txt
    assert cli_transcript(tmp_path) == (GOLDEN / "cli_transcript.txt").read_text(encoding="utf-8")
    for config in ("ligo", "lisa_pathfinder", "auriga"):
        assert (tmp_path / f"{config}_scan.csv").read_bytes() == (GOLDEN / f"{config}_scan.csv").read_bytes(), config


@pytest.mark.parametrize("state", ["raise", "warn"])
def test_no_command_depends_on_the_callers_numpy_error_state(tmp_path, monkeypatch, state):
    # under np.seterr(all="raise") bound, noise and validate once ended in
    # `FloatingPointError: underflow encountered in exp`, and "warn" printed RuntimeWarnings
    write_v_spectrum(tmp_path)
    monkeypatch.chdir(tmp_path)
    configs = ("ligo", "lisa_pathfinder", "auriga")
    runs = [*transcript_commands(), *(["validate", "--config", c] for c in configs)]
    runs += [["validate", "--config", c, "--rc-min", "1e-300", "--rc-max", "1e-290", "--points", "2"] for c in configs]
    for argv in runs:
        expected = run_in_process(*argv)
        with warnings.catch_warnings(), np.errstate(all=state):
            warnings.simplefilter("error")
            assert run_in_process(*argv) == expected, argv


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        sys.stdout.write(cli_transcript(Path(workdir)))
