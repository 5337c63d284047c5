"""CLI behavior: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cslbounds
from cslbounds import bundled_config_path
from cslbounds.cli import MAX_POINTS, main


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


def test_noise_closes_the_lisa_loop(capsys):
    code, out, err = run(
        capsys, "noise", "--config", "lisa_pathfinder", "--rc", "1e-7", "--lambda", "3e-8"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("s_ff_one_sided_n2_per_hz = ")
    sgg = float(lines[1].split(" = ")[1])
    assert sgg == pytest.approx(2.7e-29, rel=0.01)


def test_noise_zero_rate(capsys):
    code, out, _ = run(capsys, "noise", "--config", "lisa_pathfinder", "--rc", "1e-7", "--lambda", "0")
    assert code == 0
    assert out.splitlines()[0].endswith("0.00000000e+00")


@pytest.mark.parametrize("frequency", ["0", "-5"])
def test_noise_nonpositive_frequency_exit_2(capsys, frequency):
    code, out, err = run(
        capsys, "noise", "--config", "ligo", "--rc", "1e-7", "--lambda", "1", f"--frequency-hz={frequency}"
    )
    assert code == 2
    assert "omega must be > 0" in err


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
    assert force == pytest.approx(95e-15, rel=0.01)
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


@pytest.mark.parametrize("config", ["ligo", "auriga", "lisa_pathfinder"])
def test_tiny_rc_prints_only_the_error_line(config):
    # below rc ~ 1e-154 the closed forms' scaled lengths overflow; numpy
    # must not print a RuntimeWarning ahead of the error
    src = str(Path(cslbounds.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cslbounds.cli", "bound", "--config", config, "--rc", "1e-160"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


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
