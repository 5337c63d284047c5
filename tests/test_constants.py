import json

import pytest

from cslbounds import (
    C_LIGHT,
    HBAR,
    M_NUCLEON,
    M_PLANCK,
    ConfigError,
    CslParams,
    MeasuredNoise,
    acceleration_psd,
    bundled_config_path,
    lambda_max,
    load_detector_config,
    load_spectrum_csv,
    model_force_psd,
)


def write_config(tmp_path, name, mutate):
    """A bundled config as a dict, mutated and dumped to a temp file."""
    doc = json.loads(bundled_config_path(name).read_text())
    mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_constants_fixed_values():
    assert HBAR == 1.054571817e-34
    assert C_LIGHT == 299792458.0
    assert M_NUCLEON == 1.66053906660e-27
    assert M_PLANCK == 2.176434e-8
    assert all(v > 0 for v in (HBAR, C_LIGHT, M_NUCLEON, M_PLANCK))


def test_to_one_sided_matches_published_acceleration_figure(lisa):
    # at the bound the internal two-sided model acceleration PSD is half the
    # published one-sided 2.7e-29 m^2 s^-4 / Hz: converted back it is the figure
    rc = 1e-7
    lam = lambda_max(lisa, lisa.noise_entry("published_minimum"), rc)
    s_two_sided = float(model_force_psd(lisa, CslParams(lam, rc)))
    assert acceleration_psd(s_two_sided, lisa.geometry.mass) == pytest.approx(1.35e-29, rel=1e-12)
    assert acceleration_psd(2.0 * s_two_sided, lisa.geometry.mass) == pytest.approx(2.7e-29, rel=1e-12)


def test_asd_to_psd_force_example(ligo):
    # the config gives the one-sided amplitude 95e-15 N/sqrt(Hz)
    assert ligo.noise_entry("o1_minimum").psd == pytest.approx(9.025e-27, rel=1e-12)


def test_asd_to_psd_strain_example(auriga):
    # the config gives the one-sided amplitude 1.6e-21 /sqrt(Hz)
    assert auriga.noise_entry("thermal_calibrated").psd == pytest.approx(2.56e-42, rel=1e-12)


def test_negative_amplitude_rejected(tmp_path):
    def mutate(d):
        d["noise"][0]["asd_force_n_per_sqrt_hz"] = -1.0

    with pytest.raises(ConfigError, match=r"noise\[0\]\.asd_force_n_per_sqrt_hz: amplitude must be >= 0"):
        load_detector_config(write_config(tmp_path, "ligo", mutate))


def test_unknown_tags_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown noise quantity"):
        MeasuredNoise(name="n", quantity="pressure", psd=1.0)

    def mutate(d):
        d["noise"][0]["kind"] = "pressure"

    with pytest.raises(ConfigError, match=r"noise\[0\]\.kind: unknown noise kind"):
        load_detector_config(write_config(tmp_path, "ligo", mutate))
    spectrum = tmp_path / "spec.csv"
    spectrum.write_text("# sidedness: folded\nfrequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n")
    with pytest.raises(ConfigError, match="only one_sided spectra"):
        load_spectrum_csv(spectrum, "strain")
