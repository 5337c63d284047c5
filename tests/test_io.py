"""Config, spectrum and curve file handling."""

import json
import math

import numpy as np
import pytest

from cslbounds import (
    ConfigError,
    Cube,
    Cylinder,
    ExclusionCurve,
    HalfCylinderBar,
    load_detector_config,
    load_spectrum_csv,
    write_exclusion_csv,
)
from cslbounds import io
from cslbounds.io import BUNDLED_CONFIGS, bundled_config_path


def rewrite(tmp_path, mutate, config="lisa_pathfinder"):
    """Load a bundled config (LISA by default) as a dict, mutate it, dump to a temp file."""
    doc = json.loads(bundled_config_path(config).read_text())
    mutate(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# --- detector configs -------------------------------------------------------------


def test_bundled_configs_load_and_validate():
    for name in BUNDLED_CONFIGS:
        det = load_detector_config(name)
        assert det.name == name
        assert det.noise


def test_bundled_ligo_parameters(ligo):
    geom = ligo.geometry
    assert isinstance(geom, Cylinder)
    assert (geom.radius, geom.length, geom.mass, geom.density) == (0.17, 0.2, 40.0, 2200.0)
    assert ligo.arrangement.separation == 4000.0
    assert ligo.arrangement.arm_count == 2
    # density * volume = 39.95 kg, 0.13% from the declared 40 kg
    assert abs(geom.mass - geom.density * geom.volume) / geom.mass < 0.002


def test_bundled_lisa_parameters(lisa):
    geom = lisa.geometry
    assert isinstance(geom, Cube)
    assert (geom.side, geom.mass) == (0.046, 1.928)
    assert lisa.arrangement.separation == 0.376


def test_bundled_auriga_parameters(auriga):
    geom = auriga.geometry
    assert isinstance(geom, HalfCylinderBar)
    assert (geom.radius, geom.length, geom.mass, geom.density) == (0.3, 3.0, 2300.0, 2700.0)
    # density * volume = 2290 kg, 0.4% from the declared 2300 kg
    assert abs(geom.mass - geom.density * geom.volume) / geom.mass < 0.005
    assert auriga.arrangement.separation == 1.5
    assert auriga.noise_entry().csl_fraction == 0.1
    assert auriga.response.omega0 == pytest.approx(2.0 * math.pi * 931.0, rel=1e-15)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_detector_config(tmp_path / "nope.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_detector_config(path)


def test_config_root_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match=r"^<root>: expected an object, got list$"):
        load_detector_config(path)


def test_unknown_bundled_config_rejected():
    with pytest.raises(ConfigError, match=r"^unknown bundled config 'nope' \(available: ligo, lisa_pathfinder, auriga\)$"):
        bundled_config_path("nope")


def test_negative_separation_rejected(tmp_path):
    path = rewrite(tmp_path, lambda d: d["arrangement"].update(separation_m=-1.0))
    with pytest.raises(ConfigError, match="arrangement"):
        load_detector_config(path)


def test_unknown_field_rejected(tmp_path):
    path = rewrite(tmp_path, lambda d: d.update(color="green"))
    with pytest.raises(ConfigError, match="color.*unknown field"):
        load_detector_config(path)


def test_unknown_geometry_field_rejected(tmp_path):
    path = rewrite(tmp_path, lambda d: d["geometry"].update(height_m=1.0))
    with pytest.raises(ConfigError, match="geometry.height_m"):
        load_detector_config(path)


def test_missing_schema_version_rejected(tmp_path):
    path = rewrite(tmp_path, lambda d: d.pop("schema_version"))
    with pytest.raises(ConfigError, match="schema_version"):
        load_detector_config(path)


def test_wrong_schema_version_rejected(tmp_path):
    path = rewrite(tmp_path, lambda d: d.update(schema_version=99))
    with pytest.raises(ConfigError, match="schema_version"):
        load_detector_config(path)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_schema_version_must_be_an_integer(tmp_path, bad):
    # True and 1.0 compare equal to 1, so only a type check rejects them
    path = rewrite(tmp_path, lambda d: d.update(schema_version=bad))
    with pytest.raises(ConfigError, match="schema_version"):
        load_detector_config(path)


@pytest.mark.parametrize("bad", [True, "0.1"])
def test_csl_fraction_must_be_a_number(tmp_path, bad):
    path = rewrite(tmp_path, lambda d: d["noise"][0].update(csl_fraction=bad))
    with pytest.raises(ConfigError, match=r"noise\[0\]\.csl_fraction: expected a number"):
        load_detector_config(path)


SECTIONS = {
    "geometry": ("shape", "shape", io.GEOMETRIES),
    "response": ("kind", "response kind", io.RESPONSES),
    "readout": ("kind", "readout kind", io.READOUTS),
}
TABLE_ROWS = [(section, spelling) for section, (_, _, table) in SECTIONS.items() for spelling in table]


def schema_cases(section, spelling):
    """(section node, exact ConfigError message) pairs for one table row."""
    tag, what, table = SECTIONS[section]
    _, required, optional = table[spelling]
    base = {tag: spelling, **{key: 1.0 for key in required}}
    path = f"{section}."
    cases = [({**base, "bogus_m": 1.0}, f"{path}bogus_m: unknown field (strict schema)")]
    cases += [({k: v for k, v in base.items() if k != key}, f"{path}{key}: required field is missing") for key in base]
    cases += [({**base, key: "1"}, f"{path}{key}: expected a number, got '1'") for key in (*required, *optional)]
    cases.append(({**base, tag: 5}, f"{path}{tag}: expected a string, got 5"))
    cases.append(({**base, tag: spelling + "_x"}, f"{path}{tag}: unknown {what} '{spelling}_x'"))
    return base, cases


@pytest.mark.parametrize("section, spelling", TABLE_ROWS)
def test_schema_table_rows_give_exact_messages(tmp_path, section, spelling):
    tag, what, table = SECTIONS[section]
    base, cases = schema_cases(section, spelling)
    io._parse_kind(base, f"{section}.", tag, what, table)  # every key reaches a constructor argument
    for node, message in cases:
        path = rewrite(tmp_path, lambda d: d.update({section: node}))
        with pytest.raises(ConfigError) as info:
            load_detector_config(path)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "section, key, bad, message",
    [
        ("geometry", "side_m", None, "geometry.side_m: expected a number, got None"),
        ("geometry", "side_m", -1.0, "geometry: side must be finite and > 0, got -1.0"),
        ("geometry", "mass_kg", 0.0, "geometry: mass must be finite and > 0, got 0.0"),
        ("geometry", "density_kg_m3", -1.0, "geometry: density must be finite and > 0, got -1.0"),
        ("arrangement", "separation_m", -1.0, "arrangement: separation must be finite and >= 0, got -1.0"),
        ("response", "resonance_hz", 0.0, "response: omega0 must be finite and > 0, got 0.0"),
        ("response", "bar_length_m", -1.0, "response: length must be finite and > 0, got -1.0"),
        ("noise", "psd_acceleration_m2_s4_per_hz", 0.0, "noise[0]: noise psd must be finite and > 0, got 0.0"),
        ("noise", "name", 5, "noise[0].name: expected a string, got 5"),
        ("noise", "provenance", None, "noise[0].provenance: expected a string, got None"),
        ("noise", "frequency_hz", "10", "noise[0].frequency_hz: expected a number, got '10'"),
        ("noise", "frequency_hz", -1.0, "noise[0]: frequency_hz must be finite and > 0, got -1.0"),
    ],
)
def test_field_path_is_not_doubled(tmp_path, section, key, bad, message):
    # a schema error names its field once; a constructor error names its section.
    # Only the bar config has a resonant_bar response.
    def mutate(d):
        node = d["noise"][0] if section == "noise" else d[section]
        node[key] = bad

    with pytest.raises(ConfigError) as info:
        load_detector_config(rewrite(tmp_path, mutate, "auriga" if section == "response" else "lisa_pathfinder"))
    assert str(info.value) == message


def test_spectrum_columns_are_the_amplitude_keys():
    assert io.SPECTRUM_COLUMNS == {
        "strain": "asd_strain_per_sqrt_hz",
        "force": "asd_force_n_per_sqrt_hz",
        "acceleration": "asd_acceleration_m_s2_per_sqrt_hz",
        "displacement": "asd_displacement_m_per_sqrt_hz",
    }


def test_density_mass_inconsistency_rejected(tmp_path):
    path = rewrite(tmp_path, lambda d: d["geometry"].update(density_kg_m3=25000.0))
    with pytest.raises(ConfigError, match="geometry.*inconsistent"):
        load_detector_config(path)


def test_mismatched_noise_value_key_rejected(tmp_path):
    def mutate(d):
        d["noise"][0].pop("psd_acceleration_m2_s4_per_hz")
        d["noise"][0]["asd_strain_per_sqrt_hz"] = 1e-21

    path = rewrite(tmp_path, mutate)
    with pytest.raises(ConfigError, match="noise\\[0\\]"):
        load_detector_config(path)


def test_noise_requires_exactly_one_value_key(tmp_path):
    def mutate(d):
        d["noise"][0]["asd_acceleration_m_s2_per_sqrt_hz"] = 1e-15

    path = rewrite(tmp_path, mutate)
    with pytest.raises(ConfigError, match="exactly one"):
        load_detector_config(path)


def test_duplicate_noise_names_rejected(tmp_path):
    def mutate(d):
        d["noise"][1]["name"] = d["noise"][0]["name"]

    path = rewrite(tmp_path, mutate)
    with pytest.raises(ConfigError, match="unique"):
        load_detector_config(path)


def test_unsupported_combination_rejected(tmp_path):
    # cube geometry with a resonant-bar response is not an archetype
    def mutate(d):
        d["response"] = {"kind": "resonant_bar", "resonance_hz": 931.0, "bar_length_m": 3.0}

    path = rewrite(tmp_path, mutate)
    with pytest.raises(ConfigError, match="response"):
        load_detector_config(path)


def test_bar_separation_must_match_half_length(tmp_path):
    doc = json.loads(bundled_config_path("auriga").read_text())
    doc["arrangement"]["separation_m"] = 1.0
    path = tmp_path / "bar.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="length/2"):
        load_detector_config(path)


def test_noise_entry_lookup(lisa):
    assert lisa.noise_entry().name == "published_minimum"
    assert lisa.noise_entry("foreseen_x2").psd == 1.35e-29
    with pytest.raises(ConfigError, match="no noise entry"):
        lisa.noise_entry("missing")


# --- spectrum CSV ------------------------------------------------------------------


def write_spectrum(tmp_path, body, name="spec.csv"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_load_spectrum_two_rows(tmp_path):
    path = write_spectrum(
        tmp_path,
        "# synthetic fixture\nfrequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n20.0,2e-23\n",
    )
    series = load_spectrum_csv(path, "strain")
    assert len(series) == 2
    assert series.frequency_hz[1] == 20.0
    assert series.asd[1] == 2e-23


def test_load_spectrum_skips_blank_lines(tmp_path):
    path = write_spectrum(tmp_path, "\nfrequency_hz,asd_strain_per_sqrt_hz\n\n10.0,1e-22\n   \n20.0,2e-23\n\n")
    series = load_spectrum_csv(path, "strain")
    assert series.frequency_hz.tolist() == [10.0, 20.0] and series.asd.tolist() == [1e-22, 2e-23]


def test_load_spectrum_unknown_quantity(tmp_path):
    path = write_spectrum(tmp_path, "frequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n")
    with pytest.raises(ConfigError, match=r"^unknown spectrum quantity 'entropy'$"):
        load_spectrum_csv(path, "entropy")


def test_load_spectrum_descending_rows_name_line(tmp_path):
    path = write_spectrum(
        tmp_path,
        "frequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n5.0,1e-22\n",
    )
    with pytest.raises(ConfigError, match="line 3"):
        load_spectrum_csv(path, "strain")


def test_load_spectrum_kind_mismatch(tmp_path):
    path = write_spectrum(tmp_path, "frequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n")
    with pytest.raises(ConfigError, match="does not match"):
        load_spectrum_csv(path, "acceleration")


def test_load_spectrum_rejects_nan_and_nonpositive(tmp_path):
    path = write_spectrum(tmp_path, "frequency_hz,asd_strain_per_sqrt_hz\n10.0,nan\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_spectrum_csv(path, "strain")
    path = write_spectrum(tmp_path, "frequency_hz,asd_strain_per_sqrt_hz\n-1.0,1e-22\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_spectrum_csv(path, "strain")


def test_load_spectrum_rejects_two_sided(tmp_path):
    path = write_spectrum(
        tmp_path, "# sidedness: two_sided\nfrequency_hz,asd_strain_per_sqrt_hz\n10.0,1e-22\n"
    )
    with pytest.raises(ConfigError, match="one_sided"):
        load_spectrum_csv(path, "strain")


def test_load_spectrum_empty_file(tmp_path):
    path = write_spectrum(tmp_path, "")
    with pytest.raises(ConfigError, match="no header"):
        load_spectrum_csv(path, "strain")


def test_load_spectrum_header_only(tmp_path):
    path = write_spectrum(tmp_path, "frequency_hz,asd_strain_per_sqrt_hz\n")
    with pytest.raises(ConfigError, match="no data"):
        load_spectrum_csv(path, "strain")


# --- curve CSV ---------------------------------------------------------------------


def sample_curve():
    grid = np.geomspace(1e-9, 1e2, 200)
    lam = 1e-8 * (1.0 + np.log(grid / grid[0]) ** 2)
    return ExclusionCurve(grid, lam, "test_detector", "entry", provenance="fixture", bar_variant="rederived")


def test_write_curve_structure(tmp_path):
    path = tmp_path / "curve.csv"
    write_exclusion_csv(sample_curve(), path)
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if l and not l.startswith("#")]
    assert len(comments) >= 4
    assert data[0] == "r_c_m,lambda_max_per_s"
    assert len(data) == 201


def test_write_curve_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_exclusion_csv(sample_curve(), a)
    write_exclusion_csv(sample_curve(), b)
    assert a.read_bytes() == b.read_bytes()


def test_curve_round_trip_full_precision(tmp_path):
    # shortest round-trip decimals: float() recovers every written double
    path = tmp_path / "curve.csv"
    curve = sample_curve()
    write_exclusion_csv(curve, path)
    lines = path.read_text().splitlines()
    meta = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    assert meta["detector"] == curve.detector_id
    assert meta["noise"] == f"{curve.noise_name} ({curve.provenance})"
    assert meta["bar_variant"] == curve.bar_variant
    rows = [[float(x) for x in line.split(",")] for line in lines[lines.index("r_c_m,lambda_max_per_s") + 1 :]]
    back = np.array(rows)
    assert np.array_equal(back[:, 0], curve.r_c_grid)
    assert np.array_equal(back[:, 1], curve.lambda_max)


@pytest.mark.parametrize("field", ["detector_id", "noise_name", "provenance", "bar_variant"])
@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_write_curve_rejects_line_breaks_in_the_header(tmp_path, field, brk):
    # any boundary str.splitlines splits at would forge a row below the comments
    base = sample_curve()
    fields = {key: getattr(base, key) for key in ("detector_id", "noise_name", "provenance", "bar_variant")}
    for value in (f"a{brk}r_c_m,lambda_max_per_s{brk}1,2", f"a{brk}"):
        curve = ExclusionCurve(base.r_c_grid, base.lambda_max, **{**fields, field: value})
        path = tmp_path / "curve.csv"
        with pytest.raises(ValueError, match=rf"^curve {field} .* holds a line break; a CSV header value must be one line$"):
            write_exclusion_csv(curve, path)
        assert not path.exists()


def test_empty_curve_unconstructible():
    with pytest.raises(ValueError):
        ExclusionCurve(np.array([]), np.array([]), "d", "n")
