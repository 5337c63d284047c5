"""Reproducibility surface: detector configs, spectra and curve files.

Detector configs are strict JSON (schema-versioned, unknown fields
rejected, every diagnostic carries the offending field path).  Measured
spectra and exclusion curves travel as CSV with `#` comment lines.  All
file units are SI and are spelled out in the key or column names.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from ._version import __version__
from .cslnoise import Cube, Cylinder, HalfCylinderBar, MassArrangement
from .detector import Acceleration, DetectorModel, Displacement, Force, MeasuredNoise, Strain, forced_separation
from .errors import ConfigError
from .exclusion import ExclusionCurve
from .response import FreeMass, ResonantBar, SpectrumSeries

SCHEMA_VERSION = 1
BUNDLED_CONFIGS = ("ligo", "lisa_pathfinder", "auriga")

SPECTRUM_COLUMNS = {
    "strain": "asd_strain_per_sqrt_hz",
    "force": "asd_force_n_per_sqrt_hz",
    "acceleration": "asd_acceleration_m_s2_per_sqrt_hz",
    "displacement": "asd_displacement_m_per_sqrt_hz",
}

_NOISE_VALUE_KEYS = {
    "force": ("asd_force_n_per_sqrt_hz", "psd_force_n2_per_hz"),
    "acceleration": ("asd_acceleration_m_s2_per_sqrt_hz", "psd_acceleration_m2_s4_per_hz"),
    "strain": ("asd_strain_per_sqrt_hz", "psd_strain_per_hz"),
    "displacement": ("asd_displacement_m_per_sqrt_hz", "psd_displacement_m2_per_hz"),
}


def bundled_config_path(name: str) -> Path:
    """Filesystem path of one of the bundled reference configs."""
    if name not in BUNDLED_CONFIGS:
        raise ConfigError(f"unknown bundled config {name!r} (available: {', '.join(BUNDLED_CONFIGS)})")
    return Path(str(resources.files("cslbounds").joinpath("data", f"{name}.json")))


# --- config parsing helpers -------------------------------------------------


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path or '<root>'}: expected an object, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, required: tuple, optional: tuple = ()):
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}{key}: required field is missing")
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}{sorted(unknown)[0]}: unknown field (strict schema)")


def _number(node: dict, key: str, path: str) -> float:
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}{key}: expected a number, got {value!r}")
    return float(value)


def _optional_number(node: dict, key: str, path: str) -> Optional[float]:
    return _number(node, key, path) if key in node else None


def _string(node: dict, key: str, path: str) -> str:
    value = node[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}{key}: expected a string, got {value!r}")
    return value


def _parse_geometry(node, path="geometry."):
    node = _expect_mapping(node, path[:-1])
    if "shape" not in node:
        raise ConfigError(f"{path}shape: required field is missing")
    shape = _string(node, "shape", path)
    try:
        if shape == "cylinder":
            _check_keys(node, path, ("shape", "radius_m", "length_m", "mass_kg"), ("density_kg_m3",))
            return Cylinder(
                radius=_number(node, "radius_m", path),
                length=_number(node, "length_m", path),
                mass=_number(node, "mass_kg", path),
                density=_optional_number(node, "density_kg_m3", path),
            )
        if shape == "cube":
            _check_keys(node, path, ("shape", "side_m", "mass_kg"), ("density_kg_m3",))
            return Cube(
                side=_number(node, "side_m", path),
                mass=_number(node, "mass_kg", path),
                density=_optional_number(node, "density_kg_m3", path),
            )
        if shape == "half_cylinder_bar":
            _check_keys(node, path, ("shape", "radius_m", "length_m", "mass_kg"), ("density_kg_m3",))
            return HalfCylinderBar(
                radius=_number(node, "radius_m", path),
                length=_number(node, "length_m", path),
                mass=_number(node, "mass_kg", path),
                density=_optional_number(node, "density_kg_m3", path),
            )
    except ValueError as exc:
        raise ConfigError(f"{path[:-1]}: {exc}") from None
    raise ConfigError(f"{path}shape: unknown shape {shape!r}")


def _parse_arrangement(node, geometry, path="arrangement."):
    node = _expect_mapping(node, path[:-1])
    _check_keys(node, path, (), ("separation_m", "arm_count"))
    arm_count = node.get("arm_count", 1)
    if isinstance(arm_count, bool) or not isinstance(arm_count, int):
        raise ConfigError(f"{path}arm_count: expected an integer, got {arm_count!r}")
    # a forced separation (the bar's) is the default; DetectorModel rejects any other value
    separation = _optional_number(node, "separation_m", path)
    if separation is None:
        separation = forced_separation(geometry)
    if separation is None:
        raise ConfigError(f"{path}separation_m: required field is missing")
    try:
        return MassArrangement(separation=separation, arm_count=arm_count)
    except ValueError as exc:
        raise ConfigError(f"{path[:-1]}: {exc}") from None


def _parse_response(node, path="response."):
    node = _expect_mapping(node, path[:-1])
    if "kind" not in node:
        raise ConfigError(f"{path}kind: required field is missing")
    kind = _string(node, "kind", path)
    try:
        if kind == "free_mass":
            _check_keys(node, path, ("kind",))
            return FreeMass()
        if kind == "resonant_bar":
            _check_keys(node, path, ("kind", "resonance_hz", "bar_length_m"))
            return ResonantBar(
                omega0=2.0 * math.pi * _number(node, "resonance_hz", path),
                length=_number(node, "bar_length_m", path),
            )
    except ValueError as exc:
        raise ConfigError(f"{path[:-1]}: {exc}") from None
    raise ConfigError(f"{path}kind: unknown response kind {kind!r}")


def _parse_readout(node, path="readout."):
    node = _expect_mapping(node, path[:-1])
    if "kind" not in node:
        raise ConfigError(f"{path}kind: required field is missing")
    kind = _string(node, "kind", path)
    try:
        if kind == "strain":
            _check_keys(node, path, ("kind",), ("arm_length_m",))
            return Strain(arm_length=_optional_number(node, "arm_length_m", path))
        if kind == "acceleration":
            _check_keys(node, path, ("kind",))
            return Acceleration()
        if kind == "force":
            _check_keys(node, path, ("kind",))
            return Force()
        if kind == "displacement":
            _check_keys(node, path, ("kind",))
            return Displacement()
    except ValueError as exc:
        raise ConfigError(f"{path[:-1]}: {exc}") from None
    raise ConfigError(f"{path}kind: unknown readout kind {kind!r}")


def _parse_noise_entry(node, index: int):
    path = f"noise[{index}]."
    node = _expect_mapping(node, path[:-1])
    _check_keys(
        node,
        path,
        ("name", "kind", "provenance"),
        ("frequency_hz", "csl_fraction") + tuple(k for keys in _NOISE_VALUE_KEYS.values() for k in keys),
    )
    kind = _string(node, "kind", path)
    if kind not in _NOISE_VALUE_KEYS:
        raise ConfigError(f"{path}kind: unknown noise kind {kind!r}")
    asd_key, psd_key = _NOISE_VALUE_KEYS[kind]
    foreign = [k for k in node if k.startswith(("asd_", "psd_")) and k not in (asd_key, psd_key)]
    if foreign:
        raise ConfigError(f"{path}{foreign[0]}: value key does not match noise kind {kind!r}")
    present = [k for k in (asd_key, psd_key) if k in node]
    if len(present) != 1:
        raise ConfigError(f"{path[:-1]}: exactly one of {asd_key!r} or {psd_key!r} is required")
    value = _number(node, present[0], path)
    if present[0] == asd_key:
        if value < 0.0:
            raise ConfigError(f"{path}{asd_key}: amplitude must be >= 0, got {value!r}")
        psd = value * value
    else:
        psd = value
    csl_fraction = _optional_number(node, "csl_fraction", path)
    try:
        return MeasuredNoise(
            name=_string(node, "name", path),
            quantity=kind,
            psd=psd,
            frequency_hz=_optional_number(node, "frequency_hz", path),
            csl_fraction=1.0 if csl_fraction is None else csl_fraction,
            provenance=_string(node, "provenance", path),
        )
    except ValueError as exc:
        raise ConfigError(f"{path[:-1]}: {exc}") from None


def load_detector_config(path) -> DetectorModel:
    """Load and validate a detector config (a path or a bundled name)."""
    if isinstance(path, str) and path in BUNDLED_CONFIGS and not Path(path).exists():
        path = bundled_config_path(path)
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    doc = _expect_mapping(doc, "")
    _check_keys(doc, "", ("schema_version", "name", "geometry", "arrangement", "response", "readout", "noise"))
    version = doc["schema_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected the integer {SCHEMA_VERSION}, got {version!r}")
    name = _string(doc, "name", "")
    geometry = _parse_geometry(doc["geometry"])
    arrangement = _parse_arrangement(doc["arrangement"], geometry)
    response = _parse_response(doc["response"])
    readout = _parse_readout(doc["readout"])
    if not isinstance(doc["noise"], list):
        raise ConfigError("noise: expected a list of noise entries")
    noise = tuple(_parse_noise_entry(entry, i) for i, entry in enumerate(doc["noise"]))
    names = [entry.name for entry in noise]
    if len(set(names)) != len(names):
        raise ConfigError("noise: entry names must be unique")
    return DetectorModel(
        name=name, geometry=geometry, arrangement=arrangement, response=response, readout=readout, noise=noise
    )


# --- spectrum CSV -----------------------------------------------------------


def load_spectrum_csv(path, expected_quantity: str) -> SpectrumSeries:
    """Load a one-sided amplitude spectrum, validating against a kind.

    Format: optional `#` comments (a `# sidedness:` directive must say
    one_sided if present), then a `frequency_hz,<column>` header whose
    column must match the expected quantity, then one `freq,value` row
    per line.  Every diagnostic names the offending line.
    """
    if expected_quantity not in SPECTRUM_COLUMNS:
        raise ConfigError(f"unknown spectrum quantity {expected_quantity!r}")
    expected_column = SPECTRUM_COLUMNS[expected_quantity]
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"spectrum file not found: {path}")
    freqs: list[float] = []
    values: list[float] = []
    header_seen = False
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            directive = line[1:].strip()
            if directive.lower().startswith("sidedness:"):
                sidedness = directive.split(":", 1)[1].strip()
                if sidedness != "one_sided":
                    raise ConfigError(f"line {lineno}: only one_sided spectra are accepted, got {sidedness!r}")
            continue
        if not header_seen:
            columns = [c.strip() for c in line.split(",")]
            if columns != ["frequency_hz", expected_column]:
                raise ConfigError(
                    f"line {lineno}: header {line!r} does not match expected "
                    f"'frequency_hz,{expected_column}' for quantity {expected_quantity!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"line {lineno}: expected two comma-separated values, got {line!r}")
        try:
            freq, value = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"line {lineno}: could not parse numbers from {line!r}") from None
        if not (math.isfinite(freq) and math.isfinite(value)):
            raise ConfigError(f"line {lineno}: non-finite entry {line!r}")
        if freq <= 0.0 or value <= 0.0:
            raise ConfigError(f"line {lineno}: frequencies and values must be > 0, got {line!r}")
        if freqs and freq <= freqs[-1]:
            raise ConfigError(f"line {lineno}: frequency {freq:g} is not strictly ascending")
        freqs.append(freq)
        values.append(value)
    if not header_seen:
        raise ConfigError(f"{path}: no header row found")
    if not freqs:
        raise ConfigError(f"{path}: no data rows found")
    return SpectrumSeries(np.array(freqs), np.array(values), expected_quantity)


# --- exclusion-curve CSV ----------------------------------------------------


def write_exclusion_csv(curve: ExclusionCurve, path) -> None:
    """Serialize a curve deterministically (shortest round-trip decimals)."""
    if len(curve) == 0:  # pragma: no cover - unconstructible, kept as a guard
        raise ValueError("refusing to write an empty curve")
    lines = [
        f"# detector: {curve.detector_id}",
        f"# noise: {curve.noise_name} ({curve.provenance})",
        f"# sff_path: {curve.sff_path}",
        f"# bar_variant: {curve.bar_variant or 'n/a'}",
        f"# tool: cslbounds {__version__}",
        "r_c_m,lambda_max_per_s",
    ]
    for rc, lam in zip(curve.r_c_grid, curve.lambda_max):
        lines.append(f"{float(rc)!r},{float(lam)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_exclusion_csv(path) -> ExclusionCurve:
    """Inverse of write_exclusion_csv (full double precision preserved)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"curve file not found: {path}")
    meta = {"detector": "", "noise": "", "sff_path": "closed_form", "bar_variant": "n/a"}
    rows: list[tuple[float, float]] = []
    header_seen = False
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "r_c_m,lambda_max_per_s":
                raise ConfigError(f"line {lineno}: unexpected header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"line {lineno}: expected two comma-separated values")
        rows.append((float(parts[0]), float(parts[1])))
    if not rows:
        raise ConfigError(f"{path}: no data rows found")
    noise_name, _, provenance = meta["noise"].partition(" (")
    variant = meta["bar_variant"]
    return ExclusionCurve(
        r_c_grid=np.array([r[0] for r in rows]),
        lambda_max=np.array([r[1] for r in rows]),
        detector_id=meta["detector"],
        noise_name=noise_name,
        provenance=provenance.rstrip(")"),
        sff_path=meta["sff_path"],
        bar_variant=None if variant == "n/a" else variant,
    )
