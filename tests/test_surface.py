"""The package's public surface: what `from cslbounds import ...` offers."""

import ast
import importlib
from pathlib import Path

import pytest

import cslbounds


def test_every_exported_name_resolves():
    assert len(set(cslbounds.__all__)) == len(cslbounds.__all__)
    missing = [name for name in cslbounds.__all__ if not hasattr(cslbounds, name)]
    assert missing == []


def test_acceptance_suite_imports_only_exported_names():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "cslbounds"
        for alias in node.names
    }
    assert imported, "the acceptance suite imports nothing from cslbounds"
    assert sorted(imported - set(cslbounds.__all__)) == []


# types that a public function takes or returns: the root exports them though neither user imports them
RULE_TYPES = {
    "ExclusionCurve", "EllisReport", "QuadratureResult", "MassArrangement", "HalfCylinderBar",
    "MassGeometry", "FreeMass", "ResonantBar", "Readout", "DetectorModel",
}


def imported_names(path, wanted):
    """Names bound by the `from ... import` statements of a file whose node passes wanted."""
    tree = ast.parse(Path(path).read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and wanted(node)
        for alias in node.names
    }


def test_root_exports_only_what_the_cli_and_the_acceptance_suite_use():
    used = imported_names(Path(cslbounds.__file__).with_name("cli.py"), lambda node: node.level == 1)
    used |= imported_names(
        Path(__file__).parent / "test_acceptance.py",
        lambda node: node.level == 0 and (node.module == "cslbounds" or node.module.startswith("cslbounds.")),
    )
    assert "force_psd_by_quadrature" in used and "lambda_max" in used
    assert sorted(set(cslbounds.__all__) - used - RULE_TYPES) == []
    # the package docstring states the same rule
    doc = " ".join(cslbounds.__doc__.split())
    assert "only if the command-line interface (cslbounds.cli) or the acceptance suite imports it" in doc
    assert "or if it is a type that a public function takes or returns" in doc


def test_names_left_off_the_root_stay_module_attributes():
    removed = {
        "constants": ["C_LIGHT", "M_PLANCK"],
        "cslnoise": ["bar_force_psd", "force_noise_psd", "forced_separation"],
        "detector": ["detector_archetype"],
        "exclusion": ["ellis_eta"],
        "io": ["BUNDLED_CONFIGS", "bundled_config_path"],
        "response": ["force_psd_from_acceleration", "force_psd_from_strain_bar", "force_psd_from_strain_free_mass"],
    }
    for module, names in removed.items():
        for name in names:
            assert name not in cslbounds.__all__ and not hasattr(cslbounds, name), name
            assert hasattr(importlib.import_module(f"cslbounds.{module}"), name), name
    assert "specfun" not in cslbounds.__all__
    assert not hasattr(cslbounds, "ResponseModel") and not hasattr(importlib.import_module("cslbounds.response"), "ResponseModel")


def test_one_readout_type_and_no_inverse_conversions():
    # the readout markers and the force -> native inverses folded into
    # Readout and exclusion.force_per_native
    gone = [
        "Acceleration", "Displacement", "Force", "ReadoutKind", "Strain",
        "acceleration_psd", "displacement_psd_free_mass", "strain_psd", "strain_psd_bar",
    ]
    assert {"Readout", "force_per_native"} <= set(cslbounds.__all__)
    assert [name for name in gone if name in cslbounds.__all__ or hasattr(cslbounds, name)] == []


def test_benchmark_probe_targets_resolve():
    # perfbench/workloads.py times these names layer by layer; it is read, never changed
    modules = {"cli", "cslnoise", "detector", "exclusion", "io", "kspace", "response", "specfun"}
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "workloads.py").read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert used, "the benchmark uses no cslbounds module"
    missing = [f"{m}.{name}" for m, name in sorted(used) if not hasattr(importlib.import_module(f"cslbounds.{m}"), name)]
    assert missing == []


def test_version_is_stated_once():
    # the build reads the version from the package; pyproject states no literal of its own
    tomllib = pytest.importorskip("tomllib")
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    meta = tomllib.loads(text)
    assert "version" not in meta["project"] and meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "cslbounds._version.__version__"}
    assert cslbounds.__version__ not in text
