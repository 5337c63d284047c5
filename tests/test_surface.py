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
