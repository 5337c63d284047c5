"""The package's public surface: what `from cslbounds import ...` offers."""

import ast
from pathlib import Path

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
