import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "package",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture(scope="session")
def ligo():
    from cslbounds import load_detector_config

    return load_detector_config("ligo")


@pytest.fixture(scope="session")
def lisa():
    from cslbounds import load_detector_config

    return load_detector_config("lisa_pathfinder")


@pytest.fixture(scope="session")
def auriga():
    from cslbounds import load_detector_config

    return load_detector_config("auriga")


def write_config(tmp_path, config, mutate):
    """The bundled config changed by mutate(doc); a str that mutate returns is written in its place."""
    from cslbounds.io import bundled_config_path

    doc = json.loads(bundled_config_path(config).read_text())
    text = mutate(doc)
    path = tmp_path / f"{config}.json"
    path.write_text(text if isinstance(text, str) else json.dumps(doc))
    return path


def log_uniform(lo, hi):
    """Floats 10^e for e uniform in [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


def read_golden(name):
    """(r_c, lambda_max) rows of a golden scan file."""
    lines = (pathlib.Path(__file__).parent / "golden" / f"{name}_scan.csv").read_text().splitlines()
    return [tuple(map(float, line.split(","))) for line in lines if line[:1].isdigit()]


# The survey grid of the scans, 1991 log-spaced r_c from 1e-9 to 1e2 m, and the closed forms' whole domain:
# 3001 log-spaced r_c from MIN_CORRELATION_LENGTH, the smallest normal double, to 1e300 m.
SURVEY_GRID = np.geomspace(1e-9, 1e2, 1991)
DOMAIN_GRID = np.geomspace(sys.float_info.min, 1e300, 3001)


def assert_same_bits(got, ref, limit=None):
    # the reference's only NaN is 0 * inf where a zero separation meets an overflowing L/2rc (a length above
    # ~8 m, r_c near the smallest accepted): given the function's limit there, the kernels must now return it
    got, ref = np.atleast_1d(got), np.atleast_1d(ref)
    nan = np.isnan(ref) if limit is not None else np.zeros(ref.shape, dtype=bool)
    assert got[~nan].tobytes() == ref[~nan].tobytes()
    assert got[nan].tobytes() == np.full(nan.sum(), limit).tobytes()
