"""Command-line interface.

Exit codes: 0 success, 2 input/config error, 3 numerical failure.
Numeric stdout uses scientific notation with 9 significant digits so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ._version import __version__
from .cslnoise import BAR_VARIANTS, DEFAULT_BAR_VARIANT, CslParams
from .detector import ACCELEROMETER, BAR, INTERFEROMETER, MeasuredNoise, detector_archetype
from .errors import ConfigError, CslBoundsError, QuadratureError, UnboundedParameterError
from .exclusion import (
    ellis_ratio,
    exclusion_curve,
    lambda_max,
    model_force_psd,
    optimal_frequency,
)
from .io import load_detector_config, load_spectrum_csv, write_exclusion_csv
from .kspace import force_psd_by_quadrature
from .response import acceleration_psd, displacement_psd_free_mass, strain_psd, strain_psd_bar

VALIDATE_THRESHOLD = 1e-3
# Largest --points accepted: the closed forms hold several float arrays of
# the grid's length at once.
MAX_POINTS = 1_000_000


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _add_common(parser):
    parser.add_argument("--config", required=True, help="detector config path or bundled name (ligo, lisa_pathfinder, auriga)")


def _add_grid(parser):
    parser.add_argument("--rc-min", type=float, default=1e-9, help="smallest correlation length, m (default 1e-9)")
    parser.add_argument("--rc-max", type=float, default=1e2, help="largest correlation length, m (default 1e2)")
    parser.add_argument(
        "--points", type=int, default=200, help=f"number of log-spaced grid points (default 200, at most {MAX_POINTS})"
    )


def _grid(args) -> np.ndarray:
    if not 2 <= args.points <= MAX_POINTS:
        raise ConfigError(f"--points must be between 2 and {MAX_POINTS}, got {args.points}")
    if not (0.0 < args.rc_min < args.rc_max):
        raise ConfigError("--rc-min must be positive and below --rc-max")
    return np.geomspace(args.rc_min, args.rc_max, args.points)


def _native_noise_lines(det, s_ff_one_sided: float, frequency_hz) -> list[str]:
    """Detector-native equivalent of a one-sided force PSD."""
    archetype = detector_archetype(det)
    mass = det.geometry.mass
    if archetype == ACCELEROMETER:
        return [f"s_gg_one_sided_m2_s4_per_hz = {_fmt(acceleration_psd(s_ff_one_sided, mass))}"]
    if archetype == BAR:
        s_hh = strain_psd_bar(s_ff_one_sided, mass, det.response.omega0, det.response.length)
        return [f"s_hh_one_sided_per_hz = {_fmt(s_hh)}"]
    # free-mass interferometer: strain equivalent depends on frequency
    if frequency_hz is None:
        for entry in det.noise:
            if entry.frequency_hz is not None:
                frequency_hz = entry.frequency_hz
                break
    if frequency_hz is None:
        raise ConfigError("strain equivalent needs --frequency-hz (config has no noise entry with a frequency)")
    omega = 2.0 * math.pi * frequency_hz
    s_hh = strain_psd(displacement_psd_free_mass(s_ff_one_sided, mass, omega), det.readout.arm_length)
    return [
        f"frequency_hz = {_fmt(frequency_hz)}",
        f"s_hh_one_sided_per_hz = {_fmt(s_hh)}",
    ]


def cmd_noise(args) -> int:
    det = load_detector_config(args.config)
    params = CslParams(args.collapse_rate, args.rc)
    s_two_sided = model_force_psd(det, params, args.variant)
    s_one_sided = 2.0 * s_two_sided
    print(f"s_ff_one_sided_n2_per_hz = {_fmt(s_one_sided)}")
    for line in _native_noise_lines(det, s_one_sided, args.frequency_hz):
        print(line)
    return 0


def cmd_bound(args) -> int:
    det = load_detector_config(args.config)
    entry = det.noise_entry(args.noise_entry)
    value = lambda_max(det, entry, args.rc, args.variant)
    print(f"lambda_max_per_s = {_fmt(value)}")
    return 0


def _scan_and_report(det, entry, grid, variant, out_path) -> None:
    curve = exclusion_curve(det, entry, grid, variant)
    write_exclusion_csv(curve, out_path)
    rc_min, lam_min = curve.minimum()
    print(f"wrote {out_path} ({len(curve)} points)")
    print(f"minimum_r_c_m = {_fmt(rc_min)}")
    print(f"minimum_lambda_max_per_s = {_fmt(lam_min)}")


def cmd_scan(args) -> int:
    det = load_detector_config(args.config)
    entry = det.noise_entry(args.noise_entry)
    _scan_and_report(det, entry, _grid(args), args.variant, args.out)
    return 0


def cmd_spectrum_bound(args) -> int:
    det = load_detector_config(args.config)
    if detector_archetype(det) != INTERFEROMETER:
        raise ConfigError("spectrum-bound needs a free-mass interferometer config")
    series = load_spectrum_csv(args.asd, "strain")
    omega_bar, force_asd = optimal_frequency(series, det)
    print(f"optimal_frequency_hz = {_fmt(omega_bar / (2.0 * math.pi))}")
    print(f"min_force_asd_n_per_sqrt_hz = {_fmt(force_asd)}")
    entry = MeasuredNoise(
        name="spectrum_minimum",
        quantity="force",
        psd=force_asd * force_asd,
        frequency_hz=omega_bar / (2.0 * math.pi),
        provenance=f"equivalent force minimum of {args.asd}",
    )
    _scan_and_report(det, entry, _grid(args), None, args.out)
    return 0


def cmd_ellis(args) -> int:
    det = load_detector_config(args.config)
    entry = det.noise_entry(args.noise_entry)
    report = ellis_ratio(det, entry)
    print(f"eta_ellis_per_m2_s = {_fmt(report.eta_ellis)}")
    print(f"eta_exp_per_m2_s = {_fmt(report.eta_exp)}")
    print(f"eta_ratio = {_fmt(report.ratio)}")
    return 0


def cmd_validate(args) -> int:
    det = load_detector_config(args.config)
    is_bar = detector_archetype(det) == BAR
    if args.rc_min is None:
        args.rc_min = 1e-3 if is_bar else 1e-8
    if args.rc_max is None:
        args.rc_max = 10.0 if is_bar else 1.0
    grid = _grid(args)
    unit = 1.0
    if is_bar:
        print("r_c_m quadrature_n2_per_hz printed_rel_diff rederived_rel_diff")
        worst = {v: 0.0 for v in BAR_VARIANTS}
        for rc in grid:
            params = CslParams(unit, float(rc))
            quad = force_psd_by_quadrature(params, det.geometry, det.arrangement).value
            diffs = {}
            for variant in BAR_VARIANTS:
                closed = model_force_psd(det, params, variant)
                diffs[variant] = abs(closed - quad) / quad
                worst[variant] = max(worst[variant], diffs[variant])
            print(f"{_fmt(rc)} {_fmt(quad)} {_fmt(diffs['printed'])} {_fmt(diffs['rederived'])}")
        endorsed = [v for v in BAR_VARIANTS if worst[v] <= VALIDATE_THRESHOLD]
        if len(endorsed) != 1:
            print("endorsed_variant = none")
            print(
                f"error: expected exactly one variant within {VALIDATE_THRESHOLD:g}, got {endorsed!r}",
                file=sys.stderr,
            )
            return 3
        other = next(v for v in BAR_VARIANTS if v != endorsed[0])
        print(f"endorsed_variant = {endorsed[0]}")
        print(f"endorsed_max_rel_diff = {_fmt(worst[endorsed[0]])}")
        print(f"{other}_max_rel_diff = {_fmt(worst[other])}")
        return 0
    print("r_c_m closed_n2_per_hz quadrature_n2_per_hz rel_diff")
    worst_diff = 0.0
    for rc in grid:
        params = CslParams(unit, float(rc))
        closed = model_force_psd(det, params)
        quad = force_psd_by_quadrature(params, det.geometry, det.arrangement).value
        diff = abs(closed - quad) / quad
        worst_diff = max(worst_diff, diff)
        print(f"{_fmt(rc)} {_fmt(closed)} {_fmt(quad)} {_fmt(diff)}")
    print(f"max_rel_diff = {_fmt(worst_diff)}")
    if worst_diff > VALIDATE_THRESHOLD:
        print(f"error: closed form deviates from quadrature by {worst_diff:.3e}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslbounds",
        description="CSL collapse-noise force spectra and exclusion bounds for gravitational-wave detector geometries.",
    )
    parser.add_argument("--version", action="version", version=f"cslbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("noise", help="CSL force PSD and the detector-native equivalent at one parameter point")
    _add_common(p)
    p.add_argument("--rc", type=float, required=True, help="correlation length, m")
    p.add_argument("--lambda", dest="collapse_rate", type=float, required=True, help="collapse rate, 1/s")
    p.add_argument("--variant", choices=BAR_VARIANTS, default=None, help=f"bar axial factor (default {DEFAULT_BAR_VARIANT})")
    p.add_argument("--frequency-hz", type=float, default=None, help="frequency for the strain equivalent (free-mass configs)")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("bound", help="lambda_max at one correlation length")
    _add_common(p)
    p.add_argument("--noise-entry", default=None, help="noise entry name (default: first entry)")
    p.add_argument("--rc", type=float, required=True, help="correlation length, m")
    p.add_argument("--variant", choices=BAR_VARIANTS, default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("scan", help="exclusion curve lambda_max(r_c) to CSV")
    _add_common(p)
    p.add_argument("--noise-entry", default=None)
    _add_grid(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--variant", choices=BAR_VARIANTS, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("spectrum-bound", help="bound from a measured strain spectrum (free-mass configs)")
    _add_common(p)
    p.add_argument("--asd", required=True, help="strain spectrum CSV (frequency_hz,asd_strain_per_sqrt_hz)")
    _add_grid(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_spectrum_bound)

    p = sub.add_parser("ellis", help="wormhole-decoherence rate comparison")
    _add_common(p)
    p.add_argument("--noise-entry", default=None)
    p.set_defaults(func=cmd_ellis)

    p = sub.add_parser("validate", help="closed forms against the k-space quadrature oracle")
    _add_common(p)
    p.add_argument("--rc-min", type=float, default=None, help="default 1e-8 m (bars: 1e-3 m)")
    p.add_argument("--rc-max", type=float, default=None, help="default 1 m (bars: 10 m)")
    p.add_argument(
        "--points", type=int, default=25, help=f"number of log-spaced grid points (default 25, at most {MAX_POINTS})"
    )
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        achieved = "" if exc.achieved_rel_error is None else f" (achieved {exc.achieved_rel_error:.3e})"
        print(f"error: {exc}{achieved}", file=sys.stderr)
        return 3
    except UnboundedParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CslBoundsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
