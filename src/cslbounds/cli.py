"""Command-line interface.

main loads the --config detector once, through _load_config, and hands
it to the command.  The detector carries its archetype
(DetectorModel.archetype, classified once when it is built); `bound` is
lambda_max, which is exclusion_curve at one point.

Exit codes: 0 success, 2 input/config error or a file that cannot be
read or written (OSError), 3 numerical failure (QuadratureError,
UnboundedParameterError); every failure prints one `error:` line.
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
from .detector import ACCELEROMETER, BAR, INTERFEROMETER, MeasuredNoise
from .errors import ConfigError, CslBoundsError, QuadratureError, UnboundedParameterError
from .exclusion import (
    ellis_ratio,
    exclusion_curve,
    force_per_native,
    lambda_max,
    model_force_psd,
    optimal_frequency,
)
from .io import load_detector_config, load_spectrum_csv, write_exclusion_csv
from .specfun import _check_positive

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
    _check_positive("--rc-max", args.rc_max, error=ConfigError)
    with np.errstate(all="ignore"):  # a subnormal grid is CslParams' to refuse, whatever np.seterr the caller set
        return np.geomspace(args.rc_min, args.rc_max, args.points)


def _load_config(args):
    """The --config detector; a --variant or --frequency-hz it has no use for is an input error."""
    det = load_detector_config(args.config)
    if getattr(args, "variant", None) is not None and det.archetype != BAR:
        raise ConfigError(f"--variant: only bar configs have axial-factor variants, not {det.name!r} ({det.archetype})")
    if getattr(args, "frequency_hz", None) is not None and det.archetype != INTERFEROMETER:
        raise ConfigError(f"--frequency-hz: only interferometer configs take a frequency, not {det.name!r} ({det.archetype})")
    return det


def _native_noise(det, s_ff_one_sided: float, frequency_hz) -> list[tuple[str, float]]:
    """Detector-native equivalent S_FF / T of a one-sided force PSD (T from force_per_native), by name."""
    if det.archetype == ACCELEROMETER:
        return [("s_gg_one_sided_m2_s4_per_hz", s_ff_one_sided / force_per_native(det, "acceleration"))]
    quantities = []
    source = "readout"
    if det.archetype == INTERFEROMETER:  # the free-mass strain transfer depends on frequency
        source = "--frequency-hz"
        if frequency_hz is None:
            entry = next((e for e in det.noise if e.frequency_hz is not None), None)
            if entry is None:
                raise ConfigError("strain equivalent needs --frequency-hz (config has no noise entry with a frequency)")
            frequency_hz, source = entry.frequency_hz, f"noise entry {entry.name!r}"
        quantities.append(("frequency_hz", frequency_hz))
    s_hh = s_ff_one_sided / force_per_native(det, "strain", frequency_hz, source)
    return quantities + [("s_hh_one_sided_per_hz", s_hh)]


def cmd_noise(args, det) -> int:
    params = CslParams(args.collapse_rate, args.rc)
    s_one_sided = 2.0 * model_force_psd(det, params, args.variant)
    at = f"for {det.name!r} at r_c = {args.rc:g} m and lambda = {args.collapse_rate:g} /s"
    if not math.isfinite(s_one_sided):
        raise UnboundedParameterError(f"model force PSD overflows {at}; no finite value exists")
    quantities = [("s_ff_one_sided_n2_per_hz", s_one_sided), *_native_noise(det, s_one_sided, args.frequency_hz)]
    for name, value in quantities:
        # a zero rate gives exact zeros; any other value out of the normal range has lost its digits
        if args.collapse_rate and not sys.float_info.min <= value < math.inf:
            cause = "underflows" if value < 1.0 else "overflows"
            raise UnboundedParameterError(f"{name} {cause} {at}; no normal value exists")
    print("\n".join(f"{name} = {_fmt(value)}" for name, value in quantities))
    return 0


def cmd_bound(args, det) -> int:
    entry = det.noise_entry(args.noise_entry)
    value = lambda_max(det, entry, args.rc, args.variant)
    print(f"lambda_max_per_s = {_fmt(value)}")
    return 0


def _scan_lines(det, entry, grid, variant, out_path) -> list[str]:
    """Write the exclusion curve to out_path; its report lines, for printing once nothing can fail."""
    curve = exclusion_curve(det, entry, grid, variant)
    write_exclusion_csv(curve, out_path)
    rc_min, lam_min = curve.minimum()
    return [
        f"wrote {out_path} ({len(curve)} points)",
        f"minimum_r_c_m = {_fmt(rc_min)}",
        f"minimum_lambda_max_per_s = {_fmt(lam_min)}",
    ]


def cmd_scan(args, det) -> int:
    entry = det.noise_entry(args.noise_entry)
    print("\n".join(_scan_lines(det, entry, _grid(args), args.variant, args.out)))
    return 0


def cmd_spectrum_bound(args, det) -> int:
    series = load_spectrum_csv(args.asd, "strain")
    omega_bar, force_asd = optimal_frequency(series, det)
    frequency_hz = omega_bar / (2.0 * math.pi)
    psd = force_asd * force_asd
    _check_positive(f"force PSD of the spectrum minimum at {frequency_hz:g} Hz", psd, error=ConfigError)
    entry = MeasuredNoise(
        name="spectrum_minimum",
        quantity="force",
        psd=psd,
        frequency_hz=frequency_hz,
        provenance=f"equivalent force minimum of {args.asd}",
    )
    lines = [f"optimal_frequency_hz = {_fmt(frequency_hz)}", f"min_force_asd_n_per_sqrt_hz = {_fmt(force_asd)}"]
    print("\n".join(lines + _scan_lines(det, entry, _grid(args), None, args.out)))
    return 0


def cmd_ellis(args, det) -> int:
    entry = det.noise_entry(args.noise_entry)
    report = ellis_ratio(det, entry)
    print(f"eta_ellis_per_m2_s = {_fmt(report.eta_ellis)}")
    print(f"eta_exp_per_m2_s = {_fmt(report.eta_exp)}")
    print(f"eta_ratio = {_fmt(report.ratio)}")
    return 0


def cmd_validate(args, det) -> int:
    from .kspace import force_psd_by_quadrature  # only validate needs the oracle

    is_bar = det.archetype == BAR
    if args.rc_min is None:
        args.rc_min = 1e-3 if is_bar else 1e-8
    if args.rc_max is None:
        args.rc_max = 10.0 if is_bar else 1.0
    grid = _grid(args)
    # the bar's two axial factors are arbitrated; any other closed form is checked alone
    variants = BAR_VARIANTS if is_bar else (None,)
    closed = [model_force_psd(det, CslParams(1.0, grid), v).tolist() for v in variants]
    columns = (
        "quadrature_n2_per_hz printed_rel_diff rederived_rel_diff" if is_bar else "closed_n2_per_hz quadrature_n2_per_hz rel_diff"
    )
    lines = [f"r_c_m {columns}"]
    worst = dict.fromkeys(variants, 0.0)
    for i, rc in enumerate(grid.tolist()):
        try:
            quad = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement).value
        except QuadratureError as exc:
            raise QuadratureError(f"{exc}, at r_c = {rc:g} m", exc.achieved_rel_error, exc.evaluations) from None
        if not sys.float_info.min <= quad < math.inf:  # the PSD itself underflows at tiny r_c, or overflows
            raise QuadratureError(f"quadrature force PSD is {quad:g} at r_c = {rc:g} m; no relative difference exists")
        diffs = [abs(c[i] - quad) / quad for c in closed]
        for v, diff in zip(variants, diffs):
            worst[v] = max(worst[v], diff)
        shown = [quad] if is_bar else [closed[0][i], quad]
        lines.append(" ".join(_fmt(x) for x in [rc, *shown, *diffs]))
    within = [v for v in variants if worst[v] <= VALIDATE_THRESHOLD]
    if not is_bar:
        if not within:
            raise QuadratureError(f"closed form deviates from quadrature by {worst[None]:.3e}")
        lines.append(f"max_rel_diff = {_fmt(worst[None])}")
    elif len(within) != 1:
        raise QuadratureError(f"expected exactly one variant within {VALIDATE_THRESHOLD:g}, got {within!r}")
    else:
        (other,) = set(variants) - set(within)
        lines += [f"endorsed_variant = {within[0]}", f"endorsed_max_rel_diff = {_fmt(worst[within[0]])}"]
        lines.append(f"{other}_max_rel_diff = {_fmt(worst[other])}")
    print("\n".join(lines))
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
    p.add_argument(
        "--variant", choices=BAR_VARIANTS, default=None, help=f"bar axial factor, bar configs only (default {DEFAULT_BAR_VARIANT})"
    )
    p.add_argument("--frequency-hz", type=float, default=None, help="frequency for the strain equivalent (interferometer configs only)")
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
        return args.func(args, _load_config(args))
    except (CslBoundsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (QuadratureError, UnboundedParameterError)) else 2


if __name__ == "__main__":
    sys.exit(main())
