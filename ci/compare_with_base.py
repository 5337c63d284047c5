"""Compare the CLI's outputs with those of a base revision: python ci/compare_with_base.py REV

Runs each command on REV, extracted by `git archive` so that no network is needed, and on this working tree,
uncommitted edits included: under this interpreter, with that tree's src/ on PYTHONPATH, in an empty
directory. Stdout, stderr, exit code and written files must match byte for byte. Each differing one is
reported with its count of differing lines, the largest relative change of a float (decimal or float.hex())
at the same position, the number of counts (integers) changed there, and its first differing pairs, and the
exit status is 1: so a change that moves oracle values on purpose shows that no evaluation count moved. Lines
are paired by index: difflib is quadratic, and would stall for hours on a change that moves a few bits of the
1e6-row scan.

validate's rel_diff digits rest on BLAS dot products, so the CLI transcript leaves them out; here both trees
use one numpy. From r_c = 1 m to 1e4 m, validate runs the oracle's one-pass axial product, where its cosine
modes once cancelled. The 200-point scans are the golden files; the dense scan crosses every seam of the
radial bracket and the cube's series window; the bar's printed variant is scanned on both grids too. bound
and noise at extreme r_c reach the r_c checks, the large-r_c regime where the closed forms' rest factor is
no longer a normal double (1e55 m), and the vanishing, underflowing and overflowing results. The oracle
sweep prints the evaluation counts and failures that validate's grids do not. The merge-edge sweep runs the
oracle on user-built cubes and cylinders where the cosine modes merge or cancel (separation 0, = length,
= 2 length, >> length) and on a bar's halves, which no bundled config reaches. The closed-form sweep prints
float.hex() of every bundled body's PSD, both bar variants, at rates 1 and 1e-30 and 3001 log-spaced r_c
over the whole accepted domain, MIN_CORRELATION_LENGTH to 1e300 m: the scans cover only 1e-9..1e2 m. The
curve sweep prints lambda_max at the same 3001 r_c, for every bundled detector and both bar variants, in
float.hex(), or the UnboundedParameterError it raises: exclusion_curve calls the closed forms' dispatch
directly, not force_noise_psd, so the closed-form sweep does not reach its path. A -c script's first line, a
comment, is its label. A float pair with one side 0.0 (a validate rel_diff of about 1e-16 that turns 0.0) is
left out of the largest relative change, which would read 1 there, and reported by its absolute difference. A
float that turns inf or nan (float.hex() spells them so), or turns finite from one, is an infinite change.
"""
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("ligo", "lisa_pathfinder", "auriga")
SWEEP = """# oracle sweep
import numpy as np
from cslbounds import CslParams, QuadratureError, force_psd_by_quadrature, load_detector_config
for name in ("ligo", "lisa_pathfinder", "auriga"):
    det = load_detector_config(name)
    for rc in np.geomspace(1e-12, 1e4, 61).tolist():
        try:
            r = force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)
            print(name, repr(rc), r.value.hex(), r.rel_error.hex(), r.evaluations)
        except QuadratureError as exc:
            print(name, repr(rc), exc, exc.evaluations)
"""
MERGE_EDGES = """# merge-edge sweep
import numpy as np
from cslbounds import CslParams, Cube, Cylinder, HalfCylinderBar, MassArrangement, QuadratureError, force_psd_by_quadrature
cube, rod = Cube(0.046, 1.928), Cylinder(0.25, 0.2, 40.0)
bodies = [("cube", cube, MassArrangement(a)) for a in (0.0, 0.046, 0.092, 20.0, 1e4)]
bodies += [("cylinder", rod, MassArrangement(a, 2)) for a in (0.0, 0.2, 0.4, 20.0, 1e4)]
bodies += [("bar", HalfCylinderBar(0.3, 3.0, 2300.0), MassArrangement(1.5))]
for name, geometry, arrangement in bodies:
    for rc in np.geomspace(1e-12, 1e4, 33).tolist():
        try:
            r = force_psd_by_quadrature(CslParams(1.0, rc), geometry, arrangement)
            print(name, arrangement.separation, repr(rc), r.value.hex(), r.rel_error.hex(), r.evaluations)
        except QuadratureError as exc:
            print(name, arrangement.separation, repr(rc), exc, exc.evaluations)
"""
CLOSED_FORMS = """# closed-form sweep
import numpy as np
from cslbounds import BAR_VARIANTS, CslParams, load_detector_config
from cslbounds.cslnoise import MIN_CORRELATION_LENGTH, force_noise_psd
rcs = np.geomspace(MIN_CORRELATION_LENGTH, 1e300, 3001)
for name in ("ligo", "lisa_pathfinder", "auriga"):
    det = load_detector_config(name)
    for variant in BAR_VARIANTS if name == "auriga" else [None]:
        for rate in (1.0, 1e-30):
            psd = force_noise_psd(CslParams(rate, rcs), det.geometry, det.arrangement, variant)
            for rc, value in zip(rcs.tolist(), psd.tolist()):
                print(name, variant, rate, repr(rc), value.hex())
"""
CURVES = """# curve sweep
import numpy as np
from cslbounds import BAR_VARIANTS, UnboundedParameterError, lambda_max, load_detector_config
from cslbounds.cslnoise import MIN_CORRELATION_LENGTH
rcs = np.geomspace(MIN_CORRELATION_LENGTH, 1e300, 3001)
for name in ("ligo", "lisa_pathfinder", "auriga"):
    det = load_detector_config(name)
    entry = det.noise_entry()
    for variant in BAR_VARIANTS if name == "auriga" else [None]:
        for rc in rcs.tolist():
            try:
                print(name, variant, repr(rc), lambda_max(det, entry, rc, variant).hex())
            except UnboundedParameterError as exc:
                print(name, variant, repr(rc), exc)
"""
EXTREME_RC = ("2.2250738585072014e-308", "1e-300", "1e-150", "1e55", "1e300")
CLI = ["-m", "cslbounds.cli"]
COMMANDS = [
    *([*CLI, "validate", "--config", c] for c in CONFIGS),
    *([*CLI, "validate", "--config", c, "--rc-min", "1", "--rc-max", "1e4", "--points", "9"] for c in CONFIGS),
    *([*CLI, "scan", "--config", c, "--out", "scan.csv"] for c in CONFIGS),
    *([*CLI, "scan", "--config", c, "--points", "1000000", "--out", "scan.csv"] for c in CONFIGS),
    [*CLI, "scan", "--config", "auriga", "--variant", "printed", "--out", "scan.csv"],
    [*CLI, "scan", "--config", "auriga", "--variant", "printed", "--points", "1000000", "--out", "scan.csv"],
    *([*CLI, "bound", "--rc", rc, "--config", c] for c in CONFIGS for rc in EXTREME_RC),
    *([*CLI, "noise", "--rc", rc, "--lambda", "1", "--config", c] for c in CONFIGS for rc in EXTREME_RC),
    ["-c", MERGE_EDGES],
    ["-c", SWEEP],
    ["-c", CLOSED_FORMS],
    ["-c", CURVES],
]


def label(args):
    """A CLI command's arguments, or the first line of a -c script with its comment sign stripped."""
    return " ".join(args[2:]) if args[0] == "-m" else args[1].splitlines()[0].lstrip("# ")


def run(src, args):
    """stdout, stderr, exit code and written files of `python ARGS`, run in an empty directory with SRC on PYTHONPATH."""
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True)
        files = {str(f.relative_to(cwd)): f.read_bytes() for f in sorted(Path(cwd).rglob("*")) if f.is_file()}
    return {"stdout": done.stdout, "stderr": done.stderr, "exit code": str(done.returncode).encode(), **files}


def changes(base, head):
    """(largest relative change, largest change from or to 0.0, changed counts) of the numbers at one position of two lines.

    A comma counts as a space.  A pair of integers is a count, changed or not; any other pair of numbers (decimal or
    float.hex()) is a float pair: from or to 0.0 it is measured by its absolute change, from or to inf or nan it is an
    infinite change, and otherwise by its relative change.  A token that is no number is skipped.
    """
    worst = at_zero = 0.0
    counts = 0
    for a, b in zip(base.replace(",", " ").split(), head.replace(",", " ").split()):
        try:
            counts += int(a) != int(b)
            continue
        except ValueError:
            pass
        try:
            x, y = (float.fromhex(t) if "0x" in t else float(t) for t in (a, b))
        except ValueError:
            continue
        if x == y or x != x and y != y:  # nan to nan is no change
            continue
        if not (math.isfinite(x) and math.isfinite(y)):  # its relative change would be nan, which max drops
            worst = math.inf
        elif x and y:
            worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
        else:  # from or to 0.0 the relative change is always 1
            at_zero = max(at_zero, abs(y - x))
    return worst, at_zero, counts


def main(rev):
    """Run every command on REV and on the working tree; the exit status is 1 if any output differs."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE, check=True).stdout
    status = 0
    with tempfile.TemporaryDirectory() as base:
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        for args in COMMANDS:
            old, new = run(Path(base, "src"), args), run(ROOT / "src", args)
            differ = [k for k in dict.fromkeys([*old, *new]) if old.get(k) != new.get(k)]
            print(f"{label(args)}:", f"differs in {', '.join(differ)}" if differ else "identical", flush=True)
            for k in differ:
                lines = zip_longest(*(out.get(k, b"").decode(errors="replace").splitlines() for out in (old, new)), fillvalue="")
                pairs = [(a, b) for a, b in lines if a != b]
                worst, at_zero, counts = 0.0, 0.0, 0
                for w, z, c in (changes(a, b) for a, b in pairs):
                    worst, at_zero, counts = max(worst, w), max(at_zero, z), counts + c
                print(
                    f"  {k}: {len(pairs)} differing lines, largest relative change {worst:.3e},"
                    f" largest change from or to 0.0 {at_zero:.3e}, {counts} changed counts"
                )
                print("".join(f"    - {a}\n    + {b}\n" for a, b in pairs[:3]), end="")
            status = 1 if differ else status
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
