"""ci/compare_with_base.py: number comparison, runner, command list, and the CI job that calls it."""

import importlib.util
import math
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("compare_with_base", ROOT / "ci" / "compare_with_base.py")
compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare)

CONFIGS = ("ligo", "lisa_pathfinder", "auriga")
EXTREME_RC = ("2.2250738585072014e-308", "1e-300", "1e-150", "1e55", "1e300")


def largest_change(base, head):
    return compare.changes(base, head)[0]


def zero_change(base, head):
    return compare.changes(base, head)[1]


def changed_counts(base, head):
    return compare.changes(base, head)[2]


def test_largest_change_reports_one_ulp_of_a_decimal_or_a_hex_value_and_a_changed_count():
    x = 4.46587164e-24
    y = math.nextafter(x, math.inf)
    ulp = (y - x) / y
    assert largest_change(f"1e-08 4.46587161e-24 {x!r} 5.6e-09", f"1e-08 4.46587161e-24 {y!r} 5.6e-09") == ulp
    assert largest_change(f"ligo 1e-08 {x.hex()} 0x1.5p-40 930", f"ligo 1e-08 {y.hex()} 0x1.5p-40 930") == ulp
    assert largest_change("1e-08,2.5,0.0", "1e-08,2.0,0.0") == 0.5 / 2.5
    # a count is not a float: an evaluation count going from 930 to 931 is one changed count, no relative change
    line = f"ligo 1e-08 {x.hex()} 0x1.5p-40 930"
    assert largest_change(line, line.replace("930", "931")) == 0.0
    assert changed_counts(line, line.replace("930", "931")) == 1
    assert changed_counts(line, f"ligo 1e-08 {y.hex()} 0x1.5p-40 930") == 0
    assert changed_counts("validate 3 930 0", "validate 4 931 0") == 2
    # a count that turns into a float is a float change
    assert largest_change("ligo 930", "ligo 0x1p-1") == (930 - 0.5) / 930
    assert changed_counts("ligo 930", "ligo 0x1p-1") == 0


def test_a_float_from_or_to_zero_is_measured_by_its_absolute_change():
    # a validate rel_diff of about 1e-16 that turns 0.0 once read as a relative change of 1.000e+00
    line = "1.0 4.46587164e-24 4.4658716e-24 1.1102230246251565e-16"
    turned = line.replace("1.1102230246251565e-16", "0.0")
    assert largest_change(line, turned) == largest_change(turned, line) == 0.0
    assert zero_change(line, turned) == zero_change(turned, line) == 1.1102230246251565e-16
    assert zero_change("0x1p-60 0x0p+0", "0x0p+0 0x1p-70") == 2.0**-60
    # a pair of nonzero floats, or of zeros (-0.0 too), is no change across 0.0
    assert zero_change("1e-08,2.5,0.0", "1e-08,2.0,-0.0") == 0.0
    assert largest_change("1e-08,2.5,0.0", "1e-08,2.0,-0.0") == 0.5 / 2.5
    # a count that turns into 0 is a changed count, not a float change
    assert zero_change("ligo 930", "ligo 0") == 0.0
    assert changed_counts("ligo 930", "ligo 0") == 1


def test_a_float_that_turns_inf_or_nan_is_an_infinite_change():
    # float.hex() spells such a value inf or nan; inf / inf is nan, which max would drop as no change
    for turned in ("inf", "-inf", "nan"):
        assert compare.changes("ligo 1.0", f"ligo {turned}") == compare.changes(f"ligo {turned}", "ligo 1.0") == (math.inf, 0.0, 0)
        assert compare.changes("ligo 0x0p+0", f"ligo {turned}") == (math.inf, 0.0, 0)
        assert compare.changes(f"ligo {turned} 930", f"ligo {turned} 931") == (0.0, 0.0, 1)
    assert compare.changes("ligo inf", "ligo -inf") == compare.changes("ligo inf", "ligo nan") == (math.inf, 0.0, 0)


def test_largest_change_is_zero_for_identical_lines_and_skips_tokens_that_are_not_numbers():
    line = "ligo 1e-08 0x1.2p-70 0x1p-40 930"
    assert largest_change(line, line) == 0.0
    assert largest_change("0.0 0x0p+0", "0.0 0x0p+0") == 0.0
    # words of hex letters are not numbers without their 0x
    assert largest_change("config ligo dead face", "config auriga beef fade") == 0.0
    assert largest_change("error: quadrature reached 3", "error: quadrature failed three") == 0.0
    assert changed_counts(line, line) == 0
    assert changed_counts("error: quadrature reached 3", "error: quadrature failed three") == 0


def test_run_captures_stdout_stderr_exit_code_and_written_files(tmp_path):
    child = (
        "import os, sys\n"
        "open('scan.csv', 'w').write('r_c_m,lambda\\n1e-07,2.5\\n')\n"
        "print(os.environ['PYTHONPATH'])\n"
        "print('error: r_c out of range', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    # the working directory starts empty, so the written file is the only one
    assert compare.run(tmp_path, ["-c", child]) == {
        "stdout": f"{tmp_path}\n".encode(),
        "stderr": b"error: r_c out of range\n",
        "exit code": b"3",
        "scan.csv": b"r_c_m,lambda\n1e-07,2.5\n",
    }


def test_the_command_list_holds_every_base_comparison_and_the_golden_grid():
    cli = ["-m", "cslbounds.cli"]
    expected = [["-c", compare.BESSEL], ["-c", compare.MERGE_EDGES], ["-c", compare.SWEEP], ["-c", compare.CLOSED_FORMS]]
    expected += [["-c", compare.CURVES]]
    expected += [
        [*cli, "scan", "--config", "auriga", "--variant", "printed", "--out", "scan.csv"],
        [*cli, "scan", "--config", "auriga", "--variant", "printed", "--points", "1000000", "--out", "scan.csv"],
    ]
    for c in CONFIGS:
        expected += [
            [*cli, "validate", "--config", c],
            [*cli, "validate", "--config", c, "--rc-min", "1", "--rc-max", "1e4", "--points", "9"],
            [*cli, "scan", "--config", c, "--out", "scan.csv"],
            [*cli, "scan", "--config", c, "--points", "1000000", "--out", "scan.csv"],
        ]
        expected += [[*cli, "bound", "--rc", rc, "--config", c] for rc in EXTREME_RC]
        expected += [[*cli, "noise", "--rc", rc, "--lambda", "1", "--config", c] for rc in EXTREME_RC]
    assert sorted(compare.COMMANDS) == sorted(expected)
    for fragment in (
        'for name in ("ligo", "lisa_pathfinder", "auriga"):',
        "for rc in np.geomspace(1e-12, 1e4, 61).tolist():",
        "force_psd_by_quadrature(CslParams(1.0, rc), det.geometry, det.arrangement)",
        "print(name, repr(rc), r.value.hex(), r.rel_error.hex(), r.evaluations)",
        "except QuadratureError as exc:",
        "print(name, repr(rc), exc, exc.evaluations)",
    ):
        assert fragment in compare.SWEEP
    for fragment in (
        "MassArrangement(a)) for a in (0.0, 0.046, 0.092, 20.0, 1e4)]",
        "MassArrangement(a, 2)) for a in (0.0, 0.2, 0.4, 20.0, 1e4)]",
        'bodies += [("bar", HalfCylinderBar(0.3, 3.0, 2300.0), MassArrangement(1.5))]',
        "print(name, arrangement.separation, repr(rc), r.value.hex(), r.rel_error.hex(), r.evaluations)",
        "print(name, arrangement.separation, repr(rc), exc, exc.evaluations)",
    ):
        assert fragment in compare.MERGE_EDGES
    for fragment in (
        "rcs = np.geomspace(MIN_CORRELATION_LENGTH, 1e300, 3001)",
        'for variant in BAR_VARIANTS if name == "auriga" else [None]:',
        "for rate in (1.0, 1e-30):",
        "force_noise_psd(CslParams(rate, rcs), det.geometry, det.arrangement, variant)",
        "print(name, variant, rate, repr(rc), value.hex())",
        '"ligo": lambda params, variant: cylinder_pair_force_psd(params, g, a.separation, a.arm_count),',
        '"lisa_pathfinder": lambda params, variant: cube_pair_force_psd(params, g, a.separation),',
        '"auriga": lambda params, variant: bar_force_psd(params, g, variant),',
        "for rc, value in zip(rcs.tolist(), own(CslParams(rate, rcs), variant).tolist()):",
        'print(name, "own entry", variant, rate, repr(rc), value.hex())',
    ):
        assert fragment in compare.CLOSED_FORMS
    for fragment in (
        "rcs = np.geomspace(MIN_CORRELATION_LENGTH, 1e300, 3001)",
        'for variant in BAR_VARIANTS if name == "auriga" else [None]:',
        "print(name, variant, repr(rc), lambda_max(det, entry, rc, variant).hex())",
        "except UnboundedParameterError as exc:",
        "print(name, variant, repr(rc), exc)",
    ):
        assert fragment in compare.CURVES
    for fragment in (
        "xs = [0.0, math.nextafter(0.0, 1.0), 20.0, math.nextafter(20.0, 0.0), math.nextafter(20.0, math.inf)]",
        "np.geomspace(1e-300, 1e300, 2001).tolist(), *np.linspace(0.0, 40.0, 2001).tolist()",
        "for x, value in zip(xs.tolist(), f(xs).tolist()):",
        "print(f.__name__, repr(x), value.hex(), f(x).hex())",
    ):
        assert fragment in compare.BESSEL
    for script in (compare.BESSEL, compare.MERGE_EDGES, compare.SWEEP, compare.CLOSED_FORMS, compare.CURVES):
        compile(script, "sweep", "exec")
    # each command is named by its own line of the report
    labels = [compare.label(args) for args in compare.COMMANDS]
    assert len(set(labels)) == len(labels)
    assert labels[-3:] == ["oracle sweep", "closed-form sweep", "curve sweep"]
    assert compare.label([*cli, "bound", "--rc", "1e55", "--config", "ligo"]) == "bound --rc 1e55 --config ligo"


def test_main_prints_one_line_per_command_and_exits_1_only_on_a_difference(monkeypatch, capsys, tmp_path):
    # main archives a throwaway repository, so this test needs no git checkout of its own
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "README").write_text("the tree's src/\n")
    git = ["git", "-C", str(repo), "-c", "user.name=compare test", "-c", "user.email=compare@example.invalid"]
    for args in (["init", "-q"], ["add", "src"], ["-c", "commit.gpgsign=false", "commit", "-q", "-m", "src"]):
        subprocess.run([*git, *args], check=True, capture_output=True)
    monkeypatch.setattr(compare, "ROOT", repo)
    same = ["-c", "# same\nprint(0x1p-3)"]
    monkeypatch.setattr(compare, "COMMANDS", [same])
    assert compare.main("HEAD") == 0
    assert capsys.readouterr().out == "same: identical\n"
    # sys.path[1] is the tree's src/ on PYTHONPATH, so it differs between the two trees
    monkeypatch.setattr(compare, "COMMANDS", [same, ["-c", "# path\nimport sys; print(sys.path[1])"]])
    assert compare.main("HEAD") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "same: identical",
        "path: differs in stdout",
        "  stdout: 1 differing lines, largest relative change 0.000e+00, largest change from or to 0.0 0.000e+00,"
        " 0 changed counts",
    ]
    assert out[3].startswith("    - ") and out[3].endswith("src")
    assert out[4] == f"    + {repo / 'src'}"


def test_the_ci_job_calls_the_script_with_the_base_sha_and_runs_no_command_of_its_own():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    job = re.search(r"^  validate-unchanged:\n((?:    .*\n|\n)*)", workflow, re.M).group(1)
    assert "if: github.event_name == 'pull_request'" in job
    assert "fetch-depth: 0" in job
    assert re.findall(r"run: (.*)", job) == [
        'python -m pip install "numpy>=1.24"',
        'python ci/compare_with_base.py "${{ github.event.pull_request.base.sha }}"',
    ]
    assert "cslbounds" not in job
