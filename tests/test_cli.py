"""Command-line interface and file formats."""

import contextlib
import io
import json
import re
import subprocess
import sys
from importlib import resources
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qps import formats
from qps import localization as loc
from qps import tomography as tom
from qps import transform as tr
from qps import wh_model as wh
from qps.cli import build_parser, main

from conftest import cli_env, random_low_block


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


# ---------------------------------------------------------------------------
# cohomology command
# ---------------------------------------------------------------------------


def test_cohomology_catalog_h3(tmp_path):
    code, report, _ = run(tmp_path, "cohomology", "h3")
    assert code == 0
    assert report["cohomology"]["dim_h2"] == 2
    assert report["config"]["command"] == "cohomology"


def test_cohomology_with_kernel(tmp_path):
    code, report, _ = run(tmp_path, "cohomology", "so3", "--omega", "1,0,0")
    assert code == 0
    assert report["kernel"]["gamma_dim"] == 2
    assert report["kernel"]["is_subalgebra"] is True


def test_cohomology_galilei_nontrivial(tmp_path):
    code, report, _ = run(tmp_path, "cohomology", "galilei")
    assert code == 0
    assert report["cohomology"]["dim_h2"] >= 1
    assert report["cohomology"]["dim_h1"] >= 1


def test_cohomology_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3,')
    assert main(["cohomology", str(bad)]) == 1


def test_cohomology_missing_file_exit_1(tmp_path):
    assert main(["cohomology", str(tmp_path / "absent.json")]) == 1


def test_cohomology_jacobi_failure_exit_2(tmp_path):
    algebra = tmp_path / "broken.json"
    algebra.write_text(
        json.dumps(
            {
                "name": "broken",
                "dim": 3,
                "basis": ["a", "b", "c"],
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"2": "1"}},
                    {"i": 1, "j": 2, "coeffs": {"1": "1"}},
                ],
            }
        )
    )
    code, report, _ = run(tmp_path, "cohomology", str(algebra))
    assert code == 2
    assert report["jacobi_ok"] is False
    assert report["violations"]


def _cohomology_error(tmp_path, capsys, data):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(data))
    code = main(["cohomology", str(algebra), "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return code, err


def test_cohomology_repeated_bracket_pair_exit_2(tmp_path, capsys):
    data = {
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}, {"i": 0, "j": 1, "coeffs": {"0": "1"}}],
    }
    code, err = _cohomology_error(tmp_path, capsys, data)
    assert code == 2
    assert "appears more than once" in err
    assert not (tmp_path / "report.json").exists()


def test_cohomology_non_integer_dim_exit_2(tmp_path, capsys):
    data = {"dim": 2.7, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1"}}]}
    code, err = _cohomology_error(tmp_path, capsys, data)
    assert code == 2
    assert "dim must be an integer, got 2.7" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"i": 0, "coeffs": {"0": "1"}}, "must be an object"),
        ({"j": 1, "coeffs": {"0": "1"}}, "must be an object"),
        ({"i": 0, "j": 1}, "must be an object"),
        ([0, 1, {"0": "1"}], "must be an object"),
        ({"i": 0, "j": 1, "coeffs": ["1"]}, "must be an object"),
        ({"i": 0, "j": 1, "coeffs": {"1": "1", "01": "2"}}, "names target 1 more than once"),
        ({"i": 0, "j": 1, "coeffs": {"0": None}}, "not a rational number"),
        ({"i": 0, "j": 1, "coeffs": {"0": "1/0"}}, "not a rational number"),
        ({"i": 0, "j": 1, "coeffs": {"x": "1"}}, "(0,1) has target key 'x' that is not a decimal index"),
    ],
    ids=["no-j", "no-i", "no-coeffs", "list-entry", "list-coeffs", "repeated-target",
         "null-coeff", "zero-denominator", "letter-target"],
)
def test_cohomology_malformed_bracket_entry_exit_2(tmp_path, capsys, entry, message):
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [entry]}
    code, err = _cohomology_error(tmp_path, capsys, data)
    assert code == 2
    assert message in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key", ["1_0", "\u0663"], ids=["underscore", "arabic-indic"])
def test_cohomology_non_decimal_target_key_exit_2(tmp_path, capsys, key):
    # both used to name a valid target (10 and 3) and exit 0
    data = {"dim": 11, "basis": [f"e{n}" for n in range(11)],
            "brackets": [{"i": 0, "j": 1, "coeffs": {key: "1"}}]}
    code, err = _cohomology_error(tmp_path, capsys, data)
    assert code == 2
    assert f"bracket entry (0,1) has target key {key!r} that is not a decimal index" in err
    assert not (tmp_path / "report.json").exists()


def test_cohomology_zero_denominator_omega_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["cohomology", "so3", "--omega", "1/0,0,0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zero denominator" in err
    assert not out.exists()


def test_cohomology_huge_omega_exponent_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["cohomology", "so3", "--omega", "1e10000000,0,0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds 4300 in magnitude" in err
    assert not out.exists()


def test_cohomology_huge_coefficient_exponent_exit_2(tmp_path, capsys):
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1e10000000"}}]}
    code, err = _cohomology_error(tmp_path, capsys, data)
    assert code == 2
    assert "exceeds 4300 in magnitude" in err
    assert not (tmp_path / "report.json").exists()


def test_cohomology_open_omega_names_nonzero_triples_exit_2(tmp_path, capsys):
    # omega = e^3 ^ e^9 on galilei: d2(omega) is -1 at (1, 5, 9) and 1 at
    # (2, 4, 9), and zero at the other 118 triples
    omega = ",".join("1" if pair == (3, 9) else "0" for pair in combinations(range(10), 2))
    out = tmp_path / "report.json"
    assert main(["cohomology", "galilei", "--omega", omega, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: omega is not closed; d2(omega) is nonzero at 2 of 120 triples, "
        "first: (1, 5, 9) = -1, (2, 4, 9) = 1\n"
    )
    assert not out.exists()


def test_cohomology_decimal_and_fraction_omega_accepted(tmp_path):
    code, report, _ = run(tmp_path, "cohomology", "so3", "--omega", "1e-3,3/4,2")
    assert code == 0
    assert report["config"]["omega"] == "1e-3,3/4,2"
    assert "kernel" in report


def test_cohomology_loads_no_numeric_layer(tmp_path):
    # a fresh interpreter, because this suite has imported every layer
    script = (
        "import json, sys\n"
        "from qps.cli import main\n"
        f"assert main(['cohomology', 'h3', '--out', {str(tmp_path / 'h3.json')!r}]) == 0\n"
        "heavy = ['scipy', 'qps.wh_model', 'qps.transform', 'qps.localization',\n"
        "         'qps.tomography', 'qps.effect_algebra']\n"
        "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=cli_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_cohomology_file_equivalent_to_catalog(tmp_path):
    path = resources.files("qps") / "algebras" / "h3.json"
    code, from_file, _ = run(tmp_path, "cohomology", str(path), "--omega", "1,0,0")
    assert code == 0
    assert from_file["cohomology"]["dim_h2"] == 2
    code, from_catalog, _ = run(tmp_path, "cohomology", "h3", "--omega", "1,0,0")
    assert code == 0
    for report in (from_file, from_catalog):
        del report["config"]
    assert from_file == from_catalog


def test_cohomology_omega_that_is_not_a_number_names_the_flag_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["cohomology", "so3", "--omega", "x,0,0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --omega 'x,0,0' is not a comma list of rational numbers "
        "(Invalid literal for Fraction: 'x')\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("omega", ["1,0", "1,0,0,0"])
def test_cohomology_omega_with_the_wrong_count_names_the_flag_exit_2(tmp_path, capsys, omega):
    # the count used to be refused by Cochain, in a line that named no flag
    out = tmp_path / "report.json"
    assert main(["cohomology", "so3", "--omega", omega, "--out", str(out)]) == 2
    count = omega.count(",") + 1
    assert capsys.readouterr().err == (
        f"error: --omega {omega!r} has {count} coordinates; so3 needs 3, one per basis pair i < j\n"
    )
    assert not out.exists()


def test_cohomology_empty_omega_exit_2(tmp_path, capsys):
    # an empty --omega used to be skipped: exit 0, no kernel, "omega": ""
    out = tmp_path / "report.json"
    assert main(["cohomology", "h3", "--omega", "", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


def test_spectrum_small_run_artifacts(tmp_path):
    code, report, out = run(
        tmp_path, "spectrum", "--dim", "16", "--radius", "6", "--spacing", "0.2",
        "--region", "disk:2",
    )
    assert code == 0
    csv_path = out.with_suffix(".csv")
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue"
    assert len(rows) == 17
    lam0 = float(rows[1].split(",")[1])
    assert lam0 == pytest.approx(1 - np.exp(-2.0), abs=5e-3)
    assert report["near_one"] + report["near_zero"] + report["mid"] == 16
    assert report["trace"] == pytest.approx(report["mu_delta"], rel=1e-6)


def test_spectrum_defaults_reproduce_disk_oracle(tmp_path):
    # with no flags the command must land on the acceptance tolerances:
    # top eigenvalue of the radius-3 disk within 1e-4 of 1 - e^-4.5
    code, report, out = run(tmp_path, "spectrum")
    assert code == 0
    first_row = out.with_suffix(".csv").read_text().splitlines()[1]
    lam0 = float(first_row.split(",")[1])
    assert lam0 == pytest.approx(1 - np.exp(-4.5), abs=1e-4)
    assert report["capacity_count"] == 4


def test_spectrum_empty_region_all_zero(tmp_path):
    code, report, out = run(
        tmp_path, "spectrum", "--dim", "8", "--radius", "4", "--spacing", "0.25",
        "--region", "disk:0.05",
    )
    assert code == 0
    values = [float(r.split(",")[1]) for r in out.with_suffix(".csv").read_text().splitlines()[1:]]
    assert all(v == 0.0 for v in values)
    assert report["capacity_count"] == 0


def test_spectrum_quarter_measure_region_passes_nothing(tmp_path):
    code, report, _ = run(
        tmp_path, "spectrum", "--dim", "16", "--radius", "6", "--spacing", "0.15",
        "--region", f"disk:{np.sqrt(0.5)}",
    )
    assert code == 0
    assert report["mu_delta"] == pytest.approx(0.25, abs=0.01)
    assert report["capacity_count"] == 0


def test_spectrum_computes_its_spectrum_once(tmp_path, monkeypatch):
    calls = []
    spectrum = loc.localization_spectrum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(loc, "localization_spectrum", counted)
    code, report, _ = run(
        tmp_path, "spectrum", "--dim", "8", "--radius", "4", "--spacing", "0.25",
        "--region", "disk:2", "--threshold", "0.3",
    )
    assert code == 0
    assert len(calls) == 1
    # disk eigenvalues P(n+1, 2) = 0.86, 0.59, 0.32, 0.14, ...
    assert report["capacity_count"] == 3


def test_spectrum_builds_only_the_rows_inside_the_disk(tmp_path, monkeypatch):
    grids = []
    build = wh.build_grid

    def captured(*args, **kwargs):
        grids.append(build(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(wh, "build_grid", captured)
    code, _, _ = run(tmp_path, "spectrum", "--region", "disk:1")
    assert code == 0
    (grid,) = grids
    inside = loc.RegionSpec.disk(1.0).mask(grid)
    assert 0 < inside.sum() < len(grid) / 40
    assert np.array_equal(grid._family.built, inside)


def test_overflowing_grid_radius_exit_2_with_one_line():
    # alpha**31 overflows on this grid; it used to print three RuntimeWarnings
    # and fail with "Eigenvalues did not converge"
    proc = subprocess.run(
        [sys.executable, "-m", "qps.cli", "spectrum", "--radius", "2e10", "--spacing", "1e9",
         "--region", "disk:2e10"],
        env=cli_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "allows grid radii up to 1.21e+10" in proc.stderr
    assert proc.stdout == ""


def test_grid_whose_outer_sites_overflow_warns_nothing():
    # q^2 + p^2 overflows at the outer lattice sites: numpy's RuntimeWarnings used to reach stderr
    def qps(*argv):
        return subprocess.run([sys.executable, "-m", "qps.cli", *argv], env=cli_env(), capture_output=True, text=True)

    proc = qps("transform", "--radius", "1e154", "--spacing", "3e153")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    proc = qps("spectrum", "--radius", "1e154", "--spacing", "1e153")
    assert proc.returncode == 0 and proc.stderr == ""


def test_far_squeezed_spectrum_is_zero_without_overflow(tmp_path):
    # the Laguerre factor overflows out here, against an exponential of 0
    with np.errstate(over="raise", invalid="raise"):
        code, report, _ = run(
            tmp_path, "spectrum", "--generator", "squeezed:0.8", "--radius", "1e6",
            "--spacing", "1e5", "--region", "disk:1e6",
        )
    assert code == 0
    assert report["trace"] == 0.0 and report["near_zero"] == 32


def test_spectrum_bad_region_exit_2(tmp_path):
    assert main(["spectrum", "--region", "triangle:1"]) == 2


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_spectrum_without_near_one_eigenvalue_writes_strict_json(tmp_path):
    code, _, out = run(
        tmp_path, "spectrum", "--dim", "8", "--radius", "4", "--spacing", "0.25",
        "--region", "disk:1",
    )
    assert code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["near_one"] == 0 and report["mid"] > 0
    assert report["mid_to_near_one_ratio"] is None


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--region", "disk:-1"], "disk radius must be positive and finite"),
        (["spectrum", "--region", "disk:nan"], "disk radius must be positive and finite"),
        (["spectrum", "--region", "rect:nan,1,0,1"], "rect region needs q0 < q1"),
        (["spectrum", "--radius", "inf"], "radius must be positive and finite"),
        (["transform", "--radius", "1e200"], "radius must be positive and finite, with a "
                                             "finite square, got 1e+200"),
        (["admissibility", "--generator", "squeezed:nan"], "needs |r| <= 1.5"),
    ],
    ids=["disk-negative", "disk-nan", "rect-nan", "radius-inf", "radius-square-overflow",
         "squeezed-nan"],
)
def test_non_finite_or_negative_argument_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    assert main(argv + ["--dim", "8", "--spacing", "0.25", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_disk_with_overflowing_square_covers_the_grid(tmp_path):
    grid = ["--dim", "8", "--radius", "4", "--spacing", "0.25"]
    reports = []
    for radius in ("1e200", "100"):
        code, report, _ = run(tmp_path, "spectrum", *grid, "--region", f"disk:{radius}")
        assert code == 0
        assert report["config"].pop("region") == f"disk:{radius}"
        reports.append(report)
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# tomography command
# ---------------------------------------------------------------------------


def test_tomography_self_test(tmp_path):
    code, report, _ = run(tmp_path, "tomography", "--self-test", "7")
    assert code == 0
    assert report["frobenius_norm"] <= 1e-6
    assert report["rank"] == 16
    assert report["config"]["self_test"] == 7
    assert "seed" not in report["config"]


def test_tomography_self_test_carries_its_seed(tmp_path):
    reports = {}
    for seed in ([], ["7"], ["0"]):
        code, report, out = run(tmp_path, "tomography", "--self-test", *seed)
        assert code == 0
        reports[tuple(seed)] = out.read_bytes()
    # the seed defaults to 7, and seed 0 is a seed, not "no self-test"
    assert reports[()] == reports[("7",)]
    assert json.loads(reports[("0",)])["config"]["self_test"] == 0
    assert reports[("0",)] != reports[("7",)]


def test_tomography_seed_flag_is_gone_exit_2(capsys):
    assert main(["tomography", "--self-test", "--seed", "7"]) == 2
    assert capsys.readouterr().err == "qps: error: unrecognized arguments: --seed 7\n"


def test_tomography_self_test_at_dim_16(tmp_path):
    code, report, _ = run(
        tmp_path, "tomography", "--self-test", "--dim", "16", "--radius", "8", "--spacing", "0.3"
    )
    assert code == 0
    assert report["rank"] == 256
    assert report["frobenius_norm"] <= 1e-8


def test_tomography_positions_only(tmp_path):
    code, report, _ = run(tmp_path, "tomography", "--positions-only")
    assert code == 0
    assert report["complete"] is False
    assert report["rank"] == 4
    # the report is a function of --dim alone, and no grid is built or recorded
    assert sorted(report["config"]) == ["command", "dim", "out", "positions_only"]


@pytest.mark.parametrize(
    "flag,value", [("--radius", "5"), ("--spacing", "0.4"), ("--generator", "ground")]
)
def test_tomography_positions_only_takes_no_grid_flag_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "report.json"
    assert main(["tomography", "--positions-only", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --positions-only builds no grid and takes no {flag}\n"
    assert not out.exists()


def test_tomography_missing_csv_exit_1(tmp_path):
    assert main(["tomography", "--probabilities", str(tmp_path / "no.csv")]) == 1


def test_tomography_without_mode_exit_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["tomography", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "one of the arguments" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "modes",
    [
        ["--self-test", "--positions-only"],
        ["--self-test", "--probabilities", "absent.csv"],
        ["--positions-only", "--probabilities", "absent.csv"],
        ["--self-test", "--positions-only", "--probabilities", "absent.csv"],
    ],
    ids=["self-test+positions", "self-test+probabilities", "positions+probabilities",
         "all-three"],
)
def test_tomography_modes_exclude_each_other_exit_2(tmp_path, capsys, modes):
    out = tmp_path / "report.json"
    assert main(["tomography", *modes, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not allowed with argument" in err
    assert not out.exists()


def test_tomography_unknown_flag_returns_2(capsys):
    assert main(["tomography", "--bogus"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_tomography_repeated_csv_point_exit_2(tmp_path, capsys, grid4):
    csv_in = tmp_path / "probs.csv"
    formats.write_values_csv(np.full(len(grid4), 0.01), grid4, csv_in)
    lines = csv_in.read_text().splitlines()
    csv_in.write_text("\n".join(lines + [lines[1]]) + "\n")
    out = tmp_path / "report.json"
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "listed more than once" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_tomography_non_finite_csv_value_exit_2(tmp_path, capsys, grid4, value):
    # inf used to reach LAPACK ("Eigenvalues did not converge"); nan read as a missing point
    csv_in = tmp_path / "probs.csv"
    formats.write_values_csv(np.full(len(grid4), 0.01), grid4, csv_in)
    lines = csv_in.read_text().splitlines()
    q, p = lines[3].split(",")[:2]
    lines[3] = f"{q},{p},{value},0.1"
    csv_in.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"point ({float(q)},{float(p)}) has value '{value}', which is not finite" in err
    assert str(csv_in) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "row,message",
    [
        ("inf,0.2,1.0,0.01", "point (inf,0.2) is not on the grid lattice"),
        ("nan,0.2,1.0,0.01", "point (nan,0.2) is not on the grid lattice"),
        ("0.2,0.2", "line 2 needs numbers in q, p and value"),
        ("0.2,0.2,abc,0.01", "line 2 needs numbers in q, p and value"),
        # float() reads digit grouping: '1_0' would be taken as 10.0
        ("0.2,0.2,1_0,0.01", "line 2 needs numbers in q, p and value"),
        ("0.2_0,0.2,1.0,0.01", "line 2 needs numbers in q, p and value"),
    ],
    ids=["inf-coordinate", "nan-coordinate", "short-row", "text-value", "grouped-value",
         "grouped-coordinate"],
)
def test_tomography_malformed_csv_row_exit_2(tmp_path, capsys, row, message):
    # an inf coordinate and a short row used to escape as tracebacks
    csv_in = tmp_path / "probs.csv"
    csv_in.write_text(f"q,p,value,weight\n{row}\n")
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{csv_in}: {message}" in err


def test_tomography_csv_field_over_the_limit_exit_2(tmp_path, capsys):
    # csv.Error is not a ValueError, and used to escape as a traceback with exit 1
    csv_in = tmp_path / "probs.csv"
    csv_in.write_text("q,p,value,weight\n0.2,0.2," + "1" * 131_073 + ",0.01\n")
    out = tmp_path / "report.json"
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {csv_in}: line 2: field larger than field limit (131072)\n"
    assert not out.exists()


def _with_byte_ff(path, line: int) -> None:
    """Append the byte 0xff, which is never UTF-8, to line ``line`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("line", [1, 4, 5000])
def test_tomography_undecodable_csv_byte_names_file_and_line_exit_2(tmp_path, capsys, grid_ref, line):
    # the codec's message used to go out alone, its position counted from a decoder chunk
    csv_in = tmp_path / "probs.csv"
    formats.write_values_csv(np.full(len(grid_ref), 0.01), grid_ref, csv_in)
    _with_byte_ff(csv_in, line)
    out = tmp_path / "report.json"
    argv = ["tomography", "--probabilities", str(csv_in), "--radius", "7", "--spacing", "0.15"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {csv_in}: line {line}: 'utf-8' codec can't decode byte 0xff: invalid start byte\n"
    assert not out.exists()


def test_values_csv_header_over_the_field_limit_names_line_1(tmp_path, grid4):
    path = tmp_path / "vals.csv"
    path.write_text("q,p,value," + "w" * 131_073 + "\n0.2,0.2,0.1,0.1\n")
    with pytest.raises(ValueError, match=r"vals\.csv: line 1: field larger than field limit"):
        formats.read_values_csv(path, grid4)


def test_values_csv_rows_before_an_undecodable_byte_are_checked_first(tmp_path, grid_ref):
    path = tmp_path / "vals.csv"
    formats.write_values_csv(np.full(len(grid_ref), 0.01), grid_ref, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[1]
    path.write_text("\n".join(lines) + "\n")
    _with_byte_ff(path, 6000)
    with pytest.raises(ValueError, match="is listed more than once"):
        formats.read_values_csv(path, grid_ref)


@pytest.mark.parametrize("column", ["q", "p", "value"])
def test_tomography_repeated_csv_column_exit_2(tmp_path, capsys, grid4, column):
    # the last of two same-named columns used to be read: 'q,p,value,value' took the weights
    csv_in = tmp_path / "probs.csv"
    formats.write_values_csv(np.full(len(grid4), 0.01), grid4, csv_in)
    lines = csv_in.read_text().splitlines()
    lines[0] = lines[0].replace("weight", column)
    csv_in.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {csv_in}: column {column!r} is named more than once\n"
    assert not out.exists()


def test_tomography_probabilities_file_round_trip(tmp_path, ctx4, grid4, eta4):
    rho = tom.DensityOperator.pure(np.eye(4)[1])
    dens = tom.classical_density(rho, eta4, grid4, ctx4)
    csv_in = tmp_path / "probs.csv"
    formats.write_values_csv(dens.values, grid4, csv_in)
    code, report, _ = run(tmp_path, "tomography", "--probabilities", str(csv_in))
    assert code == 0
    assert report["residual"] <= 1e-6


# ---------------------------------------------------------------------------
# effects command
# ---------------------------------------------------------------------------


def test_effects_report(tmp_path):
    code, report, _ = run(tmp_path, "effects", "--trials", "60", "--seed", "2")
    assert code == 0
    assert report["axioms"]["total_failures"] == 0
    assert report["projection_scan"]["all_pass"] is True
    assert len(report["projection_scan"]["regions"]) == 6


def test_effects_zero_trials_exit_2(tmp_path):
    assert main(["effects", "--trials", "0"]) == 2


@pytest.mark.parametrize("dim", ["0", "1"])
def test_effects_checks_grid_flags_first_exit_2(tmp_path, capsys, dim):
    out = tmp_path / "report.json"
    assert main(["effects", "--dim", dim, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_dim must be >= 2" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# transform and admissibility commands
# ---------------------------------------------------------------------------


def test_transform_round_trip_report(tmp_path):
    code, report, out = run(tmp_path, "transform", "--seed", "3")
    assert code == 0
    assert report["relative_error"] <= 1e-6
    header = out.with_suffix(".csv").read_text().splitlines()[0]
    assert header == "q,p,re,im,weight"


def test_admissibility_report(tmp_path):
    code, _, out = run(tmp_path, "admissibility", "--trials", "10")
    assert code == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["integral"] == pytest.approx(1.0, abs=1e-3)
    assert report["d_constant"] == pytest.approx(1.0, abs=1e-3)
    assert report["beta_ok"] is True
    assert 0.5 < report["beta_sample_radius"] < 0.7


def test_bad_generator_exit_2(tmp_path):
    assert main(["admissibility", "--generator", "thermal"]) == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["admissibility", "--generator", "fock:x"],
         "--generator 'fock:x' is not one of ground, fock:n, squeezed:r"),
        (["transform", "--generator", "squeezed:"],
         "--generator 'squeezed:' is not one of ground, fock:n, squeezed:r"),
        (["effects", "--generator", "thermal"],
         "--generator 'thermal' is not one of ground, fock:n, squeezed:r"),
        (["spectrum", "--region", "disk:x"], "--region 'disk:x' is not one of disk:R, rect:q0,q1,p0,p1"),
        (["spectrum", "--region", "rect:0,1,0"],
         "--region 'rect:0,1,0' is not one of disk:R, rect:q0,q1,p0,p1"),
        (["spectrum", "--region", "triangle:1"],
         "--region 'triangle:1' is not one of disk:R, rect:q0,q1,p0,p1"),
    ],
    ids=["fock-x", "squeezed-empty", "thermal", "disk-x", "rect-three", "triangle"],
)
def test_malformed_generator_or_region_names_the_flag_exit_2(tmp_path, capsys, argv, message):
    # 'fock:x' and 'disk:x' used to report only the failed int() or float() conversion
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()



# Python's int and float read '1_0' as 10; no flag value does, as no CSV value does
_DIGIT_GROUPING = [
    (["spectrum", "--dim", "3_2"], "qps spectrum: error: argument --dim: invalid int value: '3_2'"),
    (["tomography", "--self-test", "--dim", "1_6"],
     "qps tomography: error: argument --dim: invalid int value: '1_6'"),
    (["spectrum", "--radius", "7.0_0"], "qps spectrum: error: argument --radius: invalid float value: '7.0_0'"),
    (["transform", "--spacing", "0.1_5"], "qps transform: error: argument --spacing: invalid float value: '0.1_5'"),
    (["spectrum", "--epsilon", "0.1_0"], "qps spectrum: error: argument --epsilon: invalid float value: '0.1_0'"),
    (["spectrum", "--threshold", "0.5_0"],
     "qps spectrum: error: argument --threshold: invalid float value: '0.5_0'"),
    (["effects", "--trials", "1_0"], "qps effects: error: argument --trials: invalid int value: '1_0'"),
    (["admissibility", "--trials", "5_0"], "qps admissibility: error: argument --trials: invalid int value: '5_0'"),
    (["admissibility", "--generator", "fock:1_0"],
     "error: --generator 'fock:1_0' is not one of ground, fock:n, squeezed:r"),
    (["transform", "--generator", "squeezed:0.1_0"],
     "error: --generator 'squeezed:0.1_0' is not one of ground, fock:n, squeezed:r"),
    (["spectrum", "--region", "disk:1_5"], "error: --region 'disk:1_5' is not one of disk:R, rect:q0,q1,p0,p1"),
    (["spectrum", "--region", "rect:0,2_0,0,2"],
     "error: --region 'rect:0,2_0,0,2' is not one of disk:R, rect:q0,q1,p0,p1"),
    (["cohomology", "so3", "--omega", "1_0,0,0"],
     "error: --omega '1_0,0,0' is not a comma list of rational numbers ('1_0' uses digit grouping)"),
]


@pytest.mark.parametrize("argv,message", _DIGIT_GROUPING, ids=["=".join(argv[-2:]) for argv, _ in _DIGIT_GROUPING])
def test_digit_grouping_in_a_number_names_the_flag_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()

@pytest.mark.parametrize("trials", ["0", "-1"])
def test_admissibility_without_trials_exit_2(tmp_path, capsys, trials):
    out = tmp_path / "report.json"
    assert main(["admissibility", "--trials", trials, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trials must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
@pytest.mark.parametrize(
    "command",
    [["tomography", "--self-test"], ["effects", "--seed"], ["transform", "--seed"],
     ["admissibility", "--seed"]],
    ids=lambda command: command[0],
)
def test_seed_must_be_a_non_negative_integer_exit_2(tmp_path, capsys, command, seed):
    out = tmp_path / "report.json"
    assert main([*command, seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"qps {command[0]}: error: argument {command[1]}: "
                   f"expected a non-negative integer seed, got '{seed}'\n")
    assert not out.exists()


def test_parser_is_built_once_and_parsing_leaves_it_as_it_is():
    parser = build_parser()
    assert build_parser() is parser
    spectrum = parser.parse_args(["spectrum", "--region", "disk:2", "--dim", "8"])
    cohomology = parser.parse_args(["cohomology", "h3"])
    # nothing of one parse reaches the next: each holds its own command's flags at their defaults
    assert (spectrum.region, spectrum.dim) == ("disk:2", 8)
    assert not hasattr(cohomology, "region") and cohomology.omega is None
    assert parser.parse_args(["spectrum"]).region == "disk:3"


# no command takes --format: with --out, a table goes to the .csv sibling of the report
@pytest.mark.parametrize(
    "command",
    [["cohomology", "h3"], ["effects"], ["admissibility"], ["spectrum"],
     ["tomography", "--positions-only"], ["transform"]],
)
def test_format_flag_only_where_a_table_exists(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    assert main([*command, "--format", "json", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "qps: error: unrecognized arguments: --format json\n"
    assert not out.exists()


_SMALL_GRID = ["--dim", "8", "--radius", "6", "--spacing", "0.4"]


@pytest.mark.parametrize(
    "command",
    [["spectrum", *_SMALL_GRID], ["transform", *_SMALL_GRID], ["tomography", "--self-test"]],
    ids=["spectrum", "transform", "tomography"],
)
def test_out_that_is_its_own_table_exit_2(tmp_path, capsys, command):
    # the table used to be written over the report at the same path, with exit 0
    out = tmp_path / "r.csv"
    assert main([*command, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {str(out)!r} is also its .csv table's path; give the report another suffix\n"
    )
    assert not out.exists()


def test_out_whose_table_is_the_probabilities_file_exit_2(tmp_path, capsys, grid4):
    csv_in = tmp_path / "in.csv"
    formats.write_values_csv(np.full(len(grid4), 0.01), grid4, csv_in)
    before = csv_in.read_bytes()
    out = tmp_path / "sub" / ".." / "in.json"  # the check compares resolved paths
    (tmp_path / "sub").mkdir()
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {str(out)!r} would write over the input file {str(csv_in)!r}\n"
    )
    assert csv_in.read_bytes() == before
    assert not (tmp_path / "in.json").exists()


def test_out_that_is_the_algebra_file_exit_2(tmp_path, capsys):
    algebra = tmp_path / "alg.json"
    algebra.write_text((resources.files("qps") / "algebras" / "so3.json").read_text())
    before = algebra.read_bytes()
    assert main(["cohomology", str(algebra), "--out", str(algebra)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {str(algebra)!r} would write over the input file {str(algebra)!r}\n"
    )
    assert algebra.read_bytes() == before


@pytest.mark.parametrize(
    "argv,size",
    [
        (["spectrum", "--dim", "10000000"], "2.33 TiB"),
        (["spectrum", "--radius", "1e100", "--spacing", "1e88"], "14.6 TiB"),
    ],
    ids=["dim", "grid"],
)
def test_unallocatable_configuration_exit_1(tmp_path, capsys, argv, size):
    # both fail at their first allocation, before any memory is touched
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: Unable to allocate {size}")
    assert not out.exists()


# ---------------------------------------------------------------------------
# formats
# ---------------------------------------------------------------------------


def test_values_csv_round_trip(tmp_path, grid4):
    rng = np.random.default_rng(0)
    values = rng.uniform(size=len(grid4))
    path = tmp_path / "vals.csv"
    formats.write_values_csv(values, grid4, path)
    back = formats.read_values_csv(path, grid4)
    assert np.array_equal(back, values)


def test_values_csv_missing_point_rejected(tmp_path, grid4):
    values = np.ones(len(grid4))
    path = tmp_path / "vals.csv"
    formats.write_values_csv(values, grid4, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="no value"):
        formats.read_values_csv(path, grid4)


@pytest.mark.parametrize("value", ["0.5", "nan"])
def test_values_csv_repeated_point_rejected(tmp_path, grid4, value):
    # the repeat would otherwise replace the first value, even after a NaN
    values = np.full(len(grid4), 5.8e-10)
    path = tmp_path / "vals.csv"
    formats.write_values_csv(values, grid4, path)
    lines = path.read_text().splitlines()
    q, p = lines[1].split(",")[:2]
    lines[1] = f"{q},{p},{value},0.1"
    path.write_text("\n".join(lines + [f"{q},{p},0.5,0.1"]) + "\n")
    with pytest.raises(ValueError, match=rf"point \({float(q)},{float(p)}\) is listed more than once"):
        formats.read_values_csv(path, grid4)


def _read_by_rows(path, grid):
    """The values of a q,p,value CSV as a row-by-row dict reader aligns them to ``grid``."""
    import csv

    def site(q, p):
        return round(q / grid.spacing - 0.5), round(p / grid.spacing - 0.5)

    index = {site(q, p): k for k, (q, p) in enumerate(grid.points.tolist())}
    values = np.full(len(grid), np.nan)
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            k = index[site(float(row["q"]), float(row["p"]))]
            assert np.isnan(values[k])
            values[k] = float(row["value"])
    return values


def test_values_csv_matches_the_per_row_reader(tmp_path, grid_ref):
    values = np.random.default_rng(3).uniform(size=len(grid_ref))
    path = tmp_path / "vals.csv"
    formats.write_values_csv(values, grid_ref, path)
    back = formats.read_values_csv(path, grid_ref)
    assert len(grid_ref) == 6828
    assert np.array_equal(back, _read_by_rows(path, grid_ref))
    assert np.array_equal(back, values)


def _values_csv(grid, value=0.01):
    """Header and rows of a complete q,p,value,weight file for ``grid``."""
    return [["q", "p", "value", "weight"]] + [
        [repr(float(q)), repr(float(p)), repr(value), "0.01"] for q, p in grid.points
    ]


def _write_rows(path, rows):
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


@pytest.mark.parametrize(
    "first,second,message",
    [
        (["0.123", "0.2"], ["0.2", "0.2", "abc"], "point (0.123,0.2) is not on the grid lattice"),
        (["0.2", "0.2", "abc"], ["0.123", "0.2"], "line 3 needs numbers in q, p and value"),
        (["0.2", "0.2", "inf"], ["9.8", "0.2"], "point (9.8,0.2) lies outside the grid"),
    ],
    ids=["off-lattice-first", "text-value-first", "non-finite-value-last"],
)
def test_values_csv_reports_the_first_faulty_row(tmp_path, grid4, first, second, message):
    # a non-finite value is reported only when no row has another fault
    rows = _values_csv(grid4)
    rows[2][: len(first)] = first
    rows[4][: len(second)] = second
    path = tmp_path / "vals.csv"
    _write_rows(path, rows)
    with pytest.raises(ValueError) as err:
        formats.read_values_csv(path, grid4)
    assert str(err.value) == f"{path}: {message}"


def test_values_csv_faults_far_into_a_large_file(tmp_path, grid_ref):
    rows = _values_csv(grid_ref)
    rows[1999][2] = " -inf"
    rows[4999][2] = "abc"
    path = tmp_path / "vals.csv"
    _write_rows(path, rows)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: line 5000 needs numbers in q, p and value") + "$"):
        formats.read_values_csv(path, grid_ref)
    rows[4999][2] = "0.01"
    _write_rows(path, rows)
    q, p = (float(x) for x in rows[1999][:2])
    with pytest.raises(ValueError, match=re.escape(f"point ({q},{p}) has value ' -inf', which is not finite")):
        formats.read_values_csv(path, grid_ref)


def test_values_csv_skips_blank_lines_and_ignores_extra_fields(tmp_path, grid4):
    rows = _values_csv(grid4, value=0.25)
    rows[3] += ["extra", "fields"]
    rows.insert(5, [])
    rows.insert(1, [])
    path = tmp_path / "vals.csv"
    _write_rows(path, rows + [[]])
    assert np.array_equal(formats.read_values_csv(path, grid4), np.full(len(grid4), 0.25))


def test_values_csv_reads_a_permuted_header_and_quoted_fields(tmp_path, grid4):
    values = np.random.default_rng(4).uniform(size=len(grid4))
    rows = [["value", "weight", "q", "p"]] + [
        [repr(float(v)), "0.01", repr(float(q)), f'"{float(p)!r}"'] for (q, p), v in zip(grid4.points, values)
    ]
    path = tmp_path / "vals.csv"
    _write_rows(path, rows)
    assert np.array_equal(formats.read_values_csv(path, grid4), values)


@pytest.mark.parametrize("q", ["1e300", "-1e300", "1e308"])
def test_values_csv_far_coordinate_lies_outside_the_grid(tmp_path, grid4, q):
    # the lattice index must not wrap in an integer cast, nor overflow to a traceback
    path = tmp_path / "vals.csv"
    path.write_text(f"q,p,value,weight\n{q},0.2,1.0,0.01\n")
    with pytest.raises(ValueError) as err:
        formats.read_values_csv(path, grid4)
    assert str(err.value) == f"{path}: point ({float(q)},0.2) lies outside the grid"


def test_values_csv_header_only_has_no_values(tmp_path, grid4):
    path = tmp_path / "vals.csv"
    path.write_text("q,p,value,weight\n")
    with pytest.raises(ValueError) as err:
        formats.read_values_csv(path, grid4)
    assert str(err.value) == f"{path}: {len(grid4)} grid points have no value"


def _csv_by_rows(header, rows):
    """The writers' bytes as the per-row csv.writer loop with ``fmt`` produced them."""
    import csv

    def fmt(x):
        return f"{float(x):.17g}"

    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue().encode("utf-8")


def _awkward_values(n):
    rng = np.random.default_rng(11)
    values = rng.normal(size=n) * np.exp(rng.normal(size=n) * 20)
    values[:7] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
    return values


def test_csv_writers_match_the_per_row_loop(tmp_path, grid4):
    values = _awkward_values(len(grid4))
    formats.write_values_csv(values, grid4, tmp_path / "vals.csv")
    expected = _csv_by_rows(
        ["q", "p", "value", "weight"],
        ([grid4.q[k], grid4.p[k], values[k], grid4.weights[k]] for k in range(len(grid4))),
    )
    assert (tmp_path / "vals.csv").read_bytes() == expected

    complex_values = np.empty(len(grid4), dtype=complex)
    complex_values.real, complex_values.imag = values, values[::-1]
    samples = wh.GammaFunctionSamples(grid=grid4, values=complex_values)
    formats.write_samples_csv(samples, tmp_path / "samples.csv")
    expected = _csv_by_rows(
        ["q", "p", "re", "im", "weight"],
        (
            [grid4.q[k], grid4.p[k], samples.values[k].real, samples.values[k].imag, grid4.weights[k]]
            for k in range(len(grid4))
        ),
    )
    assert (tmp_path / "samples.csv").read_bytes() == expected

    formats.write_spectrum_csv(values, tmp_path / "spectrum.csv")
    expected = _csv_by_rows(["index", "eigenvalue"], ([i, lam] for i, lam in enumerate(values)))
    assert (tmp_path / "spectrum.csv").read_bytes() == expected


def test_values_csv_off_lattice_rejected(tmp_path, grid4):
    path = tmp_path / "vals.csv"
    path.write_text("q,p,value,weight\n0.123,0.2,1.0,0.01\n")
    with pytest.raises(ValueError, match="lattice"):
        formats.read_values_csv(path, grid4)


def test_values_csv_wrong_columns_rejected(tmp_path, grid4):
    path = tmp_path / "vals.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="columns"):
        formats.read_values_csv(path, grid4)


def test_samples_csv_written_with_17_digits(tmp_path, ctx24, grid_ref, eta24):
    rng = np.random.default_rng(1)
    phi = random_low_block(rng, 24)
    samples = tr.w_transform(eta24, grid_ref, phi, ctx24)
    path = tmp_path / "samples.csv"
    formats.write_samples_csv(samples, path)
    row = path.read_text().splitlines()[1].split(",")
    assert len(row) == 5
    # values survive a text round trip exactly
    assert float(row[2]) == samples.values[0].real


# ---------------------------------------------------------------------------
# argv fuzz: every run exits 0 with strict JSON, or 1 or 2 with one line
# ---------------------------------------------------------------------------

# 1e200 is finite but its square is not
HOSTILE = ["1e200", "nan", "inf", "-inf", "-1", "0", "1/0", "", "abc", "1e309", "-0.5", "0.3",
           "1", "2"]
_hostile = st.sampled_from(HOSTILE)


def _value(*valid):
    """A valid flag value half of the time, a hostile one otherwise."""
    return st.one_of(st.sampled_from(valid), _hostile)


def _spec(prefixes):
    return st.builds(lambda pre, x: pre + x, st.sampled_from(prefixes), _hostile)


_generator = st.one_of(
    st.sampled_from(["ground", "fock:1", "squeezed:0.5"]),
    _spec(["fock:", "squeezed:", "thermal:"]),
)
_region = st.one_of(
    st.sampled_from(["disk:1.5", "rect:0,2,0,2"]),
    _spec(["disk:", "triangle:"]),
    st.builds(lambda xs: "rect:" + ",".join(xs), st.lists(_hostile, min_size=1, max_size=5)),
)
_grid = st.tuples(
    st.integers(2, 8),
    st.floats(0.5, 6.0).map(lambda r: f"{r:.3g}"),
    st.floats(0.3, 3.0).map(lambda h: f"{h:.3g}"),
).map(lambda g: ["--dim", str(g[0]), "--radius", g[1], "--spacing", g[2]])
_trials = _value("1", "3")
_tomography_modes = st.sets(
    st.sampled_from([("--self-test",), ("--positions-only",), ("--probabilities", "absent.csv")])
).map(lambda modes: [flag for mode in sorted(modes) for flag in mode])
_command = st.one_of(
    st.builds(
        lambda grid, gen, region, eps, thr: ["spectrum", *grid, "--generator", gen,
                                             "--region", region, "--epsilon", eps,
                                             "--threshold", thr],
        _grid, _generator, _region, _value("0.1", "0.25"), _value("0.5", "0.2"),
    ),
    st.builds(lambda modes, grid, gen: ["tomography", *modes, *grid, "--generator", gen],
              _tomography_modes, _grid, _generator),
    st.builds(lambda grid, gen, trials: ["effects", *grid, "--generator", gen, "--trials", trials],
              _grid, _generator, _trials),
    st.builds(lambda grid, gen: ["transform", *grid, "--generator", gen], _grid, _generator),
    st.builds(lambda grid, gen, trials: ["admissibility", *grid, "--generator", gen,
                                         "--trials", trials],
              _grid, _generator, _trials),
    st.builds(lambda name, coords: ["cohomology", name, "--omega", ",".join(coords)],
              st.sampled_from(["h3", "so3", "galilei"]),
              st.lists(_value("1", "0", "1/2"), min_size=1, max_size=10)),
)


# runs the draws seldom reach, with the exit code each must give
_PINNED = {
    ("tomography", "--self-test"): 0,
    ("tomography", "--self-test", "3"): 0,
    ("tomography", "--self-test", "-1"): 2,
    ("tomography", "--positions-only"): 0,
    ("cohomology", "h3"): 0,
    ("cohomology", "so3", "--omega", "1,0,0"): 0,
    ("cohomology", "h3", "--omega", ""): 2,
    ("cohomology", "so3", "--omega", "x,0,0"): 2,
    ("cohomology", "so3", "--omega", "1,0"): 2,
    ("transform", "--radius", "1e200", "--spacing", "1e199"): 2,
    ("admissibility",): 0,
    # digit grouping, one case per numeric flag and per number inside --generator and --region
    **{tuple(argv): 2 for argv, _ in _DIGIT_GROUPING},
}


def _pinned(test):
    for argv in _PINNED:
        test = example(list(argv))(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_command)
@_pinned
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == _PINNED.get(tuple(argv), code)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert err.getvalue() == ""
    else:
        assert code in (1, 2)
        assert err.getvalue().count("\n") == 1, err.getvalue()
