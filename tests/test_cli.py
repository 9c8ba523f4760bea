"""Command-line interface and file formats."""

import contextlib
import io
import json
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import formats
from qps import localization as loc
from qps import tomography as tom
from qps import transform as tr
from qps import wh_model as wh
from qps.cli import main

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
    from qps import lie_cohomology as lc

    path = tmp_path / "h3.json"
    path.write_text(json.dumps(lc.to_json_dict(lc.catalog("h3"))))
    code, report, _ = run(tmp_path, "cohomology", str(path))
    assert code == 0
    assert report["cohomology"]["dim_h2"] == 2


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
        (["admissibility", "--generator", "squeezed:nan"], "needs |r| <= 1.5"),
    ],
    ids=["disk-negative", "disk-nan", "rect-nan", "radius-inf", "squeezed-nan"],
)
def test_non_finite_or_negative_argument_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "report.json"
    assert main(argv + ["--dim", "8", "--spacing", "0.25", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# tomography command
# ---------------------------------------------------------------------------


def test_tomography_self_test(tmp_path):
    code, report, _ = run(tmp_path, "tomography", "--self-test", "--seed", "7")
    assert code == 0
    assert report["frobenius_norm"] <= 1e-6
    assert report["rank"] == 16


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


def test_tomography_missing_csv_exit_1(tmp_path):
    assert main(["tomography", "--probabilities", str(tmp_path / "no.csv")]) == 1


def test_tomography_without_mode_exit_2(tmp_path):
    assert main(["tomography"]) == 2


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
    ],
    ids=["inf-coordinate", "nan-coordinate", "short-row", "text-value"],
)
def test_tomography_malformed_csv_row_exit_2(tmp_path, capsys, row, message):
    # an inf coordinate and a short row used to escape as tracebacks
    csv_in = tmp_path / "probs.csv"
    csv_in.write_text(f"q,p,value,weight\n{row}\n")
    assert main(["tomography", "--probabilities", str(csv_in), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{csv_in}: {message}" in err


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
    code, report, _ = run(tmp_path, "admissibility", "--trials", "10")
    assert code == 0
    assert report["integral"] == pytest.approx(1.0, abs=1e-3)
    assert report["d_constant"] == pytest.approx(1.0, abs=1e-3)
    assert report["beta_ok"] is True


def test_bad_generator_exit_2(tmp_path):
    assert main(["admissibility", "--generator", "thermal"]) == 2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_admissibility_without_trials_exit_2(tmp_path, capsys, trials):
    out = tmp_path / "report.json"
    assert main(["admissibility", "--trials", trials, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "trials must be >= 1" in err
    assert not out.exists()


def test_csv_format_selects_tabular_artifact(tmp_path):
    out = tmp_path / "samples.csv"
    code = main(
        ["transform", "--dim", "12", "--radius", "5", "--spacing", "0.25",
         "--seed", "1", "--out", str(out), "--format", "csv"]
    )
    assert code == 0
    assert out.read_text().startswith("q,p,re,im,weight")


def test_csv_format_without_artifact_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["admissibility", "--out", str(out), "--format", "csv"]) == 2


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
    samples = tr.GammaFunctionSamples(grid=grid4, values=complex_values)
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

HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1/0", "", "abc", "1e309", "-0.5", "0.3", "1", "2"]
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
_argv = st.one_of(
    st.builds(
        lambda grid, gen, region, eps, thr: ["spectrum", *grid, "--generator", gen,
                                             "--region", region, "--epsilon", eps,
                                             "--threshold", thr],
        _grid, _generator, _region, _value("0.1", "0.25"), _value("0.5", "0.2"),
    ),
    st.builds(lambda grid, gen: ["tomography", "--self-test", *grid, "--generator", gen],
              _grid, _generator),
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv)
def test_cli_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag value
            code = exc.code
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert err.getvalue() == ""
    else:
        assert code in (1, 2)
        assert err.getvalue().count("\n") == 1, err.getvalue()
