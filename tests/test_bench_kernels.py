"""Smoke test of the per-kernel bench: its benches still run against the package."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frame_solve_and_transform_grid_rows(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    rows = bench.bench_frame_solve() + bench.bench_transform_grid(tmp_path)
    assert [row["kernel"] for row in rows] == [
        "transform.reconstruct", "transform.v_action", "formats.write_values_csv",
        "formats.write_samples_csv", "formats.read_values_csv",
    ]
    for row in rows:
        assert row["repeats"] == 1
        assert row["median_s"] > 0 and len(row["quartiles_s"]) == 2
        assert "relative_error" in row or len(row["sha256"]) == 16
        line = bench._summary(row)
        assert row["kernel"] in line and "quartiles" not in line
    assert rows[0]["relative_error"] < 1e-12


def test_cohomology_rows_keep_the_exact_digests(bench, monkeypatch):
    # exact rational arithmetic: these BENCH_20 digests hold on any machine
    monkeypatch.setattr(bench, "REPEATS", 1)
    algebras = bench._algebras()
    monkeypatch.setattr(bench, "_algebras", lambda: {"so(8)": algebras["so(8)"]})
    jacobi, h2, kernel = bench.bench_cohomology()
    assert jacobi["jacobi_ok"] is True
    assert h2["exact"] is True and h2["bases_digest"] == "eba5784d21c42bff"
    assert kernel["kernel_digest"] == "666a774195851ec2"


def test_quantize_rows_time_it_in_situ(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    rows = bench.bench_quantize()
    assert [(row["kernel"], row["symbol"], row["rows"]) for row in rows] == [
        ("localization.quantize", "disk:3", 2944), ("localization.quantize", "disk:5", 8184),
    ]
    for row in rows:
        assert row["K"] == 15996 and row["median_s"] > 0 and row["minor_faults"] >= 0
    assert rows[0]["max_abs_diff_daubechies"] < 1e-4


def test_family_rows_time_a_fresh_grid_and_a_second_generator(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    generators = bench._generators
    monkeypatch.setattr(bench, "_generators", lambda n_dim: {"ground": generators(n_dim)["ground"]})
    rows = bench.bench_family()
    assert [(row["grid"], row.get("rows"), row["build"]) for row in rows] == [
        ("roundtrips", None, "fresh grid"), ("roundtrips", None, "second generator, same grid and N"),
        ("spectra", None, "fresh grid"), ("spectra", None, "second generator, same grid and N"),
        ("spectra", "disk:3", "fresh grid"), ("tomography", None, "new N, same grid"),
    ]
    assert (rows[-1]["K"], rows[-1]["N"]) == (716, 16)
    for row in rows:
        assert row["kernel"] == "wh_model.coherent_family" and row["generator"] == "ground"
        assert row["median_s"] > 0 and row["minor_faults"] >= 0
        assert row["max_abs_err_mpmath"] < 5e-15


def test_overlap_rows_take_a_new_generator_on_every_call(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    rows = bench.bench_overlaps()
    assert [(row["grid"], row["K"], row["generator"], row["state"]) for row in rows] == [
        ("roundtrips", 4344, "9-column", "9-column"), ("transform", 6828, "ground", "13-level"),
    ]
    for row in rows:
        assert row["kernel"] == "wh_model.displaced_overlaps" and row["N"] == 24
        assert row["median_s"] > 0 and row["minor_faults"] >= 0
        assert row["max_abs_err_mpmath"] < 5e-15


def test_displacement_rows_time_one_block_of_the_commutator_check(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    rows = bench.bench_displacement()
    assert [(row["kernel"], row["N"], row["amplitudes"]) for row in rows] == [
        ("wh_model.displacement", 24, [2, 32]), ("wh_model.displacement", 64, [2, 32]),
    ]
    assert rows[1]["sample_radius"] == 1.0
    for row in rows:
        assert row["median_s"] > 0 and row["minor_faults"] >= 0
        assert 0 < row["sample_radius"] <= 1 and row["max_abs_err_mpmath"] < 5e-15
