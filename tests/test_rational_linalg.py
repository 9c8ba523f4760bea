"""Exact elimination cross-checked against sympy on random rational matrices."""

from fractions import Fraction

import numpy as np
import pytest
import sympy

from qps import rational_linalg as rla

from conftest import in_span, mat_mul, mat_vec, primitive


def _random_rational_matrix(rng, rows, cols):
    return [
        [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(cols)]
        for _ in range(rows)
    ]


def _to_sympy(mat, cols):
    return sympy.Matrix(len(mat), cols, [sympy.Rational(x.numerator, x.denominator) for row in mat for x in row])


@pytest.mark.parametrize("seed", range(12))
def test_rank_and_nullity_match_sympy(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    mat = _random_rational_matrix(rng, rows, cols)
    sm = _to_sympy(mat, cols)
    assert len(rla.row_space_basis(mat, cols)) == sm.rank()
    null = rla.nullspace(mat, cols)
    assert len(null) == cols - sm.rank()
    for vec in null:
        image = mat_vec(mat, vec)
        assert all(x == 0 for x in image)


def test_nullspace_of_empty_matrix_is_full():
    basis = rla.nullspace([], 3)
    assert len(basis) == 3


def test_row_space_basis_spans_rows():
    rng = np.random.default_rng(3)
    mat = _random_rational_matrix(rng, 5, 4)
    basis = rla.row_space_basis(mat, 4)
    assert len(basis) == _to_sympy(mat, 4).rank()
    for row in mat:
        assert in_span(basis, row)


def test_in_span_rejects_outside_vector():
    basis = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]
    assert in_span(basis, [Fraction(2), Fraction(-3), Fraction(0)])
    assert not in_span(basis, [Fraction(0), Fraction(0), Fraction(1)])
    assert in_span(basis, [Fraction(0)] * 3)


def test_primitive_normalization_deterministic():
    vec = [Fraction(-2, 3), Fraction(4, 3), Fraction(0)]
    expected = [Fraction(1), Fraction(-2), Fraction(0)]
    assert primitive(vec) == expected
    assert rla.row_space_basis([vec], 3) == [expected]
    assert rla.row_space_basis([{0: -2, 1: 4}], 3) == [expected]
    assert rla.nullspace([[Fraction(0), Fraction(0), Fraction(1, 2)], {0: 6, 1: 3}], 3) == [expected]


def test_mat_mul_exact():
    a = [[Fraction(1, 2), Fraction(1, 3)]]
    b = [[Fraction(2)], [Fraction(3)]]
    assert mat_mul(a, b) == [[Fraction(2)]]
