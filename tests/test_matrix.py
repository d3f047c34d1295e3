"""Exact matrix kernel: Smith and Hermite forms, kernels, solving."""

import random
from fractions import Fraction

import pytest

from symplat import matrix
from symplat.errors import CertificationError, DomainError
from symplat.matrix import (
    Mat,
    hermite_column_form,
    integer_kernel,
    smith_normal_form,
    xgcd,
)

from conftest import minor_gcd_invariants


def random_int_matrix(rng, nrows, ncols, bound=6):
    return Mat(
        [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def test_xgcd():
    for a, b in [(0, 0), (4, 6), (-4, 6), (12, -18), (7, 0), (0, -5), (35, 21)]:
        g, x, y = xgcd(a, b)
        assert g == abs(__import__("math").gcd(a, b))
        assert x * a + y * b == g


def test_snf_identity():
    U, D, V = smith_normal_form(Mat.identity(2))
    assert D == Mat.identity(2)
    assert U == Mat.identity(2) and V == Mat.identity(2)


def test_snf_diag_2_3():
    U, D, V = smith_normal_form(Mat([[2, 0], [0, 3]]))
    assert [D.rows[i][i] for i in range(2)] == [1, 6]


def test_snf_zero_1x1():
    U, D, V = smith_normal_form(Mat([[0]]))
    assert D.rows == ((0,),)
    assert U.rows == ((1,),) and V.rows == ((1,),)


def test_snf_requires_integers():
    with pytest.raises(DomainError):
        smith_normal_form(Mat([[Fraction(1, 2)]]))


@pytest.mark.parametrize("seed", range(40))
def test_snf_properties_random(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    M = random_int_matrix(rng, m, n)
    U, D, V = smith_normal_form(M)
    assert U * M * V == D
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    diag = [D.rows[i][i] for i in range(min(m, n))]
    assert all(D.rows[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # independent oracle: determinantal divisors
    assert tuple(diag) == minor_gcd_invariants(M)


def test_snf_certifies_its_transforms(monkeypatch):
    # swap columns of the work matrix but not of V: U*M*V no longer equals D
    def swap_cols_in_a_only(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]

    monkeypatch.setattr(matrix._SnfState, "swap_cols", swap_cols_in_a_only)
    with pytest.raises(CertificationError) as info:
        smith_normal_form(Mat([[3, 2], [0, 1]]))
    assert info.value.failures == ("U*M*V = D",)


def test_snf_deterministic():
    M = Mat([[6, 4, 2], [2, 8, 4], [0, 2, 10]])
    out1 = smith_normal_form(M)
    out2 = smith_normal_form(M)
    assert out1 == out2


@pytest.mark.parametrize("seed", range(30))
def test_hermite_canonical(seed):
    rng = random.Random(100 + seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    M = random_int_matrix(rng, m, n)
    H = hermite_column_form(M)
    # same column span over Z: each is an integer combination of the other
    for j in range(H.ncols):
        assert _in_span_int(M, H.col(j))
    for j in range(M.ncols):
        assert _in_span_int(H, M.col(j))
    # canonical: re-normalizing is a fixed point, as is any unimodular shuffle
    assert hermite_column_form(H) == H
    perm = list(range(M.ncols))
    rng.shuffle(perm)
    assert hermite_column_form(M.take_columns(perm)) == H


def _in_span_int(B, vec):
    M = hermite_column_form(B)
    try:
        sol = M.solve(Mat.column(vec))
    except DomainError:
        return False
    return sol.is_integral()


@pytest.mark.parametrize("seed", range(30))
def test_integer_kernel(seed):
    rng = random.Random(200 + seed)
    m, n = rng.randint(1, 4), rng.randint(1, 5)
    M = random_int_matrix(rng, m, n)
    K = integer_kernel(M)
    assert (M * K).is_zero()
    assert K.ncols == n - M.rank()
    # saturation: any rational kernel vector with integer entries lies in K
    if K.ncols:
        combo = K * Mat.column([rng.randint(-3, 3) for _ in range(K.ncols)])
        assert _in_span_int(K, combo.column_vector())


def test_inverse_and_solve():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            A = random_int_matrix(rng, n, n)
            if A.det() != 0:
                break
        assert A * A.inverse() == Mat.identity(n)
        b = random_int_matrix(rng, n, 1)
        x = A.solve(b)
        assert A * x == b


def test_solve_inconsistent():
    A = Mat([[1, 0], [1, 0]])
    with pytest.raises(DomainError):
        A.solve(Mat.column((1, 2)))


def test_kernel_basis_rational():
    A = Mat([[1, 2, 3]])
    K = A.kernel_basis()
    assert K.ncols == 2
    assert (A * K).is_zero()


def test_mat_immutable():
    M = Mat.identity(2)
    with pytest.raises(AttributeError):
        M.rows = ()


def test_alternating_predicate():
    assert Mat([[0, 1], [-1, 0]]).is_alternating()
    assert not Mat([[0, 1], [1, 0]]).is_alternating()
    assert not Mat([[1, 0], [0, 1]]).is_alternating()
