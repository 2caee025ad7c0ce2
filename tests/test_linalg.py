import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from growthlab.linalg import (
    identity_matrix,
    kernel_basis,
    mat_apply,
    mat_mul,
    min_poly_of_matrix,
    rank,
    rref,
    smith_normal_form_int,
    smith_normal_form_poly,
    solve,
    x_minus_matrix,
)
from growthlab.poly import QQ, PrimeField, int_poly_to_field


def test_rank_kernel_image_examples():
    F = PrimeField(2)
    A = [[1, 1], [1, 1]]
    AF = [[F.from_int(x) for x in row] for row in A]
    assert rank(F, AF) == 1
    ker = kernel_basis(F, AF)
    assert len(ker) == 1 and ker[0] == [F.from_int(1), F.from_int(1)]
    assert rank(F, [list(col) for col in zip(*AF)]) == 1  # column space


def test_solve():
    F = PrimeField(7)
    A = [[F.from_int(x) for x in row] for row in [[1, 2], [3, 4]]]
    b = [F.from_int(5), F.from_int(6)]
    x = solve(F, A, b)
    assert mat_apply(F, A, x) == b
    singular = [[F.from_int(x) for x in row] for row in [[1, 2], [2, 4]]]
    assert solve(F, singular, [F.from_int(0), F.from_int(1)]) is None


def test_smith_int_examples():
    r = smith_normal_form_int([[2, 0], [0, 3]])
    assert r.diagonal == (1, 6)
    r2 = smith_normal_form_int([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert r2.diagonal == (2, 2, 156)
    r3 = smith_normal_form_int([[1, 2], [2, 4]])
    assert r3.diagonal == (1,)  # only nonzero invariant factors are kept
    assert r3.rank == 1


def test_smith_int_divisibility_chain_and_minors():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        res = smith_normal_form_int(A)
        diag = [d for d in res.diagonal if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        # product of first k diagonal entries = gcd of k x k minors (up to sign)
        for k in range(1, len(diag) + 1):
            g = _gcd_of_minors(A, k)
            prod = math.prod(diag[:k])
            assert prod == g, (A, k, diag)


def _gcd_of_minors(A, k):
    from itertools import combinations

    n, m = len(A), len(A[0])
    g = 0
    for rows in combinations(range(n), k):
        for cols in combinations(range(m), k):
            sub = [[Fraction(A[r][c]) for c in cols] for r in rows]
            g = math.gcd(g, abs(_det(sub)))
    return g


def _det(M):
    if len(M) == 1:
        return int(M[0][0])
    return sum(
        (-1) ** j * int(M[0][j]) * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
    )


def test_smith_int_unimodular_invariance():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 3)
        A = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        U = _random_unimodular(rng, n)
        V = _random_unimodular(rng, n)
        UA = [[sum(U[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert smith_normal_form_int(A).diagonal == smith_normal_form_int(UAV).diagonal


def _random_unimodular(rng, n):
    # product of elementary row operations applied to the identity
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def test_min_poly_examples():
    F = PrimeField(5)
    I2 = identity_matrix(F, 2)
    assert min_poly_of_matrix(F, I2) == int_poly_to_field(F, [-1, 1])
    # companion matrix of x^2 + 1 over F_3
    F3 = PrimeField(3)
    C = [[F3.from_int(0), F3.from_int(-1)], [F3.from_int(1), F3.from_int(0)]]
    assert min_poly_of_matrix(F3, C) == int_poly_to_field(F3, [1, 0, 1])


def test_min_poly_divides_char_and_annihilates():
    rng = random.Random(2)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        F = PrimeField(p)
        n = rng.randint(1, 4)
        A = [[F.from_int(rng.randrange(p)) for _ in range(n)] for _ in range(n)]
        mp = min_poly_of_matrix(F, A)
        # annihilates A
        acc = [[F.zero] * n for _ in range(n)]
        P = identity_matrix(F, n)
        for c in mp:
            for i in range(n):
                for j in range(n):
                    acc[i][j] = F.add(acc[i][j], F.mul(c, P[i][j]))
            P = mat_mul(F, P, A)
        assert all(x == F.zero for row in acc for x in row)
        assert len(mp) - 1 <= n


def test_min_poly_over_q_is_the_last_invariant_factor():
    # the incremental Krylov min poly against the Q[x] Smith form of xI - A
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # a repeated block, so the min poly is a proper factor
            A = [r + [0] * n for r in A] + [[0] * n + r for r in A]
        last = smith_normal_form_poly(QQ, x_minus_matrix(QQ, A), len(A)).diagonal[-1]
        assert min_poly_of_matrix(QQ, A) == list(last), A


def test_smith_poly_examples():
    F = PrimeField(2)
    x2x1 = int_poly_to_field(F, [1, 1, 1])
    M = [[x2x1, []], [[], int_poly_to_field(F, [1, 1])]]
    res = smith_normal_form_poly(F, M)
    # gcd(x^2+x+1, x+1) = 1 over F_2, so the chain collapses to one factor
    nonunit = [d for d in res.diagonal if len(d) > 1]
    assert [len(d) for d in nonunit] == [4]


def test_x_minus_matrix():
    A = [[0, 1], [1, 0]]
    M = x_minus_matrix(QQ, A)
    res = smith_normal_form_poly(QQ, M)
    nonunit = [d for d in res.diagonal if len(d) > 1]
    assert len(nonunit) == 1 and len(nonunit[0]) == 3  # x^2 - 1


def test_rref_pivots():
    F = PrimeField(5)
    A = [[F.from_int(x) for x in row] for row in [[0, 1, 2], [0, 2, 4]]]
    R, pivots = rref(F, A)
    assert pivots == [1]
    assert R[0] == [F.zero, F.from_int(1), F.from_int(2)]
