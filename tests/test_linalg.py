import functools
import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from growthlab.linalg import (
    _bareiss,
    det_int_poly,
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
from growthlab.poly import QQ, PrimeField, gcd_over_field, int_poly_to_field, padd, pmod, pmul, pnormalize, psub


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
                    acc[i][j] = (acc[i][j] + c * P[i][j]) % p
            P = mat_mul(F, P, A)
        assert all(x == F.zero for row in acc for x in row)
        assert len(mp) - 1 <= n


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(3), PrimeField(2 ** 61 - 1), QQ], ids=repr)
def test_min_poly_is_the_last_invariant_factor(F):
    # the incremental Krylov min poly against the F[x] Smith form of xI - A
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # a repeated block, so the min poly is a proper factor
            A = [r + [0] * n for r in A] + [[0] * n + r for r in A]
        last = smith_normal_form_poly(F, x_minus_matrix(F, A), len(A)).diagonal[-1]
        assert min_poly_of_matrix(F, [[F.from_int(x) for x in r] for r in A]) == list(last), A


@pytest.mark.parametrize("F", [PrimeField(2), PrimeField(5), QQ], ids=repr)
def test_smith_poly_divisibility_chain_and_minors(F):
    rng = random.Random(repr(F))

    def entry(least_len):  # degree <= 2
        return int_poly_to_field(F, [rng.randint(-3, 3) for _ in range(rng.randint(least_len, 3))])

    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        # a diagonal A leaves its chain to the gcd/lcm repair alone
        diagonal = rng.random() < 0.5
        A = [[entry(2) if i == j else [] if diagonal else entry(0) for j in range(n)] for i in range(m)]
        diag = [list(d) for d in smith_normal_form_poly(F, A, n).diagonal]
        for a, b in zip(diag, diag[1:]):
            assert pmod(F, b, a) == [], (A, diag)
        # product of the first k factors = monic gcd of the k x k minors, and
        # the minors past the rank vanish
        for k in range(1, min(m, n) + 1):
            prod = functools.reduce(functools.partial(pmul, F), diag[:k], [F.one]) if k <= len(diag) else []
            assert prod == _gcd_of_poly_minors(F, A, k), (A, k, diag)


def _gcd_of_poly_minors(F, A, k):
    g = []
    for rows in combinations(range(len(A)), k):
        for cols in combinations(range(len(A[0])), k):
            d = _poly_det(F, [[A[r][c] for c in cols] for r in rows])
            if d:
                g = gcd_over_field(F, g, d)
    return g


def _poly_det(F, M):
    """Laplace expansion along the first row."""
    if not M:
        return [F.one]
    det = []
    for j, a in enumerate(M[0]):
        term = pmul(F, a, _poly_det(F, [row[:j] + row[j + 1:] for row in M[1:]]))
        det = psub(F, det, term) if j % 2 else padd(F, det, term)
    return det


def test_det_int_poly_matches_laplace():
    # half the entries are 0, so rows are often left alone while their
    # pivot-column entry is 0, and brought up to date later
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(1, 5)
        A = [
            [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] if rng.random() < 0.5 else [] for _ in range(n)]
            for _ in range(n)
        ]
        A = [[pnormalize(e) for e in row] for row in A]
        assert det_int_poly(A) == _poly_det(QQ, A), A


def test_packed_determinant_meets_its_coefficient_bound():
    # det_int_poly packs each entry at x = 2^b, b from Hadamard's bound on
    # D's coefficients.  A Hadamard sign pattern of monomials c_i x^(a_i + e_j)
    # meets that bound, so a width one bit short reads a wrong digit; the
    # other kinds give large and negative coefficients, degree-16 entries,
    # a zero row (D = 0) and a triangular matrix with a constant D
    rng = random.Random(26)
    hadamard = {1: [[1]], 2: [[1, 1], [1, -1]]}
    hadamard[4] = [r + r for r in hadamard[2]] + [r + [-x for x in r] for r in hadamard[2]]
    kinds = ["hadamard", "large", "degree 16", "zero row", "constant"]
    seen = dict.fromkeys(kinds + ["D = 0", "constant D", "negative lc"], 0)
    for i in range(500):
        kind = kinds[i % len(kinds)]
        n = rng.choice((1, 2, 4)) if kind == "hadamard" else rng.randint(1, 3 if kind == "degree 16" else 5)
        high = {"large": 10 ** 30, "degree 16": 5}.get(kind, 3)
        A = [
            [[rng.randint(-high, high) for _ in range(rng.randint(0, 17 if kind == "degree 16" else 3))] for _ in range(n)]
            for _ in range(n)
        ]
        if kind == "hadamard":
            scale, shift = [rng.choice((1, -1)) * rng.randint(1, 10 ** 6) for _ in range(n)], [rng.randint(0, 3) for _ in range(n)]
            A = [[[0] * (shift[r] + shift[c]) + [hadamard[n][r][c] * scale[r]] for c in range(n)] for r in range(n)]
        elif kind == "zero row":
            A[rng.randrange(n)] = [[] for _ in range(n)]
        elif kind == "constant":
            A = [[[rng.choice((-3, -1, 1, 2))] if r == c else (A[r][c] if c > r else []) for c in range(n)] for r in range(n)]
        A = [[pnormalize(e) for e in row] for row in A]
        D = det_int_poly(A)
        assert D == _poly_det(QQ, A), A
        seen[kind] += 1
        seen["D = 0"] += not D
        seen["constant D"] += len(D) == 1
        seen["negative lc"] += bool(D) and D[-1] < 0
    assert min(seen.values()) >= 20, seen


def _leibniz(M):
    """det M by the permutation expansion, 1 for the 0 x 0 matrix."""
    total = 0
    for perm in permutations(range(len(M))):
        inversions = sum(1 for i, j in combinations(range(len(M)), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(len(M)))
    return total


def test_bareiss_gives_the_rank_and_a_maximal_minor():
    # rectangular integer matrices with zero rows, zero columns, dependent
    # rows and entries past 2^64: r is the rank over Q, and D a nonzero
    # r x r minor (det A itself when A is square of full rank), found among
    # all r x r minors by brute force
    rng = random.Random(29)
    seen = dict.fromkeys(["zero row", "zero column", "dependent row", "past 2^64", "rank deficient", "full square"], 0)
    for t in range(600):
        m = rng.randint(0, 5)
        n = m if t % 3 == 0 and m else rng.randint(1, 6)
        high = rng.choice((3, 10 ** 6, 2 ** 70))
        A = [[rng.randint(-high, high) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(m)]
        if m and rng.random() < 0.3:
            A[rng.randrange(m)] = [0] * n
            seen["zero row"] += 1
        if rng.random() < 0.3:
            c = rng.randrange(n)
            for row in A:
                row[c] = 0
            seen["zero column"] += 1
        if m >= 2 and rng.random() < 0.4:
            a, b, i = rng.randint(-3, 3), rng.randint(-3, 3), rng.randrange(m)
            A[i] = [a * x + b * y for x, y in zip(A[i - 1], A[i - 2])]
            seen["dependent row"] += 1
        seen["past 2^64"] += any(abs(x) >= 2 ** 64 for row in A for x in row)
        r, D = _bareiss([list(row) for row in A], n)
        assert r == rank(QQ, A, n), A
        seen["rank deficient"] += r < min(m, n)
        assert D != 0, A
        minors = {
            abs(_leibniz([[A[i][j] for j in cols] for i in rows]))
            for rows in combinations(range(m), r) for cols in combinations(range(n), r)
        }
        assert abs(D) in minors, (A, D)
        if m == n == r:
            assert D == _leibniz(A), A
            seen["full square"] += 1
    assert min(seen.values()) >= 30, seen


def test_det_int_poly_of_a_diagonal_scales_no_row():
    # every row waits for its one pivot, so no step touches another row:
    # 120 generators take milliseconds, not the seconds of a full update
    n = 120
    A = [[[-1, 1] if i == j else [] for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    assert det_int_poly(A) == [math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)]
    assert time.perf_counter() - start < 1.0


def test_smith_of_a_diagonal_stops_each_scan_at_a_unit():
    # each pass of -I stops its pivot scan at the first row, which holds an
    # entry of size 1, and the closing sweep skips equal entries: 400
    # generators took 0.65 s with full scans and 0.03 s so, on a shared
    # 2-vCPU VM.  diag(x - 1) keeps its full scans, as x - 1 has size 2
    n = 400
    start = time.perf_counter()
    assert smith_normal_form_int([[-(i == j) for j in range(n)] for i in range(n)]).diagonal == (1,) * n
    assert time.perf_counter() - start < 0.3
    x_minus_1 = [[[-1, 1] if i == j else [] for j in range(150)] for i in range(150)]
    for F in (QQ, PrimeField(2)):
        assert smith_normal_form_poly(F, x_minus_1).diagonal == ((F.reduce(F.from_int(-1)), F.one),) * 150


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


# -- the kernels against references that reduce after every operation ------------

KERNEL_FIELDS = [PrimeField(p) for p in (2, 3, 7, 2 ** 31 - 1, 2 ** 61 - 1)] + [QQ]


def _r(F, x):
    """x reduced after one operation: x mod p over F_p, x itself over Q."""
    return x % F.p if isinstance(F, PrimeField) else x


def _random_matrix(F, rng, m, n):
    """Seeded m x n matrix, sparse at times, with some zero rows."""
    def entry():
        if isinstance(F, PrimeField):
            return rng.choice((0, 1, rng.randrange(F.p)))
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    zero_rows = set(rng.sample(range(m), rng.randint(0, m // 2))) if m else set()
    return [[F.zero] * n if i in zero_rows else [entry() for _ in range(n)] for i in range(m)]


def _ref_mat_mul(F, A, B):
    out = [[F.zero] * len(B[0]) for _ in A]
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            for j, b in enumerate(B[k]):
                out[i][j] = _r(F, out[i][j] + _r(F, a * b))
    return out


def _ref_rref(F, rows, n):
    R, pivots, r = [list(x) for x in rows], [], 0
    for c in range(n):
        piv = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = F.inv(R[r][c])
        R[r] = [_r(F, inv * x) for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [_r(F, x - _r(F, f * y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def _ref_min_poly(F, A):
    """Least d with I, A, ..., A^d dependent; the monic relation among them."""
    n = len(A)
    powers = [[[F.one if i == j else F.zero for j in range(n)] for i in range(n)]]
    while True:
        powers.append(_ref_mat_mul(F, powers[-1], A))
        cols = [[P[i][j] for P in powers] for i in range(n) for j in range(n)]
        R, pivots = _ref_rref(F, cols, len(powers))
        if len(pivots) < len(powers):
            d = len(powers) - 1  # only the last power is a free column
            return [_r(F, -R[r][d]) for r in range(d)] + [F.one]


def _assert_reduced(F, entries):
    for x in entries:
        if isinstance(F, PrimeField):
            assert type(x) is int and 0 <= x < F.p, (F, x)
        else:
            assert isinstance(x, Fraction), x


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_matrix_kernels_match_per_operation_reduction(F):
    rng = random.Random(repr(F))
    for _ in range(25):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A, B = _random_matrix(F, rng, m, k), _random_matrix(F, rng, k, n)
        AB = mat_mul(F, A, B)
        assert AB == _ref_mat_mul(F, A, B)
        _assert_reduced(F, [x for row in AB for x in row])
        R, pivots = rref(F, A, k)
        assert (R, pivots) == _ref_rref(F, A, k)
        _assert_reduced(F, [x for row in R for x in row])
        ker = kernel_basis(F, A, k)
        assert len(ker) == k - len(pivots)
        _assert_reduced(F, [x for v in ker for x in v])
        assert all(mat_apply(F, A, v) == [F.zero] * m for v in ker)
        S = _random_matrix(F, rng, n, n)
        mp = min_poly_of_matrix(F, S)
        assert mp == _ref_min_poly(F, S)
        _assert_reduced(F, mp)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_matrix_kernel_edge_cases(F):
    zero = [[F.zero] * 3 for _ in range(2)]
    assert rref(F, zero) == (zero, [])
    assert kernel_basis(F, zero) == identity_matrix(F, 3)
    assert kernel_basis(F, [], 2) == identity_matrix(F, 2)
    assert mat_mul(F, zero, [[F.one]] * 3) == [[F.zero]] * 2
    assert min_poly_of_matrix(F, [[F.zero] * 2] * 2) == [F.zero, F.one]
