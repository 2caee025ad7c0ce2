"""Exact linear algebra: Gaussian elimination over fields, minimal
polynomials, Smith normal forms over Z, F_p[x] and Q[x], all three from one
elimination, `_smith`, given each ring's operations, and the determinant
over Z[x] as one integer determinant, by the fraction-free `_bareiss`.

Matrices are lists of rows.  Vectors are column vectors: A maps x to A@x,
so `kernel_basis` solves A x = 0.
Empty (0-row or 0-column) matrices are legal; pass `ncols` explicitly when
there are no rows to infer it from.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial

from ._record import Record
from .poly import (
    PrimeField,
    gcd_over_field,
    kronecker_pack,
    kronecker_unpack,
    pdeg,
    pdivmod,
    pmonic,
    pmul,
    pnormalize,
    psub,
)


def _shape(rows, ncols):
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged matrix")
        if ncols is not None and ncols != n:
            raise ValueError("ncols inconsistent with row length")
        return len(rows), n
    if ncols is None:
        raise ValueError("ncols required for a matrix with no rows")
    return 0, ncols


def identity_matrix(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def mat_mul(F, A, B):
    """A B over F.  Each sum starts at 0 times an entry of its row of A, so
    over QQ, whose reduce is the identity, int matrices give int matrices."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("dimension mismatch in mat_mul")
    nc = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0 * row[0]] * nc if nc else []
        for a, brow in zip(row, B):
            if a:
                for j, y in enumerate(brow):
                    acc[j] += a * y
        out.append([F.reduce(x) for x in acc])
    return out


def mat_apply(F, A, v):
    if A and len(A[0]) != len(v):
        raise ValueError("dimension mismatch in mat_apply")
    return [F.reduce(sum((a * x for a, x in zip(row, v) if a), F.zero)) for row in A]


def poly_of_matrix(F, f, A):
    """f(A) for a square matrix A."""
    n = len(A)
    out = [[F.zero] * n for _ in range(n)]
    power = identity_matrix(F, n)
    for i, c in enumerate(f):
        if c:
            for orow, prow in zip(out, power):
                for s, y in enumerate(prow):
                    orow[s] += c * y
        if i < len(f) - 1:
            power = mat_mul(F, power, A)
    return [[F.reduce(x) for x in row] for row in out]


def mat_pow(F, A, e):
    """A**e for a square matrix A and e >= 0, by binary exponentiation."""
    out = identity_matrix(F, len(A))
    while e:
        if e & 1:
            out = mat_mul(F, out, A)
        e >>= 1
        if e:
            A = mat_mul(F, A, A)
    return out


# -- Gaussian elimination -----------------------------------------------------


def rref(F, rows, ncols=None):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m, n = _shape(rows, ncols)
    R = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if R[i][c] != F.zero), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.reduce(inv * x) for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != F.zero:
                f = R[i][c]
                R[i] = [F.reduce(x - f * y) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def rank(F, rows, ncols=None):
    return len(rref(F, rows, ncols)[1])


def kernel_basis(F, rows, ncols=None):
    """Basis of {x : A x = 0} as a list of length-ncols vectors."""
    m, n = _shape(rows, ncols)
    R, pivots = rref(F, rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * n
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.reduce(-R[r][fc])
        basis.append(v)
    return basis


def row_space_basis(F, rows, ncols=None):
    R, pivots = rref(F, rows, ncols)
    return [R[i] for i in range(len(pivots))]


def solve(F, rows, b, ncols=None):
    """One solution of A x = b, or None if inconsistent."""
    m, n = _shape(rows, ncols)
    if len(b) != m:
        raise ValueError("dimension mismatch in solve")
    aug = [list(r) + [b[i]] for i, r in enumerate(rows)]
    R, pivots = rref(F, aug, n + 1)
    if n in pivots:
        return None
    x = [F.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = R[r][n]
    return x


def min_poly_of_vector(F, A, v):
    """Monic minimal g with g(A) v = 0, by Krylov iteration: each A^m v is
    reduced against an echelon basis of the earlier ones, whose rows carry
    their coordinates in v, Av, ..., so no system is solved twice."""
    basis = []  # (pivot, row with 1 at the pivot, its Krylov coordinates)
    cur = list(v)
    while True:
        row, coords = cur, [F.zero] * len(basis) + [F.one]
        for piv, b, bc in basis:
            f = row[piv]
            if f != F.zero:
                row = [F.reduce(x - f * y) for x, y in zip(row, b)]
                coords = [F.reduce(x - f * y) for x, y in zip(coords, bc)] + coords[len(bc):]
        piv = next((i for i, x in enumerate(row) if x != F.zero), None)
        if piv is None:
            return pnormalize(coords)
        inv = F.inv(row[piv])
        basis.append((piv, [F.reduce(inv * x) for x in row], [F.reduce(inv * c) for c in coords]))
        cur = mat_apply(F, A, cur)


def min_poly_of_matrix(F, A):
    """Monic minimal polynomial of a square matrix (lcm of vector min polys)."""
    n = len(A)
    m = [F.one]
    for i in range(n):
        e = [F.zero] * n
        e[i] = F.one
        g = min_poly_of_vector(F, A, e)
        m = pmonic(F, pdivmod(F, pmul(F, m, g), gcd_over_field(F, m, g))[0])
        if pdeg(m) == n:
            break
    return m


# -- Smith normal form --------------------------------------------------------


class SmithResult(Record):
    """Nonzero invariant factors d_1 | d_2 | ... (units included)."""

    diagonal: tuple
    rank: int


def _smith(A, ncols, size, divmod_, sub, mul, normal, gcd):
    """Nonzero invariant factors of A (rows, changed in place) over a
    Euclidean domain whose only falsy element is 0, given by its
    operations: size(a) of a != 0, divmod_(a, b) = (q, r) with a = q b + r,
    r = 0 or size(r) < size(b), sub, mul, normal(a) the associate of a to
    report, gcd(a, b) normal.

    Each pass swaps the first entry of least size in the trailing block,
    read by rows up to one of size 1 (least in Z and in F[x]), to the pivot
    p and clears p's column by row quotient steps and p's row by column
    ones; a remainder left is smaller than p, so pivots shrink until a pass
    leaves none.  These steps are unimodular, so for every k the diagonal
    keeps A's gcd of k x k minors.  So does replacing d_i, d_j (i < j),
    d_i not dividing d_j (so unequal), by (gcd, lcm): a k-subset holding
    one of them and a product X of others gives d_i X and d_j X, whose gcd
    is that of gcd X and lcm X.  After the sweep each d_i divides every
    later d_j, and a chain with those gcds of minors is the Smith form.
    """
    m, n = _shape(A, ncols)
    diag = []
    top = 0
    while top < min(m, n):
        best = None
        for i in range(top, m):
            for j in range(top, n):
                a = A[i][j]
                if a and (best is None or size(a) < best[0]):
                    best = size(a), i, j
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A[top:]:
            row[top], row[bj] = row[bj], row[top]
        pivot_row, p = A[top], A[top][top]
        for row in A[top + 1:]:
            if row[top]:
                q, row[top] = divmod_(row[top], p)
                for j in range(top + 1, n):
                    if pivot_row[j]:  # a - q 0 = a
                        row[j] = sub(row[j], mul(q, pivot_row[j]))
        left = [row for row in A[top + 1:] if row[top]]
        for j in range(top + 1, n):
            if pivot_row[j]:
                q, pivot_row[j] = divmod_(pivot_row[j], p)
                for row in left:
                    row[j] = sub(row[j], mul(q, row[top]))
        if left or any(pivot_row[top + 1:]):
            continue
        diag.append(normal(p))
        top += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a != b and divmod_(b, a)[1]:
                g = gcd(a, b)
                diag[i], diag[j] = g, normal(mul(divmod_(a, g)[0], b))
    return diag


def smith_normal_form_int(rows, ncols=None) -> SmithResult:
    """Smith form over Z, invariant factors positive."""
    A = [[int(x) for x in r] for r in rows]
    diag = _smith(A, ncols, abs, divmod, operator.sub, operator.mul, abs, math.gcd)
    return SmithResult(diagonal=tuple(diag), rank=len(diag))


def smith_normal_form_poly(F, rows, ncols=None) -> SmithResult:
    """Smith form over F[x], F = Q or F_p, invariant factors monic.  Entries
    are coefficient lists.

    The Q[x] form of a matrix over Z[x] need not reduce mod p to its F_p[x]
    form: for xI - A with A the companion matrices of x^2 - 3x + 1 and
    x^2 - 33x + 1 the Q[x] form has one quartic factor, yet at p = 2, 3, 5
    the F_p[x] form has two quadratic ones.  Counts at p therefore take the
    form over F_p at each p.
    """
    A = [[pnormalize(list(e)) for e in r] for r in rows]
    if not isinstance(F, PrimeField):
        A = [[[Fraction(c) for c in e] for e in r] for r in A]
    diag = _smith(
        A, ncols, len, partial(pdivmod, F), partial(psub, F), partial(pmul, F),
        partial(pmonic, F), partial(gcd_over_field, F),
    )
    return SmithResult(diagonal=tuple(tuple(d) for d in diag), rank=len(diag))


# -- determinant --------------------------------------------------------------


def _bareiss(A, size, sub, mul, exquo, neg):
    """Determinant of the square matrix A (rows, changed in place) over an
    integral domain whose only falsy element is 0, given by its operations:
    size(a) of a != 0 to choose pivots by, sub, mul, neg, and exquo(a, b) =
    a / b for b dividing a.

    Fraction-free elimination (Bareiss 1968): step k takes the pivot
    p_k = A[k][k], after a row swap if need be, and sets
    A[i][j] = (p_k A[i][j] - A[i][k] A[k][j]) / p_(k-1) for i, j > k, with
    p_(-1) = 1.  By Sylvester's identity the new entry is the minor on rows
    0..k, i and columns 0..k, j, so every division is exact, and the last
    pivot is det A up to the sign of the swaps.  A row whose entry in the
    pivot column is 0 would only be scaled by p_k / p_(k-1), so it is left
    alone, and `last` keeps the pivot of its last update (None for 1).
    Over the steps since that update, p_s, the scalings telescope to
    p_k / p_s: so the row is next eliminated with p_s as its divisor, and
    brought up to date, when it becomes the pivot row, by one product with
    p_(k-1) and one division by p_s.
    """
    n, last, prev, odd = len(A), [None] * len(A), None, False
    for k in range(n):
        below = [(size(A[i][k]), i) for i in range(k, n) if A[i][k]]
        if not below:
            return A[k][k]
        i = min(below)[1]
        if i != k:
            A[k], A[i], last[k], last[i], odd = A[i], A[k], last[i], last[k], not odd
        row = A[k]
        if last[k] != prev:
            row[k:] = [exquo(mul(a, prev), last[k]) if last[k] else mul(a, prev) for a in row[k:]]
        p = row[k]
        for i in range(k + 1, n):
            other, a = A[i], A[i][k]
            if a:
                for j in range(k + 1, n):
                    if other[j] or row[j]:
                        x = sub(mul(p, other[j]), mul(a, row[j]))
                        other[j] = exquo(x, last[i]) if last[i] else x
                last[i] = p
        prev = p
    return neg(prev) if odd else prev


def det_int_poly(rows):
    """Determinant D over Z[x] of a nonempty square matrix R of integer
    coefficient lists by Kronecker substitution: the balanced base-2^b
    digits of det R(2^b), one determinant over Z by `_bareiss`.  They are
    D's coefficients once each is below 2^(b-1) in absolute value.
    Coefficient k is the mean of D(z) z^(-k) on |z| = 1, at most max |D(z)|
    there: by Hadamard's inequality and |R_ij(z)| <= ||R_ij||_1, at most
    S = sqrt(prod_i sum_j ||R_ij||_1^2) < 2^(b-2), b = bitlen(isqrt(S^2) + 1) + 2."""
    b = (math.isqrt(math.prod(sum(sum(map(abs, e)) ** 2 for e in row) for row in rows)) + 1).bit_length() + 2
    A = [[kronecker_pack(e, b) for e in row] for row in rows]
    return kronecker_unpack(_bareiss(A, abs, operator.sub, operator.mul, operator.floordiv, operator.neg), b)


def x_minus_matrix(F, A):
    """The characteristic matrix xI - A over F, entries coefficient lists."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            c = F.from_int(-A[i][j]) if isinstance(A[i][j], int) else F.reduce(-A[i][j])
            row.append(pnormalize([c, F.one] if i == j else [c]))
        out.append(row)
    return out
