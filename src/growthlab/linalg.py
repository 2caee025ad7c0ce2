"""Exact linear algebra: Gaussian elimination over fields, Smith normal
form over Z and over F[x] (F = Q or F_p), minimal polynomials.

Matrices are lists of rows.  Vectors are column vectors: A maps x to A@x,
so `kernel_basis` solves A x = 0.
Empty (0-row or 0-column) matrices are legal; pass `ncols` explicitly when
there are no rows to infer it from.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .poly import (
    PrimeField,
    gcd_over_field,
    pdeg,
    pdivmod,
    pmod,
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
    if A and B and len(A[0]) != len(B):
        raise ValueError("dimension mismatch in mat_mul")
    nc = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [F.zero] * nc
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


def smith_normal_form_int(rows, ncols=None) -> SmithResult:
    """Integer SNF by row/column reduction with least-absolute-value pivoting."""
    m, n = _shape(rows, ncols)
    A = [[int(x) for x in r] for r in rows]
    diag = []
    top = 0
    while top < min(m, n):
        # locate least-absolute-value nonzero entry in the trailing block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A:
            row[top], row[bj] = row[bj], row[top]
        p = A[top][top]
        dirty = False
        for i in range(top + 1, m):
            q = A[i][top] // p
            if q:
                for j in range(top, n):
                    A[i][j] -= q * A[top][j]
            if A[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = A[top][j] // p
            if q:
                for i in range(top, m):
                    A[i][j] -= q * A[i][top]
            if A[top][j]:
                dirty = True
        if dirty:
            continue
        diag.append(abs(p))
        top += 1
    # enforce the divisibility chain by gcd/lcm pair replacement
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                g = math.gcd(diag[i], diag[i + 1])
                diag[i], diag[i + 1] = g, diag[i] * diag[i + 1] // g
                changed = True
    return SmithResult(diagonal=tuple(diag), rank=len(diag))


def smith_normal_form_poly(F, rows, ncols=None) -> SmithResult:
    """SNF over F[x], F = Q or F_p.  Entries are coefficient lists.

    The Q[x] form of a matrix over Z[x] need not reduce mod p to its F_p[x]
    form: for xI - A with A the companion matrices of x^2 - 3x + 1 and
    x^2 - 33x + 1 the Q[x] form has one quartic factor, yet at p = 2, 3, 5
    the F_p[x] form has two quadratic ones.  Counts at p therefore take the
    form over F_p at each p.
    """
    m, n = _shape(rows, ncols)
    A = [[pnormalize(list(e)) for e in r] for r in rows]
    if not isinstance(F, PrimeField):
        A = [[[Fraction(c) for c in e] for e in r] for r in A]

    diag = []
    top = 0
    while top < min(m, n):
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if A[i][j] and (best is None or pdeg(A[i][j]) < pdeg(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A:
            row[top], row[bj] = row[bj], row[top]
        piv = A[top][top]
        dirty = False
        for i in range(top + 1, m):
            if A[i][top]:
                q, r = pdivmod(F, A[i][top], piv)
                for j in range(top, n):
                    A[i][j] = psub(F, A[i][j], pmul(F, q, A[top][j]))
                if A[i][top]:
                    dirty = True
        for j in range(top + 1, n):
            if A[top][j]:
                q, r = pdivmod(F, A[top][j], piv)
                for i in range(top, m):
                    A[i][j] = psub(F, A[i][j], pmul(F, q, A[i][top]))
                if A[top][j]:
                    dirty = True
        if dirty:
            continue
        diag.append(pmonic(F, piv))
        top += 1

    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            if pmod(F, diag[i + 1], diag[i]):
                g = gcd_over_field(F, diag[i], diag[i + 1])
                lcm = pmonic(F, pdivmod(F, pmul(F, diag[i], diag[i + 1]), g)[0])
                diag[i], diag[i + 1] = g, lcm
                changed = True

    return SmithResult(diagonal=tuple(tuple(d) for d in diag), rank=len(diag))


def x_minus_matrix(F, A):
    """The characteristic matrix xI - A as a PolyMatrix."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            c = F.from_int(-A[i][j]) if isinstance(A[i][j], int) else F.reduce(-A[i][j])
            row.append(pnormalize([c, F.one] if i == j else [c]))
        out.append(row)
    return out
