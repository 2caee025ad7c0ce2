"""Finitely generated modules over Z[x_1..x_l] and their maximal-submodule
growth.

A module is given either by commuting integer matrices acting on
Z^k (+) Z/t_1 (+) ... (MatrixAction) or, in one variable, by a presentation
matrix over Z[x] (Presented).  Every maximal submodule of p-power index
contains pN, so counting happens in the fiber N/pN: find the residue degree
e and multiplicity s at each maximal ideal, and sum (q^s - 1)/(q - 1) over
the ideals with residue field of the right size q = p^k.  The per-prime data
is one PrimeProfile, which every count at the powers of p is read from.

In one variable the module is Presented: a MatrixAction with one action A
on Z^k (+) (+)_j Z/t_j is coker [xI - A | t_j e_(k+j)] over Z[x], and is
counted, classified and read in characteristic 0 as that presentation.  Its
fiber is an F_p[x]-module, and the profile is read off its F_p[x] invariant
factors.  With two or more actions, a fiber on which some action A is
cyclic (deg of its min poly mu = dim) is F_p[x]/(mu) and is read the same
way; any other fiber is split by joint_spectrum into primary components of
the commuting algebra.  module_invariants reads the generic fiber in
characteristic 0, where a cyclic action on the top is likewise the operator
it is read from.
"""

from __future__ import annotations

import functools
import math

from ._record import Record
from .arith import is_prime, prime_power_decompose, primes_up_to
from .linalg import (
    identity_matrix,
    kernel_basis,
    mat_apply,
    mat_mul,
    mat_pow,
    min_poly_of_matrix,
    poly_of_matrix,
    rank,
    row_space_basis,
    smith_normal_form_int,
    smith_normal_form_poly,
    solve,
    x_minus_matrix,
)
from .poly import (
    QQ,
    PrimeField,
    count_irreducibles,
    distinct_complex_root_count,
    distinct_degree_factorization,
    factor_mod_p,
    gcd_over_field,
    int_poly_to_field,
    pdeg,
    peval,
    pmod,
    pnormalize,
    squarefree_part,
)

def _as_matrix_tuple(m):
    return tuple(tuple(int(x) for x in row) for row in m)


class MatrixAction(Record):
    """Z^k (+) (+)_j Z/t_j with l commuting integer matrices acting on it.

    Matrix columns are the images of the generators: the first k columns are
    the free generators, the rest the torsion generators in order.  With
    group_action, each action must be an automorphism.  One integer Smith
    form per action checks it: an onto endomorphism of a finitely generated
    module over a commutative Noetherian ring is one-to-one (Vasconcelos
    1969), and the action is onto iff its columns together with the torsion
    relations t_j e_(k+j) have only unit invariant factors, k + #torsion
    of them.
    """

    k: int
    torsion: tuple[int, ...]
    actions: tuple[tuple[tuple[int, ...], ...], ...]
    group_action: bool = False

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        object.__setattr__(
            self, "actions", tuple(_as_matrix_tuple(a) for a in self.actions)
        )
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        if not self.actions:
            raise ValueError("at least one action matrix required")
        dim = self.k + len(self.torsion)
        for idx, a in enumerate(self.actions):
            if len(a) != dim or any(len(r) != dim for r in a):
                raise ValueError(
                    f"actions[{idx}] is not {dim}x{dim}"
                )
        for i in range(len(self.actions)):
            for j in range(i + 1, len(self.actions)):
                A, B = self.actions[i], self.actions[j]
                if dim and mat_mul(QQ, A, B) != mat_mul(QQ, B, A):
                    raise ValueError(
                        f"actions[{i}] and actions[{j}] do not commute"
                    )
        for idx, a in enumerate(self.actions):
            self._check_endomorphism(a, idx)
        if self.group_action:
            for idx, a in enumerate(self.actions):
                self._check_automorphism(a, idx)

    def _check_endomorphism(self, a, idx):
        # torsion generator e_{k+j} has order t_j; its image must too
        k = self.k
        for j, t in enumerate(self.torsion):
            for r in range(k):
                if a[r][k + j] != 0:
                    raise ValueError(
                        f"actions[{idx}] maps torsion generator {j} into the free part"
                    )
            for r, tr in enumerate(self.torsion):
                if (t * a[k + r][k + j]) % tr:
                    raise ValueError(
                        f"actions[{idx}] does not preserve torsion relation {j}"
                    )

    def _check_automorphism(self, a, idx):
        # a is one-to-one once it is onto (Vasconcelos 1969), and onto iff
        # its columns and the torsion relations t_j e_(k+j) span Z^dim
        dim, k = len(a), self.k
        spanning = [
            list(row) + [t * (r == k + j) for j, t in enumerate(self.torsion)]
            for r, row in enumerate(a)
        ]
        snf = smith_normal_form_int(spanning, ncols=dim + len(self.torsion))
        if snf.diagonal != (1,) * dim:
            raise ValueError(f"actions[{idx}] is not an automorphism (group_action)")

    @property
    def ell(self) -> int:
        return len(self.actions)

    def free_blocks(self):
        k = self.k
        return [tuple(row[:k] for row in a[:k]) for a in self.actions]


class Presented(Record):
    """Cokernel of a relation matrix over Z[x] (one variable).

    `relations` has `gens` rows; each column is one relation.  Entries are
    integer coefficient tuples in ascending degree.
    """

    gens: int
    relations: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        rel = tuple(
            tuple(tuple(pnormalize(list(e))) for e in row) for row in self.relations
        )
        object.__setattr__(self, "relations", rel)
        if self.gens < 0:
            raise ValueError("gens must be nonnegative")
        if len(rel) not in (0, self.gens):
            raise ValueError("relations must have one row per generator")
        if rel and len({len(r) for r in rel}) > 1:
            raise ValueError("ragged relation matrix")


ModuleDescriptor = MatrixAction | Presented


class FiberModule(Record):
    """The F_p-module N/pN with its induced commuting actions."""

    p: int
    dim: int
    actions: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        F = PrimeField(self.p)
        for a in self.actions:
            if len(a) != self.dim or any(len(r) != self.dim for r in a):
                raise ValueError("fiber action has wrong dimensions")
        for i in range(len(self.actions)):
            for j in range(i + 1, len(self.actions)):
                A = [list(r) for r in self.actions[i]]
                B = [list(r) for r in self.actions[j]]
                if mat_mul(F, A, B) != mat_mul(F, B, A):
                    raise ValueError("fiber actions do not commute")


class PresentedFiber(Record):
    """N/pN as an F_p[x]-module: non-unit invariant factors plus free rank."""

    p: int
    invariant_factors: tuple[tuple[int, ...], ...]
    free_rank: int


class SpectrumEntry(Record):
    """One maximal ideal of the fiber algebra: residue field F_{p^e},
    multiplicity s."""

    e: int
    s: int

    def __lt__(self, other):
        return (self.e, self.s) < (other.e, other.s)


class ModuleInvariants(Record):
    """Simple quotients of the fiber at a generic prime: d is their largest
    multiplicity, d_nt the largest among the nontrivial ones, t that of the
    trivial one.  a are the Q[x] invariant factors read (rho: distinct complex
    roots of each); r0 the free rank of a module in one variable."""

    d: int
    d_nt: int
    t: int
    a: tuple[tuple[int, ...], ...]
    rho: tuple[int, ...]
    r0: int | None


class GrowthType(Record):
    """Trichotomy: n^degree polynomial growth, or n^degree/log n."""

    kind: str  # "PolyDegree" | "SubPoly"
    degree: int
    d: int
    r_max: int
    r0: int

    def __str__(self):
        if self.kind == "SubPoly":
            return f"n^{self.degree}/log n"
        if self.degree == 0:
            return "bounded"
        return f"n^{self.degree}"


# -- fibers --------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _one_variable(m):
    """A MatrixAction with one action A as coker [xI - A | t_j e_(k+j)] over
    Z[x]; anything else as it is.  The fibers agree: for p not dividing t_j
    the torsion column is a unit and removes generator k + j, and an entry
    a_rj with p | t_r is 0 mod p, as t_j a_rj = 0 mod t_r.  Cached, as every
    prime of a table reads it."""
    if not isinstance(m, MatrixAction) or m.ell > 1:
        return m
    A, k, dim = m.actions[0], m.k, m.k + len(m.torsion)
    return Presented(
        gens=dim,
        relations=tuple(
            tuple((-A[r][c], int(r == c)) for c in range(dim))
            + tuple((t * (r == k + j),) for j, t in enumerate(m.torsion))
            for r in range(dim)
        ),
    )


def fiber_mod_p(m: ModuleDescriptor, p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(m, Presented):
        F = PrimeField(p)
        rows = [[int_poly_to_field(F, list(e)) for e in row] for row in m.relations]
        snf = smith_normal_form_poly(F, rows, ncols=len(rows[0]) if rows else 0)
        return PresentedFiber(
            p=p,
            invariant_factors=tuple(tuple(d) for d in snf.diagonal if pdeg(d) >= 1),
            free_rank=m.gens - snf.rank,
        )
    keep = list(range(m.k)) + [
        m.k + j for j, t in enumerate(m.torsion) if t % p == 0
    ]
    acts = tuple(
        tuple(tuple(m.actions[i][r][c] % p for c in keep) for r in keep)
        for i in range(len(m.actions))
    )
    return FiberModule(p=p, dim=len(keep), actions=acts)


# -- joint spectrum ------------------------------------------------------------


def _restrict(F, M, basis, dim):
    """Matrix of M on the invariant subspace spanned by `basis`."""
    if not basis:
        return []
    bt = [[basis[j][i] for j in range(len(basis))] for i in range(dim)]
    cols = []
    for b in basis:
        img = mat_apply(F, M, b)
        coords = solve(F, bt, img, len(basis))
        if coords is None:
            raise ValueError("subspace not invariant")
        cols.append(coords)
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(cols))]


def _algebra_basis(F, mats, dim):
    """Span-closure basis of the unital algebra generated by `mats`.

    Returns matrices whose flattenings are in reduced echelon form.
    """
    def flat(M):
        return [x for row in M for x in row]

    def unflat(v):
        return [list(v[i * dim : (i + 1) * dim]) for i in range(dim)]

    basis_rows = row_space_basis(F, [flat(identity_matrix(F, dim))] + [flat(list(map(list, M))) for M in mats], dim * dim)
    while True:
        products = [
            flat(mat_mul(F, unflat(b), list(map(list, M))))
            for b in basis_rows
            for M in mats
        ]
        new_rows = row_space_basis(F, basis_rows + products, dim * dim)
        if len(new_rows) == len(basis_rows):
            return [unflat(v) for v in basis_rows]
        basis_rows = new_rows


def _split(F, mats, dim, S, factors):
    """Primary components of F^dim under S, one per factor (g, mult) of the
    min poly of S."""
    pieces = []
    for g, mult in factors:
        Q = mat_pow(F, poly_of_matrix(F, list(g), S), mult)
        basis = kernel_basis(F, Q, dim)
        sub = [_restrict(F, list(map(list, M)), basis, dim) for M in mats]
        pieces.append((sub, len(basis)))
    return pieces


def _leaf_entry(F, irreducibles, dim):
    """Residue data (e, s) of a local component.

    `irreducibles` pairs each generator M_i with the one irreducible g_i whose
    power is its min poly.  The maximal ideal is generated by the g_i(M_i), so
    the residue quotient has dimension s*e = dim - rank of their stacked
    columns; the residue field is F_p adjoined a root of every g_i, of degree
    e = lcm(deg g_i).
    """
    nil_images = []
    for g, M in irreducibles:
        P = poly_of_matrix(F, g, M)
        nil_images.extend([P[r][c] for r in range(dim)] for c in range(dim))
    qdim = dim - rank(F, nil_images, dim)
    e = math.lcm(*(len(g) - 1 for g, _ in irreducibles))
    assert qdim >= 1 and qdim % e == 0
    return SpectrumEntry(e=e, s=qdim // e)


def _frobenius_fixed_space(F, alg, dim):
    """Basis of {x : x^p = x} in the commutative algebra with basis `alg`.

    x -> x^p is F_p-linear on a commutative F_p-algebra, and its fixed space
    has one dimension per maximal ideal (Berlekamp 1967).  The flattenings
    of `alg` are in reduced echelon form, so an element's coordinates are its
    entries at their pivots.
    """
    adim = len(alg)
    pivots = [next((r, c) for r in range(dim) for c in range(dim) if b[r][c]) for b in alg]
    frob = [mat_pow(F, b, F.p) for b in alg]
    # column t holds the coordinates of b_t^p - b_t
    phi_minus_one = [
        [F.reduce(frob[t][r][c] - (i == t)) for t in range(adim)]
        for i, (r, c) in enumerate(pivots)
    ]
    return [
        [
            [sum(v[t] * alg[t][r][c] for t in range(adim)) % F.p for c in range(dim)]
            for r in range(dim)
        ]
        for v in kernel_basis(F, phi_minus_one, adim)
    ]


def _spectrum_of_component(F, mats, dim, out):
    if dim == 0:
        return
    # factor each generator's min poly once, and split on the first that has
    # two or more factors
    irreducibles = []
    for M in mats:
        factors = factor_mod_p(min_poly_of_matrix(F, M), F.p).factors
        if len(factors) >= 2:
            pieces = _split(F, mats, dim, M, factors)
            break
        irreducibles.append((list(factors[0][0]), M))
    else:
        fixed = _frobenius_fixed_space(F, _algebra_basis(F, mats, dim), dim)
        if len(fixed) == 1:
            out.append(_leaf_entry(F, irreducibles, dim))
            return
        # at most one fixed basis element is scalar; any other has a
        # squarefree min poly dividing x^p - x, so it splits
        for S in fixed:
            factors = factor_mod_p(min_poly_of_matrix(F, S), F.p).factors
            if len(factors) >= 2:
                pieces = _split(F, mats, dim, S, factors)
                break
        else:
            raise RuntimeError(
                f"Frobenius fixed space has dimension {len(fixed)} but no "
                "fixed element splits the fiber algebra"
            )
    for sub, sdim in pieces:
        _spectrum_of_component(F, sub, sdim, out)


@functools.lru_cache(maxsize=None)
def joint_spectrum(fiber: FiberModule) -> tuple[SpectrumEntry, ...]:
    """Maximal ideals of the algebra generated by the fiber actions.

    Each entry (e, s) contributes (q^s - 1)/(q - 1) maximal submodules of
    index q = p^e.  prime_profile calls it only for two or more actions
    none of which is cyclic mod p; elsewhere it is the reference that the
    F_p[x] invariant-factor profile is tested against.
    """
    F = PrimeField(fiber.p)
    mats = [list(map(list, a)) for a in fiber.actions]
    out: list[SpectrumEntry] = []
    _spectrum_of_component(F, mats, fiber.dim, out)
    return tuple(sorted(out))


# -- per-prime profile -----------------------------------------------------------


class PrimeProfile(Record):
    """Everything the counts at the powers of p are read from.

    `entries` are the simple quotients of the fiber N/pN, residue degree e
    and multiplicity s each.  Every monic irreducible of F_p[x] not among
    them has multiplicity `generic_rank` (the free rank of a Presented fiber,
    0 for a MatrixAction).  `trivial_rank` is t_p, the multiplicity of the
    trivial simple quotient F_p.
    """

    p: int
    entries: tuple[SpectrumEntry, ...]
    generic_rank: int
    trivial_rank: int

    def count(self, k: int) -> int:
        """Maximal submodules of index q = p^k: (q^s - 1)/(q - 1) per simple
        quotient of residue degree k."""
        q = self.p ** k
        listed = [entry.s for entry in self.entries if entry.e == k]
        total = sum((q ** s - 1) // (q - 1) for s in listed)
        if self.generic_rank:
            generic = count_irreducibles(self.p, k) - len(listed)
            total += generic * ((q ** self.generic_rank - 1) // (q - 1))
        return total

    def split(self, k: int) -> tuple[int, int]:
        """(mtriv, mnontriv): count(k) split by whether the simple quotient
        carries the trivial action.  Trivial quotients exist only at k = 1."""
        total = self.count(k)
        if k != 1:
            return 0, total
        mtriv = (self.p ** self.trivial_rank - 1) // (self.p - 1)
        return mtriv, total - mtriv


def _chain_profile(p, factors, free_rank):
    """Profile of (+)_j F_p[x]/(b_j) (+) F_p[x]^free_rank, b_1 | ... | b_t.

    Only the degrees of the irreducibles are read, never the irreducibles:
    distinct-degree factorization of rad(b_t) gives G_d, the product of the
    degree-d irreducibles that divide some b_j, as each divides b_t.  Let
    c_j = deg gcd(G_d, b_j) / d, the number of them that divide b_j, and
    c_0 = 0.  By the chain an irreducible dividing b_j divides b_j ... b_t,
    so c_1 <= ... <= c_t = deg G_d / d, and exactly c_j - c_(j-1) of them
    divide b_j but not b_(j-1).  Each of those divides t - j + 1 of the b's,
    so has multiplicity free_rank + t - j + 1.
    """
    F = PrimeField(p)
    t = len(factors)
    entries = []
    if factors:
        for d, g in distinct_degree_factorization(F, squarefree_part(F, factors[-1])):
            prev = 0
            for j, b in enumerate(factors, start=1):
                c = pdeg(g) // d if j == t else pdeg(gcd_over_field(F, g, b)) // d
                entries += [SpectrumEntry(e=d, s=free_rank + t - j + 1)] * (c - prev)
                prev = c
    return PrimeProfile(
        p=p,
        entries=tuple(sorted(entries)),
        generic_rank=free_rank,
        trivial_rank=free_rank + sum(1 for b in factors if peval(F, b, F.one) == F.zero),
    )


def prime_profile(m: ModuleDescriptor, p: int) -> PrimeProfile:
    """The per-prime data of m at p, from one reduction of the fiber: its
    F_p[x] invariant factors in one variable, else one action's min poly or
    joint_spectrum.

    If some action A has a min poly mu of degree dim over F_p, A is
    nonderogatory, and its centralizer is F_p[A] (Horn & Johnson, Matrix
    Analysis, on nonderogatory matrices).  Every other action commutes with
    A, so is a polynomial in A, and the fiber is F_p[x]/(mu) with x acting
    as A: its simple quotients are those of the one-variable chain [mu].
    Any other fiber goes to joint_spectrum.  t_p needs every action either
    way: it is the dimension of the fiber modulo the images of every A - I.
    """
    fib = fiber_mod_p(_one_variable(m), p)
    if isinstance(fib, PresentedFiber):
        return _chain_profile(p, [list(b) for b in fib.invariant_factors], fib.free_rank)
    F = PrimeField(p)
    images = [
        [(a[r][c] - (r == c)) % p for r in range(fib.dim)]
        for a in fib.actions
        for c in range(fib.dim)
    ]
    # a 0 x 0 action has min poly 1 of degree 0, yet no simple quotient
    mins = (min_poly_of_matrix(F, a) for a in fib.actions) if fib.dim else ()
    cyclic = next((mu for mu in mins if pdeg(mu) == fib.dim), None)
    return PrimeProfile(
        p=p,
        entries=joint_spectrum(fib) if cyclic is None else _chain_profile(p, [cyclic], 0).entries,
        generic_rank=0,
        trivial_rank=fib.dim - rank(F, images, fib.dim),
    )


# -- counting ------------------------------------------------------------------


def count_max_submodules(m: ModuleDescriptor, n: int) -> int:
    """Number of maximal submodules of index n; 0 off prime powers."""
    pp = prime_power_decompose(n)
    if pp is None:
        return 0
    return prime_profile(m, pp.p).count(pp.k)


def chain_count(invariant_factors, free_rank: int, n: int) -> int:
    """Maximal submodules of index n of (+)_j F_p[x]/(b_j) (+) F_p[x]^free_rank.

    The reference that PrimeProfile.count is checked against: it factors
    every b_j and does not use the profile.  The summands are ordered so
    each is a quotient of the next (torsion ascending by divisibility, then
    free); the count telescopes as
    sum_j (m_n(A_j) - m_n(A_{j-1})) (1 + n + ... + n^{t-j}).
    """
    pp = prime_power_decompose(n)
    if pp is None:
        raise ValueError(f"{n} is not a prime power")
    p, k = pp.p, pp.k
    F = PrimeField(p)
    factors = [pnormalize([F.from_int(c) for c in b]) for b in invariant_factors]
    for b, bnext in zip(factors, factors[1:]):
        if pmod(F, bnext, b):
            raise ValueError("invariant factors violate the divisibility chain")
    per_term = [
        factor_mod_p(b, p).distinct_factors_of_degree(k) for b in factors
    ] + [count_irreducibles(p, k)] * free_rank
    t = len(per_term)
    total = 0
    prev = 0
    for j, mj in enumerate(per_term, start=1):
        weight = sum(n ** i for i in range(t - j + 1))
        total += (mj - prev) * weight
        prev = mj
    return total


def split_triv_nontriv(m: ModuleDescriptor, n: int) -> tuple[int, int]:
    """(mtriv, mnontriv): maximal submodules whose simple quotient carries a
    trivial / nontrivial action.  Trivial quotients exist only at prime n."""
    pp = prime_power_decompose(n)
    if pp is None:
        return 0, 0
    return prime_profile(m, pp.p).split(pp.k)


# -- invariants and classification ----------------------------------------------


def _generic_operator(blocks, k):
    """(c, sigma): c = sum_i lambda_i A_i acting on the top W of Q^k under
    the commuting A_i and generating the algebra they induce there; sigma =
    sum_i lambda_i is its value on the trivial quotient.

    W = Q^k / sum_i im r_i(A_i), r_i the squarefree part of A_i's min poly.
    The r_i(A_i) are nilpotent and, in characteristic 0, generate the
    nilradical N of R = Q[A_1..A_l] (Jordan-Chevalley).  So W = Q^k / N Q^k
    is a faithful module over S = R/N = prod_j K_j, number fields, and
    W = (+)_j K_j^(s_j): at a generic p the primes of K_j over p are simple
    quotients of multiplicity s_j.  W is worked on as its dual, the common
    kernel of the r_i(A_i)^T, where the A_i^T act with the same invariant
    factors.

    c generates S iff deg minpoly(c) = dim S.  As dim S <= dim W, an A_i
    cyclic on W is such a c, with lambda = e_i and sigma = 1; the walk below
    runs only when no A_i is.  There c = sum_i lambda_i A_i fails iff it
    takes one value at two of the dim S points of Spec(S (x) C).  Each such pair is a
    nonzero linear condition on lambda, as the A_i generate S: a hyperplane,
    which the moment curve lambda_i = j^i meets at most l - 1 times with
    j >= 1 (sum_i a_i j^i is j times a polynomial of degree l - 1).  So the
    walk j = 1, 2, ... ends.  Then S = prod_j Q[x]/(h_j), the h_j distinct
    irreducibles, and c has invariant factors b_i = prod {h_j : s_j > d - i},
    i = 1..d, d = max s_j.
    """
    rows = []
    for A in blocks:
        nil = poly_of_matrix(QQ, squarefree_part(QQ, min_poly_of_matrix(QQ, A)), A)
        rows.extend([nil[r][c] for r in range(k)] for c in range(k))
    dual = kernel_basis(QQ, rows, k)
    mats = [_restrict(QQ, [list(col) for col in zip(*A)], dual, k) for A in blocks]
    w = len(dual)
    for M in mats:
        if pdeg(min_poly_of_matrix(QQ, M)) == w:
            return M, 1
    dim_s = len(_algebra_basis(QQ, mats, w))
    j = 1
    while True:
        lam = [j ** i for i in range(1, len(blocks) + 1)]
        c = [[sum(x * M[r][s] for x, M in zip(lam, mats)) for s in range(w)] for r in range(w)]
        if pdeg(min_poly_of_matrix(QQ, c)) == dim_s:
            return c, sum(lam)
        j += 1


@functools.lru_cache(maxsize=None)
def module_invariants(m: ModuleDescriptor) -> ModuleInvariants:
    """Characteristic-zero invariants of m, read off the Q[x] invariant
    factors b_1 | ... | b_s of one operator on its top, plus r0 free summands.

    A module in one variable takes its relation matrix, r0 its free rank.
    A MatrixAction with two or more actions takes xI - A on its free part, A
    their _generic_operator.  A monic irreducible h has multiplicity
    r0 + #{i : h | b_i}, largest for h | b_1, so d = r0 + s.  The b_i that
    are not a power of x - sigma, sigma the trivial eigenvalue, are those
    divisible by a nontrivial h: d_nt, or d when t = 0.  t is the dimension
    over Q modulo x - 1, or modulo the images of every A_i - I.  Cached:
    mdeg, asymptotic_leading and the growth type all read it, keyed on the
    presentation in one variable.
    """
    presented = _one_variable(m)
    if presented is not m:
        return module_invariants(presented)
    if isinstance(m, Presented):
        rows = [[[*e] for e in row] for row in m.relations]
        snf, sigma = smith_normal_form_poly(QQ, rows, ncols=len(rows[0]) if rows else 0), 1
        r0 = m.gens - snf.rank
        rel_at_1 = [[sum(e) for e in row] for row in m.relations]
        t = m.gens - rank(QQ, rel_at_1, len(rel_at_1[0]) if rel_at_1 else 0)
    else:
        k, blocks, r0 = m.k, m.free_blocks(), None
        images = [[blk[r][c] - (r == c) for r in range(k)] for blk in blocks for c in range(k)]
        t = k - rank(QQ, images, k)
        op, sigma = (blocks[0], 1) if k == 0 else _generic_operator(blocks, k)
        snf = smith_normal_form_poly(QQ, x_minus_matrix(QQ, op), ncols=len(op))
    a = tuple(tuple(int(c) for c in b) for b in snf.diagonal if pdeg(b) >= 1)
    rho = tuple(distinct_complex_root_count(list(b)) for b in a)
    # b is a power of x - sigma iff it has one distinct root and sigma is one
    trivial = sum(1 for b, roots in zip(a, rho) if roots == 1 and peval(QQ, list(b), sigma) == 0)
    d = (r0 or 0) + len(a)
    return ModuleInvariants(d=d, d_nt=d - trivial if t else d, t=t, a=a, rho=rho, r0=r0)


def growth_type_classify(m) -> GrowthType | None:
    """Growth trichotomy for a module in one variable, a Presented module or
    a MatrixAction with one action: polynomial of degree d or d-1, or
    n^r_max/log n.  None for anything else: a module with two or more
    actions, or a group.

    r_max, the largest free rank of N/pN over all primes p, is certified by
    integer Smith forms of the relation matrix R at the points x0 = 0..B,
    with r = gens - r0 the rank of R over Q(x) and B = r * deg R.  The free
    rank at p is at least gens - i iff every (i+1)-minor of R vanishes mod
    p.  At x0 the invariant factors d_1 | d_2 | ... of R(x0) multiply to the
    gcd of its minors, so every (i+1)-minor of R(x0) vanishes mod p iff p
    divides d_(i+1)(x0), taken as 0 past the rank of R(x0).  Let G_i be the
    gcd of d_(i+1)(x0) over the points, so G_0 | G_1 | ... | G_(r-1).  A
    minor has degree <= B, and it vanishes mod p > B iff it does at the
    B + 1 points, which are distinct mod p: so for p > B the free rank is at
    least gens - i iff p divides G_i.  Every jump above r0 needs p | G_(r-1);
    the walk stops once G_(r-1) = 1.  The primes <= B dividing G_(r-1) take
    their fiber's free rank.  With h what is left of G_(r-1) once those
    primes are divided out, the largest jump above B is gens - i for the
    least i with gcd(G_i, h) > 1.  Nothing is factored.
    """
    m = _one_variable(m)
    if not isinstance(m, Presented):
        return None
    inv = module_invariants(m)
    d, r0 = inv.d, inv.r0
    r = m.gens - r0
    bound = r * max((pdeg(e) for row in m.relations for e in row), default=0)
    gcds, x0 = [0] * r, 0
    while r and gcds[-1] != 1 and x0 <= bound:
        at_x0 = [[functools.reduce(lambda v, c: v * x0 + c, reversed(e), 0) for e in row] for row in m.relations]
        diagonal = smith_normal_form_int(at_x0).diagonal + (0,) * r
        gcds = [math.gcd(g, e) for g, e in zip(gcds, diagonal)]
        x0 += 1
    r_max, h = r0, gcds[-1] if r else 1
    if h != 1:
        for q in primes_up_to(bound):
            if h % q == 0:
                r_max = max(r_max, fiber_mod_p(m, q).free_rank)
                while h % q == 0:
                    h //= q
        r_max = max(r_max, next((m.gens - i for i, g in enumerate(gcds) if math.gcd(g, h) > 1), r0))
    if d > r_max:
        return GrowthType(kind="PolyDegree", degree=d - 1, d=d, r_max=r_max, r0=r0)
    if d == r_max == r0:
        return GrowthType(kind="PolyDegree", degree=d, d=d, r_max=r_max, r0=r0)
    return GrowthType(kind="SubPoly", degree=r_max, d=d, r_max=r_max, r0=r0)
