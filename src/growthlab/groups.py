"""Group-level maximal subgroup growth for metabelian shapes.

Supported shapes: split extensions N x| A of a module by a f.g. abelian
group (SemidirectFgAbelian), with Z^k-by-Z (ZkByZ, A = Z) and the wreath
products Z wr Z/mZ (WreathCyclic, A = Z/m) as special cases, and
the nilpotent groups G_f defined by commutator relations [x_i, x_j] = f(i,j)
in a central free abelian part.

A maximal subgroup either contains [G, G], a hyperplane of G/G^p[G,G] whose
dimension u_p is read off one integer Smith form of G/[G, G], or is one of
the |S| complements over a maximal submodule of N with nontrivial simple
quotient S, counted by the module engine.
"""

from __future__ import annotations

import functools

from ._record import Record
from .arith import prime_power_decompose, primes_up_to
from .linalg import mat_mul, min_poly_of_matrix, smith_normal_form_int
from .modules import (
    MatrixAction,
    GrowthType,
    PrimeProfile,
    SpectrumEntry,
    growth_type_classify,
    module_invariants,
    prime_profile,
)
from .poly import QQ, pdeg, pdivmod, pmod

# Largest ell accepted by NilpotentGf: its center has C(ell, 2) generators,
# and counts at p are powers p^(ell + C(ell, 2) - rank).
MAX_NILPOTENT_ELL = 64

# Largest gens accepted in a module_presented spec: the rank of
# G/G^p[G,G] at MAX_NILPOTENT_ELL, so no count is wider than that spec's.
# `table --max-n 200` took 0.18 s with no relations at this bound, 2.5 s with
# two relations, and 0.9 s / 9.8 s at free rank 8192 / 32768 (Python 3.11,
# 2-vCPU x86-64 VM).
MAX_PRESENTED_GENS = MAX_NILPOTENT_ELL * (MAX_NILPOTENT_ELL + 1) // 2

# Largest m accepted by WreathCyclic, whose module is Z^m with an m x m
# permutation action: `table --max-n 200` took 0.6 s at m = 16, 2.6 s at
# m = 32 and 20 s at m = 64 (same machine).
MAX_WREATH_ORDER = 32

# Largest n_max accepted by growth_table, and by `check --max-n`, whose loop
# runs to it.  The sieve of the primes up to it alone took 0.5 s and 10 MB
# at this bound (same machine); at 10^11 it would take 100 GB, and past
# 2^63 its bytearray raises OverflowError.
MAX_TABLE_N = 10 ** 7


class SemidirectFgAbelian(Record):
    """N x| A for A f.g. abelian of rank `acting_rank` with torsion orders
    `acting_torsion`; one action matrix per generator of A, free first."""

    module: MatrixAction
    acting_rank: int
    acting_torsion: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "acting_torsion", tuple(int(t) for t in self.acting_torsion)
        )
        if not isinstance(self.module, MatrixAction):
            raise ValueError("SemidirectFgAbelian requires a MatrixAction module")
        if self.acting_rank < 0:
            raise ValueError("acting_rank must be nonnegative")
        if any(t < 2 for t in self.acting_torsion):
            raise ValueError("acting torsion orders must be >= 2")
        ell0 = self.acting_rank + len(self.acting_torsion)
        if self.module.ell != ell0:
            raise ValueError(
                f"module has {self.module.ell} actions but the acting group has "
                f"{ell0} generators"
            )
        if not self.module.group_action:
            raise ValueError("semidirect actions must be group actions")
        k, tors = self.module.k, self.module.torsion
        identity = [[int(r == c) for c in range(k + len(tors))] for r in range(k + len(tors))]
        for i, order in enumerate(self.acting_torsion):
            a = self.module.actions[self.acting_rank + i]
            # a free block of infinite order is refused before any power is taken
            if not _has_finite_order([row[:k] for row in a[:k]]) or _endo_pow(a, order, k, tors) != identity:
                raise ValueError(
                    f"acting torsion generator {i} has order {order} but its "
                    "action matrix does not"
                )


class ZkByZ(SemidirectFgAbelian):
    """Z^k (+) torsion, extended by Z acting through one automorphism: N x| A
    with A = Z.  ZkByZ(module) fixes the acting group."""

    def __init__(self, module: MatrixAction):
        super().__init__(module, 1, ())


def _has_finite_order(block) -> bool:
    """Whether a square integer matrix has finite order, i.e. its min poly
    over Q is a squarefree product of cyclotomic Phi_n.  Each such n has
    phi(n) <= size, and phi(n) >= sqrt(n/2) bounds the n to try; phi comes
    from one sieve over them.  Phi_n is x^n - 1 divided by the Phi_d, d | n,
    d < n, which were built before it since phi(d) <= phi(n)."""
    rest = min_poly_of_matrix(QQ, block)
    bound = 2 * len(block) ** 2
    phi = list(range(bound + 1))
    for q in primes_up_to(bound):
        for n in range(q, bound + 1, q):
            phi[n] -= phi[n] // q
    cyclotomic = {}
    for n in range(1, bound + 1):
        if phi[n] <= pdeg(rest):
            f = [-1] + [0] * (n - 1) + [1]
            for d in [d for d in cyclotomic if n % d == 0]:
                f = pdivmod(QQ, f, cyclotomic[d])[0]
            if not pmod(QQ, rest, f):
                rest = pdivmod(QQ, rest, f)[0]
            cyclotomic[n] = f
    return pdeg(rest) == 0


def _endo_pow(a, e, k, torsion):
    """a**e as an endomorphism of Z^k (+) (+)_j Z/t_j, by binary
    exponentiation with each torsion row reduced mod its t_j.  When the free
    block has finite order, no entry grows."""
    out = [[int(r == c) for c in range(len(a))] for r in range(len(a))]
    for bit in bin(e)[2:]:
        out = mat_mul(QQ, out, out)
        if bit == "1":
            out = mat_mul(QQ, out, a)
        out = [row if r < k else [c % torsion[r - k] for c in row] for r, row in enumerate(out)]
    return out


class WreathCyclic(SemidirectFgAbelian):
    """Z wr Z/mZ: N x| A with N = Z^m under the m-cycle coordinate
    permutation and A = Z/m.  WreathCyclic(m) builds that module."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("wreath order m must be >= 2")
        if m > MAX_WREATH_ORDER:
            raise ValueError(f"wreath order m must be <= {MAX_WREATH_ORDER}, got {m}")
        perm = tuple(tuple(int(r == (c + 1) % m) for c in range(m)) for r in range(m))
        super().__init__(MatrixAction(k=m, torsion=(), actions=(perm,), group_action=True), 0, (m,))

    @property
    def m(self) -> int:
        return self.acting_torsion[0]

    def expand(self) -> SemidirectFgAbelian:
        """The group itself: it is already in semidirect form, and no reader
        expands it.  Kept only because the benchmark names it, in
        perfbench/tracer.py's TRACED and perfbench/child.py's set-up, and
        tests/test_hygiene.py pins those hooks."""
        return self


class NilpotentGf(Record):
    """Nilpotent group on x_1..x_ell with center Z^k, k = C(ell,2), and
    relations [x_i, x_j] = f(i,j) in the center."""

    ell: int
    f_vectors: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
        if self.ell > MAX_NILPOTENT_ELL:
            raise ValueError(f"ell must be <= {MAX_NILPOTENT_ELL}, got {self.ell}")
        k = self.ell * (self.ell - 1) // 2
        canon = []
        seen = set()
        for key, vec in (
            self.f_vectors.items()
            if isinstance(self.f_vectors, dict)
            else self.f_vectors
        ):
            i, j = key
            if not (1 <= i < j <= self.ell):
                raise ValueError(f"f key {key} is not a pair i < j <= ell")
            if (i, j) in seen:
                raise ValueError(f"duplicate f key {key}")
            seen.add((i, j))
            vec = tuple(int(x) for x in vec)
            if len(vec) != k:
                raise ValueError(
                    f"f({i},{j}) has length {len(vec)}, expected C(ell,2) = {k}"
                )
            canon.append(((i, j), vec))
        object.__setattr__(self, "f_vectors", tuple(sorted(canon)))

    @property
    def k(self) -> int:
        return self.ell * (self.ell - 1) // 2


GroupDescriptor = SemidirectFgAbelian | NilpotentGf


class MdegValue(Record):
    value: int
    provenance: str  # "exact-theorem"
    exactness: str  # "exact"


class GrowthRow(Record):
    n: int
    p: int
    k: int
    count: int
    mtriv: int
    mnontriv: int


class GrowthReport(Record):
    rows: tuple[GrowthRow, ...]
    mdeg: MdegValue | None
    asymptotic: tuple[int, int] | None  # (rho1, d)
    growth_type: GrowthType | None


@functools.lru_cache(maxsize=None)
def _abelianization(g) -> tuple[int, tuple[int, ...]]:
    """(gens, d): G/[G, G] on gens generators, d the nonzero invariant
    factors of its relations.  For N x| A: N's generators, then A's, modulo
    every column of a_i - I, t_j e_(k+j) and o_j times A's torsion
    generators.  For G_f: x_1..x_ell and the center, modulo the f vectors."""
    if isinstance(g, NilpotentGf):
        gens = g.ell + g.k
        relations = [(0,) * g.ell + vec for _, vec in g.f_vectors]
    elif isinstance(g, SemidirectFgAbelian):
        m = g.module
        dim = m.k + len(m.torsion)
        gens = dim + g.acting_rank + len(g.acting_torsion)
        relations = [[a[r][c] - (r == c) for r in range(dim)] + [0] * (gens - dim)
                     for a in m.actions for c in range(dim)]
        orders = [*enumerate(m.torsion, m.k), *enumerate(g.acting_torsion, dim + g.acting_rank)]
        relations += [[o * (c == i) for c in range(gens)] for i, o in orders]
    else:
        raise ValueError(f"unsupported descriptor {type(g).__name__}")
    return gens, smith_normal_form_int(relations, ncols=gens).diagonal


def _hyperplane_rank(g, p: int) -> int:
    """u_p = dim_Fp G/G^p[G,G]: gens less the invariant factors prime to p."""
    gens, d = _abelianization(g)
    return gens - sum(1 for x in d if x % p)


def _profile(g, p: int) -> PrimeProfile:
    """Per-prime data of g's module; for G_f, G/G^p[G,G] with trivial action,
    which gives its rows' mtriv."""
    if isinstance(g, NilpotentGf):
        u = _hyperplane_rank(g, p)
        return PrimeProfile(
            p=p, entries=(SpectrumEntry(e=1, s=u),), generic_rank=0, trivial_rank=u,
        )
    if isinstance(g, SemidirectFgAbelian):
        return prime_profile(g.module, p)
    raise ValueError(f"unsupported descriptor {type(g).__name__}")


def _group_count(g, profile: PrimeProfile, k: int) -> int:
    """Maximal subgroups of index p^k: the hyperplanes of G/G^p[G,G] at
    k = 1, plus p^k complements per nontrivial simple quotient of size p^k."""
    p = profile.p
    mnontriv = profile.split(k)[1]
    if k > 1:
        return p ** k * mnontriv
    return (p ** _hyperplane_rank(g, p) - 1) // (p - 1) + p * mnontriv


def max_subgroups(g: GroupDescriptor, n: int) -> int:
    """Number of maximal subgroups of index n (0 off prime powers)."""
    pp = prime_power_decompose(n)
    if pp is None:
        return 0
    return _group_count(g, _profile(g, pp.p), pp.k)


def mdeg(g: GroupDescriptor) -> MdegValue:
    """Degree of polynomial growth of n -> max_subgroups(g, n):
    max(u_Q - 1, d_nt), u_Q the rank of G/[G, G].

    At a generic p there are about p^(u_Q - 1) hyperplanes, and a nontrivial
    simple quotient of N of multiplicity s gives q^s subgroups at a positive
    density of primes (Chebotarev); d_nt, the largest s, is read off N's
    generic simple quotients (module_invariants), and G_f has none.  For
    N x| A, A of rank r, u_Q = r + t (t: N modulo every a_i - I), and with
    r >= 1 this is max(r + t - 1, d), as d = max(t, d_nt) when t > 0: the
    invariant factors that are powers of x - sigma, sigma the trivial
    eigenvalue, lead the chain, so if there are any, all d are divisible by
    x - sigma and d = t; otherwise d = d_nt.  For ZkByZ it gives d.
    """
    gens, d = _abelianization(g)
    d_nt = module_invariants(g.module).d_nt if isinstance(g, SemidirectFgAbelian) else 0
    value = max(gens - len(d) - 1, d_nt)
    return MdegValue(value=value, provenance="exact-theorem", exactness="exact")


def asymptotic_leading(g: GroupDescriptor) -> tuple[int, int]:
    """(rho1, d) with m_n(G) <= rho1 n^d + O(n^{d-1}) and >= rho1 n^d
    infinitely often."""
    if not isinstance(g, ZkByZ):
        raise ValueError("asymptotic_leading requires a ZkByZ descriptor")
    inv = module_invariants(g.module)
    if not inv.a:
        return (1, 0)
    return (inv.rho[0], inv.d)


def growth_table(g, n_max: int) -> GrowthReport:
    """Rows for every prime power n <= n_max, with group/module metadata.

    The fiber at each prime p <= n_max is reduced once, into the cached
    profile that the rows at p, p^2, ... and the growth type are read from.
    n_max is at most MAX_TABLE_N.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > MAX_TABLE_N:
        raise ValueError(f"n_max must be <= {MAX_TABLE_N}, got {n_max}")
    is_group = isinstance(g, GroupDescriptor)
    # first, so the profiles it reads at small primes are still cached when
    # the rows at those primes read them
    growth_type = growth_type_classify(g)
    rows = []
    for p in primes_up_to(n_max):
        profile = _profile(g, p) if is_group else prime_profile(g, p)
        n, k = p, 1
        while n <= n_max:
            count = _group_count(g, profile, k) if is_group else profile.count(k)
            mtriv, mnontriv = profile.split(k)
            rows.append(GrowthRow(n=n, p=p, k=k, count=count, mtriv=mtriv, mnontriv=mnontriv))
            n, k = n * p, k + 1
    rows.sort(key=lambda r: r.n)
    mdeg_val = mdeg(g) if is_group else None
    asym = asymptotic_leading(g) if isinstance(g, ZkByZ) else None
    return GrowthReport(rows=tuple(rows), mdeg=mdeg_val, asymptotic=asym, growth_type=growth_type)
