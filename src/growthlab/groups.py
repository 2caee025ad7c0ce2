"""Group-level maximal subgroup growth for metabelian shapes.

Supported shapes: Z^k-by-Z split extensions (ZkByZ), split extensions of a
module by a f.g. abelian group (SemidirectFgAbelian), wreath products
Z wr Z/mZ (sugar for a semidirect descriptor), and the nilpotent groups G_f
defined by commutator relations [x_i, x_j] = f(i,j) in a central free
abelian part.

Counting reduces to the module engine: a maximal subgroup of index n either
contains the module N (counted in the acting group) or meets it in a maximal
submodule, and the number of subgroups over a fixed maximal submodule is a
derivation count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arith import is_prime, prime_power_decompose
from .linalg import rank as mat_rank
from .modules import (
    MatrixAction,
    ModuleDescriptor,
    ModuleInvariants,
    Presented,
    GrowthType,
    count_max_submodules,
    growth_type_classify,
    module_invariants,
    split_triv_nontriv,
)
from .poly import QQ, PrimeField


def _pairs(ell):
    return list(itertools.combinations(range(1, ell + 1), 2))


@dataclass(frozen=True)
class ZkByZ:
    """Z^k (+) torsion, extended by Z acting through one automorphism."""

    module: MatrixAction

    def __post_init__(self):
        if not isinstance(self.module, MatrixAction):
            raise ValueError("ZkByZ requires a MatrixAction module")
        if self.module.ell != 1:
            raise ValueError("ZkByZ module must have exactly one action")
        if not self.module.group_action:
            raise ValueError("ZkByZ action must be a group action (invertible)")


@dataclass(frozen=True)
class SemidirectFgAbelian:
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
        for i, order in enumerate(self.acting_torsion):
            a = self.module.actions[self.acting_rank + i]
            if not self._is_identity_endo(_int_pow(a, order)):
                raise ValueError(
                    f"acting torsion generator {i} has order {order} but its "
                    "action matrix does not"
                )

    def _is_identity_endo(self, m):
        k = self.module.k
        tors = self.module.torsion
        dim = k + len(tors)
        for r in range(dim):
            for c in range(dim):
                want = 1 if r == c else 0
                diff = m[r][c] - want
                if r < k:
                    if diff != 0:
                        return False
                elif diff % tors[r - k]:
                    return False
        return True


def _int_pow(a, e):
    n = len(a)
    out = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    base = tuple(tuple(row) for row in a)
    while e:
        if e & 1:
            out = tuple(
                tuple(sum(out[i][t] * base[t][j] for t in range(n)) for j in range(n))
                for i in range(n)
            )
        base = tuple(
            tuple(sum(base[i][t] * base[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
        e >>= 1
    return out


@dataclass(frozen=True)
class WreathCyclic:
    """Z wr Z/mZ: the module Z^m with the m-cycle coordinate permutation,
    acted on by the cyclic group of order m."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("wreath order m must be >= 2")

    def expand(self) -> SemidirectFgAbelian:
        m = self.m
        perm = tuple(
            tuple(1 if r == (c + 1) % m else 0 for c in range(m)) for r in range(m)
        )
        module = MatrixAction(k=m, torsion=(), actions=(perm,), group_action=True)
        return SemidirectFgAbelian(
            module=module, acting_rank=0, acting_torsion=(m,)
        )


@dataclass(frozen=True)
class NilpotentGf:
    """Nilpotent group on x_1..x_ell with center Z^k, k = C(ell,2), and
    relations [x_i, x_j] = f(i,j) in the center."""

    ell: int
    f_vectors: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError("ell must be >= 2")
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

    def f_matrix(self):
        lookup = dict(self.f_vectors)
        return [list(lookup.get(pair, (0,) * self.k)) for pair in _pairs(self.ell)]


GroupDescriptor = ZkByZ | SemidirectFgAbelian | WreathCyclic | NilpotentGf


@dataclass(frozen=True)
class MdegValue:
    value: int
    provenance: str  # "exact-theorem" | "window-stabilized"
    exactness: str  # "exact" | "upper-bound"


@dataclass(frozen=True)
class GrowthRow:
    n: int
    p: int
    k: int
    count: int
    mtriv: int
    mnontriv: int
    exact: bool


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]
    mdeg: MdegValue | None
    asymptotic: tuple[int, int] | None  # (rho1, d)
    growth_type: GrowthType | None
    exactness: str


def der_count(acting_rank: int, acting_torsion, s_size: int, trivial: bool) -> int:
    """|Der(A, S)| for f.g. abelian A acting on a simple module S.

    Trivial action: Der = Hom(A, S), forcing |S| prime; otherwise |S|.
    """
    if trivial:
        if not is_prime(s_size):
            raise ValueError("trivial action on a simple module forces prime order")
        p = s_size
        r_p = acting_rank + sum(1 for t in acting_torsion if t % p == 0)
        return p ** r_p
    return s_size


def max_subgroups(g: GroupDescriptor, n: int) -> int:
    """Number of maximal subgroups of index n (0 off prime powers)."""
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    pp = prime_power_decompose(n)
    if pp is None:
        return 0
    if isinstance(g, WreathCyclic):
        g = g.expand()
    if isinstance(g, ZkByZ):
        return (1 if pp.k == 1 else 0) + n * count_max_submodules(g.module, n)
    if isinstance(g, SemidirectFgAbelian):
        mtriv, mnontriv = split_triv_nontriv(g.module, n)
        if pp.k == 1:
            p = pp.p
            hom = der_count(g.acting_rank, g.acting_torsion, p, trivial=True)
            m_acting = (hom - 1) // (p - 1)
            return m_acting + hom * mtriv + p * mnontriv
        return n * mnontriv
    if isinstance(g, NilpotentGf):
        if pp.k != 1:
            return 0
        p = pp.p
        F = PrimeField(p)
        fm = [[F.from_int(x) for x in row] for row in g.f_matrix()]
        u = g.ell + g.k - mat_rank(F, fm, g.k)
        return (p ** u - 1) // (p - 1)
    raise ValueError(f"unsupported descriptor {type(g).__name__}")


def mdeg(g: GroupDescriptor, window: int = 3) -> MdegValue:
    """Degree of polynomial growth of n -> max_subgroups(g, n)."""
    if isinstance(g, WreathCyclic):
        g = g.expand()
    if isinstance(g, ZkByZ):
        inv = module_invariants(g.module, window)
        return MdegValue(value=inv.d, provenance="exact-theorem", exactness="exact")
    if isinstance(g, SemidirectFgAbelian):
        inv = module_invariants(g.module, window)
        prov = "exact-theorem" if inv.provenance == "exact" else "window-stabilized"
        ell = g.acting_rank
        if ell >= 1:
            return MdegValue(
                value=max(ell + inv.t - 1, inv.d), provenance=prov, exactness="exact"
            )
        # finite acting group: the true value is this bound or one less
        return MdegValue(
            value=max(inv.t - 1, inv.d), provenance=prov, exactness="upper-bound"
        )
    if isinstance(g, NilpotentGf):
        fm = [[QQ.from_int(x) for x in row] for row in g.f_matrix()]
        r = g.ell + g.k - mat_rank(QQ, fm, g.k)
        return MdegValue(value=r - 1, provenance="exact-theorem", exactness="exact")
    raise ValueError(f"unsupported descriptor {type(g).__name__}")


def asymptotic_leading(g: GroupDescriptor) -> tuple[int, int]:
    """(rho1, d) with m_n(G) <= rho1 n^d + O(n^{d-1}) and >= rho1 n^d
    infinitely often."""
    if not isinstance(g, ZkByZ):
        raise ValueError("asymptotic_leading requires a ZkByZ descriptor")
    inv = module_invariants(g.module)
    if not inv.a:
        return (1, 0)
    return (inv.rho[0], inv.d)


def growth_table(g, n_max: int, window: int = 3) -> GrowthReport:
    """Rows for every prime power n <= n_max, with group/module metadata."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    is_group = isinstance(g, (ZkByZ, SemidirectFgAbelian, WreathCyclic, NilpotentGf))
    expanded = g.expand() if isinstance(g, WreathCyclic) else g
    rows = []
    for n in range(2, n_max + 1):
        pp = prime_power_decompose(n)
        if pp is None:
            continue
        if is_group:
            count = max_subgroups(expanded, n)
            if isinstance(expanded, NilpotentGf):
                mtriv, mnontriv = count, 0
            else:
                mtriv, mnontriv = split_triv_nontriv(expanded.module, n)
        else:
            count = count_max_submodules(g, n)
            mtriv, mnontriv = split_triv_nontriv(g, n)
        rows.append(
            GrowthRow(
                n=n, p=pp.p, k=pp.k, count=count,
                mtriv=mtriv, mnontriv=mnontriv, exact=True,
            )
        )
    mdeg_val = mdeg(expanded, window) if is_group else None
    asym = asymptotic_leading(expanded) if isinstance(expanded, ZkByZ) else None
    gtype = growth_type_classify(g) if isinstance(g, Presented) else None
    exactness = mdeg_val.exactness if mdeg_val else "exact"
    return GrowthReport(
        rows=tuple(rows),
        mdeg=mdeg_val,
        asymptotic=asym,
        growth_type=gtype,
        exactness=exactness,
    )
