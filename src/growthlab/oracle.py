"""Brute-force verifiers, independent of the counting formulas.

Everything here enumerates: subspaces of F_p^dim by echelon forms,
derivations by trying every map, subgroups of small finite groups by
closure.  Used in tests and the `check` CLI command only; each oracle
refuses inputs beyond its stated bound instead of approximating.
"""

from __future__ import annotations

import functools
import itertools

from .arith import prime_power_decompose
from .modules import FiberModule
from .poly import PrimeField

SUBSPACE_STATE_BOUND = 81  # p ** dim
DER_SEARCH_BOUND = 10 ** 6  # |S| ** generators
GROUP_ORDER_BOUND = 2000


class OracleBoundError(ValueError):
    """Raised when an instance exceeds the oracle's enumeration bound."""


# -- subspaces ------------------------------------------------------------------


def enumerate_subspaces(p: int, dim: int):
    """All subspaces of F_p^dim, one reduced-echelon basis per subspace."""
    for r in range(dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free_pos = [
                (i, c)
                for i in range(r)
                for c in range(pivots[i] + 1, dim)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_pos)):
                basis = [[0] * dim for _ in range(r)]
                for i in range(r):
                    basis[i][pivots[i]] = 1
                for (i, c), v in zip(free_pos, values):
                    basis[i][c] = v
                yield tuple(tuple(row) for row in basis)


def galois_number(dim: int, p: int) -> int:
    """Total number of subspaces of F_p^dim (sum of Gaussian binomials)."""
    total = 0
    for r in range(dim + 1):
        num = den = 1
        for i in range(r):
            num *= p ** dim - p ** i
            den *= p ** r - p ** i
        total += num // den
    return total


def _span(p: int, basis, dim: int) -> frozenset:
    vecs = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * dim
        for c, b in zip(coeffs, basis):
            for i in range(dim):
                v[i] = (v[i] + c * b[i]) % p
        vecs.add(tuple(v))
    return frozenset(vecs)


def oracle_count_max_submodules(fiber: FiberModule, n: int) -> int:
    """Count maximal invariant subspaces of index n of fiber =
    fiber_mod_p(m, p), m a MatrixAction, by full enumeration."""
    p, dim = fiber.p, fiber.dim
    if p ** dim > SUBSPACE_STATE_BOUND:
        raise OracleBoundError(
            f"p^dim = {p ** dim} exceeds the subspace bound {SUBSPACE_STATE_BOUND}"
        )
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    F = PrimeField(p)
    invariant = []  # (r, span-set)
    for basis in enumerate_subspaces(p, dim):
        ok = True
        span = _span(p, basis, dim)
        for M in fiber.actions:
            for b in basis:
                img = tuple(
                    sum(M[i][j] * b[j] for j in range(dim)) % p for i in range(dim)
                )
                if img not in span:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            invariant.append((len(basis), span))
    count = 0
    for r, span in invariant:
        if r == dim or p ** (dim - r) != n:
            continue
        maximal = not any(
            r < r2 < dim and span < span2 for r2, span2 in invariant
        )
        if maximal:
            count += 1
    return count


# -- derivations ---------------------------------------------------------------


def oracle_der_count(acting_rank, acting_torsion, p, dim, matrices) -> int:
    """|Der(A, S)| by enumerating every map from the generators to S.

    A is f.g. abelian with `acting_rank` free generators followed by
    generators of the orders in `acting_torsion`; `matrices` gives the action
    of each generator on S = F_p^dim.
    """
    gens = acting_rank + len(acting_torsion)
    if gens != len(matrices):
        raise ValueError("one action matrix per acting generator required")
    size = p ** dim
    if size ** gens > DER_SEARCH_BOUND:
        raise OracleBoundError(
            f"|S|^gens = {size ** gens} exceeds the search bound {DER_SEARCH_BOUND}"
        )

    def apply(M, v):
        return tuple(
            sum(M[i][j] * v[j] for j in range(dim)) % p for i in range(dim)
        )

    def sub(u, v):
        return tuple((a - b) % p for a, b in zip(u, v))

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    vectors = list(itertools.product(range(p), repeat=dim))
    zero = (0,) * dim
    count = 0
    for delta in itertools.product(vectors, repeat=gens):
        ok = True
        for i in range(gens):
            for j in range(i + 1, gens):
                lhs = sub(delta[j], apply(matrices[i], delta[j]))
                rhs = sub(delta[i], apply(matrices[j], delta[i]))
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            # telescoped relation: (1 + x + ... + x^{order-1}) delta(x) = 0
            for t, order in enumerate(acting_torsion):
                g = acting_rank + t
                acc = zero
                w = delta[g]
                for _ in range(order):
                    acc = add(acc, w)
                    w = apply(matrices[g], w)
                if acc != zero:
                    ok = False
                    break
        if ok:
            count += 1
    return count


# -- finite groups --------------------------------------------------------------


def oracle_finite_group_max_subgroups(m, k, q, action, n) -> int:
    """Maximal subgroups of index n in (Z/m)^k x| Z/q, action by `action` mod m.

    Exhaustive: every subgroup J is classified by W = J intersect N (a
    subgroup of N = (Z/m)^k) and, when the image of J in Z/q is nontrivial,
    a coset representative; all choices are enumerated and maximality is
    decided by pairwise containment.
    """
    counts = _maximal_index_counts(m, k, q, tuple(tuple(r) for r in action))
    return counts.get(n, 0)


def _abelian_subgroups(m, k):
    """All subgroups of (Z/m)^k as frozensets of vectors."""
    vectors = list(itertools.product(range(m), repeat=k))
    pp = prime_power_decompose(m) if m >= 2 else None
    if pp is not None and pp.k == 1:
        # elementary abelian: subgroups = subspaces
        out = []
        for basis in enumerate_subspaces(m, k):
            out.append(_span(m, basis, k))
        return out
    # general m: close cyclic subgroups under iterated joins (N is abelian
    # and small, so no blow-up control is needed)
    def cyc(v):
        out = set()
        w = (0,) * k
        while True:
            out.add(w)
            w = tuple((a + b) % m for a, b in zip(w, v))
            if w in out:
                return frozenset(out)

    cyclics = {cyc(v) for v in vectors}
    subs = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for W in frontier:
            for C in cyclics:
                if C <= W:
                    continue
                gen = set(W)
                work = list(C - W)
                while work:
                    u = work.pop()
                    if u in gen:
                        continue
                    fresh = {tuple((a + b) % m for a, b in zip(u, w)) for w in gen}
                    gen.add(u)
                    work.extend(x for x in fresh if x not in gen)
                    gen.update(fresh)
                J = frozenset(gen)
                if J not in subs:
                    subs.add(J)
                    new.add(J)
        frontier = new
    return list(subs)


@functools.lru_cache(maxsize=None)
def _maximal_index_counts(m, k, q, action) -> dict:
    order = m ** k * q
    if order > GROUP_ORDER_BOUND:
        raise OracleBoundError(
            f"group order {order} exceeds the bound {GROUP_ORDER_BOUND}"
        )
    # powers of the action matrix mod m
    powers = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for _ in range(q - 1):
        prev = powers[-1]
        powers.append(
            [
                [
                    sum(action[i][t] * prev[t][j] for t in range(k)) % m
                    for j in range(k)
                ]
                for i in range(k)
            ]
        )
    chk = [
        [sum(action[i][t] * powers[q - 1][t][j] for t in range(k)) % m for j in range(k)]
        for i in range(k)
    ]
    if chk != powers[0]:
        raise ValueError("action matrix order does not divide q")

    def apply(M, v):
        return tuple(sum(M[i][j] * v[j] for j in range(k)) % m for i in range(k))

    def vadd(u, v):
        return tuple((a + b) % m for a, b in zip(u, v))

    subs_n = _abelian_subgroups(m, k)
    vectors = list(itertools.product(range(m), repeat=k))
    subgroups = []  # frozensets of (vector, a) pairs
    for W in subs_n:
        subgroups.append(frozenset((w, 0) for w in W))
    for d in range(1, q):
        if q % d:
            continue
        t = q // d
        Ad = powers[d]
        for W in subs_n:
            if any(apply(Ad, w) not in W for w in W):
                continue
            seen = set()
            for u in vectors:
                coset = frozenset(vadd(u, w) for w in W)
                key = min(coset)
                if key in seen:
                    continue
                seen.add(key)
                # reps[j-1] is the layer-j representative u_j, with
                # u_1 = u, u_{j+1} = u + A^d u_j; closure needs u_t in W
                cur = u
                reps = []
                for _ in range(t):
                    reps.append(cur)
                    cur = vadd(u, apply(Ad, cur))
                if reps[-1] not in W:
                    continue
                elems = set()
                elems.update((w, 0) for w in W)
                for j, r in enumerate(reps[:-1], start=1):
                    elems.update((vadd(r, w), (j * d) % q) for w in W)
                subgroups.append(frozenset(elems))
    counts: dict[int, int] = {}
    for H in subgroups:
        if len(H) == order:
            continue
        if not any(H < K and len(K) < order for K in subgroups):
            idx = order // len(H)
            counts[idx] = counts.get(idx, 0) + 1
    return counts
