import itertools
import json
import math
import random
import time

import pytest

from growthlab import cli, groups, linalg, modules, poly
from growthlab.arith import primes_up_to
from growthlab.groups import (
    MdegValue,
    NilpotentGf,
    SemidirectFgAbelian,
    WreathCyclic,
    ZkByZ,
    asymptotic_leading,
    growth_table,
    max_subgroups,
    mdeg,
)
from growthlab.modules import MatrixAction, Presented


def _ma(k, actions, torsion=(), group_action=True):
    return MatrixAction(k=k, torsion=tuple(torsion), actions=tuple(
        tuple(tuple(r) for r in a) for a in actions
    ), group_action=group_action)


CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
I2 = [[1, 0], [0, 1]]


def test_wreath_values():
    g = WreathCyclic(3)
    # p=3: 4; p≡1 mod 3: 2p+1; p≡2 mod 3: 1 at p and p^2 at p^2; 0 elsewhere
    expected = {
        2: 1, 3: 4, 4: 4, 5: 1, 7: 15, 8: 0, 9: 0, 11: 1,
        25: 25, 27: 0, 121: 121, 31: 63, 13: 27,
    }
    for n, v in expected.items():
        assert max_subgroups(g, n) == v, n
    assert max_subgroups(g, 6) == 0
    # m_p = 2p + 1 at p = 1 mod 3, so the degree 1 is attained
    assert mdeg(g).value == 1
    assert mdeg(g).exactness == "exact"


def test_wreath_expand():
    g = WreathCyclic(3).expand()
    assert isinstance(g, SemidirectFgAbelian)
    assert g.module.k == 3
    assert g.acting_rank == 0 and g.acting_torsion == (3,)


def test_zk_by_z():
    g = ZkByZ(_ma(3, [CYCLE3]))
    assert max_subgroups(g, 7) == 22  # 1 + 7*3
    assert max_subgroups(g, 2) == 3  # 1 + 2*1
    assert max_subgroups(g, 4) == 4  # 0 + 4*1 (one F_4 point)
    m = mdeg(g)
    assert m.value == 1 and m.exactness == "exact"
    # N x| Z: the semidirect checks validate the module, the acting group is fixed
    assert isinstance(g, SemidirectFgAbelian) and (g.acting_rank, g.acting_torsion) == (1, ())
    assert "__post_init__" not in vars(ZkByZ)
    with pytest.raises(TypeError):
        ZkByZ(_ma(3, [CYCLE3]), 2)
    for module in (_ma(3, [CYCLE3, CYCLE3]), _ma(3, [CYCLE3], group_action=False)):
        with pytest.raises(ValueError):
            ZkByZ(module)


def test_zk_by_z_identity_vs_cycle():
    # finite-index contrast: Z^k x Z (trivial action) has mdeg k,
    # the k-cycle semidirect product has mdeg 1
    for k in (2, 3, 4):
        ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        cyc = [[1 if i == (j + 1) % k else 0 for j in range(k)] for i in range(k)]
        assert mdeg(ZkByZ(_ma(k, [ident]))).value == k
        assert mdeg(ZkByZ(_ma(k, [cyc]))).value == 1


def test_zk_by_z_consistency_random():
    # m_p(G) = 1 + p * m_p(N) for 10 random unimodular actions
    rng = random.Random(7)
    from growthlab.modules import count_max_submodules

    for _ in range(10):
        k = rng.randint(2, 3)
        A = _random_unimodular(rng, k)
        m = _ma(k, [A])
        g = ZkByZ(m)
        for p in (2, 3, 5, 7, 11):
            assert max_subgroups(g, p) == 1 + p * count_max_submodules(m, p)


def _random_unimodular(rng, n):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def test_asymptotic_leading():
    g = ZkByZ(_ma(3, [CYCLE3]))
    rho1, d = asymptotic_leading(g)
    assert (rho1, d) == (3, 1)
    ident = ZkByZ(_ma(2, [I2]))
    assert asymptotic_leading(ident) == (1, 2)


def test_semidirect_validation():
    # acting tuple length must match number of module actions
    with pytest.raises(ValueError):
        SemidirectFgAbelian(module=_ma(2, [I2]), acting_rank=0, acting_torsion=(3, 3))
    # torsion action must have the right order
    with pytest.raises(ValueError):
        SemidirectFgAbelian(
            module=_ma(3, [CYCLE3]), acting_rank=0, acting_torsion=(2,)
        )
    # this one is fine: 3-cycle has order 3
    SemidirectFgAbelian(module=_ma(3, [CYCLE3]), acting_rank=0, acting_torsion=(3,))


def test_nilpotent_gf():
    # Heisenberg: ell = 2, f_{12} = (1,)
    h = NilpotentGf(ell=2, f_vectors={(1, 2): (1,)})
    for p in (2, 3, 5, 7, 11):
        assert max_subgroups(h, p) == p + 1
    assert max_subgroups(h, 4) == 0
    assert max_subgroups(h, 6) == 0
    assert mdeg(h).value == 1
    # trivial f: mdeg = ell + C(ell,2) - 1
    for ell in (2, 3):
        triv = NilpotentGf(ell=ell, f_vectors={})
        assert mdeg(triv).value == ell + ell * (ell - 1) // 2 - 1


def _random_semidirect(rng):
    """A valid N x| A with torsion in N, two actions or a finite A: a
    unimodular free block with +-1 on the torsion diagonal, acting by Z, by
    Z^2 as (B, B^2) or by Z x Z/2 as (B, -I); or a cyclic permutation P of
    order m acting by Z/(c m) or by (Z/m)^2 as (P, P^2)."""
    if rng.random() < 0.6:
        k = rng.randint(0, 3)
        torsion = [rng.choice([2, 3, 4, 6, 9]) for _ in range(rng.randint(1 if k == 0 else 0, 2))]
        dim = k + len(torsion)
        B = _random_unimodular(rng, k) if k >= 2 else [[rng.choice([-1, 1])] for _ in range(k)]
        B = [row + [0] * len(torsion) for row in B]
        B += [[rng.randint(-3, 3) for _ in range(k)] + [rng.choice([-1, 1]) * (r == c) for c in range(len(torsion))]
              for r in range(len(torsion))]
        shape = rng.choice([(1, (), [B]), (2, (), [B, _mat_mul(B, B)]),
                            (1, (2,), [B, [[-(r == c) for c in range(dim)] for r in range(dim)]])])
        return SemidirectFgAbelian(_ma(k, shape[2], torsion), acting_rank=shape[0], acting_torsion=shape[1])
    k = rng.randint(2, 4)
    m = rng.randint(2, k)
    cycle = rng.sample(range(k), m)
    image = {c: cycle[(i + 1) % m] for i, c in enumerate(cycle)}
    P = [[int(image.get(c, c) == r) for c in range(k)] for r in range(k)]
    if rng.random() < 0.5:
        return SemidirectFgAbelian(_ma(k, [P]), acting_rank=0, acting_torsion=(m * rng.randint(1, 3),))
    return SemidirectFgAbelian(_ma(k, [P, _mat_mul(P, P)]), acting_rank=0, acting_torsion=(m, m))


# two 61-bit primes: 2^61 - 1 and the least prime above 2^60
BIG_PRIMES = (2 ** 61 - 1, 2 ** 60 + 33)


def _rank_deficient_semidirect(rng):
    """N x| Z^2 whose relations repeat: a free block B = diag(I_j, C), C
    unimodular, acting as (B, B) or as (I, B), so every column of the
    identity block of a_i - I is 0 and a_1 - I, a_2 - I share their rows."""
    j, c = rng.randint(1, 2), rng.randint(0, 2)
    C = _random_unimodular(rng, c) if c >= 2 else [[rng.choice([-1, 1])] for _ in range(c)]
    k = j + c
    B = [[int(r == col) if r < j or col < j else C[r - j][col - j] for col in range(k)] for r in range(k)]
    first = rng.choice([B, [[int(r == col) for col in range(k)] for r in range(k)]])
    return SemidirectFgAbelian(_ma(k, [first, B]), acting_rank=2, acting_torsion=())


def _wreaths_and_rank_deficient():
    """Z wr Z/m for m = 2..32 and 40 rank-deficient split extensions."""
    rng = random.Random(2929)
    return [WreathCyclic(m) for m in range(2, 33)] + [_rank_deficient_semidirect(rng) for _ in range(40)]


def test_hyperplane_rank_is_that_of_the_profile():
    # u_p from G/[G, G]'s relations against the F_p path: dim_Fp A/pA plus
    # t_p, the trivial rank of the fiber
    rng = random.Random(1313)
    for g in [_random_semidirect(rng) for _ in range(100)] + _wreaths_and_rank_deficient():
        for p in (2, 3, 5, 7, 1000003, 2 ** 31 - 1):
            acting = g.acting_rank + sum(1 for o in g.acting_torsion if o % p == 0)
            expected = acting + modules.prime_profile(g.module, p).trivial_rank
            assert groups._hyperplane_rank(g, p) == expected, (g, p)


def _random_nilpotent(rng):
    """A seeded G_f, ell = 2..5, on a random subset of the pairs, entries
    from {0, +-1, 2, +-3, 6, 10}, with one f vector a combination of two
    others (rank-deficient relations) or scaled by a 61-bit prime."""
    ell = rng.randint(2, 5)
    k = ell * (ell - 1) // 2
    pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
    f = {pair: [rng.choice([0, 0, 1, -1, 2, 3, -3, 6, 10]) for _ in range(k)]
         for pair in rng.sample(pairs, rng.randint(0, len(pairs)))}
    keys = list(f)
    if len(keys) >= 3 and rng.random() < 0.4:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        f[keys[0]] = [a * x + b * y for x, y in zip(f[keys[1]], f[keys[2]])]
    elif keys and rng.random() < 0.5:
        q = rng.choice(BIG_PRIMES)
        f[keys[0]] = [q * x for x in f[keys[0]]]
    return NilpotentGf(ell=ell, f_vectors=f)


def test_hyperplane_ranks_match_the_integer_smith_form():
    # u_p = gens less the invariant factors prime to p and u_Q = gens less
    # all of them, read off an integer Smith form of the same relations,
    # against the rank over Q and the minor D of one fraction-free elimination
    rng = random.Random(2930)
    cases = ([_random_semidirect(rng) for _ in range(300)] + _wreaths_and_rank_deficient()
             + [_random_nilpotent(rng) for _ in range(100)])
    primes = primes_up_to(200) + list(BIG_PRIMES)
    seen = {"p divides D": 0, "big p divides D": 0, "rank deficient": 0}
    for g in cases:
        gens, relations, r, D = groups._abelianization(g)
        d = linalg.smith_normal_form_int(relations, ncols=gens).diagonal
        assert r == len(d), g
        if isinstance(g, NilpotentGf):
            assert mdeg(g).value == gens - len(d) - 1, g
        seen["rank deficient"] += r < min(len(relations), gens)
        for p in primes:
            assert groups._hyperplane_rank(g, p) == gens - sum(1 for x in d if x % p), (g, p)
            seen["p divides D"] += D % p == 0
            seen["big p divides D"] += p in BIG_PRIMES and D % p == 0
    assert len(cases) >= 400 and min(seen.values()) >= 10, seen


def test_nilpotent_hyperplanes_by_brute_force():
    # Hom(G_f, Z/p): any images of x_1..x_ell, and z in F_p^C(ell,2) for the
    # center with f(i,j).z = 0 for every given pair; there are p^u_p of them
    rng = random.Random(1414)
    for _ in range(180):
        ell, p = rng.randint(2, 4), rng.choice([2, 3, 5])
        k = ell * (ell - 1) // 2
        pairs = [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]
        f = {pair: tuple(rng.choice([0, 1, -1, 2, p, 2 * p, 3 * p + 1]) for _ in range(k))
             for pair in rng.sample(pairs, rng.randint(0, len(pairs)))}
        g = NilpotentGf(ell=ell, f_vectors=f)
        kernel = sum(
            1 for z in itertools.product(range(p), repeat=k)
            if all(sum(a * b for a, b in zip(vec, z)) % p == 0 for vec in f.values())
        )
        assert 1 + (p - 1) * max_subgroups(g, p) == p ** ell * kernel, (f, p)


def test_nilpotent_table_takes_one_fraction_free_elimination(monkeypatch):
    # G/[G, G] is read off one _bareiss; an F_p rank is taken only at the
    # primes that divide its minor D, once each, and no Smith form at all
    eliminations, ranks = [], []
    bareiss, field_rank = groups._bareiss, groups.rank

    def counted_bareiss(A, ncols):
        eliminations.append(bareiss(A, ncols))
        return eliminations[-1]

    def counted_rank(F, rows, ncols=None):
        ranks.append(F.p)
        return field_rank(F, rows, ncols)

    def refused(*args, **kwargs):
        raise AssertionError("refused work was done")

    assert not hasattr(groups, "smith_normal_form_int")
    monkeypatch.setattr(groups, "_bareiss", counted_bareiss)
    monkeypatch.setattr(groups, "rank", counted_rank)
    for namespace in (linalg, modules):
        monkeypatch.setattr(namespace, "rank", refused)
        monkeypatch.setattr(namespace, "smith_normal_form_int", refused)
    groups._abelianization.cache_clear()
    groups._hyperplane_rank.cache_clear()
    g = cli.parse_spec({"type": "nilpotent_gf", "ell": 4, "f": {"1,2": [1, 2, 0, 0, 3, 0], "2,3": [0, 0, 4, 0, 0, 6]}})
    rep = growth_table(g, 200)
    assert len(eliminations) == 1 and abs(eliminations[0][1]) == 4
    assert ranks == [p for p in primes_up_to(200) if eliminations[0][1] % p == 0] == [2]
    assert rep.mdeg.value == 7


def test_dense_nilpotent_table_meets_its_budget():
    # every pair given, entries -3..3 from random.Random(ell): G/[G, G] has
    # 105 relations in 120 generators at ell = 15.  The integer Smith form
    # took 1.2-1.7 s and the elimination 0.18-0.37 s (Python 3.11, shared
    # 2-vCPU VM), so the budget is about three times the latter
    ell = 15
    rng = random.Random(ell)
    k = ell * (ell - 1) // 2
    f = {f"{i},{j}": [rng.randint(-3, 3) for _ in range(k)] for i in range(1, ell + 1) for j in range(i + 1, ell + 1)}
    g = cli.parse_spec({"type": "nilpotent_gf", "ell": ell, "f": f})
    groups._abelianization.cache_clear()
    groups._hyperplane_rank.cache_clear()
    start = time.perf_counter()
    rep = growth_table(g, 200)
    assert time.perf_counter() - start < 1.0
    assert rep.mdeg.value == 14


def test_growth_table():
    g = WreathCyclic(3)
    rep = growth_table(g, 10)
    rows = {r.n: r for r in rep.rows}
    assert set(rows) == {2, 3, 4, 5, 7, 8, 9}
    assert rows[7].count == 15
    assert rows[7].mtriv == 1 and rows[7].mnontriv == 2
    assert rep.mdeg.value == 1


def test_growth_table_module():
    m = Presented(gens=1, relations=(((0,),),))
    rep = growth_table(m, 5)
    rows = {r.n: r.count for r in rep.rows}
    assert rows == {2: 2, 3: 3, 4: 1, 5: 5}
    assert rep.growth_type is not None
    assert str(rep.growth_type) == "n^1"


def test_growth_table_z2():
    # Z^2 with x acting as zero: relations x*e1, x*e2
    m = Presented(gens=2, relations=(((0, 1), (0,)), ((0,), (0, 1))))
    rep = growth_table(m, 5)
    rows = {r.n: r.count for r in rep.rows}
    assert rows[2] == 3 and rows[3] == 4 and rows[4] == 0 and rows[5] == 6


# xI - A has G_(r-1) divisible by 2 and 3, both <= B = 5, so its growth
# type reads the free rank at p = 2 and 3; relation j is column j
JUMP_PRIMES_A = [[2, 2, 2, 2, -2], [-1, -1, 2, -2, 0], [-3, -3, 3, 0, 2], [2, -3, 0, -1, 1], [2, 1, -2, 0, 1]]
JUMP_PRIMES_RELATIONS = [
    ["x - 2", "1", "3", "-2", "-2"], ["-2", "x + 1", "3", "3", "-1"], ["-2", "-2", "x - 3", "0", "2"],
    ["-2", "2", "0", "x + 1", "0"], ["2", "0", "-2", "-1", "x - 1"],
]


@pytest.mark.parametrize(
    "g",
    [
        WreathCyclic(9),
        # Z[x]/(x^2 - 1) (+) Z[x]: free rank 1
        Presented(gens=2, relations=(((-1, 0, 1),), ((0,),))),
        # the growth type's jump primes read the table's profiles, keyed on
        # the descriptor as given in either form
        cli.parse_spec({"type": "module_presented", "gens": 5, "relations": JUMP_PRIMES_RELATIONS}),
        cli.parse_spec({"type": "module_matrix", "actions": [JUMP_PRIMES_A]}),
    ],
)
def test_growth_table_reduces_each_fiber_once(monkeypatch, g):
    reduced = []
    fiber_mod_p = modules.fiber_mod_p

    def counted(m, p):
        reduced.append(p)
        return fiber_mod_p(m, p)

    def refused(n):
        raise AssertionError(f"growth_table decomposed {n}")

    monkeypatch.setattr(modules, "fiber_mod_p", counted)
    for namespace in (groups, modules):
        monkeypatch.setattr(namespace, "prime_power_decompose", refused)
    modules.prime_profile.cache_clear()
    rep = growth_table(g, 200)
    assert len(reduced) == 46 and reduced == primes_up_to(200)  # one reduction per prime
    assert [r.n for r in rep.rows] == sorted(p ** k for p in reduced for k in range(1, 8) if p ** k <= 200)


def test_growth_type_reads_its_profiles_before_the_cache_evicts_them(monkeypatch):
    # 303 primes <= 2000 is past the 256 profiles the cache keeps, so the
    # growth type is classified first, while its profiles at 2 and 3 are
    # the newest
    reduced = []
    fiber_mod_p = modules.fiber_mod_p

    def counted(m, p):
        reduced.append(p)
        return fiber_mod_p(m, p)

    monkeypatch.setattr(modules, "fiber_mod_p", counted)
    modules.prime_profile.cache_clear()
    growth_table(cli.parse_spec({"type": "module_matrix", "actions": [JUMP_PRIMES_A]}), 2000)
    assert sorted(reduced) == primes_up_to(2000) and len(reduced) == 303


def test_joint_spectrum_factors_each_min_poly_once(monkeypatch):
    # one factorization per generator of a component until one splits, plus
    # one per Frobenius-fixed element tried; a leaf reuses its generators'.
    # A one-action table no longer calls joint_spectrum, so it is called
    # here on the 46 fibers of Z wr Z/9 at p <= 200
    factored = []
    factor_mod_p = modules.factor_mod_p

    def counted(f, p):
        factored.append(p)
        return factor_mod_p(f, p)

    monkeypatch.setattr(modules, "factor_mod_p", counted)
    modules.joint_spectrum.cache_clear()
    module = WreathCyclic(9).module
    for p in primes_up_to(200):
        modules.joint_spectrum(modules.fiber_mod_p(module, p))
    assert len(factored) == 269


def test_one_action_table_reads_invariant_factors(monkeypatch):
    # one distinct-degree factorization per prime, of rad(b_t) only: no
    # factorization, no equal-degree splitting and no fiber algebra
    calls = {"ddf": [], "factor": [], "split": [], "spectrum": []}

    def counted(name, fn, key):
        def wrapper(*args):
            calls[name].append(key(*args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(modules, "distinct_degree_factorization", counted(
        "ddf", modules.distinct_degree_factorization, lambda F, f: F.p))
    monkeypatch.setattr(modules, "factor_mod_p", counted(
        "factor", modules.factor_mod_p, lambda f, p: p))
    monkeypatch.setattr(poly, "_equal_degree_split", counted(
        "split", poly._equal_degree_split, lambda F, g, d, rng: F.p))
    monkeypatch.setattr(modules, "joint_spectrum", counted(
        "spectrum", modules.joint_spectrum, lambda fiber: fiber.p))
    modules.prime_profile.cache_clear()
    growth_table(WreathCyclic(9), 200)
    assert calls["ddf"] == primes_up_to(200) and len(calls["ddf"]) == 46
    assert calls["factor"] == calls["split"] == calls["spectrum"] == []


def _euler_phi(d):
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def _multiplicative_order(p, d):
    k, power = 1, p % d
    while power != 1 % d:
        k, power = k + 1, power * p % d
    return k


@pytest.mark.parametrize("m", [*range(2, 13), 16, 27, 32])
def test_wreath_closed_form(m):
    # Z wr Z/m: write m = m' p^a with p not dividing m'.  Mod p, x^m - 1 is
    # (x^m' - 1)^(p^a), whose irreducible factors of degree k number
    # N_k = sum of phi(d)/k over d | m' with ord_d(p) = k.  At n = p, x - 1
    # gives the one trivial quotient, and Hom(Z/m, F_p) has h = p^[p | m]
    # elements: count = [p | m] + h + p (N_1 - 1).  At n = p^k, k >= 2,
    # count = n N_k.
    rows = growth_table(WreathCyclic(m), 100).rows
    assert len(rows) == 35
    for row in rows:
        p, k = row.p, row.k
        m_prime = m
        while m_prime % p == 0:
            m_prime //= p
        n_k = sum(
            _euler_phi(d) // k
            for d in range(1, m_prime + 1)
            if m_prime % d == 0 and _multiplicative_order(p, d) == k
        )
        if k == 1:
            divides = int(m % p == 0)
            expected = (p, 1, p, divides + (p if divides else 1) + p * (n_k - 1), 1, n_k - 1)
        else:
            expected = (p ** k, k, p, p ** k * n_k, 0, n_k)
        assert (row.n, row.k, row.p, row.count, row.mtriv, row.mnontriv) == expected, (m, row)


def _block_diag(A, B):
    n, m = len(A), len(B)
    return [list(r) + [0] * m for r in A] + [[0] * n + list(r) for r in B]


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _unimodular_pair(rng, k):
    """(U, U^-1) for a product of ten seeded elementary row operations."""
    U = [[int(r == c) for c in range(k)] for r in range(k)]
    V = [row[:] for row in U]
    for _ in range(10):
        i, j = rng.sample(range(k), 2)
        c = rng.choice([-2, -1, 1, 2])
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in V:
            row[j] -= c * row[i]
    return U, V


def _cycle(m, power=1):
    return [[int(r == (c + power) % m) for c in range(m)] for r in range(m)]


# companion(x^2 - 3x + 1) (+) companion(x^2 - 33x + 1), and two blocks with
# charpolys x^2 - 6x + 1 and x^2 + 4x + 1
PAIR_A = _block_diag([[0, -1], [1, 3]], [[0, -1], [1, 33]])
PAIR_B = _block_diag([[1, 1], [4, 5]], [[-5, 1], [-6, 1]])
UNIPOTENTS = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]]]
C = [[0, -1], [1, -1]]  # companion of x^2 + x + 1, order 3
C_SQUARED = [[-1, 1], [-1, 0]]


def test_mdeg_two_actions_exact():
    # s = 2 at p = 2, 3, 5 only for PAIR_A, and at some small primes for
    # PAIR_B: the generic multiplicity is 1
    for M in (PAIR_A, PAIR_B):
        g = SemidirectFgAbelian(_ma(4, [M, M]), acting_rank=2, acting_torsion=())
        assert mdeg(g) == MdegValue(value=1, provenance="exact-theorem", exactness="exact")
    # the trivial top has dimension t = 2 (not the 1-dimensional common fixed
    # space): rows p^3 + p^2 + p + 1, degree r + t - 1 = 3
    g = SemidirectFgAbelian(_ma(3, UNIPOTENTS), acting_rank=2, acting_torsion=())
    assert mdeg(g).value == 3
    assert max_subgroups(g, 29) == 29 ** 3 + 29 ** 2 + 29 + 1 == 25260


def test_mdeg_finite_acting_group():
    # max(t - 1, d_nt): C (+) C has no trivial quotient and x^2 + x + 1
    # twice, so m_p = 2p(p + 1) at p = 1 mod 3
    g = SemidirectFgAbelian(_ma(4, [_block_diag(C, C)]), acting_rank=0, acting_torsion=(3,))
    assert mdeg(g).value == 2
    assert max_subgroups(g, 31) == 2 * 31 * 32
    # I_3 (+) C: three trivial quotients, so p^2 + p + 1 at p = 2 mod 3
    g = SemidirectFgAbelian(_ma(5, [_block_diag([[1, 0, 0], [0, 1, 0], [0, 0, 1]], C)]), 0, (3,))
    assert mdeg(g).value == 2
    assert max_subgroups(g, 29) == 29 ** 2 + 29 + 1


def test_mdeg_is_metamorphic():
    rng = random.Random(5)
    # a further torsion generator acting as A or A^2, of the same order,
    # generates no new algebra: the one-action and two-action paths agree
    for m in (3, 4, 6, 8, 12):
        want = mdeg(WreathCyclic(m)).value
        for power in (1, 2):
            g = SemidirectFgAbelian(_ma(m, [_cycle(m), _cycle(m, power)]), 0, (m, m))
            assert mdeg(g).value == want, (m, power)
    # conjugating every action by a unimodular matrix changes nothing
    shapes = [
        (UNIPOTENTS, 2, ()), ([PAIR_A, PAIR_A], 2, ()), ([PAIR_B, PAIR_B], 2, ()),
        ([_block_diag(I2, C), _block_diag(I2, C_SQUARED)], 0, (3, 3)),
        ([_block_diag(I2, C), _block_diag(I2, C_SQUARED)], 2, ()),
        ([_cycle(4), _cycle(4, 2)], 1, (2,)),
    ]
    for actions, rank, torsion in shapes:
        k = len(actions[0])
        want = mdeg(SemidirectFgAbelian(_ma(k, actions), rank, torsion)).value
        U, V = _unimodular_pair(rng, k)
        conjugated = [_mat_mul(_mat_mul(U, A), V) for A in actions]
        assert mdeg(SemidirectFgAbelian(_ma(k, conjugated), rank, torsion)).value == want


# zk_by_z specs: the 3-cycle, a rotation of order 4, a hyperbolic matrix, a
# Jordan block, the identity, and an action on Z^2 (+) Z/5; then seeded
# unimodular matrices
ZK_SPECS = [
    {"matrix": CYCLE3},
    {"matrix": [[0, -1], [1, 0]]},
    {"matrix": [[2, 1], [1, 1]]},
    {"matrix": [[1, 1], [0, 1]]},
    {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"matrix": [[0, -1, 0], [1, 0, 0], [0, 0, 2]], "torsion": [5]},
] + [{"matrix": _random_unimodular(random.Random(seed), 2 + seed % 3)} for seed in range(6)]


@pytest.mark.parametrize("spec", ZK_SPECS)
def test_zk_by_z_is_semidirect_of_acting_rank_one(spec, tmp_path, capsys):
    # Z^k x|_A Z is N x| A with A = Z: the same counts, mdeg and table rows
    matrix, torsion = spec["matrix"], spec.get("torsion", [])
    module = _ma(len(matrix) - len(torsion), [matrix], torsion)
    zk, semi = ZkByZ(module), SemidirectFgAbelian(module, 1, ())
    p = 2 ** 31 - 1
    for n in [*range(2, 201), p, p * p]:
        assert max_subgroups(zk, n) == max_subgroups(semi, n), n
    assert mdeg(zk) == mdeg(semi)
    tables = []
    for doc in ({"type": "zk_by_z", **spec}, {"type": "semidirect", "actions": [matrix], "torsion": torsion, "acting_rank": 1}):
        path = tmp_path / f"{doc['type']}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["table", str(path), "--max-n", "200"]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("m", [2, 3, 9, 32])
def test_wreath_is_semidirect_of_a_cyclic_group(m, tmp_path, capsys):
    # Z wr Z/m is N x| A with N = Z^m under the m-cycle and A = Z/m: the
    # same fields, counts, mdeg and table bytes as that group built by hand
    cycle = _cycle(m)
    wreath, semi = WreathCyclic(m), SemidirectFgAbelian(_ma(m, [cycle]), 0, (m,))
    assert isinstance(wreath, SemidirectFgAbelian) and wreath.m == m
    assert wreath._asdict() == semi._asdict()
    p = 2 ** 31 - 1
    for n in [*range(2, 201), p, p * p]:
        assert max_subgroups(wreath, n) == max_subgroups(semi, n), n
    assert mdeg(wreath) == mdeg(semi)
    tables = []
    for doc in ({"type": "wreath_cyclic", "m": m}, {"type": "semidirect", "actions": [cycle], "acting_rank": 0, "acting_torsion": [m]}):
        path = tmp_path / f"{doc['type']}.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["table", str(path), "--max-n", "200"]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_no_reader_expands_a_wreath(monkeypatch, tmp_path, capsys):
    # a WreathCyclic is read as the SemidirectFgAbelian it is
    expanded = []

    def refuse(self):
        expanded.append(self.m)
        raise RuntimeError("WreathCyclic.expand called")

    monkeypatch.setattr(WreathCyclic, "expand", refuse)
    g = WreathCyclic(9)
    assert len(growth_table(g, 50).rows) == 23
    assert max_subgroups(g, 19) == 1 + 19 * 8  # x^9 - 1 splits mod 19
    assert mdeg(g).value == 1
    path = tmp_path / "wreath.json"
    path.write_text(json.dumps({"type": "wreath_cyclic", "m": 9}))
    assert cli.main(["check", str(path), "--max-n", "20"]) == 4
    assert capsys.readouterr().err == "nothing verified: every n was skipped\n"
    assert expanded == []
