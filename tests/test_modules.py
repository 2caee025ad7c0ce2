import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from growthlab import modules, poly
from growthlab.arith import PrimePowerIndex, is_prime
from growthlab.linalg import det_int_poly, rank, smith_normal_form_poly
from growthlab.modules import (
    FiberModule,
    MatrixAction,
    Presented,
    PresentedFiber,
    PrimeProfile,
    SpectrumEntry,
    _chain_profile,
    chain_count,
    count_max_submodules,
    fiber_mod_p,
    growth_type_classify,
    joint_spectrum,
    module_invariants,
    prime_profile,
    split_triv_nontriv,
)
from growthlab.groups import SemidirectFgAbelian, growth_table, mdeg
from growthlab.oracle import oracle_count_max_submodules
from growthlab.poly import (
    QQ, PrimeField, distinct_complex_root_count, factor_mod_p, parse_poly, peval, pmonic, pmul,
)


def _ma(k, actions, torsion=(), group_action=False):
    return MatrixAction(k=k, torsion=tuple(torsion), actions=tuple(
        tuple(tuple(r) for r in a) for a in actions
    ), group_action=group_action)


CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def _fiber(p, dim, actions):
    """The F_p-module F_p^dim under `actions`, as the fiber at p of
    (Z/p)^dim."""
    return fiber_mod_p(_ma(0, actions, torsion=(p,) * dim), p)


def test_matrix_action_validation():
    with pytest.raises(ValueError):
        _ma(2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]] and [[[1, 0]]])  # non-square
    with pytest.raises(ValueError):
        _ma(1, [[[1]], [[2]]], torsion=(1,))  # torsion < 2
    # commuting check
    with pytest.raises(ValueError):
        _ma(2, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    # group_action requires invertibility
    with pytest.raises(ValueError):
        _ma(1, [[[2]]], group_action=True)
    # torsion must be preserved
    with pytest.raises(ValueError):
        MatrixAction(k=1, torsion=(2,), actions=(((1, 1), (0, 1)),), group_action=False)


def test_fiber_mod_p_matrix_action():
    m = _ma(1, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], torsion=(2, 6))
    f2 = fiber_mod_p(m, 2)
    assert isinstance(f2, FiberModule) and f2.dim == 3
    f3 = fiber_mod_p(m, 3)
    assert f3.dim == 2  # free coordinate + the Z/6 coordinate
    f5 = fiber_mod_p(m, 5)
    assert f5.dim == 1


def test_fiber_mod_p_presented():
    m = Presented(gens=1, relations=((tuple(parse_poly("x^2 - 1")),),))
    f = fiber_mod_p(m, 3)
    assert isinstance(f, PresentedFiber)
    assert f.free_rank == 0
    assert [len(b) - 1 for b in f.invariant_factors] == [2]


def test_joint_spectrum_cycle():
    # 3-cycle on F_7^3: splits as trivial + 2-dim irreducible
    f = fiber_mod_p(_ma(3, [CYCLE3], group_action=True), 7)
    spec = joint_spectrum(f)
    assert sorted((e.e, e.s) for e in spec) == [(1, 1), (1, 1), (1, 1)]
    f2 = fiber_mod_p(_ma(3, [CYCLE3], group_action=True), 2)
    spec2 = joint_spectrum(f2)
    assert sorted((e.e, e.s) for e in spec2) == [(1, 1), (2, 1)]


def test_count_max_submodules_examples():
    m = _ma(3, [CYCLE3], group_action=True)
    assert count_max_submodules(m, 7) == 3  # three lines: (7^1-1)/6 each
    assert count_max_submodules(m, 4) == 1  # the F_4 component contributes at n=4
    assert count_max_submodules(m, 2) == 1
    assert count_max_submodules(m, 6) == 0  # composite, not a prime power
    with pytest.raises(ValueError):
        count_max_submodules(m, 1)


def test_trivial_action_counts():
    m = _ma(2, [[[1, 0], [0, 1]]], group_action=True)
    for p in (2, 3, 5, 7):
        assert count_max_submodules(m, p) == (p * p - 1) // (p - 1)
        total = count_max_submodules(m, p)
        triv, nontriv = split_triv_nontriv(m, p)
        assert triv == total and nontriv == 0
    assert count_max_submodules(m, 4) == 0


def test_split_triv_nontriv():
    m = _ma(3, [CYCLE3], group_action=True)
    triv, nontriv = split_triv_nontriv(m, 7)
    assert triv == 1 and nontriv == 2
    triv2, nontriv2 = split_triv_nontriv(m, 2)
    assert triv2 == 1 and nontriv2 == 0  # the F_4 quotient sits at index 4
    # composite prime powers carry no trivial quotients
    assert split_triv_nontriv(m, 4) == (0, 1)


def test_chain_count_examples():
    # F_p[x]-module F_p[x]/(x^2-1) ⊕ F_p[x]
    invf = (tuple(parse_poly("x^2 - 1")),)
    # at n = 5: torsion has 2 distinct linear factors; chain formula
    got = chain_count(invf, 1, 5)
    # chain_count telescopes over the factored b_j; count_max_submodules
    # reads the profile, which takes only the factor degrees of rad(b_t)
    m = Presented(gens=2, relations=(
        (tuple(parse_poly("x^2 - 1")), (0,)),
        ((0,), (0,)),
    ))
    assert got == count_max_submodules(m, 5)
    assert chain_count(invf, 1, 7) >= 1


def test_presented_profile_counts_match_chain_count():
    # random 2-generator modules, free rank 0 to 2 (zero rows free a
    # generator): the profile's count, with its generic tail, against the
    # telescoping reference
    rng = random.Random(4)
    for _ in range(30):
        relations = tuple(
            tuple(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) for _ in range(2))
            if rng.random() < 0.7 else ((0,), (0,))
            for _ in range(2)
        )
        m = Presented(gens=2, relations=relations)
        for p in (2, 3, 5, 7, 11, 13):
            fib = fiber_mod_p(m, p)
            for k in (1, 2, 3):
                n = p ** k
                expected = chain_count(fib.invariant_factors, fib.free_rank, n)
                assert count_max_submodules(m, n) == expected, (relations, n)


def _fp_mul(F, *polys):
    out = [1]
    for f in polys:
        out = pmul(F, out, f)
    return out


def _fp_monic_irreducible(F, degree, skip=0):
    """The (skip+1)-th monic irreducible of the degree over F_p, by trial."""
    p = F.p
    for code in range(p ** degree):
        f = [(code // p ** i) % p for i in range(degree)] + [1]
        if factor_mod_p(f, p).factors == ((tuple(f), 1),):
            if not skip:
                return f
            skip -= 1
    raise AssertionError("too few irreducibles")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chain_profile_telescopes_like_chain_count(p):
    # b_1 | b_2 | b_3 with b_j = u_1 ... u_j.  The hand chain first puts two
    # linear and two cubic irreducibles into different b_j, repeats factors,
    # and has the inseparable parts q(x^p) = q^p and x^p - x; the seeded
    # chains add random cofactors.  The profile reads only the factor
    # degrees of rad(b_3); chain_count factors every b_j.
    F = PrimeField(p)
    l1, l2 = _fp_monic_irreducible(F, 1), _fp_monic_irreducible(F, 1, skip=1)
    c1, c2 = _fp_monic_irreducible(F, 3), _fp_monic_irreducible(F, 3, skip=1)
    q = _fp_monic_irreducible(F, 2)
    q_of_xp = [0] * (2 * p + 1)
    q_of_xp[::p] = q
    frob = [0, p - 1] + [0] * (p - 2) + [1]  # x^p - x
    chains = [[
        _fp_mul(F, l1, q, c1),
        _fp_mul(F, l1, l1, l2, q_of_xp, c2),
        _fp_mul(F, l2, frob, c2, c2),
    ]]
    rng = random.Random(p)
    for _ in range(12):
        chains.append([
            _fp_mul(F, *(
                pmonic(F, [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
                for _ in range(rng.randint(int(j == 0), 3))
            ))
            for j in range(3)
        ])
    for parts in chains:
        factors = [_fp_mul(F, *parts[: j + 1]) for j in range(3)]
        for free_rank in (0, 1, 2):
            profile = _chain_profile(p, factors, free_rank)
            for k in range(1, 5):
                assert profile.count(k) == chain_count(factors, free_rank, p ** k), (parts, free_rank, k)


def test_presented_counts_against_oracle_fiber():
    m = Presented(gens=1, relations=((tuple(parse_poly("x^2 - 1")),),))
    for p in (2, 3, 5):
        fib = fiber_mod_p(m, p)
        # build matrix fiber: companion action on F_p[x]/(x^2-1)
        comp = [[0, 1], [1, 0]]
        mf = _fiber(p, 2, (comp,))
        assert count_max_submodules(m, p) == oracle_count_max_submodules(mf, p)


def test_engine_vs_oracle_random():
    rng = random.Random(42)
    trials = 0
    while trials < 40:
        p = rng.choice([2, 3])
        dim = rng.randint(1, 4 if p == 2 else 3)
        if p ** dim > 81:
            continue
        nacts = rng.randint(1, 2)
        acts = []
        ok = True
        A = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        acts.append(A)
        if nacts == 2:
            c0, c1 = rng.randrange(p), rng.randrange(p)
            B = [[(c0 * (1 if i == j else 0) + c1 * A[i][j]) % p for j in range(dim)] for i in range(dim)]
            acts.append(B)
        fib = _fiber(p, dim, acts)
        for k in range(1, dim + 1):
            n = p ** k
            spec = joint_spectrum(fib)
            engine = sum(
                (n ** e.s - 1) // (n - 1) for e in spec if e.e == k
            )
            assert engine == oracle_count_max_submodules(fib, n), (fib, n)
        trials += 1


def test_module_invariants_ell1():
    m = _ma(3, [CYCLE3], group_action=True)
    inv = module_invariants(m)
    assert inv.d == 1
    assert inv.t == 1
    assert inv.rho == (3,)


def test_module_invariants_presented():
    m = Presented(gens=1, relations=((tuple(parse_poly("x^2 - 1")),),))
    inv = module_invariants(m)
    assert inv.r0 == 0 and len(inv.a) == 1 and inv.d == 1
    free = Presented(gens=1, relations=(((0,),),))
    invf = module_invariants(free)
    assert invf.r0 == 1 and len(invf.a) == 0 and invf.d == 1


def test_module_invariants_keep_non_integral_factors():
    # coker diag(x - 1, 2x - 3) is Q[x]/((x - 1)(x - 3/2)): two simple
    # quotients, one nontrivial, which no integer truncation of the factor
    # x^2 - 5x/2 + 3/2 keeps
    m = Presented(gens=2, relations=(((-1, 1), ()), ((), (-3, 2))))
    inv = module_invariants(m)
    assert inv.a == ((Fraction(3, 2), Fraction(-5, 2), 1),)
    assert (inv.rho, inv.d, inv.d_nt, inv.t, inv.r0) == ((2,), 1, 1, 1, 0)


def test_presented_t_is_the_corank_of_the_relations_at_1():
    # t, read off the invariant factors, against gens minus the rank of
    # R(1) over Q; relations are not monic, and a third of the entries are
    # multiples of x - 1
    rng = random.Random(17)
    coefficients = [0, 1, -1, 2, -2, 3]
    for _ in range(400):
        gens, nrel = rng.randint(1, 3), rng.randint(0, 3)
        relations = [[[rng.choice(coefficients) for _ in range(rng.randint(1, 3))] for _ in range(nrel)] for _ in range(gens)]
        for row in relations:
            for i, e in enumerate(row):
                if rng.random() < 1 / 3:
                    row[i] = [a - b for a, b in zip([0] + e, e + [0])]
        m = Presented(gens=gens, relations=tuple(tuple(map(tuple, row)) for row in relations) if nrel else ())
        at_1 = [[sum(e) for e in row] for row in relations]
        assert module_invariants(m).t == gens - rank(QQ, at_1, nrel), m


def test_module_invariants_ell2_trivial_top():
    I2 = [[1, 0], [0, 1]]
    m = _ma(2, [I2, I2], group_action=True)
    inv = module_invariants(m)
    assert (inv.d, inv.d_nt, inv.t) == (2, 0, 2)


def test_cyclic_bound():
    # cyclic module: m_n <= number of degree-k irreducible factors <= deg/k
    m = Presented(gens=1, relations=((tuple(parse_poly("x^3 - 1")),),))
    for p in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            assert count_max_submodules(m, p ** k) <= 3 // k if k > 1 else True
            assert count_max_submodules(m, p ** k) <= 3


def test_zero_module():
    m = Presented(gens=1, relations=(((1,),),))
    assert count_max_submodules(m, 5) == 0
    inv = module_invariants(m)
    assert inv.d == 0


def test_growth_type_classify():
    zx = Presented(gens=1, relations=(((0,),),))
    gt = growth_type_classify(zx)
    assert str(gt) == "n^1"
    zx5 = Presented(gens=1, relations=(((5,),),))
    assert str(growth_type_classify(zx5)) == "n^1/log n"
    zi = Presented(gens=1, relations=((tuple(parse_poly("x^2 + 1")),),))
    assert str(growth_type_classify(zi)) == "bounded"
    zx2 = Presented(gens=2, relations=(((0,), (0,)), ((0,), (0,))))
    assert str(growth_type_classify(zx2)) == "n^2"


def test_growth_type_r_max_is_certified():
    # r_max is the largest free rank of a fiber over every prime; the
    # brute-force maximum over p <= 300 must agree with it
    primes = [p for p in range(2, 301) if is_prime(p)]
    rng = random.Random(5)
    coefficients = [0, 1, -1, 2, -2, 3, 4, 6]
    for _ in range(200):
        gens, nrel = rng.randint(1, 3), rng.randint(0, 3)
        relations = tuple(
            tuple(tuple(rng.choice(coefficients) for _ in range(rng.randint(1, 4))) for _ in range(nrel))
            for _ in range(gens)
        ) if nrel else ()
        m = Presented(gens=gens, relations=relations)
        r0 = module_invariants(m).r0
        brute = max([r0] + [fiber_mod_p(m, p).free_rank for p in primes])
        assert growth_type_classify(m).r_max == brute, m
    # a free-rank jump only at q = 1000003, far past any small prime; the
    # relation (x, x) vanishes at x = 0, so the walk goes on to x = 1
    q = 1000003
    cases = [
        (Presented(gens=2, relations=(((1,), (0, 1)), ((0, 1), (q, 0, 1)))), "n^1/log n", 1),
        (Presented(gens=1, relations=(((0, q),),)), "n^1/log n", 1),
        (Presented(gens=2, relations=(((0, 1),), ((0, 1),))), "n^1", 1),
    ]
    # N = 10000000000037 * 10000000000051 is past the deterministic
    # primality range, and the certificate does not factor it
    big = 100000000000880000000001887
    cases += [
        (Presented(gens=2, relations=(((1,), (0, 1)), ((0, 1), (big, 0, 1)))), "n^1/log n", 1),
        (Presented(gens=1, relations=(((0, big),),)), "n^1/log n", 1),
    ]
    for m, kind, r_max in cases:
        gt = growth_type_classify(m)
        assert (str(gt), gt.r_max) == (kind, r_max), m


def _block_diag(A, B):
    n, m = len(A), len(B)
    return [list(r) + [0] * m for r in A] + [[0] * n + list(r) for r in B]


C = [[0, -1], [1, -1]]  # companion of x^2 + x + 1
C_SQUARED = [[-1, 1], [-1, 0]]  # -C - I


@pytest.mark.parametrize("p", [11, 1_000_000_007])
def test_non_local_algebra_with_primary_generators(p):
    # x^2 + x + 1 is irreducible mod p (p = 2 mod 3), so C (+) C and
    # C (+) C^2 are each primary, but their joint algebra is F_{p^2} x F_{p^2};
    # at p = 11 it has p^4 = 14641 elements, past any small exhaustive scan
    m = _ma(4, [_block_diag(C, C), _block_diag(C, C_SQUARED)])
    assert joint_spectrum(fiber_mod_p(m, p)) == (SpectrumEntry(2, 1),) * 2
    assert count_max_submodules(m, p * p) == 2


def test_local_field_near_2_61():
    p = 2 ** 61 - 1
    assert factor_mod_p([2, 2, 0, 1], p).factors == (((2, 2, 0, 1), 1),)
    C3 = [[0, 0, -2], [1, 0, -2], [0, 1, 0]]  # companion of x^3 + 2x + 2
    C3_SQUARED_PLUS_ONE = [[1, -2, 0], [0, -1, -2], [1, 0, -1]]
    m = _ma(3, [C3, C3_SQUARED_PLUS_ONE])
    assert joint_spectrum(fiber_mod_p(m, p)) == (SpectrumEntry(3, 1),)
    assert count_max_submodules(m, p ** 3) == 1


def test_one_count_tests_its_prime_once():
    # count_max_submodules checks p in prime_power_decompose, PrimePowerIndex
    # and fiber_mod_p; the cache leaves one Miller-Rabin run for the pair of
    # counts at p and p^2
    p = 2 ** 61 - 1
    A = [[1, 1], [0, 2]]
    m = _ma(2, [A, [[4, 5], [0, 9]]])  # A and A^2 + 2A + I
    is_prime.cache_clear()
    prime_profile.cache_clear()
    assert count_max_submodules(m, p) == 2
    assert count_max_submodules(m, p * p) == 0
    assert is_prime.cache_info().misses == 1
    # a cached verdict on a composite refuses as before
    assert not is_prime(6)
    for _ in range(2):
        with pytest.raises(ValueError):
            factor_mod_p([1, 1], 6)
        with pytest.raises(ValueError):
            fiber_mod_p(m, 6)
        with pytest.raises(ValueError):
            PrimePowerIndex(16, 4, 2)


def _companion(f):
    """Companion matrix of a monic integer polynomial (ascending coefficients)."""
    d = len(f) - 1
    return [[-f[r] if c == d - 1 else int(r == c + 1) for c in range(d)] for r in range(d)]


def _kron(A, B):
    n = len(B)
    return [[A[i // n][j // n] * B[i % n][j % n] for j in range(len(A) * n)] for i in range(len(A) * n)]


def test_tensor_leaf_past_the_oracle():
    # F_p[A] (x) F_p[B] = F_{p^2} (x) F_{p^3} = F_{p^6}: both actions are
    # primary of degrees 2 and 3, nothing splits, and the residue field of the
    # one leaf has degree lcm(2, 3) = 6.  p^dim = p^6 is far past the oracle.
    p = 1_000_000_007
    def irreducible(family):
        return next(f for f in map(family, range(1, 50)) if factor_mod_p(f, p).factors == ((tuple(f), 1),))

    I2, I3 = ([[int(r == c) for c in range(n)] for r in range(n)] for n in (2, 3))
    actions = [
        _kron(_companion(irreducible(lambda c: [c, 0, 1])), I3),
        _kron(I2, _companion(irreducible(lambda c: [c, 1, 0, 1]))),
    ]
    m = _ma(6, actions)
    assert joint_spectrum(fiber_mod_p(m, p)) == (SpectrumEntry(6, 1),)
    assert [count_max_submodules(m, p ** k) for k in range(1, 7)] == [0, 0, 0, 0, 0, 1]
    twice = _ma(12, [_block_diag(a, a) for a in actions])
    assert joint_spectrum(fiber_mod_p(twice, p)) == (SpectrumEntry(6, 2),)
    assert count_max_submodules(twice, p ** 6) == p ** 6 + 1
    # three diagonal copies: multiplicity 3, (q^3 - 1)/(q - 1) at q = p^6
    thrice = _ma(18, [_block_diag(_block_diag(a, a), a) for a in actions])
    assert joint_spectrum(fiber_mod_p(thrice, p)) == (SpectrumEntry(6, 3),)
    q = p ** 6
    assert count_max_submodules(thrice, q) == q ** 2 + q + 1


def test_determinism():
    # a non-local algebra at a large prime: the Frobenius splitter's min poly
    # is factored by randomized Cantor-Zassenhaus
    f = fiber_mod_p(_ma(4, [_block_diag(C, C), _block_diag(C, C_SQUARED)]), 1_000_000_007)
    a = joint_spectrum(f)
    joint_spectrum.cache_clear()
    b = joint_spectrum(f)
    assert joint_spectrum.cache_info().misses == 1
    assert a == b


def test_profile_of_direct_sum_past_the_oracle():
    # dim 6 at p = 10^9+7 is far past the oracle's p^dim <= 81.  M and N
    # share no maximal ideal, so the entries of M (+) N are theirs merged
    p = 1_000_000_007  # = 2 mod 3, so x^2 + x + 1 is irreducible
    minus_cycle = [[-x for x in row] for row in CYCLE3]
    cycle_squared = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    jordan = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    jordan_squared = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    m = prime_profile(_ma(3, [minus_cycle, cycle_squared]), p)
    n = prime_profile(_ma(3, [jordan, jordan_squared]), p)
    assert (m.entries, m.trivial_rank) == ((SpectrumEntry(1, 1), SpectrumEntry(2, 1)), 0)
    assert (n.entries, n.trivial_rank) == ((SpectrumEntry(1, 2),), 2)
    total = prime_profile(
        _ma(6, [_block_diag(minus_cycle, jordan), _block_diag(cycle_squared, jordan_squared)]), p
    )
    assert total.entries == tuple(sorted(m.entries + n.entries))
    assert total.entries == (SpectrumEntry(1, 1), SpectrumEntry(1, 2), SpectrumEntry(2, 1))
    assert total.trivial_rank == m.trivial_rank + n.trivial_rank
    for k in (1, 2, 3):
        assert total.count(k) == m.count(k) + n.count(k)
    assert total.split(1) == (p + 1, 1)


def _joint_spectrum_profile(m, p):
    """The profile of a MatrixAction built the ell >= 2 way: joint_spectrum
    of the fiber, and t_p from the rank of the images of every A - I."""
    fib = fiber_mod_p(m, p)
    images = [
        [(a[r][c] - (r == c)) % p for r in range(fib.dim)]
        for a in fib.actions
        for c in range(fib.dim)
    ]
    return PrimeProfile(
        p=p, entries=joint_spectrum(fib), generic_rank=0,
        trivial_rank=fib.dim - rank(PrimeField(p), images, fib.dim),
    )


def test_presented_profile_matches_matrix_profile():
    # coker(xI - A) over Z[x] is Z^k with x acting by A: the invariant-factor
    # profiles of both descriptors must agree, entry for entry, with the
    # joint-spectrum profile
    rng = random.Random(11)
    for _ in range(12):
        k = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        x_minus_a = tuple(
            tuple((-A[i][j], 1) if i == j else (-A[i][j],) for j in range(k))
            for i in range(k)
        )
        presented = Presented(gens=k, relations=x_minus_a)
        for p in (2, 3, 5, 7, 11, 13):
            expected = _joint_spectrum_profile(_ma(k, [A]), p)
            assert prime_profile(presented, p) == prime_profile(_ma(k, [A]), p) == expected, (A, p)


def _random_action_with_torsion(rng):
    """One endomorphism of Z^k (+) (+)_j Z/t_j, k + #t <= 6: no torsion
    generator maps into the free part, and entry (r, j) of the torsion block
    is a multiple of t_r / gcd(t_r, t_j)."""
    k = rng.randint(0, 4)
    torsion = [rng.choice([2, 3, 4, 6, 9]) for _ in range(rng.randint(1 if k == 0 else 0, 6 - k))]
    dim = k + len(torsion)
    A = [[0] * dim for _ in range(dim)]
    for r in range(dim):
        for c in range(dim):
            if c < k:
                A[r][c] = rng.randint(-3, 3)
            elif r >= k:
                t_r, t_c = torsion[r - k], torsion[c - k]
                A[r][c] = rng.randint(-3, 3) * (t_r // math.gcd(t_r, t_c))
    return _ma(k, [A], torsion=torsion)


def _det(M):
    if not M:
        return 1
    return sum((-1) ** c * M[0][c] * _det([r[:c] + r[c + 1:] for r in M[1:]]) for c in range(len(M)))


def _automorphism_per_prime(m):
    """The reference criterion: |det| = 1 on the free block, and for each
    prime q of the torsion, the block of rows and columns j with q | t_j is
    invertible mod q."""
    k, a = m.k, m.actions[0]
    if _det([row[:k] for row in a[:k]]) not in (1, -1):
        return False
    # the primes of the t_j by trial division
    for q in {q for t in m.torsion for q in range(2, t + 1) if t % q == 0 and all(q % r for r in range(2, q))}:
        idxs = [k + j for j, t in enumerate(m.torsion) if t % q == 0]
        if _det([[a[r][c] for c in idxs] for r in idxs]) % q == 0:
            return False
    return True


def test_group_action_matches_per_prime_criterion():
    # endomorphisms of Z^k (+) (+)_j Z/t_j, k <= 3; half of them start from a
    # unit-diagonal matrix, so both verdicts are common
    rng = random.Random(8)
    verdicts = []
    for _ in range(2400):
        k = rng.randint(0, 3)
        torsion = [rng.choice([2, 3, 4, 6, 8, 9, 12, 25, 27]) for _ in range(rng.randint(1 if k == 0 else 0, 3))]
        dim, near_unit = k + len(torsion), rng.random() < 0.5
        A = [[rng.choice([-1, 1]) if near_unit and r == c else 0 for c in range(dim)] for r in range(dim)]
        for r in range(dim):
            for c in range(dim):
                if rng.random() < (0.3 if near_unit else 1):
                    if c < k:
                        A[r][c] += rng.randint(-2, 2)
                    elif r >= k:
                        t_r, t_c = torsion[r - k], torsion[c - k]
                        A[r][c] += rng.randint(-2, 2) * (t_r // math.gcd(t_r, t_c))
        m = _ma(k, [A], torsion=torsion)
        try:
            _ma(k, [A], torsion=torsion, group_action=True)
            accepted = True
        except ValueError as exc:
            assert str(exc) == "actions[0] is not an automorphism (group_action)"
            accepted = False
        assert accepted == _automorphism_per_prime(m), m
        verdicts.append(accepted)
    assert 400 <= sum(verdicts) <= 2000


def test_one_action_profile_matches_joint_spectrum():
    # single actions with torsion, at the primes of the torsion and far past
    # the oracle
    rng = random.Random(6)
    for _ in range(40):
        m = _random_action_with_torsion(rng)
        for p in (2, 3, 5, 7, 1_000_003, 2 ** 31 - 1):
            assert prime_profile(m, p) == _joint_spectrum_profile(m, p), (m, p)


def _polynomial_in(A, coefficients):
    """sum_i c_i A^i over Z, coefficients ascending."""
    n = len(A)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    out = [[0] * n for _ in range(n)]
    for c in coefficients:
        out = [[x + c * y for x, y in zip(row, prow)] for row, prow in zip(out, power)]
        power = _mat_mul(power, A)
    return out


def test_cyclic_fiber_profile_matches_joint_spectrum():
    # (A, f(A)) with torsion: the fiber is read off the min poly of A at
    # every prime where A is cyclic, and joint_spectrum's Frobenius path is
    # the reference, at the primes of the torsion and far past the oracle
    rng = random.Random(15)
    for _ in range(40):
        one = _random_action_with_torsion(rng)
        A = one.actions[0]
        f = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        m = _ma(one.k, [A, _polynomial_in(A, f)], torsion=one.torsion)
        for p in (2, 3, 5, 7, 1_000_003, 2 ** 31 - 1, 2 ** 61 - 1):
            assert prime_profile(m, p) == _joint_spectrum_profile(m, p), (m, p)


def test_actions_commuting_modulo_torsion_count_as_their_twin():
    # B = B0 + D, B0 a polynomial in A and D a multiple of t_j in torsion
    # row k + j, 0 in the free rows: the endomorphism B0, though most such B
    # do not commute with A as integer matrices
    rng = random.Random(21)
    corpus = inexact = 0
    while corpus < 60:
        one = _random_action_with_torsion(rng)
        A, k, torsion = one.actions[0], one.k, one.torsion
        if not torsion:
            continue
        corpus += 1
        B0 = _polynomial_in(A, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        B = [row if r < k else [b + torsion[r - k] * rng.randint(-2, 2) for b in row] for r, row in enumerate(B0)]
        m0, m = _ma(k, [A, B0], torsion=torsion), _ma(k, [A, B], torsion=torsion)
        inexact += _mat_mul(A, B) != _mat_mul(B, A)
        assert growth_table(m, 100).rows == growth_table(m0, 100).rows, m
        assert module_invariants(m) == module_invariants(m0), m
    assert inexact >= 50


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(modules, name, counted(name, getattr(modules, name)))
    return calls


def test_cyclic_fiber_skips_the_joint_spectrum(monkeypatch):
    # CYCLE3 has min poly x^3 - 1 at every p, so (CYCLE3, CYCLE3^2) and
    # (I, CYCLE3), cyclic in the second action only, factor nothing; in
    # M (+) M no action is cyclic, yet the first generates the algebra, so
    # it factors nothing either.  No candidate generates the algebra of
    # UNIPOTENTS, which falls back to joint_spectrum
    p = 1_000_003
    square = _mat_mul(CYCLE3, CYCLE3)
    identity = [[int(r == c) for c in range(3)] for r in range(3)]
    cyclic = [_ma(3, [CYCLE3, square]), _ma(3, [identity, CYCLE3])]
    doubled = _ma(6, [_block_diag(CYCLE3, CYCLE3), _block_diag(square, square)])
    expected = [_joint_spectrum_profile(m, p) for m in cyclic + [doubled, _ma(3, UNIPOTENTS)]]
    calls = _count_calls(monkeypatch, "joint_spectrum", "factor_mod_p")
    prime_profile.cache_clear()
    assert [prime_profile(m, p) for m in cyclic + [doubled]] == expected[:3]
    assert calls == {"joint_spectrum": 0, "factor_mod_p": 0}
    assert prime_profile(_ma(3, UNIPOTENTS), p) == expected[3]
    assert calls["joint_spectrum"] == 1
    # x^3 - 1 = (x - 1)(x^2 + x + 1) with p = 1 mod 3: three roots
    assert expected[0].entries == (SpectrumEntry(1, 1),) * 3
    assert expected[2].entries == (SpectrumEntry(1, 2),) * 3


def test_trivial_rank_matches_the_rank_of_the_images():
    # (A, f(A)) with A a companion matrix, cyclic at every p, of c or of
    # (x - 1) c, so that mu(1) = 0 mod p at every p in a third of the cases
    # and at the primes of c(1) in others; and (A, f(A)) for A a seeded
    # action with torsion, cyclic or not.  t_p is checked against the rank
    # of the images of every A - I, taken here
    rng = random.Random(19)
    kinds = set()
    for trial in range(45):
        if trial % 3 == 2:
            one = _random_action_with_torsion(rng)
            k, A, torsion = one.k, one.actions[0], one.torsion
        else:
            c = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
            if trial % 3 == 0:
                c = [a - b for a, b in zip([0] + c, c + [0])]  # (x - 1) c
            k, A, torsion = len(c) - 1, _companion(c), ()
        f = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        m = _ma(k, [A, _polynomial_in(A, f)], torsion=torsion)
        for p in (2, 3, 5, 7, 1_000_003, 2 ** 61 - 1):
            want = _joint_spectrum_profile(m, p).trivial_rank
            assert prime_profile(m, p).trivial_rank == want, (m, p)
            kinds.add(want > 0)
    assert kinds == {False, True}


@pytest.mark.parametrize("actions, p, ranks", [
    # mu = x^2 + x + 1 has mu(1) = 3: no rank at p = 7, and at p = 3, where
    # mu = (x - 1)^2, the rank runs; x^3 - 1 vanishes at 1 at every p
    ([C, C_SQUARED], 7, 0),
    ([C, C_SQUARED], 3, 1),
    ([CYCLE3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]], 7, 1),
])
def test_cyclic_action_without_eigenvalue_1_takes_no_rank(monkeypatch, actions, p, ranks):
    m = _ma(len(actions[0]), actions)
    expected = _joint_spectrum_profile(m, p)
    calls = _count_calls(monkeypatch, "rank", "joint_spectrum")
    prime_profile.cache_clear()
    assert prime_profile(m, p) == expected
    assert calls == {"rank": ranks, "joint_spectrum": 0}
    assert (expected.trivial_rank == 0) == (ranks == 0)


@pytest.mark.parametrize("path, spectra", [("chain", 0), ("joint spectrum", 1), ("presented", 0)])
def test_counts_at_powers_of_p_reduce_the_fiber_once(monkeypatch, path, spectra):
    # the counts at p, p^2, p^3 and the split at p read one cached profile,
    # equal to one built afresh; (CYCLE3, CYCLE3^2) is cyclic, and no
    # candidate generates the algebra of UNIPOTENTS
    p = 7
    square = _mat_mul(CYCLE3, CYCLE3)
    m = {
        "chain": _ma(3, [CYCLE3, square]),
        "joint spectrum": _ma(3, UNIPOTENTS),
        # Z[x]/(x^2 - 1) (+) Z[x]: free rank 1
        "presented": Presented(gens=2, relations=(((-1, 0, 1),), ((0,),))),
    }[path]
    fresh = prime_profile.__wrapped__(m, p)
    calls = _count_calls(monkeypatch, "fiber_mod_p", "joint_spectrum")
    prime_profile.cache_clear()
    assert [count_max_submodules(m, p ** k) for k in (1, 2, 3)] == [fresh.count(k) for k in (1, 2, 3)]
    assert split_triv_nontriv(m, p) == fresh.split(1)
    assert calls == {"fiber_mod_p": 1, "joint_spectrum": spectra}


# -- characteristic-zero invariants with two or more actions ---------------------

# companion(x^2 - 3x + 1) (+) companion(x^2 - 33x + 1): s = 2 at p = 2, 3, 5 and
# s = 1 at every other prime up to 60
PAIR_A = _block_diag(_companion([1, -3, 1]), _companion([1, -33, 1]))
# charpolys x^2 - 6x + 1 and x^2 + 4x + 1
PAIR_B = _block_diag([[1, 1], [4, 5]], [[-5, 1], [-6, 1]])
# E_12 and E_13 unipotents: the common fixed space has dimension 1, the
# trivial top dimension 2
UNIPOTENTS = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [0, 0, 1]]]
# I + x and I + y on Z[x, y]/(x^2, y^2), basis 1, x, y, xy: c = I + x + y
# has (c - I)^2 = 2xy and so a min poly of degree 3, the rank of I and the
# actions, yet it does not generate the algebra, of dimension 4
LOCAL_XY = [[[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]]]
I2 = [[1, 0], [0, 1]]


def _invariants(m):
    inv = module_invariants(m)
    return inv.d, inv.d_nt, inv.t


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _unimodular_pair(rng, k, ops):
    """(U, U^-1) for a product of `ops` seeded elementary row operations."""
    U = [[int(r == c) for c in range(k)] for r in range(k)]
    V = [row[:] for row in U]
    for _ in range(ops):
        i, j = rng.sample(range(k), 2)
        c = rng.choice([-2, -1, 1, 2])
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in V:
            row[j] -= c * row[i]
    return U, V


def _commuting_pair(rng, k=4, ell=2):
    """Two (or ell) commuting k x k integer matrices, a_i I + b_i M on each
    diagonal block M of size 1 or 2, conjugated by a seeded unimodular
    matrix.  Now and then a block is repeated with its (a_i, b_i), which
    gives a simple quotient of multiplicity 2 or more."""
    blocks = []
    while sum(len(M) for M, _ in blocks) < k:
        size = rng.choice([1, 2]) if k - sum(len(M) for M, _ in blocks) >= 2 else 1
        if blocks and len(blocks[-1][0]) == size and rng.random() < 0.4:
            blocks.append(blocks[-1])
        else:
            M = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            blocks.append((M, [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(ell)]))
    pair = [[[0] * k for _ in range(k)] for _ in range(ell)]
    offset = 0
    for M, coefficients in blocks:
        for P, (a, b) in zip(pair, coefficients):
            for r, row in enumerate(M):
                for c, x in enumerate(row):
                    P[offset + r][offset + c] = a * (r == c) + b * x
        offset += len(M)
    U, V = _unimodular_pair(rng, k, 8)
    return [_mat_mul(_mat_mul(U, P), V) for P in pair]


def test_two_action_invariants_ignore_small_primes():
    # s = 2 at p = 2, 3, 5 for PAIR_A, yet the generic multiplicity is 1
    for M in (PAIR_A, PAIR_B):
        assert _invariants(_ma(4, [M, M], group_action=True)) == (1, 1, 0)


def test_trivial_top_from_the_images():
    # t is 3 minus the rank of the images of both A_i - I (span of e_1), not
    # the dimension of the common fixed space
    assert _invariants(_ma(3, UNIPOTENTS, group_action=True)) == (2, 0, 2)
    assert prime_profile(_ma(3, UNIPOTENTS), 29).trivial_rank == 2
    # no trivial quotient, yet c = A_1 + A_2 takes the value 1 + 1 there
    assert _invariants(_ma(1, [[[2]], [[0]]])) == (1, 1, 0)


def test_torsion_only_two_actions_have_no_top():
    m = _ma(0, [[[2, 0], [0, 1]], [[1, 0], [0, 2]]], torsion=(3, 5))
    assert _invariants(m) == (0, 0, 0)
    # at p = 7 the fiber is 0: a 0 x 0 action has min poly 1, of degree
    # 0 = dim, yet no simple quotient
    assert prime_profile(m, 7) == PrimeProfile(p=7, entries=(), generic_rank=0, trivial_rank=0)
    assert count_max_submodules(m, 7) == 0


def test_generic_d_matches_large_primes():
    # d is the largest multiplicity at every generic prime, and t the
    # trivial rank there
    primes = [p for p in range(1_000_003, 1_000_300) if is_prime(p)][:12]
    rng = random.Random(7)
    for _ in range(30):
        m = _ma(4, _commuting_pair(rng))
        d, _, t = _invariants(m)
        for p in primes:
            profile = prime_profile(m, p)
            assert (max(e.s for e in profile.entries), profile.trivial_rank) == (d, t), (m, p)


def test_invariants_are_metamorphic():
    # appending a polynomial in the actions keeps the algebra, so (d, d_nt, t)
    # stay, as long as the trivial character stays: A^2 - A + I is 1 where A
    # is, A^2 + I is 2 there, which leaves no trivial quotient.  Conjugating
    # every action by a unimodular matrix changes nothing.
    cases = [UNIPOTENTS, [I2, I2], [_block_diag(I2, C), _block_diag(I2, C_SQUARED)], [PAIR_A, PAIR_A]]
    rng = random.Random(11)
    cases += [_commuting_pair(rng) for _ in range(8)]
    for actions in cases:
        k = len(actions[0])
        d, d_nt, t = _invariants(_ma(k, actions))
        A = actions[0]
        A2 = _mat_mul(A, A)
        fixes_trivial = [[A2[r][c] - A[r][c] + (r == c) for c in range(k)] for r in range(k)]
        moves_trivial = [[A2[r][c] + (r == c) for c in range(k)] for r in range(k)]
        assert _invariants(_ma(k, actions + [A])) == (d, d_nt, t)
        assert _invariants(_ma(k, actions + [fixes_trivial])) == (d, d_nt, t)
        assert _invariants(_ma(k, actions + [moves_trivial])) == (d, d, 0)
        U, V = _unimodular_pair(rng, k, 10)
        assert _invariants(_ma(k, [_mat_mul(_mat_mul(U, M), V) for M in actions])) == (d, d_nt, t)


def _doubled(m):
    """m (+) m for one action, free coordinates first, then torsion."""
    k, ntor = m.k, len(m.torsion)
    place = [[i if i < k else k + i for i in range(k + ntor)],
             [k + i if i < k else k + ntor + i for i in range(k + ntor)]]
    A = [[0] * (2 * (k + ntor)) for _ in range(2 * (k + ntor))]
    for new in place:
        for r, row in enumerate(m.actions[0]):
            for c, x in enumerate(row):
                A[new[r]][new[c]] = x
    return _ma(2 * k, [A], torsion=m.torsion * 2)


def test_one_action_invariants_match_the_generic_operator():
    # (A) is read as its presentation [xI - A | t_j e_(k+j)], (A, A) through
    # _generic_operator on its top: two independent paths to (d, d_nt, t).
    # A (+) A doubles every multiplicity.
    rng = random.Random(12)
    for _ in range(100):
        m = _random_action_with_torsion(rng)
        for module in (m, _doubled(m)) if m.k <= 2 else (m,):
            twice = _ma(module.k, [module.actions[0]] * 2, torsion=module.torsion)
            assert _invariants(module) == _invariants(twice), module


def test_profile_is_invariant_under_conjugation():
    # conjugating every action by one unimodular U keeps the module, so the
    # profile is the same at every prime, past the oracle's p^dim <= 81
    rng = random.Random(13)
    for _ in range(12):
        pair = _commuting_pair(rng)
        U, V = _unimodular_pair(rng, 4, 10)
        for actions in (pair[:1], pair):
            conjugated = [_mat_mul(_mat_mul(U, M), V) for M in actions]
            for p in (2, 3, 5, 1_000_003, 2 ** 31 - 1):
                assert prime_profile(_ma(4, actions), p) == prime_profile(_ma(4, conjugated), p), (actions, p)


def _cycle(m):
    return [[int((c + 1) % m == r) for c in range(m)] for r in range(m)]


def test_invariants_double_on_a_doubled_module():
    # the 12-cycle P is cyclic on its top Q^12, so it is the generic
    # operator.  In M (+) M no action is cyclic on the top, and every
    # multiplicity doubles
    P = _cycle(12)
    g = SemidirectFgAbelian(
        module=_ma(12, [P, _mat_mul(P, P)], group_action=True), acting_rank=0, acting_torsion=(12, 12)
    )
    assert mdeg(g).value == 1
    assert _invariants(g.module) == (1, 1, 1)
    rng = random.Random(16)
    cases = [UNIPOTENTS, [PAIR_A, PAIR_A], [CYCLE3, _mat_mul(CYCLE3, CYCLE3)]] + [_commuting_pair(rng) for _ in range(6)]
    for actions in cases:
        k = len(actions[0])
        d, d_nt, t = _invariants(_ma(k, actions))
        assert _invariants(_ma(2 * k, [_block_diag(M, M) for M in actions])) == (2 * d, 2 * d_nt, 2 * t)


# -- one generator rule at every prime ----------------------------------------

BIG_PRIMES = [q for q in range(2 ** 61 - 1, 2 ** 61 - 400, -2) if is_prime(q)][:2]


def test_generated_fibers_match_the_joint_spectrum(monkeypatch):
    # 400 seeded modules on Z^2 and Z^3 with two or three actions, plus
    # UNIPOTENTS, LOCAL_XY and the doubled pairs, at every p <= 200 and two
    # primes near 2^61: a fiber that a candidate generates is read in one
    # variable, any other falls back to joint_spectrum, and both give its
    # profile.  No candidate generates the algebra of UNIPOTENTS or of
    # LOCAL_XY at any prime, and fewer than one pair in 40 falls back
    primes = [p for p in range(2, 201) if is_prime(p)] + BIG_PRIMES
    rng = random.Random(28)
    corpus = [_ma(2 + i % 2, _commuting_pair(rng, 2 + i % 2, 2 + i // 2 % 2)) for i in range(400)]
    corpus += [_ma(3, UNIPOTENTS), _ma(4, LOCAL_XY), _ma(4, [PAIR_A, PAIR_A]), _ma(4, [PAIR_B, PAIR_B])]
    calls = _count_calls(monkeypatch, "joint_spectrum")
    prime_profile.cache_clear()
    fallbacks = []
    for m in corpus:
        for p in primes:
            before = calls["joint_spectrum"]
            assert prime_profile(m, p) == _joint_spectrum_profile(m, p), (m, p)
            if calls["joint_spectrum"] > before:
                fallbacks.append((m, p))
    for m in corpus[400:402]:
        assert [q for n, q in fallbacks if n == m] == primes
    assert len(corpus) * len(primes) > 40 * len(fallbacks) > 0


def _diagonal(*entries):
    return [[x if r == c else 0 for c in range(len(entries))] for r, x in enumerate(entries)]


@pytest.mark.parametrize("p", [5, 7, BIG_PRIMES[0]])
@pytest.mark.parametrize("actions, ranks", [
    # neither action generates, c = A_1 + A_2 = diag(2, 3, 4) does, and
    # sigma = 2 is an eigenvalue of c: the rank runs, and t_p = 1
    ([_diagonal(1, 1, 2), _diagonal(1, 2, 2)], 1),
    # c = diag(4, 5, 6) has mu_c(2) = -24, a unit at these primes: t_p = 0
    ([_diagonal(2, 2, 3), _diagonal(2, 3, 3)], 0),
])
def test_moment_curve_generator_takes_the_rank_iff_mu_vanishes_at_sigma(monkeypatch, actions, ranks, p):
    m = _ma(3, actions)
    fib, F = fiber_mod_p(m, p), PrimeField(p)
    b, sigma = modules._generator(F, fib.actions, fib.dim)
    assert (sigma, len(b[-1]) - 1) == (2, 3)  # lambda = (1, 1), j = 1
    expected = _joint_spectrum_profile(m, p)
    widths = []

    def counted_rank(F, rows, ncols=None):
        widths.append(ncols)
        return rank(F, rows, ncols)

    monkeypatch.setattr(modules, "rank", counted_rank)
    prime_profile.cache_clear()
    assert prime_profile(m, p) == expected
    # the images of every A_i - I have 3 columns, the flattened powers 9
    assert widths.count(3) == ranks == (peval(F, b[-1], sigma) == 0)
    assert expected.trivial_rank == ranks


def test_companion_pairs_take_no_smith_form_and_no_rank(monkeypatch):
    # e_1 is a cyclic vector of a companion matrix A, so (A, A^2 + 2A + I)
    # is read off one Krylov sequence, and f(1) != 0 mod p leaves t_p = 0
    # with no rank taken
    rng = random.Random(29)
    cases = []
    while len(cases) < 8:
        f = [rng.randint(-3, 3) for _ in range(rng.randint(2, 5))] + [1]
        if sum(f):
            A = _companion(f)
            cases.append(_ma(len(A), [A, _polynomial_in(A, [1, 2, 1])]))
    expected = {(m, p): _joint_spectrum_profile(m, p) for m in cases for p in BIG_PRIMES}
    calls = _count_calls(monkeypatch, "smith_normal_form_poly", "rank", "joint_spectrum")
    prime_profile.cache_clear()
    assert {key: prime_profile(*key) for key in expected} == expected
    assert calls == {"smith_normal_form_poly": 0, "rank": 0, "joint_spectrum": 0}


def test_doubled_three_cycle_pair_takes_no_min_poly_per_prime(monkeypatch):
    # no action of (P (+) P, P^2 (+) P^2), P the 3-cycle, is cyclic on Z^6,
    # yet P (+) P generates the algebra at every prime: the table to 3000
    # takes no min poly over F_p and about 0.25 s on a shared 2-vCPU VM
    # (1.3 s when each action's min poly was taken and joint_spectrum ran)
    fields = []
    min_poly = modules.min_poly_of_matrix

    def counted_min_poly(F, A):
        fields.append(F)
        return min_poly(F, A)

    monkeypatch.setattr(modules, "min_poly_of_matrix", counted_min_poly)
    square = _mat_mul(CYCLE3, CYCLE3)
    m = _ma(6, [_block_diag(CYCLE3, CYCLE3), _block_diag(square, square)])
    prime_profile.cache_clear()
    start = time.perf_counter()
    report = growth_table(m, 3000)
    assert time.perf_counter() - start < 1.0
    assert not any(isinstance(F, PrimeField) for F in fields)
    assert report.rows == growth_table(_ma(6, [_block_diag(CYCLE3, CYCLE3)]), 3000).rows


# -- the determinant route ------------------------------------------------------


def _smith_fiber(m, p):
    """N/pN of a Presented m from its F_p[x] Smith form, taken directly."""
    F = PrimeField(p)
    rows = [[[c % p for c in e] for e in row] for row in m.relations]
    snf = smith_normal_form_poly(F, rows, ncols=len(rows[0]) if rows else 0)
    return PresentedFiber(
        p=p, invariant_factors=tuple(d for d in snf.diagonal if len(d) > 1), free_rank=m.gens - snf.rank,
    )


def _smith_invariants(m):
    """(a, r0, rho, t) of a Presented m from its Q[x] Smith form."""
    rows = [[list(e) for e in row] for row in m.relations]
    snf = smith_normal_form_poly(QQ, rows, ncols=len(rows[0]) if rows else 0)
    a, r0 = tuple(b for b in snf.diagonal if len(b) > 1), m.gens - snf.rank
    rho = tuple(distinct_complex_root_count(list(b)) for b in a)
    return a, r0, rho, r0 + sum(1 for b in a if peval(QQ, list(b), 1) == 0)


def _square_presentation(rng, kind):
    """A square relation matrix over Z[x]: random; triangular with a
    constant determinant; with a column that is a multiple of another, so
    D = 0; M (+) M; diagonal entries with leading coefficient 2, 3 or 6;
    or, as a MatrixAction, one action on Z^k with or without torsion."""
    def entry():
        return [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]

    n = rng.choice((2, 3))
    R = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == "constant":
        R = [[[rng.choice((-1, 1, 2, 3, 6))] if r == c else (R[r][c] if c > r else []) for c in range(n)] for r in range(n)]
    elif kind == "zero":
        scale = entry() or [1]
        for row in R:
            row[-1] = pmul(QQ, row[0], scale)
    elif kind == "doubled":
        R = [row + [[]] * n for row in R] + [[[]] * n + row for row in R]
    elif kind == "leading":
        for i in range(n):
            R[i][i] = entry() + [rng.choice((2, 3, 6))]
    elif kind == "action":
        m = _random_action_with_torsion(rng)
        return m if rng.random() < 0.5 else _ma(m.k or 1, [[[rng.randint(-3, 3) for _ in range(m.k or 1)] for _ in range(m.k or 1)]])
    return Presented(gens=len(R), relations=tuple(tuple(tuple(int(c) for c in e) for e in row) for row in R))


def test_determinant_route_matches_the_smith_forms():
    # fiber_mod_p and module_invariants against the Smith forms of the same
    # relation matrix, at every p <= 200 and at five 61-bit primes; a prime
    # dividing lc D is routed too when D mod p is squarefree
    primes = [p for p in range(2, 201) if is_prime(p)]
    primes += [q for q in range(2 ** 61 - 1, 2 ** 61 - 2000, -2) if is_prime(q)][:5]
    rng = random.Random(25)
    seen = dict.fromkeys(["routed", "unit fiber", "p | lc D", "routed, p | lc D", "D = 0", "repeated factor", "torsion"], 0)
    for i in range(420):
        m = _square_presentation(rng, ["random", "constant", "zero", "doubled", "leading", "action"][i % 6])
        presented = modules._one_variable(m)
        if isinstance(m, MatrixAction) and m.torsion:
            seen["torsion"] += 1
        det = modules._squarefree_det(presented)
        R = [[list(e) for e in row] for row in presented.relations]
        D = det_int_poly(R) if len(R) == len(R[0]) else None
        seen["D = 0"] += D == []
        seen["repeated factor"] += bool(D) and not det
        for p in primes:
            fib = fiber_mod_p(presented, p)
            assert fib == _smith_fiber(presented, p), (m, p)
            if modules._routed_factors(presented, p) is not None:
                seen["routed"] += 1
                seen["unit fiber"] += not fib.invariant_factors
                seen["routed, p | lc D"] += det[-1] % p == 0
            seen["p | lc D"] += bool(det) and det[-1] % p == 0
        inv = module_invariants(m)
        assert (inv.a, inv.r0, inv.rho, inv.t) == _smith_invariants(presented), m
    assert min(seen.values()) >= 20, seen


def test_dense_presented_invariants_take_no_qx_smith_form():
    # 4 x 4 relations of degree 8 (even low coefficients, then a leading
    # one from 2, 4, 6): its Q[x] Smith form took 125 s, the determinant
    # route takes milliseconds
    rng = random.Random(1)
    R = [[[rng.choice((0, 2, 4, 6)) for _ in range(8)] + [rng.choice((2, 4, 6))] for _ in range(4)] for _ in range(4)]
    m = Presented(gens=4, relations=tuple(tuple(map(tuple, row)) for row in R))
    start = time.perf_counter()
    inv = module_invariants(m)
    assert time.perf_counter() - start < 1.0
    assert inv.d == 1 and inv.rho == (32,)


def test_dense_determinants_take_milliseconds():
    # one packed integer determinant and one gcd at a certifying prime: the
    # counts of a dense 32 x 32 action and the invariants of an 8 x 8
    # relation matrix with degree-16 entries (the recipe above) each take
    # tens of milliseconds
    rng = random.Random(32)
    m = _ma(32, [[[rng.randint(-3, 3) for _ in range(32)] for _ in range(32)]])
    start = time.perf_counter()
    assert [count_max_submodules(m, n) for n in (2, 3, 4, 5)] == [1, 1, 0, 1]
    assert time.perf_counter() - start < 0.3
    rng = random.Random(1)
    R = [[[rng.choice((0, 2, 4, 6)) for _ in range(16)] + [rng.choice((2, 4, 6))] for _ in range(8)] for _ in range(8)]
    m = Presented(gens=8, relations=tuple(tuple(map(tuple, row)) for row in R))
    start = time.perf_counter()
    inv = module_invariants(m)
    assert time.perf_counter() - start < 0.3
    assert inv.d == 1 and inv.rho == (128,)


def test_determinant_route_takes_one_gcd_per_prime(monkeypatch):
    # fiber_mod_p tests gcd(D mod p, D' mod p) = 1, and the profile reads the
    # certified factor as squarefree: one derivative and no squarefree part
    # at a routed prime.  At p = 3, x^9 - 1 = (x - 1)^9 takes the Smith form
    P = [[int(r == (c + 1) % 9) for c in range(9)] for r in range(9)]
    m = _ma(9, [P])
    assert modules._squarefree_det(modules._one_variable(m)) == (-1,) + (0,) * 8 + (1,)
    calls = _count_calls(monkeypatch, "pderiv", "squarefree_part")
    for p, routed in ((2, True), (3, False), (19, True), (2 ** 61 - 1, True)):
        prime_profile.cache_clear()
        modules._routed_factors.cache_clear()
        calls.update(pderiv=0, squarefree_part=0)
        prime_profile(m, p)
        assert calls == {"pderiv": 1, "squarefree_part": 0 if routed else 1}, p


def test_squarefree_determinant_falls_back_to_q(monkeypatch):
    # M is the product of the certifying primes.  (x - M) x (x - 1) is
    # squarefree over Q, yet x - M = x modulo each of them, and each divides
    # the leading coefficient of M x (x - 1): only the exact squarefree part
    # over Q certifies them.  It refuses (x - M) (x - 1)^2
    M = math.prod(modules._CERTIFYING_PRIMES)
    cases = [
        (pmul(QQ, [-M, 1], [0, -1, 1]), True),
        ([0, -M, M], True),
        (pmul(QQ, [-M, 1], [1, -2, 1]), False),
    ]
    primes = [2, 3, 5, 7, *modules._CERTIFYING_PRIMES]
    for D, squarefree in cases:
        D = tuple(int(c) for c in D)
        m = Presented(gens=1, relations=((D,),))
        modules._squarefree_det.cache_clear()
        calls = _count_calls(monkeypatch, "squarefree_part")
        assert modules._squarefree_det(m) == (D if squarefree else None)
        assert calls == {"squarefree_part": 1}
        monkeypatch.undo()
        for p in primes:
            assert fiber_mod_p(m, p) == _smith_fiber(m, p), (D, p)
        inv = module_invariants(m)
        assert (inv.a, inv.r0, inv.rho, inv.t) == _smith_invariants(m), D


def test_one_relation_of_degree_128_takes_no_primitive_prs(monkeypatch):
    # one relation f on one generator has D = f; a certifying prime shows it
    # squarefree, so its invariants take no gcd over Z
    rng = random.Random(5)
    f = [rng.randint(-1, 1) for _ in range(128)] + [1]
    m = Presented(gens=1, relations=((tuple(f),),))

    def refuse(*args):
        raise AssertionError("primitive PRS taken")

    monkeypatch.setattr(poly, "_gcd_over_z", refuse)
    inv = module_invariants(m)
    assert inv.d == 1 and inv.rho == (128,) and inv.r0 == 0
