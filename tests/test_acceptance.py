"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single "criterion N: PASS" line on success (visible via
the -rA report); a failure shows up as an ordinary pytest failure.
"""

import itertools
import json
import random
import time

import pytest

from growthlab.arith import is_prime, prime_power_decompose, primes_up_to
from growthlab.cli import main as cli_main
from growthlab.groups import (
    NilpotentGf,
    SemidirectFgAbelian,
    WreathCyclic,
    ZkByZ,
    asymptotic_leading,
    max_subgroups,
    mdeg,
)
from growthlab.modules import (
    FiberModule,
    MatrixAction,
    Presented,
    chain_count,
    count_max_submodules,
    fiber_mod_p,
    growth_type_classify,
    joint_spectrum,
)
from growthlab.oracle import (
    oracle_count_max_submodules,
    oracle_der_count,
    oracle_finite_group_max_subgroups,
)
from growthlab.poly import (
    PrimeField,
    count_irreducibles,
    factor_mod_p,
    int_poly_to_field,
    pmod,
    pmul,
    pnormalize,
)
from growthlab.linalg import smith_normal_form_poly, x_minus_matrix


def _budget(start, limit, label):
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"{label} exceeded {limit}s budget ({elapsed:.1f}s)"


def test_criterion_1_wreath_golden_table(tmp_path, capsys):
    start = time.monotonic()
    g = WreathCyclic(3)
    for p in primes_up_to(1000):
        if p == 3:
            # m_3 = 4 and every higher power of 3 vanishes
            assert max_subgroups(g, 3) == 4
            assert max_subgroups(g, 9) == 0
            assert max_subgroups(g, 27) == 0
            continue
        expected_p = 1 + 2 * p if p % 3 == 1 else 1
        expected_p2 = 0 if p % 3 == 1 else p * p
        assert max_subgroups(g, p) == expected_p, p
        assert max_subgroups(g, p * p) == expected_p2, p
        assert max_subgroups(g, p ** 3) == 0, p
    # non-prime-powers vanish
    for n in (6, 10, 12, 100, 1998):
        assert max_subgroups(g, n) == 0
    # CLI cross-check on a small window
    spec = tmp_path / "wreath.json"
    spec.write_text(json.dumps({"type": "wreath_cyclic", "m": 3}))
    assert cli_main(["table", str(spec), "--max-n", "200", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,p,k,count,mtriv,mnontriv,exact"
    table = {int(r.split(",")[0]): int(r.split(",")[3]) for r in lines[1:]}
    for n, count in table.items():
        assert count == max_subgroups(g, n), n
    _budget(start, 10, "criterion 1")
    print("criterion 1 (wreath golden table): PASS")


def test_criterion_2_permutation_mdeg():
    start = time.monotonic()
    checked = 0
    for k in range(1, 6):
        for sigma in itertools.permutations(range(k)):
            P = tuple(
                tuple(1 if r == sigma[c] else 0 for c in range(k)) for r in range(k)
            )
            cycles = _cycle_count(sigma)
            g = ZkByZ(MatrixAction(k=k, torsion=(), actions=(P,), group_action=True))
            m = mdeg(g)
            assert m.value == cycles, (sigma, m)
            assert m.exactness == "exact"
            checked += 1
    assert checked == sum(
        len(list(itertools.permutations(range(k)))) for k in range(1, 6)
    )
    _budget(start, 5, "criterion 2")
    print(f"criterion 2 (mdeg = cycle count, {checked} permutations): PASS")


def _cycle_count(sigma):
    seen, cycles = set(), 0
    for i in range(len(sigma)):
        if i in seen:
            continue
        cycles += 1
        j = i
        while j not in seen:
            seen.add(j)
            j = sigma[j]
    return cycles


def test_criterion_3_engine_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    built = 0
    compared = 0
    while built < 200:
        k = rng.randint(1, 4)
        ell = rng.choice([1, 2])
        A = tuple(
            tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k)
        )
        acts = [A]
        if ell == 2:
            c0, c1 = rng.randint(-3, 3), rng.randint(-3, 3)
            B = tuple(
                tuple(
                    c0 * (1 if i == j else 0) + c1 * A[i][j] for j in range(k)
                )
                for i in range(k)
            )
            acts.append(B)
        m = MatrixAction(k=k, torsion=(), actions=tuple(acts), group_action=False)
        built += 1
        for p in (2, 3):
            if p ** k > 81:
                continue
            fib = fiber_mod_p(m, p)
            for j in range(1, k + 1):
                n = p ** j
                assert count_max_submodules(m, n) == oracle_count_max_submodules(
                    fib, n
                ), (A, acts, n)
                compared += 1
    assert compared > 0
    _budget(start, 60, "criterion 3")
    print(f"criterion 3 (engine vs subspace oracle, {compared} counts): PASS")


def test_criterion_4_ell1_chain_crosscheck():
    start = time.monotonic()
    rng = random.Random(404)
    for _ in range(50):
        k = rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(k))
        m = MatrixAction(k=k, torsion=(), actions=(A,), group_action=False)
        for p in primes_up_to(23):
            F = PrimeField(p)
            Abar = [[F.from_int(x) for x in row] for row in A]
            snf = smith_normal_form_poly(F, x_minus_matrix(F, Abar))
            invf = tuple(
                tuple(d) for d in snf.diagonal if len(d) > 1
            )
            spectrum = joint_spectrum(fiber_mod_p(m, p))
            for j in range(1, min(k, 4) + 1):
                n = p ** j
                expected = chain_count(invf, 0, n)
                assert count_max_submodules(m, n) == expected, (A, p, j)
                from_spectrum = sum((n ** e.s - 1) // (n - 1) for e in spectrum if e.e == j)
                assert from_spectrum == expected, (A, p, j)
    _budget(start, 30, "criterion 4")
    print("criterion 4 (joint spectrum vs invariant-factor chain, 50 matrices): PASS")


def test_criterion_5_irreducible_counts():
    start = time.monotonic()
    for p in (2, 3, 5):
        F = PrimeField(p)
        for k in range(1, 5):
            count = 0
            for tail in itertools.product(range(p), repeat=k):
                f = [F.from_int(c) for c in tail] + [F.one]
                if _is_irreducible_by_trial_division(F, f, p):
                    count += 1
            assert count == count_irreducibles(p, k), (p, k)
    _budget(start, 20, "criterion 5")
    print("criterion 5 (irreducible counts vs exhaustive enumeration): PASS")


def _is_irreducible_by_trial_division(F, f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = [F.from_int(c) for c in tail] + [F.one]
            if not pmod(F, f, g):
                return False
    return True


def test_criterion_6_derivation_counts():
    start = time.monotonic()
    rng = random.Random(606)
    done = 0
    while done < 100:
        p = rng.choice([2, 3, 5])
        trivial = rng.random() < 0.5
        if trivial:
            rank = rng.randint(0, 2)
            torsion = tuple(
                rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(0, 2))
            )
            gens = rank + len(torsion)
            if gens == 0 or p ** gens > 10 ** 6:
                continue
            ident = tuple(tuple(1 if i == j else 0 for j in range(1)) for i in range(1))
            mats = tuple(ident for _ in range(gens))
            # Der(A, F_p) = Hom(A, F_p): p^u maps, with (p^u - 1)/(p - 1)
            # maximal subgroups of A, the semidirect product with N = 0
            zero = MatrixAction(k=0, torsion=(), actions=((),) * gens, group_action=True)
            A = SemidirectFgAbelian(zero, acting_rank=rank, acting_torsion=torsion)
            expected = 1 + (p - 1) * max_subgroups(A, p)
            got = oracle_der_count(rank, torsion, p, 1, mats)
        else:
            # one free generator acting by the companion of an irreducible
            # polynomial; extra generators act trivially
            degree = rng.randint(2, 3)
            g = _random_irreducible(F=PrimeField(p), p=p, degree=degree, rng=rng)
            comp = _companion(p, g)
            extra = rng.randint(0, 1)
            rank = 1 + extra
            torsion = ()
            ident = tuple(
                tuple(1 if i == j else 0 for j in range(degree))
                for i in range(degree)
            )
            if (p ** degree) ** rank > 10 ** 6:
                continue
            mats = (comp,) + tuple(ident for _ in range(extra))
            # S x| A has |Der(A, S)| = |S| maximal subgroups of index |S|,
            # the complements of S
            S = MatrixAction(k=0, torsion=(p,) * degree, actions=mats, group_action=True)
            expected = max_subgroups(SemidirectFgAbelian(S, acting_rank=rank, acting_torsion=torsion), p ** degree)
            got = oracle_der_count(rank, torsion, p, degree, mats)
        assert got == expected, (p, trivial, done)
        done += 1
    _budget(start, 20, "criterion 6")
    print("criterion 6 (derivation counts vs group counts, 100 instances): PASS")


def _random_irreducible(F, p, degree, rng):
    while True:
        tail = [rng.randrange(p) for _ in range(degree)]
        f = [F.from_int(c) for c in tail] + [F.one]
        fac = factor_mod_p(f, p)
        if len(fac.factors) == 1 and fac.factors[0][1] == 1:
            return f


def _companion(p, g):
    deg = len(g) - 1
    cols = []
    for j in range(deg):
        if j < deg - 1:
            cols.append([1 if i == j + 1 else 0 for i in range(deg)])
        else:
            cols.append([(-int(g[i])) % p for i in range(deg)])
    return tuple(tuple(cols[j][i] for j in range(deg)) for i in range(deg))


def test_criterion_7_leading_term_bound():
    start = time.monotonic()
    # companion of (x-1)(x^2+x+1) = x^3 - 1 has last column (1, 0, 0)
    matrices = {
        "3-cycle": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        "companion(x^2+1)": ((0, -1), (1, 0)),
        "companion(x^3-1)": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    }
    for label, A in matrices.items():
        g = ZkByZ(
            MatrixAction(k=len(A), torsion=(), actions=(A,), group_action=True)
        )
        rho1, d = asymptotic_leading(g)
        samples = []
        for n in range(2, 2001):
            if prime_power_decompose(n) is None:
                continue
            samples.append((n, max_subgroups(g, n)))
        # one fitted constant for the whole range
        C = max((m - rho1 * n ** d) / n ** (d - 1) for n, m in samples)
        assert C < float("inf")
        for n, m in samples:
            assert m <= rho1 * n ** d + C * n ** (d - 1), (label, n)
        lower_hits = sum(
            1 for n, m in samples if is_prime(n) and m >= rho1 * n ** d
        )
        assert lower_hits >= 10, (label, lower_hits)
    _budget(start, 30, "criterion 7")
    print("criterion 7 (leading-term bound, 3 actions, n <= 2000): PASS")


def test_criterion_8_quadratic_reciprocity_regression():
    start = time.monotonic()
    # p = 3 ramifies: x^2+x+1 = (x-1)^2 and (-3|3) = 0, so the two-way
    # equivalence is stated for odd primes p != 3; (-3|p) is taken by
    # Euler's criterion
    for p in primes_up_to(5000):
        if p in (2, 3):
            continue
        F = PrimeField(p)
        fac = factor_mod_p(int_poly_to_field(F, [1, 1, 1]), p)
        reducible = len(fac.factors) > 1
        assert reducible == (p % 3 == 1), p
        assert (pow(-3 % p, (p - 1) // 2, p) == 1) == (p % 3 == 1), p
    _budget(start, 10, "criterion 8")
    print("criterion 8 (x^2+x+1 splits iff p = 1 mod 3 iff (-3|p) = 1): PASS")


def test_criterion_9_growth_type_trichotomy():
    start = time.monotonic()
    zx = Presented(gens=1, relations=())
    assert str(growth_type_classify(zx)) == "n^1"
    zx5 = Presented(gens=1, relations=(((5,),),))
    assert str(growth_type_classify(zx5)) == "n^1/log n"
    zi = Presented(gens=1, relations=(((1, 0, 1),),))
    assert str(growth_type_classify(zi)) == "bounded"
    zx2 = Presented(gens=2, relations=())
    assert str(growth_type_classify(zx2)) == "n^2"
    # numeric check of the d = 2 count: m_p = p^2 + p for primes <= 100
    for p in primes_up_to(100):
        assert count_max_submodules(zx2, p) == p * p + p, p
    _budget(start, 10, "criterion 9")
    print("criterion 9 (growth-type trichotomy + numeric d=2 check): PASS")


def test_criterion_10_nilpotent_family():
    start = time.monotonic()
    heis = NilpotentGf(ell=2, f_vectors={(1, 2): (1,)})
    for p in primes_up_to(100):
        assert max_subgroups(heis, p) == p + 1, p
    assert mdeg(heis).value == 1
    for ell in (2, 3):
        triv = NilpotentGf(ell=ell, f_vectors={})
        kk = ell * (ell - 1) // 2
        assert mdeg(triv).value == ell + kk - 1
        for p in (2, 3, 5, 7):
            assert max_subgroups(triv, p) == (p ** (ell + kk) - 1) // (p - 1), (
                ell,
                p,
            )
    _budget(start, 10, "criterion 10")
    print("criterion 10 (nilpotent family: Heisenberg and trivial f): PASS")


def test_criterion_11_finite_shadow():
    start = time.monotonic()
    cyc = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    for p in (2, 5, 7):
        finite = SemidirectFgAbelian(
            module=MatrixAction(
                k=0, torsion=(p, p, p), actions=(cyc,), group_action=True
            ),
            acting_rank=0,
            acting_torsion=(3,),
        )
        order = 3 * p ** 3
        n = 2
        while n <= order:
            if prime_power_decompose(n) is not None:
                assert max_subgroups(finite, n) == oracle_finite_group_max_subgroups(
                    p, 3, 3, cyc, n
                ), (p, n)
            n += 1
    _budget(start, 60, "criterion 11")
    print("criterion 11 (finite shadow, formula path vs exhaustive oracle): PASS")
