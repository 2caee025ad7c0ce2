import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from growthlab import poly
from growthlab.poly import (
    MAX_EXPONENT,
    QQ,
    PrimeField,
    count_irreducibles,
    distinct_complex_root_count,
    distinct_degree_factorization,
    factor_mod_p,
    gcd_over_field,
    int_poly_to_field,
    parse_poly,
    padd,
    pdeg,
    pderiv,
    pdivmod,
    peval,
    pmod,
    pmonic,
    pmul,
    pnormalize,
    poly_to_str,
    ppowmod,
    psub,
    squarefree_part,
)

PRIMES = [2, 3, 5, 7, 11, 13]


def test_parse_poly_examples():
    assert parse_poly("x^3 - 1") == [-1, 0, 0, 1]
    assert parse_poly("6*x^2 + 4") == [4, 0, 6]
    assert parse_poly("x") == [0, 1]
    assert parse_poly("5") == [5]
    assert parse_poly("-x + 2") == [2, -1]
    assert parse_poly("x^2 − 1") == [-1, 0, 1]  # unicode minus
    assert parse_poly("2*x + 3*x") == [0, 5]
    assert parse_poly(f"x^{MAX_EXPONENT}") == [0] * MAX_EXPONENT + [1]


def test_parse_poly_rejects_garbage():
    for bad in ("", "x^", "y + 1", "x**2", "^3", "x^99999999999"):
        with pytest.raises(ValueError):
            parse_poly(bad)


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)
)
def test_poly_str_roundtrip(coeffs):
    f = pnormalize(coeffs)
    assert parse_poly(poly_to_str(f)) == f


def test_gcd_examples():
    F = PrimeField(5)
    f = int_poly_to_field(F, [-1, 0, 0, 1])  # x^3 - 1
    g = int_poly_to_field(F, [-1, 1])  # x - 1
    assert gcd_over_field(F, f, g) == g
    assert gcd_over_field(QQ, [Fraction(2)], [Fraction(0)]) == [Fraction(1)]
    with pytest.raises(ValueError):
        gcd_over_field(QQ, [], [])


def test_squarefree_part():
    # (x-1)^2 (x+1) over Q
    f = [Fraction(c) for c in [1, -1, -1, 1]]
    assert squarefree_part(QQ, f) == [Fraction(-1), Fraction(0), Fraction(1)]
    # (x-1)^5 over F_5: derivative vanishes
    F = PrimeField(5)
    f5 = [1]
    for _ in range(5):
        f5 = pmul(F, f5, [4, 1])
    assert squarefree_part(F, f5) == [4, 1]


def _fraction_euclid_squarefree_part(f):
    """Reference: f / gcd(f, f') by Euclid in Fraction arithmetic, monic."""
    g = gcd_over_field(QQ, f, pderiv(QQ, f))
    return pmonic(QQ, pdivmod(QQ, f, g)[0])


def test_squarefree_part_over_q_matches_fraction_euclid():
    # seeded products of random factors, some repeated, scaled by a random
    # rational so the content, sign and denominators vary
    rng = random.Random(11)
    for _ in range(200):
        f = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))]
        for _ in range(rng.randint(1, 4)):
            factor = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
            factor.append(Fraction(rng.randint(1, 3)))
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = pmul(QQ, f, factor)
        if pdeg(f) < 1:
            continue
        assert squarefree_part(QQ, f) == _fraction_euclid_squarefree_part(f), f


def test_distinct_complex_root_count():
    assert distinct_complex_root_count([-1, 0, 0, 1]) == 3  # x^3 - 1
    assert distinct_complex_root_count([1, 0, 2, 0, 1]) == 2  # (x^2+1)^2
    assert distinct_complex_root_count([-1, 1]) == 1
    with pytest.raises(ValueError):
        distinct_complex_root_count([7])


def test_factor_mod_p_examples():
    fac = factor_mod_p([-1, 0, 0, 1], 7)  # three linear factors
    assert fac.unit == 1
    assert [len(f) - 1 for f, _ in fac.factors] == [1, 1, 1]
    fac2 = factor_mod_p([-1, 0, 0, 1], 2)  # (x+1)(x^2+x+1)
    assert sorted((len(f) - 1, m) for f, m in fac2.factors) == [(1, 1), (2, 1)]
    fac3 = factor_mod_p([1, 1, 1], 3)  # (x-1)^2 mod 3
    assert fac3.factors == (((2, 1), 2),)


def test_factor_mod_p_rejects():
    with pytest.raises(ValueError):
        factor_mod_p([1, 1], 6)
    with pytest.raises(ValueError):
        factor_mod_p([5], 5)  # vanishes mod 5


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=2, max_size=9),
    st.sampled_from(PRIMES),
    st.integers(min_value=0, max_value=2 ** 31),
)
def test_factor_mod_p_remultiplies(coeffs, p, seed):
    F = PrimeField(p)
    f = int_poly_to_field(F, coeffs)
    if pdeg(f) < 1:
        return
    # the splitting seed is fixed; patching it varies the random elements
    with mock.patch.object(poly, "_SPLIT_SEED", seed):
        fac = factor_mod_p(f, p)
    assert pnormalize(fac.remultiply()) == f
    for g, mult in fac.factors:
        assert g[-1] == 1  # monic
        assert mult >= 1
        # irreducible: no monic divisor of degree 1..deg-1 found by gcd scan
        if len(g) - 1 >= 2:
            for a in range(p):
                assert (
                    sum(c * a ** i for i, c in enumerate(g)) % p != 0
                ), f"{g} has root {a} mod {p}"


@pytest.mark.parametrize("p", [*PRIMES, 2 ** 31 - 1])
def test_distinct_degree_blocks_tally_the_factor_degrees(p):
    # squarefree parts of seeded polynomials: block d holds deg G_d / d
    # irreducibles of degree d, as factor_mod_p finds them, and the blocks
    # multiply back to f
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(35):
        f = [rng.randrange(p) for _ in range(rng.randint(1, 12 if p < 100 else 8))] + [1]
        f = squarefree_part(F, f)
        blocks = distinct_degree_factorization(F, f)
        assert [d for d, _ in blocks] == sorted({d for d, _ in blocks})
        assert all(pdeg(g) % d == 0 and g[-1] == 1 for d, g in blocks)
        tally = Counter(len(g) - 1 for g, _ in factor_mod_p(f, p).factors)
        assert {d: pdeg(g) // d for d, g in blocks} == tally
        product = [1]
        for _, g in blocks:
            product = pmul(F, product, g)
        assert product == f


def _powmod_by_squaring(F, a, e, m):
    """a^e mod m by right-to-left square-and-multiply on pmul and pmod."""
    out, a = [F.one], pmod(F, a, m)
    while e:
        if e & 1:
            out = pmod(F, pmul(F, out, a), m)
        e >>= 1
        a = pmod(F, pmul(F, a, a), m)
    return out


def _ddf_by_powers(F, f):
    """Distinct-degree factorization that takes h = x^(p^d) by a fresh
    square-and-multiply modulo what is left of f at every step."""
    out, x, h, d, rest = [], [F.zero, F.one], [F.zero, F.one], 0, f
    while pdeg(rest) >= 2 * (d + 1):
        d += 1
        h = _powmod_by_squaring(F, h, F.p, rest)
        g = gcd_over_field(F, psub(F, h, x), rest)
        if pdeg(g) >= 1:
            out.append((d, g))
            rest = pdivmod(F, rest, g)[0]
            h = pmod(F, h, rest)
    if pdeg(rest) >= 1:
        out.append((pdeg(rest), rest))
    return out


@pytest.mark.parametrize("p", [2, 3, 41, 2 ** 31 - 1, 2 ** 61 - 1])
def test_distinct_degree_factorization_matches_fresh_powers(p):
    # the Frobenius matrix Q takes over from ppowmod after a few steps at
    # p = 41 and from the first at the other primes; squarefree parts of
    # seeded polynomials up to degree 40, and products of small factors,
    # which split in a few steps, must give the blocks of the reference
    F = PrimeField(p)
    rng = random.Random(p)
    for trial in range(12):
        if trial % 3:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 40))] + [1]
        else:
            f = [1]
            for _ in range(rng.randint(1, 12)):
                f = pmul(F, f, [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
        f = squarefree_part(F, f)
        assert distinct_degree_factorization(F, f) == _ddf_by_powers(F, f), (p, f)


def test_count_irreducibles_values():
    assert count_irreducibles(2, 1) == 2
    assert count_irreducibles(2, 2) == 1
    assert count_irreducibles(2, 3) == 2
    assert count_irreducibles(3, 2) == 3
    assert count_irreducibles(5, 1) == 5
    with pytest.raises(ValueError):
        count_irreducibles(5, 0)


def test_count_irreducibles_refuses_a_non_prime():
    for p in (4, 1, 0, -3, 2 ** 31 + 1):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            count_irreducibles(p, 2)


def _mobius(m):
    """Moebius function by trial division."""
    sign, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            sign = -sign
        q += 1
    return -sign if m > 1 else sign


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 31 - 1, 2 ** 61 - 1])
def test_count_irreducibles_matches_moebius_inversion(p):
    # Gauss's formula N_k = (1/k) sum_{d | k} mu(k/d) p^d
    for k in [*range(1, 61), *([720] if p == 2 else [])]:
        total = sum(_mobius(k // d) * p ** d for d in range(1, k + 1) if k % d == 0)
        assert count_irreducibles(p, k) * k == total, (p, k)


def test_division_identity():
    F = PrimeField(7)
    a = int_poly_to_field(F, [3, 1, 4, 1, 5])
    b = int_poly_to_field(F, [2, 0, 1])
    q, r = pdivmod(F, a, b)
    assert padd(F, pmul(F, q, b), r) == a
    assert pdeg(r) < pdeg(b)


def test_monic_normalization():
    F = PrimeField(5)
    assert pmonic(F, [2, 4]) == [3, 1]
    assert pmod(F, [1, 0, 1], [1, 1]) == [2]


# -- the kernels against references that reduce after every operation ------------

@pytest.mark.parametrize("p", [2, 3, 41, 2 ** 31 - 1, 2 ** 61 - 1])
def test_ppowmod_matches_square_and_multiply(p):
    # ppowmod multiplies packed ints; the reference is the list kernels.
    # Moduli of degree 1..40 and 128, monic and not, a of degree up to
    # twice deg m (so reduced first) or 0, and every coefficient p - 1 in
    # both, the largest the slots of a packed product can hold
    F = PrimeField(p)
    rng = random.Random(f"ppowmod {p}")
    for n in [*range(1, 41), 128]:
        m = [rng.randrange(p) for _ in range(n)] + [1 if n % 2 else rng.randrange(1, p)]
        a = pnormalize([rng.randrange(p) for _ in range(rng.randint(0, 2 * n + 1))])
        cases = [(m, a), (m, []), ([p - 1] * (n + 1), [p - 1] * n)]
        d = 1 + n % 3
        exponents = [0, 1, p, p * p, (p ** d - 1) // 2, rng.getrandbits(80)]
        if n > 12 and p > 41:
            # the reference takes a schoolbook product per bit
            exponents = [0, 1, p]
        for modulus, base in cases:
            for e in exponents:
                want = _powmod_by_squaring(F, base, e, modulus)
                assert ppowmod(F, base, e, modulus) == want, (p, modulus, base, e)


def test_trace_split_at_2_remultiplies():
    # at p = 2 equal-degree splitting takes the trace a + a^2 + ... ; products
    # of small random factors, made squarefree, have several irreducibles of
    # each small degree, so the trace split runs on most of them
    F = PrimeField(2)
    rng = random.Random(2)
    splits = 0
    for _ in range(60):
        f, degree = [1], rng.randint(4, 40)
        while pdeg(f) < degree:
            f = pmul(F, f, [rng.randrange(2) for _ in range(rng.randint(1, 5))] + [1])
        f = squarefree_part(F, f)
        fac = factor_mod_p(f, 2)
        assert fac.remultiply() == f
        for g, mult in fac.factors:
            assert mult == 1 and distinct_degree_factorization(F, list(g)) == [(len(g) - 1, list(g))]
        blocks = distinct_degree_factorization(F, f)
        splits += sum(pdeg(g) > d for d, g in blocks)
    assert splits >= 30


KERNEL_FIELDS = [PrimeField(p) for p in (2, 3, 7, 2 ** 31 - 1, 2 ** 61 - 1)] + [QQ]


def _r(F, x):
    """x reduced after one operation: x mod p over F_p, x itself over Q."""
    return x % F.p if isinstance(F, PrimeField) else x


def _random_poly(F, rng, length):
    if isinstance(F, PrimeField):
        coeffs = [rng.choice((0, rng.randrange(F.p))) for _ in range(length)]
    else:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length)]
    return pnormalize(coeffs)


def _ref_add(F, a, b):
    out = [F.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = _r(F, out[i] + x)
    for i, y in enumerate(b):
        out[i] = _r(F, out[i] + y)
    return pnormalize(out)


def _ref_neg(F, a):
    return [_r(F, -x) for x in a]


def _ref_mul(F, a, b):
    out = [F.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _r(F, out[i + j] + _r(F, x * y))
    return pnormalize(out)


def _ref_divmod(F, a, b):
    a, q = list(a), [F.zero] * max(len(a) - len(b) + 1, 0)
    inv = F.inv(b[-1])
    while len(a) >= len(b):
        c, k = _r(F, a[-1] * inv), len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = _r(F, a[k + i] - _r(F, c * y))
        a = pnormalize(a)
    return pnormalize(q), a


def _ref_eval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = _r(F, _r(F, acc * x) + c)
    return acc


def _assert_reduced(F, coeffs):
    for c in coeffs:
        if isinstance(F, PrimeField):
            assert type(c) is int and 0 <= c < F.p, (F, c)
        else:
            assert isinstance(c, Fraction), c


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_kernels_match_per_operation_reduction(F):
    rng = random.Random(repr(F))
    for _ in range(60):
        a = _random_poly(F, rng, rng.randint(0, 9))
        b = _random_poly(F, rng, rng.randint(0, 6))
        x = _random_poly(F, rng, 1)
        x = x[0] if x else F.zero
        results = {
            "pmul": (pmul(F, a, b), _ref_mul(F, a, b)),
            "padd": (padd(F, a, b), _ref_add(F, a, b)),
            "psub": (psub(F, a, b), _ref_add(F, a, _ref_neg(F, b))),
            "pderiv": (pderiv(F, a), pnormalize([_r(F, i * c) for i, c in enumerate(a)][1:])),
        }
        if b:
            results["pdivmod"] = (pdivmod(F, a, b), _ref_divmod(F, a, b))
        for name, (got, want) in results.items():
            assert got == want, (name, F, a, b)
            _assert_reduced(F, got[0] + got[1] if name == "pdivmod" else got)
        value = peval(F, a, x)
        assert value == _ref_eval(F, a, x)
        _assert_reduced(F, [value])


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
def test_kernel_edge_cases(F):
    rng = random.Random(f"edge {F!r}")
    a = _random_poly(F, rng, 6) or [F.one]
    c = F.from_int(5)  # nonzero in every field of KERNEL_FIELDS
    assert pmul(F, [], a) == pmul(F, a, []) == []
    assert padd(F, [], a) == padd(F, a, []) == a
    assert psub(F, a, []) == a and psub(F, a, a) == []
    assert psub(F, [], a) == _ref_neg(F, a)
    _assert_reduced(F, psub(F, [], a))
    assert pdivmod(F, [], a) == ([], [])
    assert pdivmod(F, a, [c]) == ([_r(F, x * F.inv(c)) for x in a], [])
    assert pdivmod(F, [c], a + [F.one]) == ([], [c])
    assert pderiv(F, []) == pderiv(F, [c]) == []
    assert peval(F, [], c) == F.zero
    with pytest.raises(ZeroDivisionError):
        pdivmod(F, a, [])
