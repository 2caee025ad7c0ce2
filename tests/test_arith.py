import random

import pytest

from growthlab import arith
from growthlab.arith import (
    PrimePowerIndex,
    _integer_kth_root,
    is_prime,
    prime_power_decompose,
    primes_up_to,
)
from growthlab.modules import MatrixAction, Presented, count_max_submodules
from growthlab.poly import count_irreducibles


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


def test_prime_power_decompose_examples():
    assert prime_power_decompose(8) == PrimePowerIndex(8, 2, 3)
    assert prime_power_decompose(7) == PrimePowerIndex(7, 7, 1)
    assert prime_power_decompose(729) == PrimePowerIndex(729, 3, 6)
    assert prime_power_decompose(6) is None
    assert prime_power_decompose(12) is None
    assert prime_power_decompose(100) is None


def test_a_prime_index_takes_no_root(monkeypatch):
    # the cached primality test runs first; the square of a 61-bit prime is
    # past its range, so a root finds it
    roots = []
    kth_root = arith._integer_kth_root
    monkeypatch.setattr(arith, "_integer_kth_root", lambda n, k: roots.append(k) or kth_root(n, k))
    p = 2 ** 61 - 1
    assert prime_power_decompose(p) == PrimePowerIndex(p, p, 1)
    assert roots == []
    assert prime_power_decompose(p ** 2) == PrimePowerIndex(p ** 2, p, 2)
    assert roots == [2]


def test_huge_indices():
    # past float range: roots must be taken in integers
    assert prime_power_decompose(2 ** 1100) == PrimePowerIndex(2 ** 1100, 2, 1100)
    assert prime_power_decompose(3 ** 700 * 5) is None
    trivial = MatrixAction(k=1, torsion=(), actions=(((1,),),))
    assert count_max_submodules(trivial, 2 ** 1100) == 0
    zx = Presented(gens=1, relations=())
    assert count_max_submodules(zx, 2 ** 1100) == count_irreducibles(2, 1100)


def _root_by_bisection(n, k):
    lo, hi = 0, 1 << -(-n.bit_length() // k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _decompose_by_bisection(n):
    """Every exponent k from n.bit_length() down to 1, each root by
    bisection; a ValueError of is_prime is returned as its type."""
    try:
        for k in range(n.bit_length(), 0, -1):
            p = _root_by_bisection(n, k) if k > 1 else n
            if p ** k == n and is_prime(p):
                return PrimePowerIndex(n, p, k)
        return None
    except ValueError as exc:
        return type(exc)


def _decompose(n):
    try:
        return prime_power_decompose(n)
    except ValueError as exc:
        return type(exc)


def test_prime_power_decompose_matches_bisection():
    # n = p^k +- 1 past 3.3e24 with no small factor is refused by is_prime
    # either way
    cases = list(range(2, 5001)) + [6 ** 10, 2 ** 64 * 3]
    for p in (2, 3, 5, 7, 11, 101, 65_537, 1_000_003, 2 ** 31 - 1, 2 ** 61 - 1):
        for k in range(1, 9):
            cases += [p ** k - 1, p ** k, p ** k + 1]
    for n in cases:
        if n >= 2:
            assert _decompose(n) == _decompose_by_bisection(n), n


def test_integer_kth_root_matches_bisection():
    # around exact powers, where a float estimate is off by one, and past
    # float range
    rng = random.Random(3)
    for _ in range(150):
        bits = rng.choice((8, 40, 70, 200, 1100))
        k = rng.randint(2, 70 if bits < 1100 else 5)
        r = rng.getrandbits(bits)
        for n in (r ** k - 1, r ** k, r ** k + 1, rng.getrandbits(rng.randint(1, 3000))):
            if n >= 1:
                assert _integer_kth_root(n, k) == _root_by_bisection(n, k), (n, k)


def test_prime_power_decompose_rejects_small():
    with pytest.raises(ValueError):
        prime_power_decompose(1)
    with pytest.raises(ValueError):
        prime_power_decompose(0)


def test_prime_power_index_validates():
    with pytest.raises(ValueError):
        PrimePowerIndex(9, 3, 1)
    with pytest.raises(ValueError):
        PrimePowerIndex(8, 4, 2)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(2) == [2]
    assert len(primes_up_to(1000)) == 168
