"""Primes and prime powers: the integer arithmetic the counts are indexed by.

A primality test, the decomposition of an index n = p**k, and a sieve.
Nothing here factors an integer.  Everything works with Python's
arbitrary-precision ints; counts such as p**(l + t - 1) routinely overflow
64 bits.
"""

from __future__ import annotations

import functools
import math

from ._record import Record

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


class PrimePowerIndex(Record):
    """An index n together with its decomposition n = p**k."""

    n: int
    p: int
    k: int

    def __post_init__(self):
        if self.p ** self.k != self.n or self.k < 1:
            raise ValueError(f"{self.n} != {self.p}**{self.k}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@functools.lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division, then Miller-Rabin).

    The witness set is only proven below ~3.3e24; larger inputs are refused
    rather than answered probabilistically.  Cached: every public entry
    point checks its prime, so one count tests the same p many times.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} beyond deterministic witness range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a >= n:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_decompose(n: int) -> PrimePowerIndex | None:
    """Return (p, k) with n = p**k, or None if n is not a prime power.

    A non-prime-power index is a normal outcome: every count indexed by it
    is zero for the solvable groups treated here.
    """
    if n < 2:
        raise ValueError(f"index must be >= 2, got {n}")
    # n = p**k with k > 1 is an r**q with q a prime factor of k, q <= log2 n,
    # and r = p**(k/q): take that root and go on from r.  The cached
    # primality test comes first, so a prime takes no root; past its range
    # only the roots can tell
    p, k = n, 1
    while p >= _MR_LIMIT or not is_prime(p):
        for q in primes_up_to(p.bit_length()):
            r = _integer_kth_root(p, q)
            if r ** q == p:
                p, k = r, k * q
                break
        else:
            return PrimePowerIndex(n, p, k) if is_prime(p) else None
    return PrimePowerIndex(n, p, k)


def _integer_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, by integer Newton steps from above.

    The start is a float estimate raised by a relative 2^-30, far above the
    float's error, or a power of 2 where the root is past float range.  From
    any start at or above the root the steps decrease to it: by the AM-GM
    inequality a step never falls below it.
    """
    bits = n.bit_length()
    if bits // k < 1000:
        r = int(2 ** (math.log2(n) / k) * (1 + 2 ** -30)) + 1
    else:
        r = 1 << -(-bits // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, bound + 1) if sieve[i]]
