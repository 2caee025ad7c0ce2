"""Seeded inputs for the three benchmark workloads and the independent
answers their outputs are checked against.

Nothing here imports growthlab: inputs reach the program only as spec files
and prime lists, and the wreath answers come from a closed form.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("wreath_table", "presented_table", "big_primes")

WREATH_M = 9
# At this bound the joint-spectrum search outweighs the 9! determinant of
# spec validation.
WREATH_MAX_N = 200
# The work of a table differs by up to a third between random matrices, with
# the factorization of the characteristic polynomial, so a presented_table
# pass covers several matrices.
PRESENTED_SPECS = 8
PRESENTED_MAX_N = 100
QUERY_CHILDREN = 4  # short children give more repetitions per run
DIM = 5
PRIME_BITS = (20, 61)

CSV_HEADER = "n,p,k,count,mtriv,mnontriv,exact"


def seeded_matrices(workload: str, seed: int, count: int) -> list[list[list[int]]]:
    """`count` DIM x DIM integer matrices with entries in -3..3, fixed by
    (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}:matrices")
    return [[[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)]
            for _ in range(count)]


def _int_matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def second_action(a):
    """A^2 + 2A + I, a polynomial in A, so it commutes with A."""
    sq = _int_matmul(a, a)
    n = len(a)
    return [[sq[i][j] + 2 * a[i][j] + (i == j) for j in range(n)] for i in range(n)]


def _linear_entry(c: int, diagonal: bool) -> str:
    """Text of the polynomial x*[diagonal] - c."""
    if not diagonal:
        return str(-c)
    if c == 0:
        return "x"
    return f"x - {c}" if c > 0 else f"x + {-c}"


def presented_spec(a) -> dict:
    """module_presented spec of coker(xI - A): relation j is column j."""
    n = len(a)
    relations = [[_linear_entry(a[i][j], i == j) for i in range(n)] for j in range(n)]
    return {"type": "module_presented", "gens": n, "relations": relations}


def matrix_spec(actions) -> dict:
    return {"type": "module_matrix", "actions": [list(map(list, m)) for m in actions]}


def wreath_spec() -> dict:
    return {"type": "wreath_cyclic", "m": WREATH_M}


# -- primes ---------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(c):
            return c


# -- query mix of big_primes ----------------------------------------------------
#
# The cost of a query is set by how the characteristic polynomial of A
# factors mod p: every irreducible factor of degree d >= 2 leaves a component
# on which the locality search runs its whole failure budget.  Left to chance,
# the mix of factorization patterns, and with it the median query, moves by
# tens of percent between seeds.  So every seed gets the same patterns, in the
# same slots; the seed draws the matrices and primes that realise them.
#
# The slot counts are the pattern frequencies of the workload's own input
# distribution: PATTERN_SAMPLE holds the patterns of pattern_sample(20000)
# (A with entries in -3..3, p of a uniform bit length in PRIME_BITS), and
# QUERIES slots are shared out by largest remainder.  None marks a
# characteristic polynomial that is not squarefree mod p; it is too rare to
# get a slot.

PATTERN_SAMPLE_DRAWS = 20000
PATTERN_SAMPLE = {
    (1, 4): 4947, (5,): 3684, (1, 1, 3): 3497, (2, 3): 3129,
    (1, 2, 2): 2506, (1, 1, 1, 2): 1956, (1, 1, 1, 1, 1): 262, None: 19,
}
QUERIES = 40


def share_slots(frequencies: dict, slots: int) -> dict:
    """`slots` shared out in proportion to `frequencies` by largest remainder;
    keys that get no slot are left out."""
    total = sum(frequencies.values())
    exact = {k: v * slots / total for k, v in frequencies.items()}
    out = {k: int(x) for k, x in exact.items()}
    by_remainder = sorted(exact, key=lambda k: exact[k] - out[k], reverse=True)
    for k in by_remainder[: slots - sum(out.values())]:
        out[k] += 1
    return {k: v for k, v in out.items() if v}


def pattern_sample(draws: int) -> dict:
    """Factorization patterns of det(xI - A) mod p over `draws` fixed-seed
    draws of the workload's inputs, as {pattern: count}."""
    rng = random.Random("big_primes:pattern-sample")
    counts: dict = {}
    for _ in range(draws):
        a = [[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)]
        p = random_prime(rng, rng.randint(*PRIME_BITS))
        pattern = factor_pattern(char_poly(a), p)
        counts[pattern] = counts.get(pattern, 0) + 1
    return counts


PATTERN_MIX = share_slots(PATTERN_SAMPLE, QUERIES)


def char_poly(a) -> list[int]:
    """Characteristic polynomial det(xI - A), ascending coefficients, by
    Faddeev-LeVerrier (its divisions are exact over the integers)."""
    n = len(a)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[m[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)] for i in range(n)]
        m = _int_matmul(a, m)
        coeffs[n - k] = -sum(m[i][i] for i in range(n)) // k
    return coeffs


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod(a, b, p):
    """Quotient and remainder of polynomials over F_p (b nonzero)."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        q[i] = c
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - c * bj) % p
    return _trim(q), _trim(a[: len(b) - 1])


def _gcd(a, b, p):
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return a


def _mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return _divmod(_trim(prod), f, p)[1]


def _powmod(a, e, f, p):
    out, base = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mulmod(out, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return out


def factor_pattern(f, p):
    """Sorted degrees of the irreducible factors of f mod p (distinct-degree
    factorization), or None when f mod p is not squarefree."""
    g = _trim([c % p for c in f])
    deriv = _trim([i * c % p for i, c in enumerate(g)][1:])
    if len(_gcd(g, deriv, p)) > 1:
        return None
    degrees, d, h = [], 0, [0, 1]
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, g, p)
        h_minus_x = list(h) + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        c = _gcd(g, _trim([v % p for v in h_minus_x]), p)
        if len(c) > 1:
            degrees += [d] * ((len(c) - 1) // d)
            g = _divmod(g, c, p)[0]
            h = _divmod(h, g, p)[1]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return tuple(sorted(degrees))


def query_inputs(seed: int) -> list[tuple[list[list[int]], int]]:
    """The (A, p) pairs of the QUERIES queries.  Bit lengths of p step evenly over PRIME_BITS,
    and the factorization pattern of det(xI - A) mod p follows PATTERN_MIX in
    a fixed order; only the matrices and primes depend on the seed."""
    slots = [pat for pat, k in PATTERN_MIX.items() for _ in range(k)]
    random.Random("big_primes:pattern-order").shuffle(slots)
    rng = random.Random(f"big_primes:{seed}:queries")
    lo, hi = PRIME_BITS
    out = []
    for i, pattern in enumerate(slots):
        bits = lo + round(i * (hi - lo) / (len(slots) - 1))
        while True:
            a = [[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)]
            p = random_prime(rng, bits)
            if factor_pattern(char_poly(a), p) == pattern:
                out.append((a, p))
                break
    return out


# -- the wreath closed form -------------------------------------------------------


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p**k, or None."""
    p = next(q for q in range(2, n + 1) if n % q == 0)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def _phi(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)


def _order(p: int, d: int) -> int:
    """Multiplicative order of p modulo d (1 for d = 1)."""
    k, x = 1, p % d
    while x != 1 % d:
        x = x * p % d
        k += 1
    return k


def irreducible_factor_count(m: int, p: int, k: int) -> int:
    """N_k: irreducible degree-k factors of x^m - 1 over F_p, for p not dividing m."""
    total = sum(_phi(d) for d in range(1, m + 1) if m % d == 0 and _order(p, d) == k)
    return total // k


def wreath_row(m: int, n: int) -> tuple[int, int, int, int, int, int] | None:
    """(n, p, k, count, mtriv, mnontriv) of Z wr Z/mZ at index n, by closed form.

    With m = m' p^a and p not dividing m', N_k counts the irreducible
    degree-k factors of x^{m'} - 1.  At n = p: mtriv = 1, mnontriv = N_1 - 1
    and count = [p | m] + (p if p | m else 1) + p * mnontriv.  At n = p^k,
    k >= 2: mtriv = 0, mnontriv = N_k and count = n * N_k.
    """
    pk = prime_power(n)
    if pk is None:
        return None
    p, k = pk
    m1 = m
    while m1 % p == 0:
        m1 //= p
    divides = m % p == 0
    if k == 1:
        mnontriv = irreducible_factor_count(m1, p, 1) - 1
        count = int(divides) + (p if divides else 1) + p * mnontriv
        return (n, p, 1, count, 1, mnontriv)
    mnontriv = irreducible_factor_count(m1, p, k)
    return (n, p, k, n * mnontriv, 0, mnontriv)


def wreath_rows(m: int, n_max: int) -> list[tuple[int, ...]]:
    rows = (wreath_row(m, n) for n in range(2, n_max + 1))
    return [r for r in rows if r is not None]


def parse_rows(csv_text: str) -> list[tuple[int, ...]] | None:
    """(n, p, k, count, mtriv, mnontriv) per CSV row; None if the text is not
    a growthlab table.  The `exact` column is provenance, not a count, so it
    is left out of the comparison."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return None
    try:
        return [tuple(int(x) for x in line.split(",")[:6]) for line in lines[1:]]
    except ValueError:
        return None


def failed_rows(got: list[tuple[int, ...]] | None, want: list[tuple[int, ...]]) -> int:
    """Rows of `got` that differ from `want`; all of them when the row
    count differs or the output did not parse."""
    if got is None or len(got) != len(want):
        return len(want)
    return sum(1 for a, b in zip(got, want) if a != b)
