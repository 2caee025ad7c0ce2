"""Dense univariate polynomial arithmetic over Z, Q and F_p.

Polynomials are lists of coefficients in ascending degree order with no
trailing zeros (the zero polynomial is the empty list).  Coefficients over
F_p are ints in [0, p); over Q they are `fractions.Fraction`; over Z plain
ints.  Field-dependent operations take the coefficient field as their first
argument.

A field is `PrimeField(p)` or `QQ`, and offers `zero`, `one`, `from_int`,
`inv` and `reduce`: `reduce` is a % p over F_p and the identity over Q.
Integer polynomials are packed into one int by Kronecker substitution
(`kronecker_pack`, `kronecker_unpack`) rather than given a ring of their
own.  Kernels here and in `linalg` take reduced coefficients and return
reduced coefficients.  Inside one kernel they add and multiply with
Python's operators, so over F_p a sum of products stays an unreduced int
until it is reduced once, as an output entry (delayed reduction, as in
FFLAS-FFPACK).
Q and F_p share every kernel except one: arithmetic in F_p[x]/(m) on packed
ints (`_PackedRing`), which every power modulo a polynomial over F_p takes,
in ppowmod, in Berlekamp's matrix of distinct_degree_factorization and in the
trace map of equal-degree splitting at p = 2.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction

from ._record import Record
from .arith import is_prime

# Seed of the random elements that Cantor-Zassenhaus splits with, so each
# factorization takes the same steps on every run.
_SPLIT_SEED = 0xC0FFEE

# Largest exponent parse_poly accepts.  A polynomial is a dense coefficient
# list.  A table takes the distinct-degree factorization of each relation
# over F_p at every prime, at costs that grow about as the cube of the
# degree, and of a relation with a repeated factor the squarefree part over
# Q too: `table --max-n 2` of a random squarefree relation of degree d
# (coefficients in {-1, 0, 1}) took 0.13-0.18 s at d = 128, 0.48-0.55 s at
# d = 256 and 1.4-2.1 s at d = 512 (Python 3.11, 2-vCPU x86-64 VM).
MAX_EXPONENT = 512


class PrimeField:
    """Arithmetic of F_p on ints in [0, p)."""

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = p

    def from_int(self, a):
        return int(a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def reduce(self, a):
        return a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """Arithmetic of Q on `Fraction` values."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def from_int(a):
        return Fraction(a)

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)

    @staticmethod
    def reduce(a):
        return a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# -- basic arithmetic ---------------------------------------------------------


def pnormalize(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def pdeg(c) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(c) - 1


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    return pnormalize([F.reduce(x + y) for x, y in zip(a, b)] + a[len(b):])


def psub(F, a, b):
    return padd(F, a, [F.reduce(-y) for y in b])


def pscale(F, c, a):
    return pnormalize([F.reduce(c * x) for x in a])


def pmul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnormalize([F.reduce(c) for c in out])


def pdivmod(F, a, b):
    """(q, r) with a = q b + r, deg r < deg b.  Only the coefficient that
    fixes the next quotient term is reduced at each step; the remainder is
    reduced once at the end."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    q = [F.zero] * max(len(a) - db, 0)
    inv_lc = F.inv(b[-1])
    for k in range(len(q) - 1, -1, -1):
        c = F.reduce(a[k + db] * inv_lc)
        q[k] = c
        if c:
            for i in range(db):
                a[k + i] -= c * b[i]
    return pnormalize(q), pnormalize([F.reduce(x) for x in a[:db]])


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pmonic(F, a):
    if not a:
        return []
    return pscale(F, F.inv(a[-1]), a)


def peval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.reduce(acc * x + c)
    return acc


def pderiv(F, a):
    return pnormalize([F.reduce(i * a[i]) for i in range(1, len(a))])


def kronecker_pack(a, w):
    """a(2^w) for integer coefficients a: coefficient i is added at bit i w."""
    v = 0
    for c in reversed(a):
        v = (v << w) + c
    return v


def kronecker_unpack(v, w):
    """The integer polynomial a with a(2^w) = v and every |coefficient| below
    2^(w-1): the balanced base-2^w digits of v, which are unique."""
    out, half, mask = [], 1 << (w - 1), (1 << w) - 1
    while v:
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> w
    return out


class _PackedRing:
    """F_p[x]/(m) on packed ints (Kronecker substitution), n = deg m.

    The coefficient of x^i sits in bits [i w, (i + 1) w) of one int, its
    slot i, so a product of two polynomials is one int multiplication.  An
    element has at most n slots, each in [0, p).  A product of two of them
    has 2n - 1 slots, each a sum of at most n products below p^2.  `mul`
    reduces it on the int, from the top slot k down to slot n: slot k is
    read and taken mod p to t, and x^k = x^(k-n) x^n becomes t x^(k-n)
    (x^n - m / lc(m)), whose n coefficients lie in [0, p), added at slot
    k - n.  Slot j is folded into only from the slots j + 1 .. j + n, each
    adding less than p^2, so no slot reaches 2n p^2 < 2^w, with
    w = 2 bitlen(p) + bitlen(2n) + 1, and none carries into the next.
    The n low slots are then taken mod p in one subtraction of p times
    their quotients.  Nothing is unpacked between the steps of a power.
    `unpack` takes each slot mod p, so it reads any sum of fewer than 2n p^2
    per slot, such as a sum of n elements times coefficients in [0, p).
    """

    __slots__ = ("p", "n", "w", "tail")

    def __init__(self, p, m):
        self.p, self.n = p, len(m) - 1
        self.w = 2 * p.bit_length() + (2 * self.n).bit_length() + 1
        lc_inv = pow(m[-1], -1, p)
        self.tail = self.pack([-c * lc_inv % p for c in m[:-1]])

    def pack(self, a):
        return kronecker_pack(a, self.w)

    def unpack(self, v):
        w, mask = self.w, (1 << self.w) - 1
        return pnormalize([(v >> (i * w) & mask) % self.p for i in range(self.n)])

    def mul(self, u, v):
        p, w, nw, tail = self.p, self.w, self.n * self.w, self.tail
        v *= u
        top = (v.bit_length() - 1) // w * w
        for shift in range(top, nw - 1, -w):
            s = v >> shift
            v += ((s % p) * tail - (s << nw)) << (shift - nw)
        mask, q = (1 << w) - 1, 0
        for shift in range(min(top, nw - w), -1, -w):
            q = (q << w) | (v >> shift & mask) // p
        return v - p * q

    def pow(self, u, e):
        """u**e for e >= 1, left-to-right binary."""
        out = u
        for bit in bin(e)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, u)
        return out


def ppowmod(F, a, e, m):
    """a**e mod m over F_p, by binary exponentiation in _PackedRing: one
    int product and one packed reduction per step."""
    a = pmod(F, a, m)
    if not e:
        return [F.one]
    ring = _PackedRing(F.p, m)
    return ring.unpack(ring.pow(ring.pack(a), e))


def gcd_over_field(F, a, b):
    """Monic gcd by the Euclidean algorithm; both-zero input is an error."""
    a, b = pnormalize(a), pnormalize(b)
    if not a and not b:
        raise ValueError("gcd(0, 0) undefined")
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


# -- integer polynomials ------------------------------------------------------


def int_poly_to_field(F, f):
    return pnormalize([F.from_int(c) for c in f])


def _primitive_part(f):
    g = math.gcd(*f)
    return [c // g for c in f]


@functools.lru_cache(maxsize=256)
def _gcd_over_z(a, b):
    """Primitive gcd of nonzero integer tuples by the primitive PRS (Collins
    1967): each pseudo-remainder of a by b, lc(b)^(deg a - deg b + 1) a
    minus a multiple of b, is cut to its primitive part, so no division
    leaves Z and by Gauss's lemma it is the gcd over Q up to a unit.
    Cached, as a determinant with a repeated factor is read again."""
    a, b = _primitive_part(a), _primitive_part(b)
    while pdeg(b) >= 1:
        r = list(a)
        for k in range(len(a) - len(b), -1, -1):
            c = r[k + len(b) - 1]
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[k + i] -= c * y
        r = pnormalize(r)
        a, b = b, _primitive_part(r) if r else []
    return tuple(a) if not b else (1,)


# -- squarefree parts and root counts -----------------------------------------


def squarefree_part(F, f):
    """Monic product of the distinct irreducible factors of f.

    Over Q its degree is the number of distinct complex roots; over F_p the
    number of distinct roots in the algebraic closure.  Handles the
    inseparable case f' = 0 (then f = g(x^p)) by recursion.
    """
    f = pnormalize(f)
    if pdeg(f) < 1:
        raise ValueError("nonconstant polynomial required")
    if isinstance(F, PrimeField):
        # parts of distinct multiplicity are pairwise coprime
        acc = [F.one]
        for part, _ in _squarefree_decomposition(F, pmonic(F, f)):
            acc = pmul(F, acc, part)
        return pmonic(F, acc)
    # Euclid in Fraction arithmetic blows up on a relation of degree 128, so
    # gcd(f, f') is taken over Z, of monic f with its denominators cleared
    f = pmonic(F, f)
    scale = math.lcm(*(c.denominator for c in f))
    fz = [int(c * scale) for c in f]
    g = _gcd_over_z(tuple(fz), tuple(i * c for i, c in enumerate(fz))[1:])
    return pmonic(F, pdivmod(F, f, g)[0])


def distinct_complex_root_count(f) -> int:
    """Number rho of distinct roots of f in C (degree of the squarefree part)."""
    fq = pnormalize([Fraction(c) for c in f])
    if pdeg(fq) < 1:
        raise ValueError("nonconstant polynomial required")
    return pdeg(squarefree_part(QQ, fq))


# -- factorization over F_p ---------------------------------------------------


class FactorizationModP(Record):
    """Complete factorization over F_p: unit * prod(factor**mult)."""

    p: int
    unit: int
    factors: tuple[tuple[tuple[int, ...], int], ...]  # (monic coeffs, multiplicity)

    def remultiply(self) -> list[int]:
        F = PrimeField(self.p)
        out = [self.unit]
        for coeffs, mult in self.factors:
            for _ in range(mult):
                out = pmul(F, out, list(coeffs))
        return out

    def distinct_factors_of_degree(self, k: int) -> int:
        return sum(1 for coeffs, _ in self.factors if len(coeffs) - 1 == k)


def factor_mod_p(f, p: int) -> FactorizationModP:
    """Irreducible factorization of f over F_p.

    Squarefree decomposition, then distinct-degree splitting, then
    Cantor-Zassenhaus equal-degree splitting (trace map for p = 2).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    F = PrimeField(p)
    fbar = int_poly_to_field(F, f)
    if not fbar:
        raise ValueError("polynomial vanishes mod p (content divisible by p)")
    rng = random.Random(_SPLIT_SEED)
    unit = fbar[-1]
    fbar = pmonic(F, fbar)
    found: dict[tuple[int, ...], int] = {}
    for part, mult in _squarefree_decomposition(F, fbar):
        for d, g in distinct_degree_factorization(F, part):
            for irr in _equal_degree_split(F, g, d, rng):
                key = tuple(irr)
                found[key] = found.get(key, 0) + mult
    factors = tuple(sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return FactorizationModP(p=p, unit=unit, factors=factors)


def _squarefree_decomposition(F, f):
    """Yun-style decomposition over F_p; yields (squarefree part, multiplicity)."""
    p = F.p
    out = []
    e = 1
    while pdeg(f) >= 1:
        d = pderiv(F, f)
        if not d:
            f = [f[i] for i in range(0, len(f), p)]
            e *= p
            continue
        c = gcd_over_field(F, f, d)
        w = pdivmod(F, f, c)[0]
        i = 1
        while pdeg(w) >= 1:
            y = gcd_over_field(F, w, c)
            z = pdivmod(F, w, y)[0]
            if pdeg(z) >= 1:
                out.append((z, i * e))
            w = y
            c = pdivmod(F, c, y)[0]
            i += 1
        f = c
    return out


def distinct_degree_factorization(F, f):
    """Pairs (d, G_d), d ascending, for a monic squarefree f over F_p: G_d is
    the product of f's irreducible factors of degree d, so it has
    deg G_d / d of them.

    x^(p^d) - x is the product of the monic irreducibles whose degree
    divides d, so once the factors of degree < d are divided out of f, its
    gcd with f is G_d.  A remainder of degree < 2(d + 1) that is left after
    step d has no factor of degree <= d, so it is irreducible.

    h = x^(p^d) is raised to the p-th power at each step.  As a(x)^p =
    a(x^p) over F_p, that is the vector-matrix product h Q with Berlekamp's
    matrix Q modulo a divisor r of f, whose row i is x^(ip) mod r, and h is
    reduced modulo what is left of f only for the gcd.  Q costs about
    min(p, deg r) products mod r to build, and a power by ppowmod about
    log2 p, so h is powered by ppowmod until the steps taken have cost as
    much as Q, and then Q is built modulo what is left of f: never much
    more than either way alone when f splits in a few steps, and far less
    at large p when it takes many.

    Both run in _PackedRing modulo r: a power is one int product per step,
    each row of Q one product of the row before with x^p, and h Q is the
    sum of the packed rows times the coefficients of h, unpacked once.  Its
    slots are sums of at most deg r products below p^2, within the ring's
    slot bound of 2 deg r p^2.
    """
    out = []
    x = [F.zero, F.one]
    h, Q = x, []
    d = 0
    rest = f
    while pdeg(rest) >= 2 * (d + 1):
        d += 1
        if Q:
            h = ring.unpack(sum(c * row for c, row in zip(h, Q)))
        else:
            h = ppowmod(F, h, F.p, rest)
            if d == 1:
                xp = h
        g = gcd_over_field(F, psub(F, pmod(F, h, rest), x), rest)
        if pdeg(g) >= 1:
            out.append((d, g))
            rest = pdivmod(F, rest, g)[0]
        if not Q and d * F.p.bit_length() >= min(F.p, pdeg(rest)):
            ring = _PackedRing(F.p, rest)
            h, xp, Q = pmod(F, h, rest), ring.pack(pmod(F, xp, rest)), [1]
            while len(Q) < pdeg(rest):
                Q.append(ring.mul(Q[-1], xp))
    if pdeg(rest) >= 1:
        out.append((pdeg(rest), rest))
    return out


def _equal_degree_split(F, g, d, rng):
    """Split a product of distinct irreducibles, all of degree d."""
    if pdeg(g) == d:
        return [g]
    p = F.p
    while True:
        a = [F.from_int(rng.randrange(p)) for _ in range(pdeg(g))]
        a = pnormalize(a)
        if pdeg(a) < 1:
            continue
        if p == 2:
            # the trace a + a^2 + ... + a^(2^(d-1)), summed packed: its
            # slots stay below d + 1
            ring = _PackedRing(p, g)
            b, t = ring.pack(a), 0
            for _ in range(d):
                t += b
                b = ring.mul(b, b)
            cand = gcd_over_field(F, ring.unpack(t), g)
        else:
            b = ppowmod(F, a, (p ** d - 1) // 2, g)
            cand = gcd_over_field(F, psub(F, b, [F.one]), g)
        if 0 < pdeg(cand) < pdeg(g):
            left = _equal_degree_split(F, cand, d, rng)
            right = _equal_degree_split(F, pdivmod(F, g, cand)[0], d, rng)
            return left + right


def count_irreducibles(p: int, k: int) -> int:
    """Number N_k of monic irreducible degree-k polynomials over F_p, p prime.

    x^(p^k) - x is the product of the monic irreducibles whose degree divides
    k, so p^k = sum_{d | k} d N_d (Gauss).  Each N_d, for the divisors d of k
    in increasing order, follows from the N_e of the smaller divisors e of d.
    """
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    counts: dict[int, int] = {}
    for d in (d for d in range(1, k + 1) if k % d == 0):
        total = p ** d - sum(e * n for e, n in counts.items() if d % e == 0)
        assert total % d == 0
        counts[d] = total // d
    return counts[k]


# -- text format ---------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coeff>\d+)?\s*\*?\s*(?P<var>x)?\s*(?:\^\s*(?P<exp>\d+))?$"
)


def parse_poly(text: str) -> list[int]:
    """Parse integer-coefficient expressions like 'x^3 - 1' or '6*x^2 + 4'."""
    s = text.replace("−", "-").strip()
    if not s:
        raise ValueError("empty polynomial string")
    # split into signed terms
    tokens = re.split(r"(?=[+-])", s.replace(" ", ""))
    coeffs: dict[int, int] = {}
    for tok in tokens:
        if not tok:
            continue
        sign = 1
        while tok and tok[0] in "+-":
            if tok[0] == "-":
                sign = -sign
            tok = tok[1:]
        m = _TERM_RE.match(tok)
        if not m or (m.group("exp") and not m.group("var")) or not tok:
            raise ValueError(f"cannot parse polynomial term {tok!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        if exp > MAX_EXPONENT:
            raise ValueError(f"exponent {exp} in {text!r} exceeds {MAX_EXPONENT}")
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    out = [coeffs.get(i, 0) for i in range(max(coeffs) + 1)]
    return pnormalize(out)


def poly_to_str(f) -> str:
    """Render a polynomial in the same text format parse_poly accepts."""
    f = pnormalize(list(f))
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if isinstance(c, Fraction) and c.denominator == 1:
            c = c.numerator
        if i == 0:
            term = str(abs(c))
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            term = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text
