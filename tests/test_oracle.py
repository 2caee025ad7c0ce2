import random

import pytest

from growthlab.modules import MatrixAction, count_max_submodules, fiber_mod_p
from growthlab.groups import SemidirectFgAbelian, max_subgroups
from growthlab.oracle import (
    OracleBoundError,
    enumerate_subspaces,
    galois_number,
    oracle_count_max_submodules,
    oracle_der_count,
    oracle_finite_group_max_subgroups,
)


def test_galois_numbers_recurrence():
    # G(d+1, p) = 2 G(d, p) + (p^d - 1) G(d-1, p)
    for p in (2, 3):
        for d in range(1, 6):
            assert (
                galois_number(d + 1, p)
                == 2 * galois_number(d, p) + (p ** d - 1) * galois_number(d - 1, p)
            )


def test_enumerate_subspaces_counts():
    for p in (2, 3):
        for dim in range(0, 4):
            subs = list(enumerate_subspaces(p, dim))
            assert len(subs) == galois_number(dim, p)
            # distinct as sets of vectors
            spans = {frozenset(map(tuple, s)) for s in subs}
            assert len(spans) == len(subs)


def _fiber(p, dim, actions):
    """The F_p-module F_p^dim under `actions`, as the fiber at p of
    (Z/p)^dim."""
    return fiber_mod_p(MatrixAction(k=0, torsion=(p,) * dim, actions=actions), p)


def test_oracle_count_examples():
    # trivial action on F_2^2: three maximal submodules of index 2
    I2 = ((1, 0), (0, 1))
    f = _fiber(2, 2, (I2,))
    assert oracle_count_max_submodules(f, 2) == 3
    assert oracle_count_max_submodules(f, 4) == 0
    # 2-cycle swap on F_3^2: x+y and x-y lines are invariant
    swap = ((0, 1), (1, 0))
    f3 = _fiber(3, 2, (swap,))
    assert oracle_count_max_submodules(f3, 3) == 2


def test_oracle_bound_refusal():
    f = _fiber(5, 4, ((
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    ),))
    with pytest.raises(OracleBoundError):
        oracle_count_max_submodules(f, 5)


def test_oracle_vs_engine_random():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice([2, 3])
        dim = rng.randint(1, 4 if p == 2 else 3)
        A = tuple(tuple(rng.randrange(p) for _ in range(dim)) for _ in range(dim))
        m = MatrixAction(
            k=dim, torsion=(), actions=(A,), group_action=False
        )
        f = fiber_mod_p(m, p)
        for k in range(1, dim + 1):
            assert count_max_submodules(m, p ** k) == oracle_count_max_submodules(
                f, p ** k
            ), (A, p, k)


def test_oracle_der_vs_closed_form():
    rng = random.Random(13)
    # trivial action cases: Der = Hom(A, S)
    for p in (2, 3, 5):
        ident = tuple(tuple(1 if i == j else 0 for j in range(1)) for i in range(1))
        for rank, torsion in [(1, ()), (2, ()), (0, (p,)), (1, (p,)), (0, (6,))]:
            mats = tuple(ident for _ in range(rank + len(torsion)))
            r_p = rank + sum(1 for t in torsion if t % p == 0)
            assert oracle_der_count(rank, torsion, p, 1, mats) == p ** r_p


def test_oracle_der_nontrivial():
    # Z/3 acting on F_4 = F_2^2 by the order-3 companion of x^2+x+1:
    # nontrivial simple module, |Der| = |S| = 4
    A = ((0, 1), (1, 1))
    assert oracle_der_count(0, (3,), 2, 2, (A,)) == 4
    # the four derivations are the complements of S in S x| Z/3
    S = MatrixAction(k=0, torsion=(2, 2), actions=(A,), group_action=True)
    assert max_subgroups(SemidirectFgAbelian(S, acting_rank=0, acting_torsion=(3,)), 4) == 4


def test_oracle_der_bound_refusal():
    ident = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    with pytest.raises(OracleBoundError):
        oracle_der_count(3, (), 5, 5, (ident, ident, ident))


def test_finite_group_examples():
    # Klein four group: 3 maximal subgroups of index 2
    triv1 = ((1,),)
    assert oracle_finite_group_max_subgroups(2, 2, 1, _ident(2), 2) == 3
    # Z/6 = Z/2 x Z/3 as (Z/6)^1 x| trivial Z/1
    assert oracle_finite_group_max_subgroups(6, 1, 1, _ident(1), 2) == 1
    assert oracle_finite_group_max_subgroups(6, 1, 1, _ident(1), 3) == 1
    # (Z/2)^3 x| Z/3 by a 3-cycle
    cyc = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert oracle_finite_group_max_subgroups(2, 3, 3, cyc, 2) == 1
    assert oracle_finite_group_max_subgroups(2, 3, 3, cyc, 3) == 1
    assert oracle_finite_group_max_subgroups(2, 3, 3, cyc, 4) == 4
    assert oracle_finite_group_max_subgroups(2, 3, 3, cyc, 8) == 0


def _ident(k):
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def test_finite_group_bound_refusal():
    with pytest.raises(OracleBoundError):
        oracle_finite_group_max_subgroups(11, 3, 2, _ident(3), 11)
