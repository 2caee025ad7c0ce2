"""The value classes are records: immutable, equal and hashed by their fields
within one class, ordered where the class says so, and printed as
`Name(field=value, ...)`."""

import pytest

from growthlab.groups import GrowthRow, MdegValue, SemidirectFgAbelian, ZkByZ
from growthlab.modules import MatrixAction, SpectrumEntry, module_invariants

CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_fields_cannot_be_assigned_or_deleted():
    row = GrowthRow(2, 2, 1, 1, 0, 1)
    with pytest.raises(AttributeError):
        row.count = 2
    with pytest.raises(AttributeError):
        del row.count
    with pytest.raises(AttributeError):
        row.extra = 0
    assert row.count == 1


def test_equality_is_per_class():
    m = MatrixAction(3, (), (CYCLE3,), True)
    z, s = ZkByZ(m), SemidirectFgAbelian(m, 1, ())
    assert z != s and s != z
    assert z == ZkByZ(m) and s == SemidirectFgAbelian(module=m, acting_rank=1, acting_torsion=[])
    assert hash(z) == hash(ZkByZ(m)) and hash(s) == hash(SemidirectFgAbelian(m, 1, ()))
    assert (z.acting_rank, z.acting_torsion) == (1, ())


def test_normalized_fields_make_one_cache_key():
    from_lists = MatrixAction(k=3, torsion=[], actions=[CYCLE3])
    from_tuples = MatrixAction(3, (), (tuple(map(tuple, CYCLE3)),), False)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.group_action is False  # the class attribute is the default
    module_invariants(from_lists)
    hits = module_invariants.cache_info().hits
    module_invariants(from_tuples)
    assert module_invariants.cache_info().hits == hits + 1


def test_spectrum_entries_sort_by_degree_then_multiplicity():
    entries = [SpectrumEntry(2, 1), SpectrumEntry(1, 3), SpectrumEntry(1, 2), SpectrumEntry(e=3, s=0)]
    assert [(x.e, x.s) for x in sorted(entries)] == [(1, 2), (1, 3), (2, 1), (3, 0)]
    assert SpectrumEntry(1, 2) == SpectrumEntry(s=2, e=1)


def test_repr_names_every_field():
    assert repr(GrowthRow(2, 2, 1, 1, 0, 1)) == "GrowthRow(n=2, p=2, k=1, count=1, mtriv=0, mnontriv=1)"
    assert repr(MdegValue(1, "exact-theorem", "exact")) == (
        "MdegValue(value=1, provenance='exact-theorem', exactness='exact')"
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: GrowthRow(2, 2, 1, 1, 0),
        lambda: GrowthRow(2, 2, 1, 1, 0, 1, 7),
        lambda: GrowthRow(2, 2, 1, 1, 0, mnontriv=1, extra=7),
        lambda: GrowthRow(2, 2, 1, 1, 0, 1, n=2),
        lambda: SpectrumEntry(e=1),
        lambda: MatrixAction(3, ()),
    ],
)
def test_missing_or_extra_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
