from math import factorial

import pytest
from hypothesis import given, strategies as st

from wreathcenter import partitions as pt
from wreathcenter.errors import NotContained, TooSmall


partition_st = st.lists(st.integers(min_value=1, max_value=9), max_size=8).map(
    pt.as_partition
)


def test_union_examples():
    assert pt.union((2, 1), (3, 1)) == (3, 2, 1, 1)
    assert pt.union((3, 2), ()) == (3, 2)
    assert pt.union((6, 6, 3, 1, 1), (6,)) == (6, 6, 6, 3, 1, 1)


def test_subtract_examples():
    assert pt.subtract((3, 2, 1, 1), (2, 1)) == (3, 1)
    assert pt.subtract((3, 1), ()) == (3, 1)
    with pytest.raises(NotContained):
        pt.subtract((2, 2), (1,))


def test_is_proper():
    assert pt.is_proper((3, 2, 2))
    assert pt.is_proper(())
    assert not pt.is_proper((6, 6, 3, 1, 1))


def test_proper_part():
    assert pt.proper_part((6, 6, 3, 1, 1)) == (6, 6, 3)
    assert pt.proper_part(()) == ()
    assert pt.proper_part((1,)) == ()
    assert pt.proper_part((1, 1, 1)) == ()
    assert pt.proper_part((4, 3, 2)) == (4, 3, 2)
    assert pt.proper_part((3, 2) + (1,) * 10**4) == (3, 2)
    # the slice keeps what dropping every 1-part keeps, on every partition of n <= 12
    for n in range(13):
        for a in pt.partitions_of(n):
            assert pt.proper_part(a) == tuple(p for p in a if p != 1)


def test_pad_to():
    assert pt.pad_to((2,), 4) == (2, 1, 1)
    assert pt.pad_to((3, 2), 5) == (3, 2)
    assert pt.pad_to((3, 2), 7) == (3, 2, 1, 1)
    assert pt.pad_to((), 0) == ()
    with pytest.raises(TooSmall):
        pt.pad_to((3, 2), 4)


def test_z_of_small_values():
    for n in range(1, 6):
        assert pt.z_of((1,) * n) == factorial(n)
    assert pt.z_of((2,)) == 2
    assert pt.z_of((2, 1, 1)) == 4
    assert pt.z_of((3, 2, 1, 1)) == 12


def test_class_sizes_partition_the_symmetric_group():
    # n!/z summed over partitions of n must give n! back
    for n in range(8):
        total = sum(factorial(n) // pt.z_of(lam) for lam in pt.partitions_of(n))
        assert total == factorial(n)


def test_partitions_of_order_and_counts():
    assert pt.partitions_of(0) == ((),)
    assert pt.partitions_of(-1) == ()
    assert pt.partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(pt.partitions_of(10)) == 42
    for n in range(11):
        parts = pt.partitions_of(n)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == n and pt.is_partition(p) for p in parts)


def test_pad_preserves_proper_part():
    for lam in [(3, 2), (2, 1, 1), (), (1, 1)]:
        padded = pt.pad_to(lam, 8)
        assert pt.proper_part(padded) == pt.proper_part(lam)


@given(partition_st, partition_st)
def test_union_commutes(a, b):
    assert pt.union(a, b) == pt.union(b, a)


@given(partition_st, partition_st, partition_st)
def test_union_associates(a, b, c):
    assert pt.union(pt.union(a, b), c) == pt.union(a, pt.union(b, c))


@given(partition_st, partition_st)
def test_subtract_inverts_union(a, b):
    assert pt.subtract(pt.union(a, b), b) == a


def test_text_roundtrip():
    for lam in [(), (3, 1, 1), (2,)]:
        assert pt.parse_partition(pt.format_partition(lam)) == lam
    assert pt.format_partition((3, 1, 1)) == "[3,1,1]"
    assert pt.format_partition(()) == "[]"
    assert pt.parse_partition(" [ 2 , 1 ] ".replace(" ", "")) == (2, 1)
    with pytest.raises(ValueError):
        pt.parse_partition("3,1")
    # bodies that would parse, in other brackets or none
    for text in ["(3,1)", "3", ""]:
        with pytest.raises(ValueError, match="not a partition literal"):
            pt.parse_partition(text)
    with pytest.raises(ValueError):
        pt.parse_partition("[0,1]")


def test_parts_must_be_integers():
    # a float or a string part is refused, not truncated or parsed
    with pytest.raises(TypeError):
        pt.as_partition([2.7])
    with pytest.raises(TypeError):
        pt.as_partition(["3"])
    assert pt.as_partition([2, 0, 3]) == (3, 2)
