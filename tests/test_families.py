import copy
import pickle
from collections import Counter
from math import comb, factorial

import pytest

from wreathcenter import blockperm as bp
from wreathcenter import families
from wreathcenter import partitions as pt
from wreathcenter.errors import InvariantViolation, SizeMismatch, TooSmall
from wreathcenter.families import (
    PartitionFamily,
    big_z,
    class_size,
    families_with_size,
    format_family,
    index_partitions,
    pad_family,
    parse_family,
)


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


def test_index_partitions_order():
    assert index_partitions(1) == ((1,),)
    assert index_partitions(2) == ((1, 1), (2,))
    assert index_partitions(3) == ((1, 1, 1), (2, 1), (3,))


def test_normalization_and_equality():
    a = PartitionFamily(2, {(1, 1): (1,), (2,): (2,)})
    b = PartitionFamily(2, {(2,): (2,), (1, 1): (1,)})
    assert a == b and hash(a) == hash(b)
    assert PartitionFamily(2) == fam(2, (), ())
    with pytest.raises(ValueError):
        PartitionFamily(2, {(1,): (1,)})


def test_family_size():
    assert fam(2, (1,), (2,)).size == 3
    assert PartitionFamily.empty(3).size == 0
    assert fam(3, (1,), (2,), (2, 1)).size == 6


def test_is_proper_family():
    assert fam(2, (3,), (2, 1)).is_proper()
    assert not fam(1, (1, 1)).is_proper()
    assert PartitionFamily.empty(2).is_proper()


def test_pad_family():
    assert pad_family(fam(1, (2,)), 4) == fam(1, (2, 1, 1))
    squeezed = fam(2, (), (2,))
    assert pad_family(squeezed, squeezed.size) == squeezed
    assert pad_family(fam(2, (), (2,)), 5) == fam(2, (1, 1, 1), (2,))
    with pytest.raises(TooSmall):
        pad_family(fam(2, (2,), (2,)), 3)


def test_big_z_small_k():
    # k=1 reduces to the plain centralizer factor
    for lam in [(2, 1), (3,), (1, 1, 1)]:
        assert big_z(fam(1, lam)) == pt.z_of(lam)
    # k=2: both key partitions have centralizer factor 2
    f = fam(2, (2, 1), (3,))
    assert big_z(f) == 2 ** 2 * pt.z_of((2, 1)) * 2 ** 1 * pt.z_of((3,))
    # k=3: factors 6, 2, 3 per component length
    g = fam(3, (1, 1), (2,), (2, 1))
    assert big_z(g) == (6 ** 2 * pt.z_of((1, 1))) * (2 * pt.z_of((2,))) * (
        3 ** 2 * pt.z_of((2, 1))
    )


def test_class_size_identity_and_total():
    for k, n in [(1, 4), (2, 3), (3, 2)]:
        assert class_size(PartitionFamily.identity(k, n), n) == 1
        total = sum(class_size(f, n) for f in families_with_size(k, n))
        assert total == factorial(k) ** n * factorial(n)
    with pytest.raises(SizeMismatch):
        class_size(fam(2, (1,), ()), 2)


def test_class_size_against_enumeration():
    # bucket the full group by type and compare each bucket with the formula
    buckets = Counter(w.type_of() for w in bp.enumerate_group(2, 3))
    for f, count in buckets.items():
        assert count == class_size(f, 3)
    f = fam(2, (1, 1, 1), (2,))
    buckets5 = Counter(w.type_of() for w in bp.enumerate_group(2, 5))
    assert buckets5[f] == class_size(f, 5)


def test_labels_carry_size_and_hash_immutably():
    f = fam(3, (1, 1), (2,), (2, 1))
    assert f.size == 7 and hash(f) == hash(fam(3, (1, 1), (2,), (2, 1)))
    with pytest.raises(AttributeError):
        f.size = 1
    with pytest.raises(AttributeError):
        f.components = ()


def test_class_size_checks_survive_the_big_z_memo(monkeypatch):
    f = fam(2, (2, 1), (3,))
    big_z(f)
    big_z(f)
    assert big_z.cache_info().hits >= 1
    with pytest.raises(SizeMismatch):
        class_size(f, 5)
    assert class_size(f, 6) == factorial(6) * 2**6 // big_z(f)
    # the divisibility check runs when a label is first sized, and a
    # refused size is not kept
    unsized = fam(2, (9, 4), (6, 5))
    monkeypatch.setattr(families, "big_z", lambda fam: 29)  # a prime above 24
    for _ in range(2):
        with pytest.raises(InvariantViolation):
            class_size(unsized, 24)
    monkeypatch.undo()
    assert class_size(unsized, 24) == factorial(24) * 2**24 // big_z(unsized)
    with pytest.raises(SizeMismatch):
        class_size(unsized, 23)


def test_shared_labels_do_not_loosen_the_constructor():
    shared = PartitionFamily._of(2, ((1,), (2,)))
    assert shared is PartitionFamily._of(2, ((1,), (2,)))
    assert shared == fam(2, (1,), (2,)) and hash(shared) == hash(fam(2, (1,), (2,)))
    with pytest.raises(ValueError):
        PartitionFamily(2, {(3,): (1,)})
    with pytest.raises(ValueError):
        PartitionFamily(2, {(2, 1): (1,)})
    with pytest.raises(ValueError):
        PartitionFamily.from_components(2, ((1,),))
    with pytest.raises(ValueError):
        PartitionFamily(0)


def test_families_with_size():
    assert families_with_size(1, 2) == [fam(1, (1, 1)), fam(1, (2,))]
    assert families_with_size(2, 1) == [fam(2, (), (1,)), fam(2, (1,), ())]
    # one family per bipartition of 2; the classes of the 8-element group
    assert len(families_with_size(2, 2)) == 5
    proper = families_with_size(2, 2, proper_only=True)
    assert proper == [fam(2, (), (1, 1)), fam(2, (), (2,)), fam(2, (2,), ())]
    for k in (1, 2, 3):
        fams = families_with_size(k, 3)
        assert len(set(fams)) == len(fams)
        assert all(f.size == 3 for f in fams)


def test_big_z_padding_identity():
    for f in [fam(2, (2,), (2, 1)), fam(2, (), ()), fam(3, (2, 1), (1,), ())]:
        m1 = f.m1
        for n in range(f.size, f.size + 4):
            s = n - f.size
            expected = (
                big_z(f)
                * factorial(f.k) ** s
                * factorial(s + m1)
                // factorial(m1)
            )
            assert big_z(pad_family(f, n)) == expected


def test_partial_count_consistency():
    # the padded-class multiplicity times the padded class size is integral
    f = fam(2, (1, 1), (2,))
    n = 6
    assert comb(n - f.size + f.m1, f.m1) == comb(4, 2)


def test_text_format():
    f = PartitionFamily(2, {(1, 1): (3, 1), (2,): (2,)})
    assert format_family(f) == "{[1,1]:[3,1]; [2]:[2]}"
    assert parse_family("{[1,1]:[3,1]; [2]:[2]}", 2) == f
    assert parse_family("{[2]:[2];[1,1]:[3,1]}", 2) == f
    assert format_family(PartitionFamily.empty(3)) == "{}"
    assert parse_family("{}", 3) == PartitionFamily.empty(3)
    with pytest.raises(ValueError):
        parse_family("{[1]:[2]}", 2)
    with pytest.raises(ValueError):
        parse_family("{[2]:[1]; [2]:[1]}", 2)
    with pytest.raises(ValueError):
        parse_family("[2]:[1]", 2)


def test_every_way_to_a_label_returns_the_shared_object():
    f = fam(2, (2, 1), (1,))
    shared = PartitionFamily._of(2, ((2, 1), (1,)))
    for same in (
        PartitionFamily(2, {(2,): (1,), (1, 1): (1, 2)}),
        PartitionFamily.from_components(2, ((2, 1), (1,))),
        PartitionFamily.empty(2).replace((1, 1), (2, 1)).replace((2,), (1,)),
        parse_family("{[2]:[1]; [1,1]:[2,1]}", 2),
        pad_family(fam(2, (2,), (1,)), 4),
        bp.class_representative(f, 4).type_of(),
        pickle.loads(pickle.dumps(f)),
        copy.copy(f),
        copy.deepcopy(f),
    ):
        assert same is shared
    assert PartitionFamily.empty(3) is PartitionFamily._of(3, ((), (), ()))
    assert PartitionFamily.identity(2, 3) is PartitionFamily._of(2, ((1, 1, 1), ()))
    # equality and hashing are those of the object
    for name in ("__init__", "__eq__", "__hash__"):
        assert name not in vars(PartitionFamily)
    assert "_hash" not in PartitionFamily.__slots__
    assert not hasattr(families, "_init")


def test_a_label_stored_by_a_racing_builder_is_the_one_returned(monkeypatch):
    f = fam(2, (3,), (1,))

    class Racing(dict):
        # misses the first lookup, as a builder does that loses the race to insert
        missed = False

        def get(self, key, default=None):
            if not self.missed:
                self.missed = True
                return default
            return super().get(key, default)

    monkeypatch.setattr(families, "_LABELS", Racing(families._LABELS))
    assert PartitionFamily._of(2, ((3,), (1,))) is f
    assert families._LABELS.missed


def test_parts_that_are_not_integers_are_refused():
    with pytest.raises(TypeError):
        PartitionFamily(1, {(1,): (1.5,)})
