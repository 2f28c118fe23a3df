from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from wreathcenter import blockperm as bp
from wreathcenter.errors import BudgetExceeded, SizeMismatch
from wreathcenter.families import PartitionFamily, class_size, families_with_size, parse_family


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


# the 18-point worked permutation: blocks of three, type ((1), (2), (2,1))
EXAMPLE_IMAGES = (12, 10, 11, 13, 14, 15, 7, 8, 9, 1, 2, 3, 5, 4, 6, 17, 18, 16)


def from_cycles(k, n, *cycles):
    images = list(range(1, k * n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return bp.BlockPermutation(k, n, images)


def assemble(k, n, quotient, fills):
    images = []
    for i in range(n):
        base = (quotient[i] - 1) * k
        images.extend(base + b + 1 for b in fills[i])
    return bp.BlockPermutation(k, n, images)


def block_perm_st(k, n):
    fills = st.lists(st.permutations(tuple(range(k))), min_size=n, max_size=n)
    return st.builds(
        lambda quotient, fills: assemble(k, n, quotient, fills),
        st.permutations(tuple(range(1, n + 1))),
        fills,
    )


def test_is_block_permutation():
    assert bp.is_block_permutation(tuple(range(1, 7)), 2)
    assert bp.is_block_permutation(EXAMPLE_IMAGES, 3)
    assert not bp.is_block_permutation((1, 3, 2, 4), 2)
    assert not bp.is_block_permutation((1, 1, 2, 3), 2)


def test_cycle_type():
    perm12 = from_cycles(1, 12, (2, 4, 1, 6), (3, 8, 10, 12), (7, 9, 11))
    assert bp.cycle_type(perm12.images) == (4, 4, 3, 1)
    assert bp.cycle_type(tuple(range(1, 6))) == (1, 1, 1, 1, 1)
    assert bp.cycle_type((2, 3, 4, 5, 1)) == (5,)


def test_quotient():
    ident = bp.BlockPermutation.identity(2, 3)
    assert ident.quotient() == (1, 2, 3)
    w = bp.BlockPermutation(1, 4, (2, 1, 4, 3))
    assert w.quotient() == w.images
    example = bp.BlockPermutation(3, 6, EXAMPLE_IMAGES)
    assert bp.cycle_type(example.quotient()) == (2, 2, 1, 1)


def test_type_of_worked_example():
    w = bp.BlockPermutation(3, 6, EXAMPLE_IMAGES)
    assert w.type_of() == fam(3, (1,), (2,), (2, 1))


def test_type_of_identity():
    for k, n in [(1, 3), (2, 2), (3, 4)]:
        assert bp.BlockPermutation.identity(k, n).type_of() == PartitionFamily.identity(k, n)


def test_type_of_two_block_grouping():
    # blocks of two: paired distinct cycles land in the all-ones component,
    # self-paired even cycles in the (2) component
    w = from_cycles(2, 8, (1, 14, 3), (2, 13, 4), (9, 12), (10, 11), (5, 16, 6, 15))
    assert w.type_of() == fam(2, (3, 2, 1), (2,))


def test_type_rejects_cycles_that_split_blocks():
    # (1,3)(2,5)(4,8): the cycles through block 1 meet blocks 2 and 3 in one point each
    with pytest.raises(ValueError):
        bp.type_from_images(2, range(1, 5), (3, 5, 1, 8, 2, 6, 7, 4))
    # any permutation of [km] has a type or fails that cover check: a block
    # reached by an earlier cluster's cycles is covered by it, so each meeting
    # pattern sums to k
    for k, m in [(1, 4), (2, 2), (2, 3), (3, 2)]:
        for images in permutations(range(1, k * m + 1)):
            try:
                label = bp.type_from_images(k, range(1, m + 1), images)
            except ValueError as error:
                assert "cover whole blocks" in str(error)
                continue
            assert label.k == k and label.size == m


def test_type_extraction_shares_one_label_per_class():
    f = parse_family("{[1,1,1]:[1]; [2,1]:[2]; [3]:[1]}", 3)
    first, second = list(bp.enumerate_class(f, 4))[:2]
    assert first != second
    label = first.type_of()
    assert label is second.type_of()
    assert label is bp.type_from_images(3, (1, 2, 3, 4), second.images)
    built = PartitionFamily(3, {(1, 1, 1): (1,), (2, 1): (2,), (3,): (1,)})
    assert label == built and hash(label) == hash(built)
    assert label == f and hash(label) == hash(f)


def test_composition_order_vs_worked_factorizations():
    # (1,2)(3)(7,8,9) arises as each of these right-to-left products
    target = from_cycles(3, 3, (1, 2), (7, 8, 9))
    assert from_cycles(3, 3, (1, 2), (7, 9, 8)) * from_cycles(3, 3, (7, 9, 8)) == target
    assert from_cycles(3, 3, (1, 3), (7, 8, 9)) * from_cycles(3, 3, (1, 2, 3)) == target
    assert from_cycles(3, 3, (2, 3), (7, 8, 9)) * from_cycles(3, 3, (1, 3, 2)) == target


def test_inverse_and_identity():
    w = bp.BlockPermutation(3, 6, EXAMPLE_IMAGES)
    assert w * w.inverse() == bp.BlockPermutation.identity(3, 6)
    assert w.inverse().inverse() == w


def test_conjugate_trivial_cases():
    w = bp.BlockPermutation(3, 6, EXAMPLE_IMAGES)
    ident = bp.BlockPermutation.identity(3, 6)
    assert bp.conjugate(ident, w) == w
    assert bp.conjugate(w, ident) == ident


@settings(max_examples=60, deadline=None)
@given(block_perm_st(2, 3), block_perm_st(2, 3))
def test_conjugation_preserves_type(sigma, omega):
    assert bp.conjugate(sigma, omega).type_of() == omega.type_of()


@settings(max_examples=60, deadline=None)
@given(block_perm_st(2, 3), block_perm_st(2, 3))
def test_quotient_is_a_homomorphism(sigma, omega):
    composed = (sigma * omega).quotient()
    assert composed == tuple(sigma.quotient()[j - 1] for j in omega.quotient())


@settings(max_examples=40, deadline=None)
@given(block_perm_st(3, 3))
def test_type_invariants_random_larger(omega):
    t = omega.type_of()
    assert t.size == 3
    merged = ()
    for comp in t.components:
        merged = merged + comp
    assert tuple(sorted(merged, reverse=True)) == bp.cycle_type(omega.quotient())


def test_enumerate_group_counts():
    assert len(list(bp.enumerate_group(1, 3))) == 6
    assert len(list(bp.enumerate_group(2, 2))) == 8
    elements = list(bp.enumerate_group(3, 2))
    assert len(elements) == 72
    assert len(set(elements)) == 72


def test_enumerate_group_budget():
    with pytest.raises(BudgetExceeded):
        list(bp.enumerate_group(3, 8, budget=1000))


def test_type_invariants_exhaustive():
    for k, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        for w in bp.enumerate_group(k, n):
            t = w.type_of()
            assert t.size == n
            merged = ()
            for comp in t.components:
                merged = merged + comp
            assert tuple(sorted(merged, reverse=True)) == bp.cycle_type(w.quotient())


def test_equal_type_means_conjugate():
    # exhaustive orbit check: each class is a single conjugation orbit
    for k, n in [(1, 3), (2, 2), (2, 3)]:
        group = list(bp.enumerate_group(k, n))
        by_type = {}
        for w in group:
            by_type.setdefault(w.type_of(), set()).add(w)
        for members in by_type.values():
            rep = next(iter(members))
            orbit = {bp.conjugate(s, rep) for s in group}
            assert orbit == members


def test_enumerate_class_counts_and_strategies():
    for k, n in [(1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2)]:
        for f in families_with_size(k, n):
            direct = list(bp.enumerate_class(f, n))
            assert len(direct) == len(set(direct)) == class_size(f, n)
            assert all(w.type_of() == f for w in direct)
            assert set(direct) == {w for w in bp.enumerate_group(k, n) if w.type_of() == f}


def test_enumerate_class_identity():
    ident_fam = PartitionFamily.identity(2, 3)
    assert list(bp.enumerate_class(ident_fam, 3)) == [bp.BlockPermutation.identity(2, 3)]


def test_enumerate_class_errors():
    with pytest.raises(SizeMismatch):
        list(bp.enumerate_class(fam(2, (1,), ()), 3))
    big = fam(2, (), (4,))
    with pytest.raises(BudgetExceeded):
        list(bp.enumerate_class(big, 4, budget=3))


def test_class_representative():
    for k, n in [(1, 4), (2, 3), (3, 3)]:
        for f in families_with_size(k, n):
            rep = bp.class_representative(f, n)
            assert rep.type_of() == f
            assert rep.images == next(bp.class_mappings_on_blocks(f, range(1, n + 1)))


def test_class_representative_is_built_once_per_label():
    for k in (1, 2, 3):
        for n in range(5):
            for f in families_with_size(k, n):
                rep = bp.class_representative(f, n)
                # an equal label built apart from the shared one finds it too
                again = PartitionFamily.from_components(k, f.components)
                assert bp.class_representative(again, n) is rep
                assert rep.type_of() == f
                for wrong in (n - 1, n + 1):
                    with pytest.raises(SizeMismatch):
                        bp.class_representative(f, wrong)


def test_class_sizes_match_formula_up_to_k3_n4():
    for k, n in [(3, 3), (1, 4), (2, 4), (3, 4)]:
        buckets = Counter(w.type_of() for w in bp.enumerate_group(k, n))
        assert sum(buckets.values()) == bp.group_order(k, n)
        assert set(buckets) == set(families_with_size(k, n))
        for f, count in buckets.items():
            assert count == class_size(f, n)


def test_text_roundtrip():
    w = bp.BlockPermutation(3, 6, EXAMPLE_IMAGES)
    assert w.to_text().startswith("(12,10,11,")
    assert repr(bp.BlockPermutation(1, 3, (2, 1, 3))) == "BlockPermutation(k=1, n=3, (2,1,3))"
    for k in (1, 2, 3):
        assert bp.BlockPermutation.identity(k, 0).to_text() == "()"


def test_class_mappings_refuse_repeated_or_nonpositive_blocks():
    # each of these once built elements that are not of the family's type
    for f, blocks in (
        (fam(1, (2,)), (1, 1)),
        (fam(2, (), (2,)), (2, 2)),
        (fam(1, (1, 1)), (0, 1)),
    ):
        with pytest.raises(ValueError):
            next(bp.class_mappings_on_blocks(f, blocks))


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        bp.BlockPermutation(0, 0, ())
    with pytest.raises(ValueError):
        bp.BlockPermutation(-1, -1, (1,))
    assert not bp.is_block_permutation((1,), -1)
    with pytest.raises(ValueError):
        bp.BlockPermutation.identity(0, 3)
