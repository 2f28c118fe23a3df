from collections import Counter
from itertools import combinations

import pytest

from wreathcenter import blockperm as bp
from wreathcenter import kpartial as kp
from wreathcenter.errors import DomainNotCovered, SizeMismatch
from wreathcenter.families import (
    PartitionFamily,
    binomial_pad_factor,
    class_size,
    families_with_size,
    pad_family,
)
from wreathcenter.kpartial import KPartialPermutation


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


# the worked 3-block-size example: domain blocks {1,2,4,6}, one fixed block
EXAMPLE = KPartialPermutation(
    3, (1, 2, 4, 6), (12, 10, 11, 4, 5, 6, 16, 18, 17, 1, 2, 3)
)


def test_validation():
    with pytest.raises(ValueError):
        KPartialPermutation(2, (1,), (1, 3))  # image outside the domain
    with pytest.raises(ValueError):
        KPartialPermutation(2, (1, 2), (1, 3, 2, 4))  # splits a block
    with pytest.raises(ValueError):
        KPartialPermutation(1, (0,), (0,))  # block indices start at 1


def test_identity_element():
    e = KPartialPermutation.empty(3)
    assert kp.product(e, EXAMPLE) == EXAMPLE
    assert kp.product(EXAMPLE, e) == EXAMPLE
    assert kp.kp_type(e) == PartitionFamily.empty(3)


def test_product_squaring_example():
    alpha = KPartialPermutation(2, (1, 2), (3, 4, 2, 1))  # the 4-cycle 1->3->2->4->1
    square = kp.product(alpha, alpha)
    assert square == KPartialPermutation(2, (1, 2), (2, 1, 4, 3))
    assert kp.kp_type(square) == fam(2, (), (1, 1))


def test_product_disjoint_supports():
    p = KPartialPermutation(2, (1,), (2, 1))
    q = KPartialPermutation(2, (3,), (6, 5))
    pq = kp.product(p, q)
    assert pq == kp.product(q, p)
    assert kp.kp_type(pq) == fam(2, (), (1, 1))
    assert pq.blocks == (1, 3)


def test_support():
    assert kp.support(EXAMPLE) == (1, 4, 6)
    ident = KPartialPermutation(3, (2, 5), (4, 5, 6, 13, 14, 15))
    assert kp.support(ident) == ()
    for p in kp.enumerate_kpartial(2, 2):
        assert set(kp.support(p)) <= set(p.blocks)


def test_kp_type_examples():
    t = kp.kp_type(EXAMPLE)
    assert t == fam(3, (1,), (3,), ())
    assert t.component((2, 1)) == (3,)
    assert t.component((1, 1, 1)) == (1,)
    ident = KPartialPermutation(2, (2, 4, 5), (3, 4, 7, 8, 9, 10))
    assert kp.kp_type(ident) == fam(2, (1, 1, 1), ())


def test_membership_example_for_mixed_type():
    # ({3,4,7,8,9,10}, (3,7,4,8)(9)(10)) has one fixed block and one joined pair
    p = KPartialPermutation(2, (2, 4, 5), (7, 8, 4, 3, 9, 10))
    assert kp.kp_type(p) == fam(2, (1,), (2,))


def test_extend():
    assert kp.extend(KPartialPermutation.empty(2), 3) == bp.BlockPermutation.identity(2, 3)
    extended = kp.extend(EXAMPLE, 6)
    assert extended.images == (12, 10, 11, 4, 5, 6, 7, 8, 9, 16, 18, 17, 13, 14, 15, 1, 2, 3)
    # the two identity blocks added by the extension join the fixed block
    assert extended.type_of() == fam(3, (1, 1, 1), (3,), ())
    with pytest.raises(DomainNotCovered):
        kp.extend(EXAMPLE, 5)


def test_extend_type_is_padded_type():
    for k, n in [(2, 3), (3, 2)]:
        for p in kp.enumerate_kpartial(k, n):
            assert kp.extend(p, n).type_of() == pad_family(kp.kp_type(p), n)


def test_act_basics():
    ident = bp.BlockPermutation.identity(3, 6)
    assert kp.act(ident, EXAMPLE) == EXAMPLE
    block_swap = KPartialPermutation(2, (1, 2), (3, 4, 1, 2))
    for sigma in bp.enumerate_group(2, 3):
        moved = kp.act(sigma, block_swap)
        assert len(moved.blocks) == len(block_swap.blocks)
        assert kp.kp_type(moved) == kp.kp_type(block_swap)
    with pytest.raises(DomainNotCovered):
        kp.act(bp.BlockPermutation.identity(3, 2), EXAMPLE)


def test_orbit_of_single_identity_block():
    p = KPartialPermutation(2, (1,), (1, 2))
    orbit = {kp.act(sigma, p) for sigma in bp.enumerate_group(2, 2)}
    assert orbit == {p, KPartialPermutation(2, (2,), (3, 4))}


def test_extension_is_multiplicative():
    for k, n in [(2, 2), (3, 2)]:
        pool = list(kp.enumerate_kpartial(k, n))
        for p in pool:
            for q in pool:
                assert kp.extend(kp.product(p, q), n) == kp.extend(p, n) * kp.extend(q, n)


def test_product_of_domains_with_different_maximum_blocks():
    p = KPartialPermutation(3, (1,), (2, 3, 1))  # a 3-cycle inside block 1
    q = KPartialPermutation(3, (1, 3), (7, 8, 9, 1, 2, 3))  # swaps blocks 1 and 3
    pq, qp = kp.product(p, q), kp.product(q, p)
    assert pq == KPartialPermutation(3, (1, 3), (7, 8, 9, 2, 3, 1))
    assert qp == KPartialPermutation(3, (1, 3), (8, 9, 7, 1, 2, 3))
    assert pq.images == (7, 8, 9, 4, 5, 6, 2, 3, 1)
    assert kp.kp_type(pq) == kp.kp_type(qp) == fam(3, (), (), (2,))
    r = KPartialPermutation(3, (2,), (5, 4, 6))  # wider than p, disjoint from it
    assert kp.product(p, r) == kp.product(r, p) == KPartialPermutation(
        3, (1, 2), (2, 3, 1, 5, 4, 6)
    )
    for a, b in [(p, q), (q, p), (p, r), (r, q)]:
        assert kp.extend(kp.product(a, b), 4) == kp.extend(a, 4) * kp.extend(b, 4)


def test_action_equivariance():
    for k, n in [(2, 2), (3, 2)]:
        pool = list(kp.enumerate_kpartial(k, n))
        for sigma in bp.enumerate_group(k, n):
            for p in pool:
                lhs = kp.extend(kp.act(sigma, p), n)
                assert lhs == sigma * kp.extend(p, n) * sigma.inverse()


def test_orbits_are_size_and_type_classes():
    for k, n in [(2, 2), (3, 2)]:
        pool = list(kp.enumerate_kpartial(k, n))
        group = list(bp.enumerate_group(k, n))
        seen = set()
        for p in pool:
            if p in seen:
                continue
            orbit = {kp.act(sigma, p) for sigma in group}
            seen |= orbit
            label = (len(p.blocks), kp.kp_type(p))
            same_label = {
                q for q in pool if (len(q.blocks), kp.kp_type(q)) == label
            }
            assert orbit == same_label


def test_partial_class_size():
    # a family of full size picks up no padding multiplicity
    full = fam(2, (1,), (2,))
    assert kp.partial_class_size(full, 3) == class_size(full, 3)
    assert kp.partial_class_size(fam(1, ()), 5) == 1
    assert kp.partial_class_size(fam(2, (2, 2), ()), 3) == 0
    # brute force over all 2-partial permutations of 3
    buckets = Counter(kp.kp_type(p) for p in kp.enumerate_kpartial(2, 3))
    assert buckets[fam(2, (), (1,))] == kp.partial_class_size(fam(2, (), (1,)), 3)
    for f, count in buckets.items():
        assert count == kp.partial_class_size(f, 3)


def test_partial_class_size_matches_padded_formula():
    # C(n, |fam|) * |C_fam| against the padding multiplicity times the padded class
    for k, most in [(1, 4), (2, 4), (3, 4), (4, 3)]:
        for size in range(most + 1):
            for f in families_with_size(k, size):
                for n in range(size, size + 4):
                    padded = binomial_pad_factor(f, n) * class_size(pad_family(f, n), n)
                    assert kp.partial_class_size(f, n) == padded
                for n in range(size):
                    assert kp.partial_class_size(f, n) == 0


def test_count_all():
    assert kp.count_all(1, 2) == 5
    assert kp.count_all(2, 3) == 1 + 3 * 2 + 6 * 4 + 6 * 8
    for k, n in [(1, 3), (2, 2), (2, 3)]:
        assert len(list(kp.enumerate_kpartial(k, n))) == kp.count_all(k, n)
        total = sum(
            kp.partial_class_size(f, n)
            for r in range(n + 1)
            for f in families_with_size(k, r)
        )
        assert total == kp.count_all(k, n)


def test_universal_class_members():
    empty = PartitionFamily.empty(2)
    assert list(kp.universal_class_members(empty, 3)) == [KPartialPermutation.empty(2)]
    transpositions = list(kp.universal_class_members(fam(1, (2,)), 3))
    assert len(transpositions) == 3
    assert all(kp.kp_type(p) == fam(1, (2,)) for p in transpositions)
    for k, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        for r in range(n + 1):
            for f in families_with_size(k, r):
                members = list(kp.universal_class_members(f, n))
                assert len(members) == len(set(members)) == kp.partial_class_size(f, n)
                # the class built on blocks 1..r and relabelled onto each
                # block subset is the class built directly on that subset
                on_blocks = {}
                for p in members:
                    on_blocks.setdefault(p.blocks, set()).add(p.images)
                for blocks in combinations(range(1, n + 1), r):
                    assert on_blocks.pop(blocks) == set(bp.class_mappings_on_blocks(f, blocks))
                assert not on_blocks
    with pytest.raises(SizeMismatch):
        list(kp.universal_class_members(fam(2, (2,), (1,)), 2))


def test_partial_representative():
    for k in (1, 2, 3):
        for r in range(4):
            for f in families_with_size(k, r):
                rep = kp.partial_class_representative(f, 4)
                assert kp.kp_type(rep) == f
                assert len(rep.blocks) == f.size
                assert rep == next(kp.universal_class_members(f, 4))


def test_partial_representative_is_built_once_per_label():
    for k in (1, 2, 3):
        for r in range(5):
            for f in families_with_size(k, r):
                rep = kp.partial_class_representative(f, 4)
                assert kp.partial_class_representative(f, r) is rep
                assert kp.kp_type(rep) == f
                # one member per label, shared with the group representative
                assert rep.images is bp.class_representative(f, r).images
                with pytest.raises(SizeMismatch):
                    kp.partial_class_representative(f, r - 1)


def test_text_roundtrip():
    text = EXAMPLE.to_text()
    assert text == "{blocks:[1,2,4,6]; k:3; images:(12,10,11,4,5,6,16,18,17,1,2,3)}"
    assert repr(EXAMPLE) == f"KPartialPermutation({text})"
    assert KPartialPermutation.empty(2).to_text() == "{blocks:[]; k:2; images:()}"


def test_enumerate_kpartial_passes_its_budget_on(monkeypatch):
    budgets = []
    real = kp.enumerate_group

    def recording(k, n, budget=bp.DEFAULT_BUDGET):
        budgets.append(budget)
        return real(k, n, budget)

    monkeypatch.setattr(kp, "enumerate_group", recording)
    assert len(list(kp.enumerate_kpartial(1, 2, budget=50))) == kp.count_all(1, 2)
    assert budgets and set(budgets) == {50}


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        KPartialPermutation(0, [1], [])
    with pytest.raises(ValueError):
        KPartialPermutation(-1, [], [])
