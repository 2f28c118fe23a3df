"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything asserted here is exact integer or exact
rational equality.
"""

import time
from collections import Counter
from contextlib import contextmanager
from functools import cache
from math import factorial

from wreathcenter import blockperm as bp
from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter import kpartial as kp
from wreathcenter import partitions as pt
from wreathcenter.families import (
    PartitionFamily,
    binomial_pad_factor,
    class_size,
    families_with_size,
    pad_family,
)


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


@contextmanager
def criterion(number, description, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number} ({description}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({description}): PASS ({elapsed:.2f}s)")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


@cache
def universal(left, right):
    return ct.multiply_universal(left, right)


@cache
def group_product(left, right, n):
    return ct.multiply_group(left, right, n)


def golden_universal_cases():
    return [
        (
            fam(1, (2,)),
            fam(1, (2,)),
            {fam(1, (1, 1)): 1, fam(1, (3,)): 3, fam(1, (2, 2)): 2},
        ),
        (
            fam(1, (2,)),
            fam(1, (3,)),
            {fam(1, (2, 1)): 2, fam(1, (4,)): 4, fam(1, (3, 2)): 1},
        ),
        (
            fam(2, (1,), ()),
            fam(2, (1,), (1,)),
            {fam(2, (1,), (1,)): 2, fam(2, (1, 1), (1,)): 2},
        ),
        (
            fam(2, (), (2,)),
            fam(2, (), (2,)),
            {
                fam(2, (1, 1), ()): 2,
                fam(2, (), (1, 1)): 2,
                fam(2, (), (2, 2)): 2,
                fam(2, (3,), ()): 3,
            },
        ),
        (
            fam(3, (), (1,), (1,)),
            fam(3, (), (), (1,)),
            {
                fam(3, (), (1,), (1, 1)): 2,
                fam(3, (1,), (1,), ()): 2,
                fam(3, (), (1,), (1,)): 3,
            },
        ),
        (
            fam(3, (), (1,), (1,)),
            fam(3, (), (1,), ()),
            {
                fam(3, (), (1, 1), (1,)): 2,
                fam(3, (1,), (), (1,)): 3,
                fam(3, (), (1, 1), ()): 4,
                fam(3, (), (), (1, 1)): 6,
            },
        ),
    ]


def golden_projected_cases():
    return [
        (
            fam(1, (2,)),
            fam(1, (2,)),
            4,
            {fam(1, (1, 1, 1, 1)): 6, fam(1, (3, 1)): 3, fam(1, (2, 2)): 2},
        ),
        (
            fam(1, (2,)),
            fam(1, (3,)),
            5,
            {fam(1, (2, 1, 1, 1)): 6, fam(1, (4, 1)): 4, fam(1, (3, 2)): 1},
        ),
        (
            fam(2, (1,), ()),
            fam(2, (1,), (1,)),
            3,
            {fam(2, (1, 1), (1,)): 1},
        ),
        (
            fam(2, (), (2,)),
            fam(2, (), (2,)),
            5,
            {
                fam(2, (1, 1, 1, 1, 1), ()): 20,
                fam(2, (1, 1, 1), (1, 1)): 2,
                fam(2, (1,), (2, 2)): 2,
                fam(2, (3, 1, 1), ()): 3,
            },
        ),
        (
            fam(3, (), (1,), (1,)),
            fam(3, (), (), (1,)),
            4,
            {
                fam(3, (1,), (1,), (1, 1)): 2,
                fam(3, (1, 1, 1), (1,), ()): 6,
                fam(3, (1, 1), (1,), (1,)): 3,
            },
        ),
        (
            fam(3, (), (1,), (1,)),
            fam(3, (), (1,), ()),
            4,
            {
                fam(3, (1,), (1, 1), (1,)): 2,
                fam(3, (1, 1, 1), (), (1,)): 9,
                fam(3, (1, 1), (1, 1), ()): 4,
                fam(3, (1, 1), (), (1, 1)): 6,
            },
        ),
    ]


def proper_pairs(k, max_total):
    families = [
        f
        for s in range(max_total + 1)
        for f in families_with_size(k, s, proper_only=True)
    ]
    return [
        (left, right)
        for left in families
        for right in families
        if left.size + right.size <= max_total
    ]


def test_criterion_1_golden_universal_products():
    with criterion(1, "golden universal products", limit_seconds=60):
        for left, right, expected in golden_universal_cases():
            assert universal(left, right).terms == expected


def test_criterion_2_golden_projected_products():
    with criterion(2, "golden projected products", limit_seconds=300):
        for left, right, n, expected in golden_projected_cases():
            brute = group_product(pad_family(left, n), pad_family(right, n), n)
            assert brute.terms == expected
            projected = ct.project(universal(left, right), n)
            # the extension map scales each input class by a binomial factor;
            # for proper inputs both factors are 1
            scale = binomial_pad_factor(left, n) * binomial_pad_factor(right, n)
            assert projected.terms == {f: c * scale for f, c in brute.terms.items()}


def test_criterion_3_class_size_formula():
    with criterion(3, "class size formula vs enumeration", limit_seconds=120):
        cases = [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4)]
        for k, n in cases:
            buckets = Counter(w.type_of() for w in bp.enumerate_group(k, n))
            assert sum(buckets.values()) == factorial(k) ** n * factorial(n)
            assert set(buckets) == set(families_with_size(k, n))
            for f, count in buckets.items():
                assert count == class_size(f, n)


def test_criterion_4_partial_class_counts():
    with criterion(4, "partial class counts", limit_seconds=60):
        for k in (1, 2):
            for n in (1, 2, 3):
                pool = list(kp.enumerate_kpartial(k, n))
                assert len(pool) == kp.count_all(k, n)
                buckets = Counter(kp.kp_type(p) for p in pool)
                for f, count in buckets.items():
                    assert count == kp.partial_class_size(f, n)
                labels = [
                    f
                    for r in range(n + 1)
                    for f in families_with_size(k, r)
                ]
                assert set(buckets) == set(labels)


def test_criterion_5_polynomiality():
    with criterion(5, "binomial-basis polynomiality"):
        for k in (1, 2):
            for left, right in proper_pairs(k, 4):
                structure = ct.polynomial_structure(left, right)
                targets = set(structure.targets())
                lo = max(left.size, right.size)
                hi = left.size + right.size
                for (gamma, r), coeff in structure.rows.items():
                    assert isinstance(coeff, int) and coeff >= 0
                    assert gamma.is_proper()
                    assert lo <= gamma.size + r <= hi
                ones = (1,) * k
                for n in sorted({max(1, lo), max(1, hi), hi + 1, hi + 2}):
                    brute = group_product(pad_family(left, n), pad_family(right, n), n)
                    for gamma in targets:
                        if gamma.size <= n:
                            assert structure.evaluate(gamma, n) == brute.coefficient(
                                pad_family(gamma, n)
                            )
                    # every group-level term is accounted for by some target
                    for key in brute.terms:
                        stripped = key.replace(ones, tuple(p for p in key.ones_component if p != 1))
                        assert stripped in targets


def test_criterion_6_filtrations():
    with criterion(6, "filtration sub-additivity"):
        checked = 0
        for left, right, _ in golden_universal_cases():
            for gamma in universal(left, right).terms:
                assert gamma.size <= left.size + right.size
                assert gamma.size + gamma.m1 <= left.size + left.m1 + right.size + right.m1
                assert gamma.size >= max(left.size, right.size)
                checked += 1
        for k in (1, 2):
            for left, right in proper_pairs(k, 4):
                for gamma in universal(left, right).terms:
                    assert gamma.size <= left.size + right.size
                    assert gamma.size + gamma.m1 <= left.size + left.m1 + right.size + right.m1
                    assert gamma.size >= max(left.size, right.size)
                    checked += 1
        for left, right, n, _ in golden_projected_cases():
            padded_left, padded_right = pad_family(left, n), pad_family(right, n)
            for gamma in group_product(padded_left, padded_right, n).terms:
                assert gamma.size <= padded_left.size + padded_right.size
                bound = padded_left.size + padded_left.m1 + padded_right.size + padded_right.m1
                assert gamma.size + gamma.m1 <= bound
                checked += 1
        assert checked > 100


def test_criterion_7_characters():
    with criterion(7, "character values and identities", limit_seconds=60):
        point = ((1,), (1,))
        assert ch.hyperoct_character(((2,), ()), point) == 1
        assert ch.hyperoct_character(((1,), (1,)), point) == 0
        assert ch.hyperoct_character(((), (2,)), point) == -1
        assert ch.hyperoct_character(((1, 1), ()), point) == 1
        assert ch.hyperoct_character(((), (1, 1)), point) == -1
        for n in range(1, 7):
            for delta in pt.partitions_of(n):
                for eps in pt.partitions_of(n):
                    total = sum(
                        ch.sym_character(rho, delta) * ch.sym_character(rho, eps)
                        for rho in pt.partitions_of(n)
                    )
                    assert total == (pt.z_of(delta) if delta == eps else 0)
        for n in range(1, 5):
            total = sum(ch.wreath_dim(fam(2, *rho)) ** 2 for rho in ch.bipartitions_of(n))
            assert total == 2 ** n * factorial(n)


def test_criterion_8_isomorphism_transport():
    with criterion(8, "transport map multiplicativity", limit_seconds=300):
        points_k1 = [lam for m in range(7) for lam in pt.partitions_of(m)]
        assert ch.verify_iso(1, fam(1, (2,)), fam(1, (2,)), points_k1)
        assert ch.verify_iso(1, fam(1, (2,)), fam(1, (3,)), points_k1)
        points_k2 = [pair for m in range(6) for pair in ch.bipartitions_of(m)]
        assert ch.verify_iso(2, fam(2, (1,), ()), fam(2, (1,), (1,)), points_k2)
        assert ch.verify_iso(2, fam(2, (), (2,)), fam(2, (), (2,)), points_k2)


def test_criterion_9_property_suite():
    with criterion(9, "semigroup and product properties"):
        # extension is multiplicative and equivariant, exhaustively
        for k, n in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            pool = list(kp.enumerate_kpartial(k, n))
            for p in pool:
                for q in pool:
                    assert kp.extend(kp.product(p, q), n) == kp.extend(p, n) * kp.extend(q, n)
            group = list(bp.enumerate_group(k, n))
            for sigma in group:
                for p in pool:
                    assert kp.extend(kp.act(sigma, p), n) == bp.conjugate(
                        sigma, kp.extend(p, n)
                    )
            # orbits of the action are exactly the (block count, type) classes
            seen = set()
            for p in pool:
                if p in seen:
                    continue
                orbit = {kp.act(sigma, p) for sigma in group}
                seen |= orbit
                label = (len(p.blocks), kp.kp_type(p))
                assert orbit == {
                    q for q in pool if (len(q.blocks), kp.kp_type(q)) == label
                }

        # representative independence of structure constants
        for left, right, expected in golden_universal_cases():
            verified = ct.multiply_universal(left, right, verify_representative=True)
            assert verified.terms == expected
        for left, right, n, expected in golden_projected_cases():
            verified = ct.multiply_group(
                pad_family(left, n), pad_family(right, n), n, verify_representative=True
            )
            assert verified.terms == expected

        # commutativity of all products
        for left, right, _ in golden_universal_cases():
            assert universal(left, right) == universal(right, left)
        for left, right, n, _ in golden_projected_cases():
            lhs = group_product(pad_family(left, n), pad_family(right, n), n)
            rhs = group_product(pad_family(right, n), pad_family(left, n), n)
            assert lhs == rhs
