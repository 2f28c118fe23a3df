import copy
import pickle
import random
from collections import Counter
from math import comb, factorial, gcd
from operator import mul

import pytest

from wreathcenter import center as ct
from wreathcenter import kpartial as kp
from wreathcenter.blockperm import DEFAULT_BUDGET
from wreathcenter.errors import BudgetExceeded, InvariantViolation, NotProper, SizeMismatch
from wreathcenter.families import (
    PartitionFamily,
    big_z,
    binomial_pad_factor,
    class_size,
    families_with_size,
    pad_family,
    parse_family,
)


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


def test_vector_normalization():
    v = ct.ClassSumVector(1, {fam(1, (2,)): 3, fam(1, (1, 1)): 0})
    assert v.terms == {fam(1, (2,)): 3}
    assert v.context == "universal"
    with pytest.raises(SizeMismatch):
        ct.ClassSumVector(1, {fam(1, (2,)): 1}, n=3)


def test_vector_terms_are_a_copy():
    # a vector's terms are a new dict each time: changing one leaves the
    # vector, its repr and its hash as they were; equality and hashing do
    # not depend on the order the terms were given in
    two, ones = fam(1, (2,)), fam(1, (1, 1))
    v = ct.ClassSumVector(1, {two: 3, ones: 1})
    before = hash(v), repr(v)
    terms = v.terms
    terms[two] = -7
    del terms[ones]
    assert v.terms == {two: 3, ones: 1}
    assert (hash(v), repr(v)) == before
    assert v.coefficient(two) == 3 and v.coefficient(fam(1, (1,))) == 0
    w = ct.ClassSumVector(1, {ones: 1, two: 3})
    assert w == v and hash(w) == hash(v)


def test_identity_class_is_a_unit():
    for k, n in [(1, 3), (2, 2), (2, 3)]:
        ident = PartitionFamily.identity(k, n)
        for gamma in families_with_size(k, n):
            v = ct.multiply_group(ident, gamma, n)
            assert v.terms == {gamma: 1}
            assert ct.multiply_group(gamma, ident, n).terms == {gamma: 1}


def test_group_product_transpositions_n4():
    lam = fam(1, (2, 1, 1))
    v = ct.multiply_group(lam, lam, 4)
    assert v.terms == {
        fam(1, (1, 1, 1, 1)): 6,
        fam(1, (3, 1)): 3,
        fam(1, (2, 2)): 2,
    }


def test_group_product_matches_full_expansion():
    # direct convolution over all pairs, as an independent oracle
    from collections import Counter
    from wreathcenter import blockperm as bp

    for k, n in [(2, 3), (1, 4), (3, 2)]:
        for left in families_with_size(k, n):
            for right in families_with_size(k, n):
                xs = list(bp.enumerate_class(left, n))
                ys = list(bp.enumerate_class(right, n))
                convolution = Counter(x * y for x in xs for y in ys)
                v = ct.multiply_group(left, right, n)
                for gamma in families_with_size(k, n):
                    rep = bp.class_representative(gamma, n)
                    assert v.coefficient(gamma) == convolution[rep]


def test_universal_product_examples():
    v = ct.multiply_universal(fam(1, (2,)), fam(1, (2,)))
    assert v.terms == {fam(1, (1, 1)): 1, fam(1, (3,)): 3, fam(1, (2, 2)): 2}
    v = ct.multiply_universal(fam(2, (), (2,)), fam(2, (), (2,)))
    assert v.terms == {
        fam(2, (1, 1), ()): 2,
        fam(2, (), (1, 1)): 2,
        fam(2, (), (2, 2)): 2,
        fam(2, (3,), ()): 3,
    }
    v = ct.multiply_universal(fam(3, (), (1,), (1,)), fam(3, (), (), (1,)))
    assert v.terms == {
        fam(3, (), (1,), (1, 1)): 2,
        fam(3, (1,), (1,), ()): 2,
        fam(3, (), (1,), (1,)): 3,
    }


def test_universal_product_matches_all_pairs():
    # every pair multiplied and read at the target representative, as an oracle
    from collections import Counter
    from wreathcenter import kpartial as kp

    for k in (1, 2, 3):
        fams = [f for s in range(3) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                stage = left.size + right.size
                if stage > 3:
                    continue
                pairs = Counter(
                    kp.product(x, y)
                    for x in kp.universal_class_members(left, stage)
                    for y in kp.universal_class_members(right, stage)
                )
                v = ct.multiply_universal(left, right)
                for gamma in [g for s in range(stage + 1) for g in families_with_size(k, s)]:
                    rep = kp.partial_class_representative(gamma, stage)
                    assert v.coefficient(gamma) == pairs[rep]


def test_mislabelled_product_is_caught(monkeypatch):
    from wreathcenter import kpartial as kp

    lam = fam(1, (2,))
    true_type = kp.kp_type

    def mislabel_once(wrong_of):
        done = []

        def kp_type(p):
            gamma = true_type(p)
            if gamma in wrong_of and not done:
                done.append(p)
                return wrong_of[gamma]
            return gamma

        monkeypatch.setattr(kp, "kp_type", kp_type)

    def enumerated(left, right):
        # only the enumeration route extracts types
        return ct._by_enumeration(left, right, None, DEFAULT_BUDGET)

    # T_(3) drops from 4 to 3: 6 * 3 / |C_(3)| = 18 / 8 is not an integer
    mislabel_once({fam(1, (3,)): fam(1, (2, 2))})
    with pytest.raises(InvariantViolation):
        enumerated(lam, lam)
    # moving the one (2,2) product to (1,1) keeps every quotient integral
    # and the mass unchanged; only the check against characters sees it
    mislabel_once({fam(1, (2, 2)): fam(1, (1, 1))})
    assert enumerated(lam, lam).terms == {fam(1, (1, 1)): 2, fam(1, (3,)): 3}
    mislabel_once({fam(1, (2, 2)): fam(1, (1, 1))})
    with pytest.raises(InvariantViolation):
        ct.multiply_universal(lam, lam, verify_representative=True)
    # the same for a group product, whose types are read off block
    # permutations: at n = 4, moving the one (2,2) product of two
    # transpositions to the identity gives 6 * 2 / 1 and keeps the mass,
    # 12 * 1 + 3 * 8 = 6 * 6
    from wreathcenter import blockperm as bp

    true_type_of = bp.BlockPermutation.type_of

    def mislabel_group_once(wrong_of):
        done = []

        def type_of(p):
            gamma = true_type_of(p)
            if gamma in wrong_of and not done:
                done.append(p)
                return wrong_of[gamma]
            return gamma

        monkeypatch.setattr(bp.BlockPermutation, "type_of", type_of)

    transposition, identity = fam(1, (2, 1, 1)), fam(1, (1, 1, 1, 1))
    mislabel_group_once({fam(1, (2, 2)): identity})
    assert ct._by_enumeration(transposition, transposition, 4, DEFAULT_BUDGET).terms == {
        identity: 12,
        fam(1, (3, 1)): 3,
    }
    mislabel_group_once({fam(1, (2, 2)): identity})
    with pytest.raises(InvariantViolation):
        ct.multiply_group(transposition, transposition, 4, verify_representative=True)


def test_a_wrong_class_size_is_caught_by_the_enumeration_mass_check(monkeypatch):
    # the identity sized as 2 members at n = 3 halves c_e in (3) * (3), from 2
    # to 1, and keeps every quotient exact: 2 * 1 / 2 at e and 2 * 1 / 2 at
    # (3).  check_mass sizes the classes through _at, which the patch does
    # not reach, and reads the mass 1 * 1 + 1 * 2 = 3, not 2 * 2
    real = ct.partial_class_size
    identity, cycle = PartitionFamily.identity(1, 3), fam(1, (3,))
    monkeypatch.setattr(
        ct, "partial_class_size", lambda f, stage: 2 if (f, stage) == (identity, 3) else real(f, stage)
    )
    with pytest.raises(InvariantViolation, match="mass 3 != .* = 4"):
        ct._by_enumeration(cycle, cycle, 3, DEFAULT_BUDGET)


def test_budget_bounds_the_smaller_orbit():
    lam = fam(1, (2, 1, 1))
    assert ct.multiply_group(lam, lam, 4, budget=6) == ct.multiply_group(lam, lam, 4)
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(lam, lam, 4, budget=5)
    assert info.value.needed == 6
    # at stage 5 the orbit of (2) has 10 members and the orbit of (3) has 20
    left, right = fam(1, (2,)), fam(1, (3,))
    assert ct.multiply_universal(left, right, budget=10) == ct.multiply_universal(left, right)
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_universal(left, right, budget=9)
    assert info.value.needed == 10


def test_universal_empty_is_a_unit():
    empty = PartitionFamily.empty(2)
    other = fam(2, (2,), (1,))
    assert ct.multiply_universal(empty, other).terms == {other: 1}


def test_universal_commutes():
    pairs = [
        (fam(1, (2,)), fam(1, (3,))),
        (fam(2, (1,), ()), fam(2, (1,), (1,))),
        (fam(2, (), (2,)), fam(2, (2,), ())),
        (fam(3, (), (1,), (1,)), fam(3, (), (1,), ())),
    ]
    for left, right in pairs:
        assert ct.multiply_universal(left, right) == ct.multiply_universal(right, left)


def _seeded_triples():
    """20 seeded triples (L, M, R) of non-empty labels at each k = 1, 2, 3,
    with |L| + |M| + |R| <= 6, 5 and 4."""
    rng = random.Random(27)
    triples = []
    for k, most in [(1, 6), (2, 5), (3, 4)]:
        sizes = [(a, b, c) for a in range(1, most) for b in range(1, most) for c in range(1, most)
                 if a + b + c <= most]
        for _ in range(20):
            triples.append(tuple(rng.choice(families_with_size(k, s)) for s in rng.choice(sizes)))
    return triples


def _bilinear(route, left, right):
    """The product of two universal combinations {label: coefficient}, each label pair by `route`."""
    total = Counter()
    for a, c in left.items():
        for b, d in right.items():
            for gamma, e in route(a, b).items():
                total[gamma] += c * d * e
    return ct.ClassSumVector(next(iter(left)).k, total)


def test_universal_associates():
    # (L M) R = L (M R), each side extended bilinearly, with every product
    # taken by the character route called directly, so that the route rule
    # cannot hide it; the triples of total size <= 3 also by enumeration
    enumerate_ = lambda a, b: ct._by_enumeration(a, b, None, DEFAULT_BUDGET)
    for left, middle, right in _seeded_triples():
        routes = [ct._universal_by_characters]
        if left.size + middle.size + right.size <= 3:
            routes.append(enumerate_)
        for route in routes:
            first = _bilinear(route, route(left, middle).terms, {right: 1})
            assert _bilinear(route, {left: 1}, route(middle, right).terms) == first


def test_universal_size_bounds():
    for left, right in [
        (fam(1, (2,)), fam(1, (3,))),
        (fam(2, (1,), (1,)), fam(2, (), (2,))),
    ]:
        v = ct.multiply_universal(left, right)
        for gamma in v.terms:
            assert max(left.size, right.size) <= gamma.size <= left.size + right.size


def test_filtration_subadditivity_full_sweep():
    # every product with k <= 3 and total input size <= 4, all families
    checked = 0
    for k in (1, 2, 3):
        fams = [f for s in range(5) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                if left.size + right.size > 4:
                    continue
                for gamma in ct.multiply_universal(left, right).terms:
                    assert max(left.size, right.size) <= gamma.size
                    assert gamma.size <= left.size + right.size
                    assert gamma.size + gamma.m1 <= left.size + left.m1 + right.size + right.m1
                    checked += 1
    assert checked > 1000


def test_project_drops_oversized_keys():
    v = ct.multiply_universal(fam(1, (2,)), fam(1, (2,)))
    assert ct.project(v, 1).terms == {}
    projected = ct.project(v, 2)
    assert projected.terms == {fam(1, (1, 1)): 1}


def test_project_matches_group_product():
    cases = [
        (fam(1, (2,)), fam(1, (2,)), 4),
        (fam(1, (2,)), fam(1, (3,)), 5),
        (fam(2, (), (2,)), fam(2, (), (2,)), 5),
        (fam(3, (), (1,), (1,)), fam(3, (), (1,), ()), 4),
    ]
    # the proper pairs of the associativity triples, at their stage and one above
    for triple in _seeded_triples():
        for left, right in zip(triple, triple[1:]):
            if left.is_proper() and right.is_proper():
                stage = left.size + right.size
                cases += [(left, right, stage), (left, right, stage + 1)]
    for left, right, n in cases:
        projected = ct.project(ct.multiply_universal(left, right), n)
        brute = ct.multiply_group(pad_family(left, n), pad_family(right, n), n)
        assert projected == brute


def test_project_requires_universal_vector():
    v = ct.multiply_group(fam(1, (2, 1)), fam(1, (2, 1)), 3)
    with pytest.raises(SizeMismatch):
        ct.project(v, 3)


def test_polynomial_structure_k1():
    lam = fam(1, (2,))
    structure = ct.polynomial_structure(lam, lam)
    empty = PartitionFamily.empty(1)
    assert structure.rows == {
        (empty, 2): 1,
        (fam(1, (3,)), 0): 3,
        (fam(1, (2, 2)), 0): 2,
    }
    assert repr(structure) == "PolynomialStructure(k=1, left={[1]:[2]}, right={[1]:[2]}, rows=3)"
    # row labels are the shared label objects, not copies per row
    assert all(g is PartitionFamily._of(g.k, g.components) for g, _ in structure.rows)
    for n in range(4, 9):
        assert structure.evaluate(empty, n) == n * (n - 1) // 2
        assert structure.evaluate(fam(1, (3,)), n) == 3
        assert structure.evaluate(fam(1, (2, 2)), n) == 2
    # a class of another k is no row of this structure, not a zero
    with pytest.raises(SizeMismatch):
        structure.evaluate(fam(2, (), (2,)), 4)


def test_polynomial_structure_k3_linear_row():
    structure = ct.polynomial_structure(fam(3, (), (1,), (1,)), fam(3, (), (), (1,)))
    gamma = fam(3, (), (1,), ())
    assert structure.rows[(gamma, 1)] == 2
    for n in range(2, 7):
        assert structure.evaluate(gamma, n) == 2 * (n - 1)


def test_polynomial_structure_matches_brute_force():
    left, right = fam(2, (), (2,)), fam(2, (), (1,))
    structure = ct.polynomial_structure(left, right)
    for n in (3, 4, 5):
        brute = ct.multiply_group(pad_family(left, n), pad_family(right, n), n)
        for gamma in structure.targets():
            if gamma.size > n:
                continue
            assert structure.evaluate(gamma, n) == brute.coefficient(pad_family(gamma, n))
            # the padded target names the same class, with 1-parts of its own
            padded = pad_family(gamma, n)
            assert structure.evaluate(padded, n) == brute.coefficient(padded)


def test_polynomial_structure_rejects_improper():
    with pytest.raises(NotProper):
        ct.polynomial_structure(fam(1, (2, 1)), fam(1, (2,)))


def test_polynomial_structure_drops_a_zero_row():
    label = fam(1, (2,))
    zero = ct.PolynomialStructure(1, label, label, {(label, 0): 0})
    assert zero == ct.PolynomialStructure(1, label, label, {})
    assert zero.targets() == []
    assert zero.rows == {}


def test_polynomial_rows_are_the_universal_vector_rekeyed():
    # every ordered proper pair up to the sizes below: the rows are the
    # universal labels split into (proper part, 1-parts), merged as rows were
    # before the structure held the vector, and each target's rows evaluate
    # to the projected product's coefficient
    for k, most in ((1, 7), (2, 5), (3, 4)):
        proper = [f for s in range(most + 1) for f in families_with_size(k, s, proper_only=True)]
        pairs = [(a, b) for a in proper for b in proper if a.size + b.size <= most]
        for left, right in pairs:
            universal = ct.multiply_universal(left, right)
            rows = {}
            for label, c in universal.items():
                ones = tuple(p for p in label.ones_component if p != 1)
                proper_part = PartitionFamily.from_components(k, (ones,) + label.components[1:])
                rows[proper_part, label.m1] = rows.get((proper_part, label.m1), 0) + c
            structure = ct.polynomial_structure(left, right)
            assert structure.rows == rows
            assert structure.vector == universal
            for gamma in structure.targets():
                start = max(left.size, right.size, gamma.size)
                for n in range(start, left.size + right.size + 3):
                    expected = ct.project(universal, n).coefficient(pad_family(gamma, n))
                    assert structure.evaluate(gamma, n) == expected


def test_polynomial_rows_are_a_copy():
    lam = fam(1, (2,))
    structure = ct.polynomial_structure(lam, lam)
    before = structure.rows_sorted()
    rows = structure.rows
    rows[(lam, 5)] = 7
    rows.pop((fam(1, (3,)), 0))
    assert structure.rows_sorted() == before
    assert structure.rows is not structure.rows


def test_proper_family():
    for k, n in ((1, 5), (2, 4), (3, 3)):
        for label in families_with_size(k, n):
            proper = ct._proper_family(label)
            assert proper is PartitionFamily._of(k, proper.components)
            assert proper.is_proper() and proper.m1 == 0
            assert pad_family(proper, n) is label
            if label.is_proper():
                assert proper is label
            for m in range(n, n + 3):
                assert ct._proper_family(pad_family(label, m)) is proper


def test_representative_independence_flag():
    v1 = ct.multiply_group(fam(1, (2, 1, 1)), fam(1, (2, 1, 1)), 4, verify_representative=True)
    v2 = ct.multiply_group(fam(1, (2, 1, 1)), fam(1, (2, 1, 1)), 4)
    assert v1 == v2
    u1 = ct.multiply_universal(fam(2, (), (2,)), fam(2, (), (2,)), verify_representative=True)
    u2 = ct.multiply_universal(fam(2, (), (2,)), fam(2, (), (2,)))
    assert u1 == u2


def _filter_orbits(k, n=None, stage=None):
    """Every element of the group of [kn], or every k-partial permutation at `stage`, by type.

    One scan sorts the elements by type, as `enumerate_group` filtered by
    `type_of` would one class at a time; the type sizes each orbit at the stage.
    """
    from wreathcenter import blockperm as bp

    if n is None:
        elements, type_of = kp.enumerate_kpartial(k, stage), kp.kp_type
    else:
        elements, type_of = bp.enumerate_group(k, n), bp.BlockPermutation.type_of
    orbits = {}
    for element in elements:
        orbits.setdefault(type_of(element), []).append(element)
    return orbits, type_of


def _filter_product(left, right, orbits, type_of):
    """A product counted over `_filter_orbits`, as the definition reads.

    The first element found in the larger orbit A is multiplied with every
    member of the smaller B: c_gamma = |A| * #{y in B : type(x y) = gamma} / |C_gamma|.
    """
    fixed, varied = sorted((left, right), key=lambda f: -len(orbits[f]))
    x = orbits[fixed][0]
    tally = Counter(type_of(x * y) for y in orbits[varied])
    terms = {}
    for gamma, count in tally.items():
        coeff, remainder = divmod(len(orbits[fixed]) * count, len(orbits[gamma]))
        assert remainder == 0
        terms[gamma] = coeff
    return terms


def test_one_member_orbit_is_its_representative(monkeypatch):
    # a product with a one-member factor (the identity, the central class
    # {[2]:[1^n]} at k = 2, every class of S_1 and S_2, the empty family in
    # the universal algebra) equals the filter oracle, with and without the
    # check by both routes; no enumeration walks the one-member orbit,
    # which is read as its cached representative
    from wreathcenter import blockperm as bp

    walked = []
    true_enumerate_class, true_universal_members = bp.enumerate_class, kp.universal_class_members

    def enumerate_class(f, n, *args, **kwargs):
        walked.append(kp.partial_class_size(f, n))
        return true_enumerate_class(f, n, *args, **kwargs)

    def universal_class_members(f, n, *args, **kwargs):
        walked.append(kp.partial_class_size(f, n))
        return true_universal_members(f, n, *args, **kwargs)

    def check(left, right, n, expected):
        for verify in (False, True):
            if n is None:
                vector = ct.multiply_universal(left, right, verify_representative=verify)
            else:
                vector = ct.multiply_group(left, right, n, verify_representative=verify)
            assert vector.terms == expected, (left, right, n, verify)

    cases = [(PartitionFamily.identity(k, n), n) for k in (1, 2, 3) for n in range(5)]
    cases += [(fam(2, (), (1,) * n), n) for n in range(1, 6)]
    cases += [(one, n) for n in range(3) for one in families_with_size(1, n)]
    monkeypatch.setattr(bp, "enumerate_class", enumerate_class)
    monkeypatch.setattr(kp, "universal_class_members", universal_class_members)
    scans = {}
    for one, n in cases:
        assert class_size(one, n) == 1
        if (one.k, n) not in scans:
            scans[one.k, n] = _filter_orbits(one.k, n)
        orbits = scans[one.k, n]
        for other in families_with_size(one.k, n):
            check(one, other, n, _filter_product(one, other, *orbits))
            check(other, one, n, _filter_product(other, one, *orbits))
    # the empty family at stage |other|: every other of size <= 3 (<= 2 at k = 3)
    for k in (1, 2, 3):
        empty = PartitionFamily.empty(k)
        for stage in range(4 if k < 3 else 3):
            orbits = _filter_orbits(k, stage=stage)
            for other in families_with_size(k, stage):
                check(empty, other, None, _filter_product(empty, other, *orbits))
                check(other, empty, None, _filter_product(other, empty, *orbits))
    assert 1 not in walked


def test_products_check_their_inputs():
    # every route shares these checks, the count by both routes that
    # verify_representative makes included
    one, two = fam(1, (2,)), fam(2, (), (1,))
    for verify in (False, True):
        options = {"verify_representative": verify}
        with pytest.raises(SizeMismatch):
            ct.multiply_group(fam(1, (1, 1)), fam(2, (1, 1), ()), 2, **options)
        with pytest.raises(SizeMismatch):
            ct.multiply_group(one, fam(1, (3,)), 3, **options)
        with pytest.raises(SizeMismatch):
            ct.multiply_group(one, one, 3, **options)
        with pytest.raises(SizeMismatch):
            ct.multiply_universal(one, two, **options)
        with pytest.raises(SizeMismatch):
            ct.polynomial_structure(one, two, **options)


def test_group_mass_check_needs_inputs_of_size_n():
    # every orbit is sized at the stage, so pad(L, 3)^2 = 3 C_(1,1,1) + 3 C_(3)
    # has the mass C(3, 2)^2 = 9 of the unpadded inputs too; only the size
    # check tells them apart
    two = fam(1, (2,))
    padded = pad_family(two, 3)
    vector = ct.multiply_group(padded, padded, 3)
    ct.check_mass(vector, padded, padded)
    with pytest.raises(SizeMismatch):
        ct.check_mass(vector, two, two)
    with pytest.raises(SizeMismatch):
        ct.check_mass(vector, padded, two)


def test_universal_mass_check_refuses_a_label_larger_than_the_stage():
    # a label of size 5 has no members at the stage |L| + |R| = 4, so adding
    # it keeps the mass; it is refused as a label of no members
    two = fam(1, (2,))
    terms = ct.multiply_universal(two, two).terms
    ct.check_mass(ct.ClassSumVector(1, terms), two, two)
    terms[fam(1, (5,))] = 1
    with pytest.raises(InvariantViolation, match=r"c = 1 at \{\[1\]:\[5\]\}"):
        ct.check_mass(ct.ClassSumVector(1, terms), two, two)


def test_verify_representative_counts_both_routes(monkeypatch):
    from wreathcenter import characters as ch

    # products the character route serves, with their tables built: with
    # the flag each is enumerated once and read off the tables, and the
    # answer is the one both routes give
    seven, four = fam(1, (7,)), fam(1, (4,))
    five = fam(2, (), (5,))
    k1_group = ct._by_enumeration(seven, seven, 7, DEFAULT_BUDGET)
    k2_group = ct._by_enumeration(five, five, 5, DEFAULT_BUDGET)
    universal = ct._by_enumeration(four, four, None, DEFAULT_BUDGET)
    assert ct._group_by_characters(seven, seven, 7) == k1_group
    assert ct._group_by_characters(five, five, 5) == k2_group
    assert ct._universal_by_characters(four, four) == universal
    structure = ct.polynomial_structure(four, four)
    calls = []

    def counted(name, route):
        def run(*args):
            calls.append(name)
            return route(*args)

        return run

    monkeypatch.setattr(ch, "level_terms", counted("level_terms", ch.level_terms))
    monkeypatch.setattr(
        ct, "_universal_by_characters", counted("characters", ct._universal_by_characters)
    )
    monkeypatch.setattr(ct, "_by_enumeration", counted("enumeration", ct._by_enumeration))
    # the universal route reads one level at each size 4..7
    by_both_universal = ["enumeration", "characters"] + ["level_terms"] * 4
    for product, expected, routes in [
        (lambda: ct.multiply_group(seven, seven, 7, verify_representative=True), k1_group,
         ["enumeration", "level_terms"]),
        (lambda: ct.multiply_universal(four, four, verify_representative=True), universal,
         by_both_universal),
        (lambda: ct.polynomial_structure(four, four, verify_representative=True), structure,
         by_both_universal),
        (lambda: ct.multiply_group(five, five, 5, verify_representative=True), k2_group,
         ["enumeration", "level_terms"]),
    ]:
        calls.clear()
        assert product() == expected
        assert calls == routes


def test_verify_representative_refuses_a_table_value_that_keeps_the_mass(monkeypatch):
    from wreathcenter import characters as ch

    # (2,1,1) x (3,1) at n = 4 is 4 C(2,1,1) + 4 C(4); both classes have 6
    # members, so a table that moves one unit from (4) to (2,1,1) keeps every
    # coefficient positive and the mass
    left, right, four_cycle = fam(1, (2, 1, 1)), fam(1, (3, 1)), fam(1, (4,))
    assert ct.multiply_group(left, right, 4).terms == {left: 4, four_cycle: 4}
    true_level_terms = ch.level_terms

    def level_terms(a, b, *rest):
        flat, mass = true_level_terms(a, b, *rest)
        terms = dict(zip(flat[::2], flat[1::2]))
        if (a, b) == (left, right):
            terms[four_cycle] -= 1
            terms[left] += 1
        return tuple(x for term in terms.items() for x in term), mass

    monkeypatch.setattr(ch, "level_terms", level_terms)
    # with the (1, 4) table built the default product is read off it (rule
    # clause 1), and passes every check
    ch.character_table(1, 4)
    assert ct.multiply_group(left, right, 4).terms == {left: 5, four_cycle: 3}
    with pytest.raises(InvariantViolation):
        ct.multiply_group(left, right, 4, verify_representative=True)


def test_verify_representative_needs_both_counts_in_the_budget():
    # |C_(2,1^4)| = 15 fits a budget of 20; the rule's other route, Frobenius,
    # reads the S_6 table's 11 ** 2 = 121 entries, which do not, so the
    # projection stands in.  Its count is (2) * (3,3)'s own route's: neither
    # the tables at n = 6, 7 (346 entries) nor the smaller orbit at stage 8,
    # C(8, 2) = 28 members, fit, so it counts the smaller, 28.  The larger
    # count of the two routes, the projection's, is reported before anything
    # is counted
    lam, mu = fam(1, (2, 1, 1, 1, 1)), fam(1, (3, 3))
    assert ct.multiply_group(lam, mu, 6, budget=20) == ct._by_enumeration(lam, mu, 6, DEFAULT_BUDGET)
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(lam, mu, 6, budget=20, verify_representative=True)
    assert (info.value.needed, info.value.what) == (28, "partial class enumeration")
    # lam * lam projects from (2) * (2) (rule clause 3, or in place of a
    # built S_6 table that does not fit), whose 6 members at stage 4 fit a
    # budget of 10 while the class of 15 does not: the class is reported
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(lam, lam, 6, budget=10, verify_representative=True)
    assert (info.value.needed, info.value.what) == (15, "class enumeration")
    assert ct.multiply_group(lam, lam, 6, budget=15, verify_representative=True).terms[
        PartitionFamily.identity(1, 6)
    ] == 15


def test_verify_representative_refuses_before_counting_either_route():
    # (2,2) x (4) at n = 4: the 3 members of (2,2) fit a budget of 20, but
    # its proper parts do not fit in 4, so the other route is Frobenius on
    # the S_4 table's 5 ** 2 = 25 entries, which do not.  The larger count is
    # refused before either route runs, so the table is not built
    from wreathcenter import characters as ch

    ch.character_table.cache_clear()
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(fam(1, (2, 2)), fam(1, (4,)), 4, budget=20, verify_representative=True)
    assert (info.value.needed, info.value.budget, info.value.what) == (25, 20, "character table")
    assert not ch.has_character_table(1, 4)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        ct.multiply_universal(fam(1, (2,)), fam(1, (2,)), budget=2)
    with pytest.raises(BudgetExceeded):
        ct.multiply_group(fam(1, (2, 1, 1)), fam(1, (2, 1, 1)), 4, budget=1)


def test_character_route_matches_enumeration():
    # both routes called directly, on every unordered pair, or at the
    # benchmark's sizes on those whose smaller class has at most `most`
    # members; these include the long cycles, at which most characters vanish
    cases = [(1, range(1, 7), None), (2, range(1, 5), None), (3, range(1, 4), None)]
    cases += [(4, range(1, 3), None), (3, (4,), 50), (1, (7,), 400), (2, (5,), 50)]
    for k, sizes, most in cases:
        for n in sizes:
            fams = families_with_size(k, n)
            for i, left in enumerate(fams):
                for right in fams[i:]:
                    if most and min(class_size(left, n), class_size(right, n)) > most:
                        continue
                    enumerated = ct._by_enumeration(left, right, n, 10**6)
                    assert ct._group_by_characters(left, right, n) == enumerated


def test_route_charges_the_table_build(monkeypatch):
    from wreathcenter import characters as ch

    # a cold product builds its table only when its smaller orbit outnumbers
    # the classes: the build reads at least #classes ** 2 entries, so fewer
    # members enumerate (rule clauses 2 and 4), every time the product is asked
    ch.character_table.cache_clear()
    routes = []
    enumerate_product = ct._by_enumeration
    monkeypatch.setattr(ct, "_by_enumeration", lambda *args: routes.append(args[:3]) or enumerate_product(*args))
    # a one-member factor at (3, 5), whose table has 108 ** 2 entries, is one
    # multiplication by its representative
    ident, gamma = PartitionFamily.identity(3, 5), fam(3, (1, 1), (2,), (1,))
    assert ct.multiply_group(ident, gamma, 5).terms == {gamma: 1}
    # 18 members against the 22 classes at (3, 3); the proper parts have 2
    # and 3 blocks, which do not fit in 3, so the product cannot project
    left, right = fam(3, (2, 1), (), ()), fam(3, (), (1,), (1, 1))
    assert class_size(left, 3) == 18 < class_size(right, 3) and ct._class_count(3, 3) == 22
    expected = enumerate_product(left, right, 3, DEFAULT_BUDGET)
    for _ in range(3):
        assert ct.multiply_group(left, right, 3) == expected
    assert routes == [(ident, gamma, 5)] + [(left, right, 3)] * 3
    assert not any(ch.has_character_table(3, m) for m in (3, 5))
    # 36 members outnumber the classes (clause 5): the first product builds
    # the (3, 3) table, and it and the next are read off it
    other = fam(3, (), (1, 1), (1,))
    assert class_size(other, 3) == 54 and class_size(right, 3) == 36
    expected = enumerate_product(other, right, 3, DEFAULT_BUDGET)
    routes.clear()
    for _ in range(2):
        assert ct.multiply_group(other, right, 3) == expected
        assert ch.has_character_table(3, 3)
    assert routes == []


def test_warm_routes(monkeypatch):
    from wreathcenter import characters as ch

    def refuse(*args):
        raise AssertionError("this route must not be taken")

    # a one-member orbit with its table built is read off the table (rule
    # clause 1), as every group product whose table is built is
    ch.character_table(3, 5)
    ident, gamma = PartitionFamily.identity(3, 5), fam(3, (1, 1), (2,), (1,))
    monkeypatch.setattr(ct, "_by_enumeration", refuse)
    assert ct.multiply_group(ident, gamma, 5).terms == {gamma: 1}
    monkeypatch.undo()
    # a poly-rows product with the (2, 5) table built is read off it: 36 ** 2
    # = 1296 entries, below 6 enumerated members; its top size, 6, reads no
    # table
    left, right = fam(2, (), (1,)), fam(2, (), (4, 1))
    assert kp.partial_class_size(left, 6) == 6 < kp.partial_class_size(right, 6)
    expected = ct.polynomial_structure(left, right, verify_representative=True)
    ch.character_table(2, 5)
    monkeypatch.setattr(ct, "_by_enumeration", refuse)
    assert ct.polynomial_structure(left, right) == expected


def test_budget_falls_back_to_the_route_that_fits(monkeypatch):
    from wreathcenter import characters as ch

    left, right = fam(3, (), (1, 1), (1,)), fam(3, (1,), (2,), ())
    ch.character_table(3, 3)
    smaller, entries = class_size(left, 3), len(families_with_size(3, 3)) ** 2
    assert smaller < entries
    by_characters = ct.multiply_group(left, right, 3)
    calls = []
    monkeypatch.setattr(ct, "_group_by_characters", lambda *args: calls.append(args))
    # the rule reads the built table (clause 1), but only enumeration fits the budget
    assert ct.multiply_group(left, right, 3, budget=smaller) == by_characters
    assert calls == []
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(left, right, 3, budget=smaller - 1)
    assert info.value.needed == smaller


def test_a_warm_product_with_its_tables_built_is_not_priced(monkeypatch):
    from wreathcenter import characters as ch

    # once the tables are built, a group product whose table entries fit the
    # budget, and any universal product whose entries fit, runs its character
    # route at once, without listing enumeration as its fallback.
    # verify_representative still lists and counts both routes
    seven, four = fam(1, (7,)), fam(1, (4,))
    group = ct._by_enumeration(seven, seven, 7, DEFAULT_BUDGET)
    universal = ct._by_enumeration(four, four, None, DEFAULT_BUDGET)
    ch.character_table(1, 7)
    listed = []
    enumeration = ct._enumeration
    monkeypatch.setattr(ct, "_enumeration", lambda *args: listed.append(args) or enumeration(*args))
    assert ct.multiply_group(seven, seven, 7) == group
    assert ct.multiply_universal(four, four) == universal
    assert ct.polynomial_structure(four, four).vector == universal
    assert listed == []
    assert ct.multiply_group(seven, seven, 7, verify_representative=True) == group
    assert ct.multiply_universal(four, four, verify_representative=True) == universal
    assert [args[2] for args in listed] == [7, None]


def test_a_cold_one_off_leaves_its_table_unbuilt(monkeypatch):
    from wreathcenter import characters as ch

    # README's one-off: {[3]:[1^8]} squared at (3, 8), from cleared tables,
    # enumerates its 256 members rather than build the (3, 8) table of
    # 810 ** 2 entries, 0.74 s cold (rule clause 4: 256 members against 810
    # classes); nor does it project, as its proper parts are the whole labels
    ch.character_table.cache_clear()
    label = parse_family("{[3]:[1,1,1,1,1,1,1,1]}", 3)
    assert class_size(label, 8) == 256 and ct._class_count(3, 8) == 810
    routes = []
    enumerate_product = ct._by_enumeration
    monkeypatch.setattr(ct, "_by_enumeration", lambda *args: routes.append(args) or enumerate_product(*args))
    answer = ct.multiply_group(label, label, 8)
    assert routes == [(label, label, 8, DEFAULT_BUDGET)]
    assert answer.terms[PartitionFamily.identity(3, 8)] == 256
    assert not ch.has_character_table(3, 8)


def test_a_projected_product_at_large_n_counts_no_classes(monkeypatch):
    # rule clause 3: proper parts that fit in n project from P * Q, so a first
    # call at large n reads no class count at (k, n), which takes O(p(k) n^2)
    # steps over integers that grow like p(n).  P * Q is counted first, while
    # the count is still there: its character route reads the counts at the
    # sizes from max(|P|, |Q|) to |P| + |Q| - 1, as its budget count.  Nor
    # does it take a factorial of n: the orbit sizes at n are falling
    # factorials, so with their memos cleared the call still finishes with
    # every factorial above 1,000 refused
    from wreathcenter import families
    from wreathcenter import partitions as pt

    def refuse(k, n):
        raise AssertionError(f"the classes at ({k}, {n}) were counted")

    def small_factorial(m):
        if m > 1_000:
            raise AssertionError(f"{m}! was taken")
        return factorial(m)

    for k, n, left, right in ((1, 10_000, "{[1]:[2]}", "{[1]:[3,2]}"), (2, 2_000, "{[2]:[2]}", "{[2]:[3]}")):
        left, right = parse_family(left, k), parse_family(right, k)
        structure = ct.polynomial_structure(left, right)
        for memo in (families._orbit_size, big_z, ct._at):
            memo.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(ct, "_class_count", refuse)
            patch.setattr(families, "factorial", small_factorial)
            patch.setattr(pt, "factorial", small_factorial)
            answer = ct.multiply_group(pad_family(left, n), pad_family(right, n), n)
        assert answer.terms == {pad_family(gamma, n): structure.evaluate(gamma, n) for gamma in structure.targets()}


def test_route_rule_and_budget():
    # |C_(5,1)| = 144 at n = 6 exceeds the 11**2 = 121 entries of the S_6 table
    lam = fam(1, (5, 1))
    by_characters = ct.multiply_group(lam, lam, 6, budget=121)
    assert by_characters == ct._by_enumeration(lam, lam, 6, 144)
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(lam, lam, 6, budget=120)
    assert info.value.needed == 121
    # the check by both routes needs both counts in the budget
    assert ct.multiply_group(lam, lam, 6, budget=144, verify_representative=True) == by_characters
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(lam, lam, 6, budget=143, verify_representative=True)
    assert info.value.needed == 144


def test_universal_character_route_matches_enumeration():
    # both routes called directly: every product with k <= 3 and
    # |L| + |R| <= 4, empty and non-proper labels included, and larger ones
    cases = []
    for k in (1, 2, 3):
        fams = [f for s in range(5) for f in families_with_size(k, s)]
        cases += [(left, right) for left in fams for right in fams if left.size + right.size <= 4]
    assert len(cases) == 649
    larger = [
        (1, "{[1]:[4]}", "{[1]:[4]}"),
        (1, "{[1]:[2,2]}", "{[1]:[2,2]}"),
        (2, "{[2]:[3]}", "{[2]:[3]}"),
        (2, "{[1,1]:[2]; [2]:[1]}", "{[1,1]:[3]}"),
        (3, "{[2,1]:[2]}", "{[2,1]:[2]}"),
    ]
    cases += [(parse_family(a, k), parse_family(b, k)) for k, a, b in larger]
    for left, right in cases:
        enumerated = ct._by_enumeration(left, right, None, 10**7)
        assert ct._universal_by_characters(left, right) == enumerated


def test_universal_route_reads_each_size_below_the_top_once(monkeypatch):
    # on every product with k <= 3 and |L| + |R| <= 4 the character route
    # reads one level at each size max(|L|, |R|) ... |L| + |R| - 1, in
    # increasing order, none at the top size (closed form) and none at all
    # with an empty input, whose product is the other input
    from wreathcenter import characters as ch

    true_level_terms = ch.level_terms
    read = []

    def level_terms(left, right, *rest):
        read.append(left.size)
        return true_level_terms(left, right, *rest)

    monkeypatch.setattr(ch, "level_terms", level_terms)
    products = empty = 0
    for k in (1, 2, 3):
        fams = [f for s in range(5) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                if left.size + right.size > 4:
                    continue
                read.clear()
                ct._universal_by_characters(left, right)
                assert read == list(range(max(left.size, right.size), left.size + right.size))
                empty += not (left.size and right.size)
                products += 1
    assert (products, empty) == (649, 269)


def test_top_stage_in_closed_form_matches_enumeration():
    # the one label of size |L| + |R| is the union of the inputs, with a
    # product of binomials as its coefficient; every ordered pair with k = 1
    # and |L| + |R| <= 7, k = 2 and <= 5, k = 3 and <= 4 against
    # enumeration, which verify_representative runs on every product
    pairs = 0
    for k, most in [(1, 7), (2, 5), (3, 4)]:
        fams = [f for s in range(most + 1) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                if left.size + right.size > most:
                    continue
                enumerated = ct.multiply_universal(left, right, verify_representative=True)
                union, c = ct._top_label(left, right)
                top = {g: coeff for g, coeff in enumerated.items() if g.size == union.size}
                assert top == {union: c}
                assert ct._universal_by_characters(left, right) == enumerated
                pairs += 1
    assert pairs == 1112


def test_top_label_matches_its_definition():
    # against the definition, on sizes past the enumeration check above: the
    # label is each component's parts merged and sorted, and the coefficient
    # is big_z(L u R) / (big_z(L) big_z(R)); every ordered pair with k = 1
    # and |L| + |R| <= 9, k = 2 and <= 6, k = 3 and <= 5, k = 4 and <= 4,
    # empty inputs and empty components on either side included
    pairs = 0
    for k, most in [(1, 9), (2, 6), (3, 5), (4, 4)]:
        fams = [f for s in range(most + 1) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                if left.size + right.size > most:
                    continue
                merged = [
                    sorted(a + b, reverse=True)
                    for a, b in zip(left.components, right.components)
                ]
                union = PartitionFamily.from_components(k, merged)
                z = big_z(left) * big_z(right)
                assert ct._top_label(left, right) == (union, big_z(union) // z)
                assert big_z(union) % z == 0
                pairs += 1
    assert pairs == 4925


def test_wrong_top_label_or_coefficient_is_caught(monkeypatch):
    # the top stage's mass check weighs the closed-form coefficient, counted
    # from the inputs alone, by the class size of the label: a wrong label,
    # a coefficient one too large or a negative one is refused there
    true_top_label = ct._top_label
    for k, a, b, wrong in [(1, "{[1]:[2]}", "{[1]:[2]}", "{[1]:[4]}"),
                           (1, "{[1]:[3,1]}", "{[1]:[2]}", "{[1]:[3,3]}"),
                           (2, "{[2]:[1]}", "{[1,1]:[1]}", "{[2]:[1,1]}"),
                           (3, "{[2,1]:[2]}", "{[3]:[1]}", "{[2,1]:[2,1]}")]:
        left, right = parse_family(a, k), parse_family(b, k)
        union, c = true_top_label(left, right)
        assert ct._universal_by_characters(left, right).coefficient(union) == c
        top = left.size + right.size
        for corrupted in [(parse_family(wrong, k), c), (union, c + 1), (union, -c)]:
            monkeypatch.setattr(ct, "_top_label", lambda l, r, corrupted=corrupted: corrupted)
            with pytest.raises(InvariantViolation, match=f"mass at stage {top} "):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()


def _kept(terms, left, right):
    """The labels of a level's group product that the second filtration allows, sorted."""
    bound = left.size + left.m1 + right.size + right.m1
    return sorted((g for g in terms if g.size + g.m1 <= bound), key=PartitionFamily.sort_key)


def test_wrong_level_of_the_universal_character_route_is_caught(monkeypatch):
    # one coefficient that one size's level keeps from its group product is
    # one too large, at each size below the top (the sizes read off tables)
    # in turn, and the route refuses it: at that stage's mass check, at the
    # top stage's, or where the next level's subtraction turns negative.
    # This pins that some check refuses each fault, not which one does; the
    # per-stage check alone is pinned by the compensated fault test below.
    # A group coefficient one too large reads as `scale` more at its level,
    # as if `lower` held `scale` less there
    from wreathcenter import characters as ch

    true_level_terms = ch.level_terms
    for k, a, b in [(1, "{[1]:[1]}", "{[1]:[1]}"), (1, "{[1]:[2]}", "{[1]:[2]}"),
                    (2, "{[2]:[1]; [1,1]:[1]}", "{[2]:[1]}"), (2, "{[2]:[2]}", "{[1,1]:[2]}")]:
        left, right = parse_family(a, k), parse_family(b, k)
        for wrong_at in range(max(left.size, right.size), left.size + right.size):

            def level_terms(l, r, scale, lower, wrong_at=wrong_at):
                if l.size == wrong_at:
                    gamma = _kept(_frobenius_by_class(l, r, l.size), left, right)[0]
                    lower[gamma] = lower.get(gamma, 0) - scale
                return true_level_terms(l, r, scale, lower)

            monkeypatch.setattr(ch, "level_terms", level_terms)
            with pytest.raises(InvariantViolation):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()


def test_wrong_padded_label_at_any_level_is_caught(monkeypatch):
    # at k = 3, one coefficient of each size's group product in turn is one
    # too large, always at a label that its level keeps with 1-parts in its
    # all-ones component: the labels that smaller ones pad to, so their
    # level subtracts before the stage's mass is checked.  check_mass is
    # switched off, so the route's own checks refuse each fault: a stage
    # check or a later level's negative refusal, which this does not tell
    # apart.  Every size below the top, which is read off no table, is
    # bumped where a level reads such a label: where the second filtration
    # lets its new labels have a 1-part.  A group coefficient one too large
    # reads as `scale` more at its level, as if `lower` held `scale` less
    from wreathcenter import characters as ch

    true_level_terms = ch.level_terms
    for a, b in [("{[3]:[1]}", "{[3]:[1]}"), ("{[1,1,1]:[1]; [3]:[1]}", "{[2,1]:[1]}"),
                 ("{[3]:[2]}", "{[3]:[2]}"),
                 ("{[2,1]:[1]; [3]:[1]}", "{[2,1]:[1]; [3]:[1]}")]:
        left, right = parse_family(a, 3), parse_family(b, 3)
        top = left.size + right.size - 1
        for wrong_at in range(max(left.size, right.size), top + 1):
            bumped = []

            def level_terms(l, r, scale, lower, wrong_at=wrong_at, bumped=bumped):
                if l.size == wrong_at:
                    padded = next(g for g in _kept(_frobenius_by_class(l, r, l.size), left, right) if g.m1)
                    lower[padded] = lower.get(padded, 0) - scale
                    bumped.append(padded)
                return true_level_terms(l, r, scale, lower)

            monkeypatch.setattr(ch, "level_terms", level_terms)
            monkeypatch.setattr(ct, "check_mass", lambda vector, left, right: None)
            with pytest.raises(InvariantViolation):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()
            assert len(bumped) == 1 and bumped[0].m1


def test_a_level_fault_that_the_next_level_compensates_is_caught_at_its_stage(monkeypatch):
    # (2) * (2) = 1 C(1,1) + 3 C(3) + 2 C(2,2) reads levels 2 and 3.  Four
    # units more at (1,1) from level 2 and three fewer at (3) from level 3
    # keep the mass at the top stage 4, 4 C(4, 2) 1 = 3 C(4, 3) 2, and every
    # coefficient non-negative; level 3 reads `lower` as the true level 2
    # leaves it, so it refuses nothing.  Only the checks of the stages below
    # the top see the moved units, and the first, at stage 2, refuses them
    from wreathcenter import characters as ch

    two, ones, three = fam(1, (2,)), fam(1, (1, 1)), fam(1, (3,))
    true_answer = ct._by_enumeration(two, two, None, DEFAULT_BUDGET)
    assert true_answer.terms == {ones: 1, three: 3, fam(1, (2, 2)): 2}
    moves = {2: {ones: 4}, 3: {three: -3}}
    wrong = {g: c + moves[g.size].get(g, 0) for g, c in true_answer.items() if g.size < 4}
    wrong[fam(1, (2, 2))] = 2
    ct.check_mass(ct.ClassSumVector(1, wrong), two, two)
    true_level_terms = ch.level_terms

    def level_terms(left, right, scale, lower):
        n = left.size
        for gamma, moved in moves.get(n - 1, {}).items():
            padded, factor, _ = ct._at(gamma, n)
            lower[padded] -= moved * factor
            if not lower[padded]:
                del lower[padded]
        flat, mass = true_level_terms(left, right, scale, lower)
        terms = dict(zip(flat[::2], flat[1::2]))
        for gamma, moved in moves[n].items():
            terms[gamma] = terms.get(gamma, 0) + moved
            mass += moved * class_size(gamma, n)
        return tuple(x for term in terms.items() if term[1] for x in term), mass

    monkeypatch.setattr(ch, "level_terms", level_terms)
    with pytest.raises(InvariantViolation, match="at stage 2 is"):
        ct._universal_by_characters(two, two)


def test_negative_level_coefficient_with_its_mass_kept_is_caught(monkeypatch):
    # one size's group product moves mass from one label its level keeps to
    # another until the first is negative; the mass of that stage, and so of
    # every later one, is kept, so only the refusal of a negative
    # coefficient at its level can catch it.  At k = 1, 2 and 3, at levels
    # below the top, whose one coefficient is a product of binomials.  The
    # move is made on `lower`, scaled as the level scales the group product
    from wreathcenter import characters as ch

    true_level_terms = ch.level_terms
    for k, a, b, wrong_at in [(1, "{[1]:[3,2]}", "{[1]:[2]}", 5), (1, "{[1]:[3,2]}", "{[1]:[2]}", 6),
                              (2, "{[2]:[1]; [1,1]:[1]}", "{[2]:[1]}", 2),
                              (3, "{[3]:[1]}", "{[3]:[1]}", 1)]:
        left, right = parse_family(a, k), parse_family(b, k)

        def level_terms(l, r, scale, lower, wrong_at=wrong_at):
            n = l.size
            if n == wrong_at:
                terms = _frobenius_by_class(l, r, l.size)
                low, high = _kept(terms, left, right)[:2]
                sizes = class_size(low, n), class_size(high, n)
                shift = terms[low] + 1
                down, up = shift * sizes[1] // gcd(*sizes), shift * sizes[0] // gcd(*sizes)
                assert terms[low] - down < 0
                assert down * sizes[0] == up * sizes[1]
                lower[low] = lower.get(low, 0) + scale * down
                lower[high] = lower.get(high, 0) - scale * up
            return true_level_terms(l, r, scale, lower)

        monkeypatch.setattr(ch, "level_terms", level_terms)
        with pytest.raises(InvariantViolation, match="cannot have c = -"):
            ct._universal_by_characters(left, right)
        monkeypatch.undo()


def test_blockperm_stays_the_reference_for_group_products():
    # the enumerated group product against a tally over the block
    # permutations of [kn]: each class scanned out of the whole group and
    # multiplied with the blockperm representative of the other.  The
    # k-partial permutations at stage n whose domain is all n blocks are the
    # same group, and their tally at stage n agrees too
    from wreathcenter import blockperm as bp

    for k, top in [(1, 5), (2, 3), (3, 2)]:
        for n in range(top + 1):
            fams = families_with_size(k, n)
            for right in fams:
                ys = [y for y in bp.enumerate_group(k, n) if y.type_of() == right]
                kp_ys = list(kp.universal_class_members(right, n))
                for left in fams:
                    x = bp.class_representative(left, n)
                    kp_x = kp.partial_class_representative(left, n)
                    counts = Counter(bp.BlockPermutation.type_of(x * y) for y in ys)
                    assert Counter(kp.kp_type(kp_x * y) for y in kp_ys) == counts
                    expected = {}
                    for gamma, count in counts.items():
                        coeff, remainder = divmod(class_size(left, n) * count, class_size(gamma, n))
                        assert remainder == 0
                        expected[gamma] = coeff
                    assert ct._by_enumeration(left, right, n, DEFAULT_BUDGET).terms == expected


def test_at_is_the_padded_label_its_factor_and_its_stage_size():
    # the per-(label, n) values the universal levels, check_mass and project
    # read are the three public functions' values, the label the same object
    for k in (1, 2, 3):
        for size in range(5):
            for label in families_with_size(k, size):
                for n in range(size, size + 4):
                    padded, factor, members = ct._at(label, n)
                    assert padded is pad_family(label, n)
                    assert factor == binomial_pad_factor(label, n)
                    assert members == kp.partial_class_size(label, n)


def test_wrong_pad_factor_at_any_level_is_caught(monkeypatch):
    # the cached values are checked like fresh ones: each label whose pad
    # factor a level below the top reads (the inputs, and each label found
    # at a smaller size that the level subtracts) in turn gets a factor one
    # too large at that level, and the level's stage check refuses it
    true_at = ct._at
    subtracted = 0
    for k, a, b in [(1, "{[1]:[2]}", "{[1]:[2]}"), (1, "{[1]:[3,2]}", "{[1]:[2]}"),
                    (2, "{[2]:[1]; [1,1]:[1]}", "{[2]:[1]}"), (3, "{[3]:[1]}", "{[2,1]:[1]}"),
                    (3, "{[3]:[2]}", "{[3]:[2]}")]:
        left, right = parse_family(a, k), parse_family(b, k)
        read = []

        def record(fam, n):
            read.append((fam, n))
            return true_at(fam, n)

        monkeypatch.setattr(ct, "_at", record)
        ct._universal_by_characters(left, right)
        monkeypatch.undo()
        top = left.size + right.size
        faults = {(g, n) for g, n in read if n < top and (g in (left, right) or g.size < n)}
        subtracted += sum(g not in (left, right) for g, n in faults)
        for wrong in faults:

            def at(fam, n, wrong=wrong):
                padded, factor, members = true_at(fam, n)
                return padded, factor + ((fam, n) == wrong), members

            monkeypatch.setattr(ct, "_at", at)
            with pytest.raises(InvariantViolation):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()
    assert subtracted == 8


def test_mass_by_size_is_the_mass_by_label():
    # the character route checks stage n as the sum over s of C(n, s) M_s,
    # with M_s the sum over |gamma| = s of c_gamma |C_gamma|: for every
    # product with k <= 3 and |L| + |R| <= 4 this is the sum of c_gamma times
    # the orbit size of gamma at n, over the labels of size at most n, and
    # equals the product of the input orbit sizes there
    products = 0
    for k in (1, 2, 3):
        fams = [f for s in range(5) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                if left.size + right.size > 4:
                    continue
                terms = ct.multiply_universal(left, right).terms
                for n in range(max(left.size, right.size), left.size + right.size + 1):
                    found = {g: c for g, c in terms.items() if g.size <= n}
                    masses = Counter()
                    for g, c in found.items():
                        masses[g.size] += c * class_size(g, g.size)
                    by_size = sum(comb(n, s) * m for s, m in masses.items())
                    assert by_size == sum(c * kp.partial_class_size(g, n) for g, c in found.items())
                    assert by_size == kp.partial_class_size(left, n) * kp.partial_class_size(right, n)
                products += 1
    assert products == 649


def test_universal_route_charges_the_table_builds(monkeypatch):
    from wreathcenter import characters as ch

    # a cold universal product takes its character route, which builds the
    # tables it reads: here (3, 2) and (3, 3), 9 ** 2 + 22 ** 2 = 565 entries,
    # against the 6 members of the orbit of {[1,1,1]:[1,1]} at stage 4.  The
    # top size, 4, is found in closed form, so the (3, 4) table is never read.
    # The budget counts the entries whether or not the tables are built: below
    # 565 the product enumerates, and builds nothing
    left, right = fam(3, (1, 1), (), ()), fam(3, (), (), (2,))
    assert kp.partial_class_size(left, 4) == 6 < kp.partial_class_size(right, 4)
    expected = ct._by_enumeration(left, right, None, 10**6)
    routes = []
    enumerate_product = ct._by_enumeration
    monkeypatch.setattr(ct, "_by_enumeration", lambda *args: routes.append(args[:3]) or enumerate_product(*args))
    ch.character_table.cache_clear()
    assert ct.multiply_universal(left, right, budget=564) == expected
    assert routes == [(left, right, None)]
    assert not any(ch.has_character_table(3, n) for n in (2, 3))
    routes.clear()
    assert ct.multiply_universal(left, right, budget=565) == expected
    assert routes == []
    assert all(ch.has_character_table(3, n) for n in (2, 3))
    assert not ch.has_character_table(3, 4)


def test_route_pricing_does_not_outlive_the_tables(monkeypatch):
    # whether a table is built is asked on every product: a product that
    # enumerates cold (rule clauses 2 and 4) is read off its table once it is
    # built (clause 1), and once character_table.cache_clear() drops the
    # tables it enumerates again, product for product as in a new process
    from wreathcenter import characters as ch

    routes = []
    enumerate_product = ct._by_enumeration
    monkeypatch.setattr(ct, "_by_enumeration", lambda *args: routes.append(args[2]) or enumerate_product(*args))
    one_member = PartitionFamily.identity(3, 5), fam(3, (1, 1), (2,), (1,)), 5
    few_members = fam(3, (2, 1), (), ()), fam(3, (), (1,), (1, 1)), 3
    for left, right, n in (one_member, few_members):
        expected = enumerate_product(left, right, n, DEFAULT_BUDGET)
        for build in (False, True, False):
            ch.character_table.cache_clear()
            if build:
                ch.character_table(3, n)
            routes.clear()
            assert ct._product(left, right, n, DEFAULT_BUDGET, False) == expected
            assert routes == ([] if build else [n])


def test_universal_budget_takes_the_route_that_fits(monkeypatch):
    # (5) x (4) at k = 1: 756 members in the smaller orbit at stage 9,
    # 7**2 + 11**2 + 15**2 + 22**2 = 879 entries at n = 5..8; the top size,
    # 9, is found in closed form and reads no table
    five, four = fam(1, (5,)), fam(1, (4,))
    assert kp.partial_class_size(four, 9) == 756
    by_characters = ct.multiply_universal(five, four)
    calls = []
    monkeypatch.setattr(ct, "_universal_by_characters", lambda *args: calls.append(args))
    assert ct.multiply_universal(five, four, budget=756) == by_characters
    assert calls == []
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_universal(five, four, budget=755)
    assert info.value.needed == 756
    monkeypatch.undo()
    # (5) x (5): 6048 members, 1779 entries at n = 5..9; enumeration
    # would exceed the budget, so the product is read off the tables
    assert kp.partial_class_size(five, 10) == 6048
    assert ct.multiply_universal(five, five, budget=1779) == ct._universal_by_characters(five, five)
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_universal(five, five, budget=1778)
    assert (info.value.needed, info.value.what) == (1779, "character table")


def test_wrong_character_value_is_caught():
    from wreathcenter import characters as ch

    order, weights, columns = ch.character_table(1, 6)
    irreps = families_with_size(1, 6)
    dims = columns[PartitionFamily.identity(1, 6)]
    lam = fam(1, (5, 1))
    # a wrong value of (4, 2), or of the sign, a degree-1 character, at (3, 3)
    # leaves a twist that is no row: (2, 2, 1, 1) times the sign is the right
    # (4, 2), and the trivial character times the sign is the right sign, so
    # the entry is refused when the table is built
    for wrong in [((4, 2), (3, 3)), ((1, 1, 1, 1, 1, 1), (3, 3))]:
        rho, delta = fam(1, wrong[0]), fam(1, wrong[1])
        column = list(columns[delta])
        column[irreps.index(rho)] += 1
        with pytest.raises(InvariantViolation):
            ch._entry(order, {**columns, delta: tuple(column)}, dims)
    assert ct.multiply_group(lam, lam, 6).coefficient(fam(1, (3, 3))) == 54


def test_product_with_no_class_at_its_degree_one_values_is_caught(monkeypatch):
    from wreathcenter import characters as ch

    order, weights, columns = ch.character_table(1, 6)
    dims = columns[PartitionFamily.identity(1, 6)]
    lam = fam(1, (5, 1))
    # a sign value of 2 at lam: lam * lam would lie in the classes whose
    # degree-1 values are (1, 4), and no class has them; the sign times
    # itself is then no row, so the entry is refused when the table is built
    sign = families_with_size(1, 6).index(fam(1, (1, 1, 1, 1, 1, 1)))
    column = list(columns[lam])
    column[sign] = 2
    with pytest.raises(InvariantViolation):
        ch._entry(order, {**columns, lam: tuple(column)}, dims)
    # past the build, the same degree-1 values give the empty product, which
    # fails its mass check
    table, (width, values, folded_weights, folded, groups) = ch._table_entry(1, 6)
    wrong_values = {**values, lam: (1, 2)}
    entry = (table, (width, wrong_values, folded_weights, folded, groups))
    monkeypatch.setitem(ch._tables, (1, 6), entry)
    assert ch.level_terms(lam, lam) == ((), 0)
    with pytest.raises(InvariantViolation):
        ct.multiply_group(lam, lam, 6)


def _frobenius_by_class(left, right, n):
    """The group product by the Frobenius formula as it reads: per class, a sum over every irreducible."""
    from wreathcenter import characters as ch
    from wreathcenter.families import big_z

    _, weights, columns = ch.character_table(left.k, n)
    z = big_z(left) * big_z(right)
    scaled = [a * b * w for a, b, w in zip(columns[left], columns[right], weights)]
    terms = {}
    for gamma, column in columns.items():
        total = sum(map(mul, scaled, column))
        assert total % z == 0
        if total:
            terms[gamma] = total // z
    return terms


def _check_readers(left, right, n):
    """The reader of the packed sum against the sum per class, and the group vector against a built one.

    The reader's terms must be the sum per class's, in table order, with
    their mass; the group route's vector, wrapped without checks, must be
    the vector the validating constructor builds from the same terms, which
    passes check_mass: equal, with the same hash and repr, before and after
    a pickle round trip.
    """
    from wreathcenter import characters as ch

    expected = _frobenius_by_class(left, right, n)
    flat, mass = ch.level_terms(left, right)
    pairs = iter(flat)
    assert list(zip(pairs, pairs)) == list(expected.items())
    assert mass == sum(c * class_size(gamma, n) for gamma, c in expected.items())
    vector = ct._group_by_characters(left, right, n)
    assert vector.terms == expected
    built = ct.ClassSumVector(left.k, expected, n)
    ct.check_mass(built, left, right)
    for twin in (vector, pickle.loads(pickle.dumps(vector))):
        assert twin == built and hash(twin) == hash(built) and repr(twin) == repr(built)


def test_packed_frobenius_sum_equals_the_sum_per_class():
    from wreathcenter import characters as ch

    # the sum over one representative per twist orbit is the sum over every
    # irreducible; at (2, 5), (3, 4) and (4, 2) self-associate irreducibles
    # give orbits of fewer than 4 members
    for k, top in [(1, 7), (2, 5), (3, 4), (4, 2)]:
        for n in range(top + 1):
            labels = families_with_size(k, n)
            for left in labels:
                for right in labels:
                    _check_readers(left, right, n)
    # at (1, 13) a slot is wider than a machine word
    assert ch._table_entry(1, 13)[1][0] > 64
    labels = families_with_size(1, 13)
    rng = random.Random(13)
    for _ in range(30):
        left, right = rng.choice(labels), rng.choice(labels)
        _check_readers(left, right, 13)


def test_level_reader_equals_the_sum_per_class_less_lower():
    from wreathcenter import characters as ch

    # the universal levels' reader with neither scale nor lower, with a
    # scale alone, and with a `lower` that cancels a third of the labels,
    # lowers a third (at scale 1, cancels them too) and leaves the rest, at
    # scale 1 and above, against the sum per class: the same terms in table
    # order, their mass, and `lower` consumed
    for k, top in [(1, 7), (2, 5), (3, 4)]:
        for n in range(top + 1):
            labels = families_with_size(k, n)
            for left in labels:
                for right in labels:
                    expected = _frobenius_by_class(left, right, n)
                    for scale, cut in [(None, False), (3, False), (1, True), (2, True)]:
                        lower = {}
                        if cut:
                            for i, (gamma, c) in enumerate(expected.items()):
                                if i % 3 < 2:
                                    lower[gamma] = c * scale if i % 3 == 0 else c
                        want = {g: c * (scale or 1) - lower.get(g, 0) for g, c in expected.items()}
                        want = [(g, c) for g, c in want.items() if c]
                        if scale is None:
                            flat, mass = ch.level_terms(left, right)
                        else:
                            flat, mass = ch.level_terms(left, right, scale, lower)
                        pairs = iter(flat)
                        assert list(zip(pairs, pairs)) == want and lower == {}
                        assert mass == sum(c * class_size(g, n) for g, c in want)


def test_a_lower_entry_that_no_slot_consumes_is_refused():
    from wreathcenter import characters as ch

    # the identity times (3,1) at (1, 4) is C(3,1): the even classes (1^4)
    # and (2,2) are zero slots of its degree-1 group, and the odd (2,1,1)
    # lies in another group, which the sum does not read.  A label already
    # found that pads to either is one the level would hold with a negative
    # coefficient
    ident, three = PartitionFamily.identity(1, 4), fam(1, (3, 1))
    _, (_, values, _, _, groups) = ch._table_entry(1, 4)
    classes, _ = groups[tuple(map(mul, values[ident], values[three]))]
    assert ident in classes and fam(1, (2, 2)) in classes and fam(1, (2, 1, 1)) not in classes
    assert ch.level_terms(ident, three) == ((three, 1), 8)
    for where in [ident, fam(1, (2, 2)), fam(1, (2, 1, 1))]:
        for lower in [{where: 1}, {where: 2, three: 1}, {three: 1, where: 3}]:
            with pytest.raises(InvariantViolation, match=r"cannot have c = -\d"):
                ch.level_terms(ident, three, 1, lower)


def test_a_slot_remainder_is_refused_at_any_scale(monkeypatch):
    from wreathcenter import characters as ch

    # the identity squared with the trivial representative's row raised by 1
    # at the identity's slot, as in the exact-quotient test below: the slot
    # leaves a remainder by z.  Each slot is divided before it is scaled and
    # lowered, so no scale, z itself included, and no `lower` hides it
    for k, n in [(1, 4), (2, 3), (3, 2)]:
        ident = PartitionFamily.identity(k, n)
        table, (width, values, weights, folded, groups) = ch._table_entry(k, n)
        target = tuple(v * v for v in values[ident])
        classes, rows = groups[target]
        j, z = classes.index(ident), big_z(ident) ** 2
        wrong = (rows[0] + (1 << width * j),) + rows[1:]
        packed = {**groups, target: (classes, wrong)}
        monkeypatch.setitem(ch._tables, (k, n), (table, (width, values, weights, folded, packed)))
        for scale, lower in [(1, None), (2, {}), (z, None), (z, {ident: z}), (2, {ident: 1})]:
            with pytest.raises(InvariantViolation, match="is not an integer"):
                ch.level_terms(ident, ident, scale, lower)
        monkeypatch.undo()
        assert ch.level_terms(ident, ident, z, {ident: z - 1}) == ((ident, 1), 1)


def test_universal_vectors_are_the_vectors_their_terms_build():
    # the universal route wraps its terms unchecked: on every product of the
    # sweep (k <= 3, |L| + |R| <= 4) its vector must be the one the
    # validating constructor builds from the same terms, which passes
    # check_mass: the same terms in the same order, no label twice, equal,
    # with the same hash and repr, before and after a pickle round trip
    products = 0
    for k in (1, 2, 3):
        fams = [f for s in range(5) for f in families_with_size(k, s)]
        for left in fams:
            for right in fams:
                if left.size + right.size > 4:
                    continue
                vector = ct._universal_by_characters(left, right)
                built = ct.ClassSumVector(k, vector.terms)
                ct.check_mass(built, left, right)
                for twin in (vector, pickle.loads(pickle.dumps(vector))):
                    assert list(twin.items()) == list(built.items())
                    assert twin == built and hash(twin) == hash(built) and repr(twin) == repr(built)
                products += 1
    assert products == 649


def test_wrong_packed_rows_are_caught(monkeypatch):
    from wreathcenter import characters as ch

    table, (width, values, weights, folded, groups) = ch._table_entry(1, 6)
    lam = fam(1, (5, 1))
    expected = ct.multiply_group(lam, lam, 6)
    # lam * lam lies in the classes whose degree-1 values are lam's squared
    target = tuple(v * v for v in values[lam])
    group, rows = groups[target]
    # one slot off by one: the class (3, 3), which lam * lam reaches, in the
    # group row of each representative that is nonzero at lam
    slot = group.index(fam(1, (3, 3)))
    reached = [r for r, value in enumerate(folded[lam]) if value]
    assert reached
    for r in reached:
        wrong = list(rows)
        wrong[r] += 1 << width * slot
        packed = {**groups, target: (group, tuple(wrong))}
        monkeypatch.setitem(ch._tables, (1, 6), (table, (width, values, weights, folded, packed)))
        with pytest.raises(InvariantViolation):
            ct.multiply_group(lam, lam, 6)
        monkeypatch.undo()
    # slots too narrow run into each other: the largest slot of lam * lam,
    # 144 * big_z(lam) ** 2 = 3600, needs 12 bits of the 20 that |G| ** 2 does
    narrow = 11
    packed = {
        key: (classes, tuple(sum(v << narrow * j for j, v in enumerate(row))
                             for row in zip(*(folded[g] for g in classes))))
        for key, (classes, _) in groups.items()
    }
    monkeypatch.setitem(ch._tables, (1, 6), (table, (narrow, values, weights, folded, packed)))
    with pytest.raises(InvariantViolation):
        ct.multiply_group(lam, lam, 6)
    monkeypatch.undo()
    assert ct.multiply_group(lam, lam, 6) == expected


def test_a_raised_row_that_keeps_every_quotient_exact_fails_the_mass_check(monkeypatch):
    from wreathcenter import characters as ch

    # one representative's row, at a slot j that lam * lam reaches, is raised
    # by m << width * j with m = z / gcd(a b w, z), where z = z(lam) ** 2 and
    # a b w = chi(lam) ** 2 |orbit| |G| / chi(1): slot j gains a b w m, a
    # multiple of z, so every quotient stays exact and one coefficient rises
    # by a b w m / z.  Only the mass identity tells, and the product is
    # refused without verify_representative
    for k, n, text in [(1, 6, "{[1]:[5,1]}"), (2, 4, "{[2]:[2]; [1,1]:[1,1]}"),
                       (3, 3, "{[2,1]:[2]; [3]:[1]}")]:
        lam = parse_family(text, k)
        table, (width, values, weights, folded, groups) = ch._table_entry(k, n)
        expected = ct.multiply_group(lam, lam, n)
        target = tuple(v * v for v in values[lam])
        classes, rows = groups[target]
        z = big_z(lam) ** 2
        raised = 0
        for r, a in enumerate(folded[lam]):
            if not a:
                continue
            abw = a * a * weights[r]
            m = z // gcd(abw, z)
            for gamma, c in expected.items():
                assert c * z + abw * m < 1 << width - 1  # no carry into the next slot
                j = classes.index(gamma)
                wrong = list(rows)
                wrong[r] += m << width * j
                packed = {**groups, target: (classes, tuple(wrong))}
                monkeypatch.setitem(ch._tables, (k, n), (table, (width, values, weights, folded, packed)))
                terms = expected.terms
                terms[gamma] += abw * m // z
                flat, _ = ch.level_terms(lam, lam)
                assert dict(zip(flat[::2], flat[1::2])) == terms
                with pytest.raises(InvariantViolation, match="product mass"):
                    ct.multiply_group(lam, lam, n)
                monkeypatch.undo()
                raised += 1
        assert raised > 1
        assert ct.multiply_group(lam, lam, n) == expected


def test_a_raised_row_that_keeps_every_floor_is_caught_by_the_exact_quotient(monkeypatch):
    from wreathcenter import characters as ch

    # the identity squared: its slot holds z = z(1) ** 2 = |G| ** 2, and a
    # representative's row raised by 1 there adds chi(1) |orbit| |G| < z, so
    # every coefficient read by floor division, and so the mass, would stay
    # as it is; only the remainder of the slot by z tells
    for k, n in [(1, 4), (2, 3), (3, 2)]:
        ident = PartitionFamily.identity(k, n)
        table, (width, values, weights, folded, groups) = ch._table_entry(k, n)
        target = tuple(v * v for v in values[ident])
        classes, rows = groups[target]
        j, z = classes.index(ident), big_z(ident) ** 2
        for r, dim in enumerate(folded[ident]):
            step = dim * dim * weights[r]
            assert 0 < step < z
            wrong = list(rows)
            wrong[r] += 1 << width * j
            packed = {**groups, target: (classes, tuple(wrong))}
            monkeypatch.setitem(ch._tables, (k, n), (table, (width, values, weights, folded, packed)))
            with pytest.raises(InvariantViolation, match="is not an integer"):
                ct.multiply_group(ident, ident, n)
            monkeypatch.undo()
        assert ct.multiply_group(ident, ident, n).terms == {ident: 1}


def test_immutable_types_pickle_and_copy(monkeypatch):
    from wreathcenter.blockperm import BlockPermutation
    from wreathcenter.kpartial import KPartialPermutation

    label = BlockPermutation(2, 2, (3, 4, 2, 1)).type_of()
    built = fam(2, (2,), (1,))
    values = [
        label,
        built,
        BlockPermutation(2, 2, (3, 4, 2, 1)),
        KPartialPermutation(2, [1, 3], (5, 6, 2, 1)),
        ct.multiply_universal(built, built),
        ct.multiply_group(label, label, 2),
        ct.polynomial_structure(built, built),
        ct.PolynomialStructure(2, built, built, ct.polynomial_structure(built, built).rows),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value
            assert hash(twin) == hash(value)
    # a label comes back as the shared object type extraction returns
    for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert twin is label
    assert pickle.loads(pickle.dumps(built)) is PartitionFamily._of(2, built.components)
    # a structure unpickles through its vector, without its validating constructor
    structure = ct.polynomial_structure(built, built)
    kept = pickle.dumps(structure)

    def refuse(*args, **kwargs):
        raise AssertionError("the validating constructor ran")

    monkeypatch.setattr(ct.PolynomialStructure, "__new__", refuse)
    assert pickle.loads(kept) == structure
    assert copy.deepcopy(structure) == structure
