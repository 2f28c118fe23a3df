import copy
import pickle
from collections import Counter
from math import comb, gcd

import pytest

from wreathcenter import center as ct
from wreathcenter import kpartial as kp
from wreathcenter.blockperm import DEFAULT_BUDGET
from wreathcenter.errors import BudgetExceeded, InvariantViolation, NotProper, SizeMismatch
from wreathcenter.families import (
    PartitionFamily,
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
        return ct._by_enumeration(left, right, None, DEFAULT_BUDGET, False)

    # T_(3) drops from 4 to 3: 6 * 3 / |C_(3)| = 18 / 8 is not an integer
    mislabel_once({fam(1, (3,)): fam(1, (2, 2))})
    with pytest.raises(InvariantViolation):
        enumerated(lam, lam)
    # moving the one (2,2) product to (1,1) keeps every quotient integral
    # and the mass unchanged; only a second representative sees it
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
    assert ct._by_enumeration(transposition, transposition, 4, DEFAULT_BUDGET, False).terms == {
        identity: 12,
        fam(1, (3, 1)): 3,
    }
    mislabel_group_once({fam(1, (2, 2)): identity})
    with pytest.raises(InvariantViolation):
        ct.multiply_group(transposition, transposition, 4, verify_representative=True)


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
                    assert ct.deg(gamma) <= ct.deg(left) + ct.deg(right)
                    assert ct.deg1(gamma) <= ct.deg1(left) + ct.deg1(right)
                    checked += 1
    assert checked > 1000


def test_deg_examples():
    empty = PartitionFamily.empty(2)
    assert ct.deg(empty) == ct.deg1(empty) == 0
    f = fam(2, (1, 1), (2,))
    assert ct.deg(f) == 4
    assert ct.deg1(f) == 6
    assert ct.deg1(f) - ct.deg(f) == f.m1


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


def test_representative_independence_flag():
    v1 = ct.multiply_group(fam(1, (2, 1, 1)), fam(1, (2, 1, 1)), 4, verify_representative=True)
    v2 = ct.multiply_group(fam(1, (2, 1, 1)), fam(1, (2, 1, 1)), 4)
    assert v1 == v2
    u1 = ct.multiply_universal(fam(2, (), (2,)), fam(2, (), (2,)), verify_representative=True)
    u2 = ct.multiply_universal(fam(2, (), (2,)), fam(2, (), (2,)))
    assert u1 == u2


def test_products_check_their_inputs():
    # every route shares these checks, the enumeration that
    # verify_representative forces included
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


def test_verify_representative_reads_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_representative must enumerate")

    # products whose tables the character route would read, cold or warm
    seven, four = fam(1, (7,)), fam(1, (4,))
    five = fam(2, (), (5,))
    k1_group = ct._by_enumeration(seven, seven, 7, DEFAULT_BUDGET, False)
    k2_group = ct._by_enumeration(five, five, 5, DEFAULT_BUDGET, False)
    universal = ct._by_enumeration(four, four, None, DEFAULT_BUDGET, False)
    structure = ct.polynomial_structure(four, four)
    monkeypatch.setattr(ct, "_frobenius", refuse)
    monkeypatch.setattr(ct, "_universal_by_characters", refuse)
    monkeypatch.setattr(ct, "_enumerated", Counter())
    assert ct.multiply_group(seven, seven, 7, verify_representative=True) == k1_group
    assert ct.multiply_universal(four, four, verify_representative=True) == universal
    assert ct.polynomial_structure(four, four, verify_representative=True) == structure
    assert ct.multiply_group(five, five, 5, verify_representative=True) == k2_group
    assert ct._enumerated == Counter()


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
                    enumerated = ct._by_enumeration(left, right, n, 10**6, False)
                    assert ct._group_by_characters(left, right, n) == enumerated


def test_route_charges_the_table_build(monkeypatch):
    from wreathcenter import characters as ch

    monkeypatch.setattr(ct, "_enumerated", Counter())
    ch.character_table.cache_clear()
    # a cold one-off product of a 1-member class enumerates: the (3, 5)
    # table has 108 ** 2 entries
    ident, gamma = PartitionFamily.identity(3, 5), fam(3, (1, 1), (2,), (1,))
    assert ct.multiply_group(ident, gamma, 5).terms == {gamma: 1}
    assert not ch.has_character_table(3, 5)
    # repeated products at (3, 3) enumerate until the next enumeration
    # would bring their cost past the cost of building the table
    left, right = fam(3, (2, 1), (), ()), fam(3, (), (1,), (1, 1))
    expected = ct._by_enumeration(left, right, 3, 10**6, False)
    element_cost = class_size(left, 3) * ct._ELEMENT_COST
    build_cost = len(families_with_size(3, 3)) ** 2 * (1 + ct._BUILD_COST)
    built_at = None
    for product in range(10):
        assert ct.multiply_group(left, right, 3) == expected
        if built_at is None and ch.has_character_table(3, 3):
            built_at = product
    assert built_at >= 1
    assert built_at * element_cost <= build_cost < (built_at + 1) * element_cost
    assert ct._enumerated[3, 3] == built_at * element_cost


def test_warm_routes(monkeypatch):
    from wreathcenter import characters as ch

    def refuse(*args):
        raise AssertionError("this route must not be taken")

    # a one-member orbit enumerates even with its table built: #classes ** 2
    # bounds the Frobenius sum's reads and is what it is charged
    ch.character_table(3, 5)
    ident, gamma = PartitionFamily.identity(3, 5), fam(3, (1, 1), (2,), (1,))
    monkeypatch.setattr(ct, "_frobenius", refuse)
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
    assert entries < smaller * ct._ELEMENT_COST and smaller < entries
    by_characters = ct.multiply_group(left, right, 3)
    calls = []
    monkeypatch.setattr(ct, "_group_by_characters", lambda *args: calls.append(args))
    # characters are cheaper, but only enumeration fits the budget
    assert ct.multiply_group(left, right, 3, budget=smaller) == by_characters
    assert calls == []
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(left, right, 3, budget=smaller - 1)
    assert info.value.needed == smaller


def test_route_rule_and_budget():
    # |C_(5,1)| = 144 at n = 6 exceeds the 11**2 = 121 entries of the S_6 table
    lam = fam(1, (5, 1))
    by_characters = ct.multiply_group(lam, lam, 6, budget=121)
    assert by_characters == ct._by_enumeration(lam, lam, 6, 144, False)
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(lam, lam, 6, budget=120)
    assert info.value.needed == 121
    # a second representative exists only for enumeration
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
        enumerated = ct._by_enumeration(left, right, None, 10**7, False)
        assert ct._universal_by_characters(left, right) == enumerated


def test_top_stage_in_closed_form_matches_enumeration():
    # the one label of size |L| + |R| is the union of the inputs, with a
    # product of binomials as its coefficient; every ordered pair with k = 1
    # and |L| + |R| <= 7, k = 2 and <= 5, k = 3 and <= 4 against forced
    # enumeration, which recounts at a second member of the larger orbit
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


def test_wrong_top_label_or_coefficient_is_caught(monkeypatch):
    # the top stage's mass check weighs the closed-form coefficient, counted
    # from the inputs alone, by the class size of the label: a wrong label
    # or a coefficient one too large is refused there
    true_top_label = ct._top_label
    for k, a, b, wrong in [(1, "{[1]:[2]}", "{[1]:[2]}", "{[1]:[4]}"),
                           (1, "{[1]:[3,1]}", "{[1]:[2]}", "{[1]:[3,3]}"),
                           (2, "{[2]:[1]}", "{[1,1]:[1]}", "{[2]:[1,1]}"),
                           (3, "{[2,1]:[2]}", "{[3]:[1]}", "{[2,1]:[2,1]}")]:
        left, right = parse_family(a, k), parse_family(b, k)
        union, c = true_top_label(left, right)
        assert ct._universal_by_characters(left, right).coefficient(union) == c
        top = left.size + right.size
        for corrupted in [(parse_family(wrong, k), c), (union, c + 1)]:
            monkeypatch.setattr(ct, "_top_label", lambda l, r, corrupted=corrupted: corrupted)
            with pytest.raises(InvariantViolation, match=f"mass at stage {top} "):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()


def test_wrong_level_of_the_universal_character_route_is_caught(monkeypatch):
    # one coefficient of one size's group product is one too large; a wrong
    # size below the top keeps the mass at stage |L| + |R|, so every stage
    # must be checked.  The sizes below the top are the ones read off tables
    true_frobenius = ct._frobenius
    for k, a, b in [(1, "{[1]:[1]}", "{[1]:[1]}"), (1, "{[1]:[2]}", "{[1]:[2]}"),
                    (2, "{[2]:[1]; [1,1]:[1]}", "{[2]:[1]}"), (2, "{[2]:[2]}", "{[1,1]:[2]}")]:
        left, right = parse_family(a, k), parse_family(b, k)
        for wrong_at in range(max(left.size, right.size), left.size + right.size):

            def frobenius(l, r, n, wrong_at=wrong_at):
                terms = true_frobenius(l, r, n)
                if n == wrong_at:
                    first = min(terms, key=PartitionFamily.sort_key)
                    terms[first] += 1
                return terms

            monkeypatch.setattr(ct, "_frobenius", frobenius)
            with pytest.raises(InvariantViolation):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()


def test_wrong_padded_label_at_any_level_is_caught(monkeypatch):
    # at k = 3, one coefficient of each size's group product in turn is one
    # too large, always at a label with 1-parts in its all-ones component:
    # the labels that smaller ones pad to, so their level subtracts before
    # the stage's mass, summed one size at a time, is checked.  Those stage
    # checks are the only mass checks this route makes.  Every size below
    # the top, which is read off no table, is bumped where a level reads
    # such a label: where the second filtration lets its new labels have a
    # 1-part
    true_frobenius = ct._frobenius
    for a, b in [("{[3]:[1]}", "{[3]:[1]}"), ("{[1,1,1]:[1]; [3]:[1]}", "{[2,1]:[1]}"),
                 ("{[3]:[2]}", "{[3]:[2]}"),
                 ("{[2,1]:[1]; [3]:[1]}", "{[2,1]:[1]; [3]:[1]}")]:
        left, right = parse_family(a, 3), parse_family(b, 3)
        top = min(left.size + right.size - 1, ct.deg1(left) + ct.deg1(right) - 1)
        for wrong_at in range(max(left.size, right.size), top + 1):
            bumped = []

            def frobenius(l, r, n, wrong_at=wrong_at, bumped=bumped):
                terms = true_frobenius(l, r, n)
                if n == wrong_at:
                    padded = min((g for g in terms if g.m1), key=PartitionFamily.sort_key)
                    terms[padded] += 1
                    bumped.append(padded)
                return terms

            monkeypatch.setattr(ct, "_frobenius", frobenius)
            monkeypatch.setattr(ct, "check_mass", lambda vector, left, right: None)
            with pytest.raises(InvariantViolation):
                ct._universal_by_characters(left, right)
            monkeypatch.undo()
            assert len(bumped) == 1 and bumped[0].m1


def test_negative_level_coefficient_with_its_mass_kept_is_caught(monkeypatch):
    # one size's group product moves mass from one label to another until
    # the first is negative; the mass of that stage, and so of every later
    # one, is kept, so only the refusal of a negative coefficient at its
    # level can catch it.  At k = 1, 2 and 3, at levels below the top,
    # whose one coefficient is a product of binomials
    true_frobenius = ct._frobenius
    for k, a, b, wrong_at in [(1, "{[1]:[3,2]}", "{[1]:[2]}", 5), (1, "{[1]:[3,2]}", "{[1]:[2]}", 6),
                              (2, "{[2]:[1]; [1,1]:[1]}", "{[2]:[1]}", 2),
                              (3, "{[3]:[1]}", "{[3]:[1]}", 1)]:
        left, right = parse_family(a, k), parse_family(b, k)

        def frobenius(l, r, n, wrong_at=wrong_at):
            terms = true_frobenius(l, r, n)
            if n == wrong_at:
                mass = sum(c * class_size(g, n) for g, c in terms.items())
                low, high = sorted(terms, key=PartitionFamily.sort_key)[:2]
                sizes = class_size(low, n), class_size(high, n)
                shift = terms[low] + 1
                terms[low] -= shift * sizes[1] // gcd(*sizes)
                terms[high] += shift * sizes[0] // gcd(*sizes)
                assert terms[low] < 0
                assert sum(c * class_size(g, n) for g, c in terms.items()) == mass
            return terms

        monkeypatch.setattr(ct, "_frobenius", frobenius)
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
                ys = list(bp.enumerate_class(right, n, strategy="filter"))
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
                    assert ct._by_enumeration(left, right, n, DEFAULT_BUDGET, False).terms == expected


def test_filtration_skip_one_too_tight_is_caught(monkeypatch):
    # each level below the top reads only the labels the second filtration
    # allows; with the bound one lower, a target on the bound is skipped and
    # its level's mass comes up short.  The top label, the union of the
    # inputs, is always on the bound but is found in closed form, so each
    # pair has a label below the top on it.  The stage checks are the only
    # mass checks this route makes
    true_most_ones = ct._most_ones
    for k, a, b in [(1, "{[1]:[2]}", "{[1]:[2]}"), (1, "{[1]:[3,2]}", "{[1]:[2]}"),
                    (2, "{[2]:[2]}", "{[2]:[2]}"), (2, "{[2]:[1,1]}", "{[1,1]:[1]; [2]:[1]}"),
                    (3, "{[3]:[1]}", "{[3]:[1]}"), (3, "{[3]:[2]}", "{[3]:[2]}")]:
        left, right = parse_family(a, k), parse_family(b, k)
        bound = ct.deg1(left) + ct.deg1(right)
        terms = ct._universal_by_characters(left, right).terms
        assert max(map(ct.deg1, terms)) == bound
        assert any(ct.deg1(g) == bound for g in terms if g.size < left.size + right.size)
        monkeypatch.setattr(ct, "_most_ones", lambda l, r, n: true_most_ones(l, r, n) - 1)
        monkeypatch.setattr(ct, "check_mass", lambda vector, left, right: None)
        with pytest.raises(InvariantViolation):
            ct._universal_by_characters(left, right)
        monkeypatch.undo()


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

    monkeypatch.setattr(ct, "_enumerated", Counter())
    ch.character_table.cache_clear()
    # the tables at (3, 2) and (3, 3) have 9 ** 2 + 22 ** 2 entries; one
    # product enumerates the 6 members of the orbit of {[1,1,1]:[1,1]} at
    # stage 4.  The top size, 4, is found in closed form, so the (3, 4) table
    # is never read
    left, right = fam(3, (1, 1), (), ()), fam(3, (), (), (2,))
    smaller, sizes = 6, (2, 3)
    assert smaller == kp.partial_class_size(left, 4) < kp.partial_class_size(right, 4)
    expected = ct._by_enumeration(left, right, None, 10**6, False)
    # a cold one-off product enumerates and builds no table
    assert ct.multiply_universal(left, right) == expected
    assert not any(ch.has_character_table(3, n) for n in sizes)
    # repeated products enumerate until the tables' charge, less what the
    # enumeration at each size has cost, falls below one more enumeration
    enumeration = smaller * ct._ELEMENT_COST
    entries = [len(families_with_size(3, n)) ** 2 for n in sizes]

    def charge(products):
        return sum(e + max(e * ct._BUILD_COST - products * enumeration, 0) for e in entries)

    built_at = None
    for product in range(1, 12):
        assert ct.multiply_universal(left, right) == expected
        if built_at is None and ch.has_character_table(3, 3):
            built_at = product
    assert built_at >= 2
    assert charge(built_at - 1) >= enumeration > charge(built_at)
    assert all(ch.has_character_table(3, n) for n in sizes)
    assert not ch.has_character_table(3, 4)
    assert all(ct._enumerated[3, n] == built_at * enumeration for n in sizes)
    assert ct._enumerated[3, 4] == 0


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


def test_wrong_character_value_is_caught(monkeypatch):
    from wreathcenter import characters as ch

    (order, weights, columns), _, _ = ch._table_entry(1, 6)
    irreps = families_with_size(1, 6)
    lam = fam(1, (5, 1))
    # a wrong value of the sign, a degree-1 character, moves (3, 3) off the
    # classes the product can reach, so its mass goes missing; the entry is
    # built as a table's is, so its packed rows hold the wrong value too
    for wrong in [((4, 2), (3, 3)), ((1, 1, 1, 1, 1, 1), (3, 3))]:
        rho, delta = fam(1, wrong[0]), fam(1, wrong[1])
        column = list(columns[delta])
        column[irreps.index(rho)] += 1
        wrong_columns = {**columns, delta: tuple(column)}
        entry = ch._entry(order, wrong_columns, columns[PartitionFamily.identity(1, 6)])
        monkeypatch.setitem(ch._tables, (1, 6), entry)
        try:
            with pytest.raises(InvariantViolation):
                ct.multiply_group(lam, lam, 6)
        finally:
            monkeypatch.undo()
    assert ct.multiply_group(lam, lam, 6).coefficient(fam(1, (3, 3))) == 54


def _frobenius_by_class(left, right, n):
    """The group product by the Frobenius formula, one sum per class, as the definition reads."""
    from wreathcenter import characters as ch
    from wreathcenter.families import big_z

    _, weights, columns = ch.character_table(left.k, n)
    z = big_z(left) * big_z(right)
    terms = {}
    for gamma, column in columns.items():
        total = sum(a * b * c * w for a, b, c, w in zip(columns[left], columns[right], column, weights))
        assert total % z == 0
        if total:
            terms[gamma] = total // z
    return terms


def test_packed_frobenius_sum_equals_the_sum_per_class():
    import random

    from wreathcenter import characters as ch

    for k, top in [(1, 7), (2, 4), (3, 3)]:
        for n in range(top + 1):
            labels = families_with_size(k, n)
            for left in labels:
                for right in labels:
                    assert ct._frobenius(left, right, n) == _frobenius_by_class(left, right, n)
    # at (1, 13) a slot is wider than a machine word
    assert ch.packed_rows(1, 13)[0] > 64
    labels = families_with_size(1, 13)
    rng = random.Random(13)
    for _ in range(30):
        left, right = rng.choice(labels), rng.choice(labels)
        assert ct._frobenius(left, right, 13) == _frobenius_by_class(left, right, 13)


def test_wrong_packed_rows_are_caught(monkeypatch):
    from wreathcenter import characters as ch

    table, linear, (width, rows, slots) = ch._table_entry(1, 6)
    _, _, columns = table
    positions = {gamma: shift // width for group in slots.values() for gamma, shift in group}
    lam = fam(1, (5, 1))
    expected = ct.multiply_group(lam, lam, 6)
    # one slot off by one: the class (3, 3), which lam * lam reaches, in the
    # rows of the sign and of the trivial irreducible, both nonzero at lam
    for row in (0, len(rows) - 1):
        wrong = list(rows)
        wrong[row] += 1 << width * positions[fam(1, (3, 3))]
        monkeypatch.setitem(ch._tables, (1, 6), (table, linear, (width, tuple(wrong), slots)))
        with pytest.raises(InvariantViolation):
            ct.multiply_group(lam, lam, 6)
        monkeypatch.undo()
    # slots too narrow run into each other: the largest slot of lam * lam,
    # 144 * big_z(lam) ** 2 = 3600, needs 12 bits of the 20 that |G| ** 2 does
    narrow = 11
    packed = (
        narrow,
        tuple(sum(v << narrow * p for p, v in enumerate(row)) for row in zip(*columns.values())),
        {key: tuple((g, narrow * positions[g]) for g, _ in group) for key, group in slots.items()},
    )
    monkeypatch.setitem(ch._tables, (1, 6), (table, linear, packed))
    with pytest.raises(InvariantViolation):
        ct.multiply_group(lam, lam, 6)
    monkeypatch.undo()
    assert ct.multiply_group(lam, lam, 6) == expected


def test_immutable_types_pickle_and_copy():
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
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value
    # a label comes back as the shared object type extraction returns
    for twin in (pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)):
        assert twin is label
    assert pickle.loads(pickle.dumps(built)) is PartitionFamily._of(2, built.components)
