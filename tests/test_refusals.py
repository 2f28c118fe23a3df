"""Each check that refuses a bad argument raises the type its module documents.

One assertion per check; the inputs are the smallest that reach it.
"""

from collections import namedtuple

import pytest

from wreathcenter import blockperm as bp
from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter import kpartial as kp
from wreathcenter import partitions as pt
from wreathcenter.errors import BudgetExceeded, DimensionMismatch, NotProper, SizeMismatch
from wreathcenter.families import PartitionFamily, parse_family
from wreathcenter.kpartial import KPartialPermutation


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


def test_block_permutation_refusals():
    with pytest.raises(DimensionMismatch):
        bp.BlockPermutation(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        bp.BlockPermutation(2, 2, (1, 3, 2, 4))  # splits block 1
    with pytest.raises(DimensionMismatch):
        bp.BlockPermutation.identity(1, 2) * bp.BlockPermutation.identity(1, 3)
    with pytest.raises(AttributeError):
        bp.BlockPermutation.identity(1, 2).n = 3
    with pytest.raises(SizeMismatch):
        next(bp.class_mappings_on_blocks(fam(1, (2,)), (1, 2, 3)))
    # the enumeration oracle refuses k = 0 as the constructors do
    with pytest.raises(ValueError, match="k must be a positive integer"):
        next(bp.enumerate_group(0, 2))


def test_block_permutation_constructor_always_checks():
    # no flag skips the check: only the package's own `_of` builds unchecked
    with pytest.raises(TypeError):
        bp.BlockPermutation(1, 2, (1, 1), True)
    with pytest.raises(ValueError):
        bp.BlockPermutation(1, 2, (1, 1))


def test_element_constructors_refuse_an_impossible_group():
    # as every other function does: SizeMismatch for n < 0, ValueError for k < 1
    with pytest.raises(SizeMismatch):
        bp.BlockPermutation(1, -1, ())
    with pytest.raises(SizeMismatch):
        kp.extend(KPartialPermutation.empty(1), -1)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        bp.BlockPermutation(0, 2, ())
    with pytest.raises(ValueError, match="k must be a positive integer"):
        KPartialPermutation(0, (), ())


def test_center_refusals():
    with pytest.raises(SizeMismatch):
        ct.ClassSumVector(1, {fam(2, (1,), ()): 1})
    # a key that is not a family, with or without a size to check
    for n in (None, 1):
        with pytest.raises(TypeError, match="'x'"):
            ct.ClassSumVector(1, {"x": 1}, n=n)
        # nor is a vector, or any other object with a k and a size
        for key in (ct.ClassSumVector(1, {}), namedtuple("Label", "k size")(1, 1)):
            with pytest.raises(TypeError, match="not a family"):
                ct.ClassSumVector(1, {key: 1}, n=n)
    with pytest.raises(AttributeError):
        ct.ClassSumVector(1, {}).n = 2
    rows = ct.polynomial_structure(fam(1, (2,)), fam(1, (2,)))
    with pytest.raises(AttributeError):
        rows.k = 2
    with pytest.raises(SizeMismatch):
        rows.evaluate(fam(1, (2,)), 1)
    # a vector of another k than its inputs is a refused input, not a broken invariant
    one, two = fam(1, (2,)), fam(2, (2,), ())
    with pytest.raises(SizeMismatch, match="same k"):
        ct.check_mass(ct.multiply_group(one, one, 2), two, two)


def test_class_sum_vector_takes_integer_coefficients():
    label = fam(1, (2,))
    for coeff in (1.5, "3"):
        with pytest.raises(TypeError):
            ct.ClassSumVector(1, {label: coeff})
    assert repr(ct.ClassSumVector(1, {label: True})) == "<universal: 1*C{[1]:[2]}>"


def test_group_size_is_read_as_an_integer():
    # n is read through operator.index, as a coefficient is, before any size is
    # compared: a bool is 0 or 1, and a float is refused at the call
    one = fam(1, (1,))
    for vector in (ct.multiply_group(one, one, True), ct.ClassSumVector(1, {one: 1}, n=True)):
        assert type(vector.n) is int
        assert repr(vector) == "<group(1): 1*C{[1]:[1]}>"
    with pytest.raises(TypeError):
        ct.multiply_group(one, one, 1.0)
    with pytest.raises(TypeError):
        ct.ClassSumVector(1, {one: 1}, n=1.0)


def test_polynomial_structure_refuses_inputs_of_another_k():
    one, two = fam(1, (2,)), fam(2, (), (1,))
    with pytest.raises(SizeMismatch):
        ct.PolynomialStructure(2, one, one, {})
    with pytest.raises(SizeMismatch):
        ct.PolynomialStructure(1, one, one, {(two, 0): 1})


def test_polynomial_structure_refuses_a_bad_row_key():
    label = fam(1, (2,))
    with pytest.raises(ValueError):
        ct.PolynomialStructure(1, label, label, {(label, -1): 2})
    with pytest.raises(TypeError):
        ct.PolynomialStructure(1, label, label, {(label, 1.0): 2})
    with pytest.raises(NotProper):
        ct.PolynomialStructure(1, label, label, {(fam(1, (2, 1)), 0): 2})
    with pytest.raises(TypeError):
        ct.PolynomialStructure(1, label, label, {("{[1]:[2]}", 0): 2})


def test_polynomial_structure_refuses_a_non_integer_coefficient():
    label = fam(1, (2,))
    with pytest.raises(TypeError):
        ct.PolynomialStructure(1, label, label, {(label, 1): 2.5})


def test_immutable_types_refuse_del_on_every_slot():
    # a label is shared, so deleting one of its slots would break every equal
    # family; a cached representative and a vector are shared the same way
    built = fam(2, (2,), (1,))
    values = [
        built,
        bp.class_representative(built, 3),
        kp.partial_class_representative(built, 3),
        ct.multiply_universal(built, built),
        ct.polynomial_structure(built, built),
    ]
    for value in values:
        for name in type(value).__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
            getattr(value, name)
    twin = PartitionFamily(2, {(1, 1): (2,), (2,): (1,)})
    assert twin is built and (twin.k, twin.size, twin.m1) == (2, 3, 0)


def test_characters_refusals(monkeypatch):
    # the k mismatch is refused before the product is enumerated
    real, enumerated = ct._by_enumeration, []
    monkeypatch.setattr(ct, "_by_enumeration", lambda *args: enumerated.append(args) or real(*args))
    with pytest.raises(SizeMismatch, match="family k does not match"):
        ch.verify_iso(2, fam(1, (2,)), fam(1, (2,)))
    assert enumerated == []
    with pytest.raises(SizeMismatch):
        ch.level_terms(fam(1, (1,)), fam(2, (1,), ()))  # another k
    with pytest.raises(SizeMismatch):
        ch.level_terms(fam(1, (1,)), fam(1, (2,)))  # another size


def test_kpartial_refusals():
    with pytest.raises(AttributeError):
        KPartialPermutation.empty(1).k = 2
    with pytest.raises(ValueError):
        KPartialPermutation(1, [2, 2], [2])  # a repeated block
    with pytest.raises(ValueError, match="distinct"):
        KPartialPermutation(1, [2, 2], [2, 2])  # images a bijection of the points listed
    # too few or too many images, which zip would truncate to a permutation
    for k, blocks, images in [(1, [1, 2], [1]), (1, [1], [1, 1]), (2, [1], [2, 1, 3])]:
        with pytest.raises(ValueError, match="bijection"):
            KPartialPermutation(k, blocks, images)
    with pytest.raises(ValueError):
        KPartialPermutation.empty(0)
    with pytest.raises(DimensionMismatch):
        kp.product(KPartialPermutation.empty(1), KPartialPermutation.empty(2))
    # the 3-cycles of 3 points are 2
    with pytest.raises(BudgetExceeded):
        next(kp.universal_class_members(fam(1, (3,)), 3, budget=1))
    # 16 partial permutations of 3 at k = 1: 1 + 3 + 6 + 6
    with pytest.raises(BudgetExceeded):
        next(kp.enumerate_kpartial(1, 3, budget=15))
    # the enumeration oracle and its count refuse k = 0 as the constructor does
    with pytest.raises(ValueError, match="k must be a positive integer"):
        next(kp.enumerate_kpartial(0, 2))
    with pytest.raises(ValueError, match="k must be a positive integer"):
        kp.count_all(0, 2)


def test_budget_exceeded_names_what_its_count_counts():
    # the fields are read by the CLI; the message says what the count is of
    seven, two = fam(1, (7,)), fam(1, (2,))
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_group(seven, seven, 7, budget=100)
    assert str(info.value) == "character table: 225 table entries needed, budget is 100"
    with pytest.raises(BudgetExceeded) as info:
        ct.multiply_universal(two, two, budget=2)
    assert str(info.value) == "partial class enumeration: 6 elements needed, budget is 2"
    three = fam(1, (3,))
    needed = len(ch.default_eval_points(1, 5)) * (len(ct.multiply_universal(two, three).terms) + 2)
    with pytest.raises(BudgetExceeded) as info:
        ch.verify_iso(1, two, three, budget=needed - 1)
    message = f"transport evaluations: {needed} transport values needed, budget is {needed - 1}"
    assert str(info.value) == message


def test_identity_family_refuses_a_negative_size():
    for k, n in ((1, -1), (2, -2)):
        with pytest.raises(SizeMismatch):
            PartitionFamily.identity(k, n)
    assert PartitionFamily.identity(2, 0) == PartitionFamily.empty(2)


def test_text_and_partition_refusals():
    with pytest.raises(ValueError):
        parse_family("{[2]}", 2)  # an entry without ':'
    with pytest.raises(ValueError):
        pt.as_partition((2, -1))
    with pytest.raises(ValueError):
        pt.parse_partition("[a,1]")


def test_cached_polynomial_rows_refuse_a_zero_or_repeated_row(capsys, tmp_path):
    # the true rows of {[1]:[2]}^2 with a zero row added, or one row written
    # twice under two spellings of its target: each parses to the true
    # structure, and the record is refused for having more rows than terms
    from wreathcenter.cli import Cache, run

    two = "{[1]:[2]}"
    rows = {("{[1]:[3]}", 0): 3, ("{[1]:[2,2]}", 0): 2, ("{}", 2): 1}
    for extra in ({("{[1]:[4]}", 0): 0}, {("{[1]: [3]}", 0): 3}):
        path = str(tmp_path / "bad.cache")
        Cache(path).put_poly(1, two, two, {**rows, **extra})
        for command in ("poly", "universal"):
            code = run([command, "--k", "1", "--left", two, "--right", two, "--cache", path])
            out, err = capsys.readouterr()
            assert (code, out) == (3, "")
            assert f"cache record (1, '{two}', '{two}')" in err
        (tmp_path / "bad.cache").unlink()


def test_outside_input_refusals_each_name_their_own_check():
    # each input is also refused by a later check of the same type, so only
    # the message tells that the check meant for it refused it
    one, two = fam(1, (2,)), fam(2, (), (1,))
    with pytest.raises(SizeMismatch, match="a k=2 target in a k=1 structure"):
        ct.PolynomialStructure(1, one, one, {(two, 0): 1})
    with pytest.raises(ValueError, match="family key"):
        parse_family("{[1]:[2]}", 2)
    with pytest.raises(ValueError, match="lacks a ':'"):
        parse_family("{[2]}", 2)
