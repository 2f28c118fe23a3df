"""Each check that refuses a bad argument raises the type its module documents.

One assertion per check; the inputs are the smallest that reach it.
"""

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
    with pytest.raises(ValueError):
        next(bp.enumerate_class(fam(1, (2,)), 2, strategy="sorted"))


def test_center_refusals():
    with pytest.raises(SizeMismatch):
        ct.ClassSumVector(1, {fam(2, (1,), ()): 1})
    with pytest.raises(AttributeError):
        ct.ClassSumVector(1, {}).n = 2
    rows = ct.polynomial_structure(fam(1, (2,)), fam(1, (2,)))
    with pytest.raises(AttributeError):
        rows.k = 2
    with pytest.raises(SizeMismatch):
        rows.evaluate(fam(1, (2,)), 1)


def test_class_sum_vector_takes_integer_coefficients():
    label = fam(1, (2,))
    for coeff in (1.5, "3"):
        with pytest.raises(TypeError):
            ct.ClassSumVector(1, {label: coeff})
    assert repr(ct.ClassSumVector(1, {label: True})) == "<universal: 1*C{[1]:[2]}>"


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


def test_characters_refusals():
    with pytest.raises(SizeMismatch):
        ch.verify_iso(2, fam(1, (2,)), fam(1, (2,)))


def test_kpartial_refusals():
    with pytest.raises(AttributeError):
        KPartialPermutation.empty(1).k = 2
    with pytest.raises(ValueError):
        KPartialPermutation(1, [2, 2], [2])  # a repeated block
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


def test_text_and_partition_refusals():
    with pytest.raises(ValueError):
        parse_family("{[2]}", 2)  # an entry without ':'
    with pytest.raises(ValueError):
        pt.as_partition((2, -1))
    with pytest.raises(ValueError):
        pt.parse_partition("[a,1]")
