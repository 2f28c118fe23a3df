"""Exact class-sum arithmetic for groups of k-block permutations.

The package computes, over arbitrary-precision integers and rationals:

  * conjugacy classes of the group of permutations of [kn] sending
    k-blocks to k-blocks, labelled by families of partitions indexed by
    the partitions of k, with exact sizes;
  * the semigroup of k-partial permutations and its orbit structure;
  * products of class sums, both inside a fixed group and in the
    universal algebra spanned by orbit sums of k-partial permutations;
  * the binomial-basis rows that make every group-level structure
    coefficient a polynomial in n with nonnegative integer coefficients;
  * symmetric group characters, the character table of the k-block group
    for every k (signed-pair characters at k = 2), shifted power-sum
    evaluations, and a pointwise check, at every k, that the transport
    map onto shifted power sums is multiplicative.

Names load on first use: `wreathcenter.multiply_group` imports `center`
then, and each submodule is imported when one of its names or the module
itself is first read.  So a process that never enumerates never loads the
enumeration layers (`blockperm`, `kpartial`), and one that never asks for
a rational never loads `fractions`.
"""

from importlib import import_module

# every public name, by the submodule it lives in
_EXPORTS = {
    "blockperm": (
        "BlockPermutation",
        "class_representative",
        "conjugate",
        "cycle_type",
        "enumerate_class",
        "enumerate_group",
        "is_block_permutation",
    ),
    "center": (
        "ClassSumVector",
        "PolynomialStructure",
        "multiply_group",
        "multiply_universal",
        "polynomial_structure",
        "project",
    ),
    "characters": (
        "dim_irrep",
        "hyperoct_character",
        "shifted_power_sum_eval",
        "sym_character",
        "verify_iso",
    ),
    "errors": (
        "BudgetExceeded",
        "DimensionMismatch",
        "DomainNotCovered",
        "InvariantViolation",
        "NotContained",
        "NotProper",
        "SizeMismatch",
        "TooSmall",
        "WreathError",
    ),
    "families": (
        "PartitionFamily",
        "big_z",
        "class_size",
        "families_with_size",
        "format_family",
        "group_order",
        "pad_family",
        "parse_family",
        "partial_class_size",
    ),
    "kpartial": (
        "KPartialPermutation",
        "act",
        "count_all",
        "enumerate_kpartial",
        "extend",
        "kp_type",
        "product",
        "support",
        "universal_class_members",
    ),
    "partitions": (
        "format_partition",
        "is_proper",
        "pad_to",
        "parse_partition",
        "partitions_of",
        "subtract",
        "union",
        "z_of",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import a submodule, or the home module of a public name, on first use."""
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
