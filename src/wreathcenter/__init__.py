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
    for every k (signed-pair characters at k = 2), shifted Schur and
    shifted power-sum evaluations, and a pointwise check, at every k,
    that the transport map onto shifted power sums is multiplicative.
"""

from .blockperm import (
    BlockPermutation,
    class_representative,
    conjugate,
    cycle_type,
    enumerate_class,
    enumerate_group,
    group_order,
    is_block_permutation,
)
from .center import (
    ClassSumVector,
    PolynomialStructure,
    deg,
    deg1,
    multiply_group,
    multiply_universal,
    polynomial_structure,
    project,
)
from .characters import (
    dim_irrep,
    hyperoct_character,
    shifted_power_sum_eval,
    shifted_schur_eval,
    skew_syt_count,
    sym_character,
    verify_iso,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainNotCovered,
    InvariantViolation,
    NotContained,
    NotProper,
    SizeMismatch,
    TooSmall,
    WreathError,
)
from .families import (
    PartitionFamily,
    big_z,
    class_size,
    families_with_size,
    family_size,
    format_family,
    is_proper_family,
    pad_family,
    parse_family,
)
from .kpartial import (
    KPartialPermutation,
    act,
    count_all,
    enumerate_kpartial,
    extend,
    kp_type,
    partial_class_size,
    product,
    support,
    universal_class_members,
)
from .partitions import (
    format_partition,
    is_proper,
    pad_to,
    parse_partition,
    partitions_of,
    subtract,
    union,
    z_of,
)

__version__ = "0.1.0"
