"""Character machinery for the one-block (k=1) and two-block (k=2) cases.

Symmetric group characters are computed with the border-strip recursion
over first-column hook lengths; signed-pair characters for the k=2 group
reduce to sums of products of two symmetric group characters over sign
vectors.  Shifted Schur and shifted power-sum values are exact rationals
built from falling factorials, dimensions, and skew tableau counts; the
transport map sending a class label to a scaled shifted power sum is
verified to be multiplicative pointwise.
"""

from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import comb, factorial

from . import partitions as pt
from .blockperm import DEFAULT_BUDGET
from .center import multiply_universal
from .errors import InvariantViolation, SizeMismatch
from .families import PartitionFamily, big_z
from .partitions import Partition, falling_factorial

__all__ = [
    "sym_character",
    "dim_irrep",
    "skew_syt_count",
    "shifted_schur_eval",
    "shifted_power_sum_eval",
    "hyperoct_character",
    "hyperoct_dim",
    "shifted_power_sum_eval2",
    "verify_iso",
    "bipartitions_of",
    "transport_value",
]

Bipartition = tuple[Partition, Partition]


def contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment, row by row."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def _beta_set(shape: Partition) -> tuple[int, ...]:
    """First-column hook lengths: shape[i] + (rows - 1 - i), all distinct."""
    rows = len(shape)
    return tuple(shape[i] + rows - 1 - i for i in range(rows))


def _shape_from_beta(beta) -> Partition:
    beta = sorted(beta, reverse=True)
    return pt.as_partition(b - (len(beta) - 1 - i) for i, b in enumerate(beta))


@cache
def sym_character(rho: Partition, delta: Partition) -> int:
    """Irreducible character of the symmetric group at a cycle type.

    Both arguments are partitions of the same integer: `rho` labels the
    representation, `delta` the class.  Strips of length delta[0] are
    removed in all possible ways; a removal is a beta-number b with b - t
    free, and its sign is the number of occupied slots jumped over.
    """
    if sum(rho) != sum(delta):
        raise SizeMismatch(f"|{rho}| != |{delta}|")
    if not delta:
        return 1
    t, rest = delta[0], delta[1:]
    beta = set(_beta_set(rho))
    total = 0
    for b in beta:
        if b - t < 0 or b - t in beta:
            continue
        height = sum(1 for c in beta if b - t < c < b)
        new_beta = (beta - {b}) | {b - t}
        total += (-1) ** height * sym_character(_shape_from_beta(new_beta), rest)
    return total


@cache
def dim_irrep(rho: Partition) -> int:
    """Dimension of the irreducible module, by the hook length formula."""
    if not rho:
        return 1
    hooks = 1
    col_heights = [sum(1 for r in rho if r > j) for j in range(rho[0])]
    for i, row in enumerate(rho):
        for j in range(row):
            hooks *= (row - j) + (col_heights[j] - i) - 1
    dim, remainder = divmod(factorial(sum(rho)), hooks)
    if remainder:
        raise InvariantViolation("hook product must divide the factorial exactly")
    return dim


@cache
def skew_syt_count(outer: Partition, inner: Partition) -> int:
    """Number of standard fillings of the skew shape outer/inner; 0 if not contained.

    Recursion on where the largest entry sits: it must occupy a removable
    corner of the outer shape that stays outside the inner shape.
    """
    if not contains(outer, inner):
        return 0
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, row in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if row > below and (i >= len(inner) or row - 1 >= inner[i]):
            smaller = list(outer)
            smaller[i] -= 1
            total += skew_syt_count(pt.as_partition(smaller), inner)
    return total


def shifted_schur_eval(rho: Partition, lam: Partition) -> Fraction:
    """Value of the shifted Schur function indexed by rho at the point lam."""
    if not contains(lam, rho):
        return Fraction(0)
    return Fraction(
        falling_factorial(sum(lam), sum(rho)) * skew_syt_count(lam, rho),
        dim_irrep(lam),
    )


def shifted_power_sum_eval(delta: Partition, lam: Partition) -> Fraction:
    """Value of the shifted power sum indexed by delta at the point lam."""
    n, r = sum(lam), sum(delta)
    if r > n:
        return Fraction(0)
    padded = pt.pad_to(delta, n)
    return Fraction(
        falling_factorial(n, r) * sym_character(lam, padded), dim_irrep(lam)
    )


def bipartitions_of(n: int) -> tuple[Bipartition, ...]:
    """All ordered pairs of partitions with total size n, deterministic order."""
    out = []
    for a in range(n + 1):
        for first in pt.partitions_of(a):
            for second in pt.partitions_of(n - a):
                out.append((first, second))
    return tuple(out)


@cache
def hyperoct_character(rho: Bipartition, delta: Bipartition) -> int:
    """Irreducible character of the signed-pair group at a two-part class label.

    Sums over sign vectors on the parts of both class components; the
    positive parts feed the first symmetric group character, the negative
    parts the second, and each minus sign on the second component flips
    the sign of the summand.  Summands whose part totals do not match the
    label sizes vanish.
    """
    (rho1, rho2), (delta1, delta2) = rho, delta
    if sum(rho1) + sum(rho2) != sum(delta1) + sum(delta2):
        raise SizeMismatch("character label and class label must have equal sizes")
    total = 0
    for u in iproduct((1, -1), repeat=len(delta1)):
        for v in iproduct((1, -1), repeat=len(delta2)):
            alpha = [p for p, s in zip(delta1, u) if s == 1]
            alpha += [p for p, s in zip(delta2, v) if s == 1]
            beta = [p for p, s in zip(delta1, u) if s == -1]
            beta += [p for p, s in zip(delta2, v) if s == -1]
            if sum(alpha) != sum(rho1) or sum(beta) != sum(rho2):
                continue
            sign = (-1) ** sum(1 for s in v if s == -1)
            total += (
                sign
                * sym_character(rho1, pt.as_partition(alpha))
                * sym_character(rho2, pt.as_partition(beta))
            )
    return total


def hyperoct_dim(rho: Bipartition) -> int:
    """Dimension of the irreducible module labelled by a pair of partitions."""
    rho1, rho2 = rho
    n = sum(rho1) + sum(rho2)
    num = factorial(n) * dim_irrep(rho1) * dim_irrep(rho2)
    den = factorial(sum(rho1)) * factorial(sum(rho2))
    dim, remainder = divmod(num, den)
    if remainder:
        raise InvariantViolation("induced dimension must be an integer")
    return dim


def _pad_bipartition(delta: Bipartition, n: int) -> Bipartition:
    """Extend a pair of partitions to total size n by adding 1-parts to the first."""
    delta1, delta2 = delta
    return (pt.pad_to(delta1, n - sum(delta2)), delta2)


def shifted_power_sum_eval2(delta: Bipartition, rho: Bipartition) -> Fraction:
    """Two-alphabet shifted power sum indexed by delta, evaluated at the pair rho."""
    r = sum(delta[0]) + sum(delta[1])
    n = sum(rho[0]) + sum(rho[1])
    if r > n:
        return Fraction(0)
    padded = _pad_bipartition(delta, n)
    return Fraction(
        falling_factorial(n, r) * hyperoct_character(rho, padded), hyperoct_dim(rho)
    )


def shifted_power_sum_eval2_branching(delta: Bipartition, rho: Bipartition) -> Fraction:
    """Same value as shifted_power_sum_eval2, through the branching expansion.

    Kept as an independent route: the padded character is expanded over
    all pairs of total size |delta| with binomial and skew-count weights.
    """
    r = sum(delta[0]) + sum(delta[1])
    n = sum(rho[0]) + sum(rho[1])
    if r > n:
        return Fraction(0)
    rho1, rho2 = rho
    char_sum = 0
    for nu in bipartitions_of(r):
        gap = sum(rho1) - sum(nu[0])
        weight = comb(n - r, gap) if 0 <= gap <= n - r else 0
        if weight == 0:
            continue
        char_sum += (
            hyperoct_character(nu, delta)
            * weight
            * skew_syt_count(rho1, nu[0])
            * skew_syt_count(rho2, nu[1])
        )
    return Fraction(falling_factorial(n, r) * char_sum, hyperoct_dim(rho))


def _as_bipartition(fam: PartitionFamily) -> Bipartition:
    return (fam.component((1, 1)), fam.component((2,)))


def transport_value(fam: PartitionFamily, point) -> Fraction:
    """Image of a class label under the transport map, evaluated at a point.

    The label goes to (k!)^size / big_z times the shifted power sum of the
    matching flavor; points are partitions for k=1 and pairs of partitions
    for k=2.
    """
    k = fam.k
    scale = Fraction(factorial(k) ** fam.size, big_z(fam))
    if k == 1:
        return scale * shifted_power_sum_eval(fam.component((1,)), point)
    if k == 2:
        return scale * shifted_power_sum_eval2(_as_bipartition(fam), tuple(point))
    raise ValueError("transport evaluation is available for k = 1 and k = 2 only")


def default_eval_points(k: int, bound: int):
    if k == 1:
        return [lam for m in range(bound + 1) for lam in pt.partitions_of(m)]
    if k == 2:
        return [pair for m in range(bound + 1) for pair in bipartitions_of(m)]
    raise ValueError("evaluation points are defined for k = 1 and k = 2 only")


def verify_iso(
    k: int,
    left: PartitionFamily,
    right: PartitionFamily,
    eval_points=None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check multiplicativity of the transport map on one product, pointwise.

    The product of the two labels is expanded with multiply_universal; at
    every evaluation point the product of the transported inputs must equal
    the transported expansion.  All arithmetic is exact.
    """
    if k not in (1, 2):
        raise ValueError("verify_iso supports k = 1 and k = 2 only")
    if left.k != k or right.k != k:
        raise SizeMismatch("family k does not match the requested k")
    if eval_points is None:
        eval_points = default_eval_points(k, left.size + right.size + 2)
    expansion = multiply_universal(left, right, budget=budget)
    for point in eval_points:
        lhs = transport_value(left, point) * transport_value(right, point)
        rhs = sum(
            (coeff * transport_value(fam, point) for fam, coeff in expansion.terms.items()),
            Fraction(0),
        )
        if lhs != rhs:
            return False
    return True
