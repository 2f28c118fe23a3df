"""Products of conjugacy-class sums, exactly.

Two routes are implemented and kept independent:

  * multiply_group counts pairs inside the finite group of k-block
    permutations of [kn];
  * multiply_universal counts pairs of k-partial permutations at the
    smallest faithful stage N = |left| + |right|, which is enough because a
    product moves at most that many blocks.

Projecting the universal product down to a group recovers the group
product (for proper inputs on the nose; in general up to the binomial
multiplicities picked up by the extension map).  The universal
coefficients, re-indexed by a proper family and a count of extra 1-parts,
are the binomial-basis coefficients that make every group-level structure
constant a polynomial in n.
"""

from math import comb

from . import blockperm as bp
from . import kpartial as kp
from .blockperm import DEFAULT_BUDGET
from .errors import BudgetExceeded, InvariantViolation, NotProper, SizeMismatch
from .families import (
    PartitionFamily,
    binomial_pad_factor,
    class_size,
    families_with_size,
    format_family,
    pad_family,
)

__all__ = [
    "ClassSumVector",
    "PolynomialStructure",
    "multiply_group",
    "multiply_universal",
    "project",
    "polynomial_structure",
    "deg",
    "deg1",
]


class ClassSumVector:
    """A sparse integer combination of class labels.

    `n` is None for universal vectors; otherwise every key must be a family
    of size n.  Zero coefficients are dropped.
    """

    __slots__ = ("k", "n", "terms")

    def __init__(self, k: int, terms: dict, n: int | None = None):
        clean = {}
        for fam, coeff in terms.items():
            if fam.k != k:
                raise SizeMismatch("all keys must share the same k")
            if n is not None and fam.size != n:
                raise SizeMismatch(f"key of size {fam.size} in a vector over size {n}")
            if coeff:
                clean[fam] = coeff
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @property
    def context(self) -> str:
        return "universal" if self.n is None else f"group({self.n})"

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, fam: PartitionFamily) -> int:
        return self.terms.get(fam, 0)

    def __setattr__(self, name, value):
        raise AttributeError("ClassSumVector is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ClassSumVector)
            and (self.k, self.n, self.terms) == (other.k, other.n, other.terms)
        )

    def __hash__(self):
        return hash((self.k, self.n, tuple(self.items_sorted())))

    def __repr__(self):
        body = " + ".join(f"{c}*C{format_family(f)}" for f, c in self.items_sorted())
        return f"<{self.context}: {body or '0'}>"


def deg(fam: PartitionFamily) -> int:
    """First filtration degree: the total size of the family."""
    return fam.size


def deg1(fam: PartitionFamily) -> int:
    """Second filtration degree: total size plus the 1-parts of the all-ones component."""
    return fam.size + fam.m1


def multiply_group(
    left: PartitionFamily,
    right: PartitionFamily,
    n: int,
    budget: int = DEFAULT_BUDGET,
    verify_representative: bool = False,
) -> ClassSumVector:
    """Product of two class sums in the group of k-block permutations of [kn].

    For each target class a representative z is fixed and the coefficient
    is the number of x in the left class with x^-1 z in the right class.
    Only the smaller input class is ever enumerated.
    """
    if left.k != right.k:
        raise SizeMismatch("families must share the same k")
    if left.size != n or right.size != n:
        raise SizeMismatch("group products need both families of size exactly n")
    k = left.k

    # x y = z  <=>  x^-1 z = y  <=>  z y^-1 = x: iterate over the cheaper side.
    swap = class_size(right, n) < class_size(left, n)
    iterate, match = (right, left) if swap else (left, right)
    inverses = [x.inverse() for x in bp.enumerate_class(iterate, n, budget=budget)]

    def coefficient(gamma):
        rep = bp.class_representative(gamma, n)
        counts = [_pair_count(rep, inverses, match, swap)]
        if verify_representative and class_size(gamma, n) > 1:
            twist = bp.twist_element(k, n)
            other = bp.conjugate(twist, rep)
            if other == rep:
                other = next(
                    w for w in bp.enumerate_class(gamma, n, budget=budget) if w != rep
                )
            counts.append(_pair_count(other, inverses, match, swap))
            if counts[0] != counts[1]:
                raise InvariantViolation(
                    f"coefficient at {format_family(gamma)} depends on the representative"
                )
        return counts[0]

    terms = {gamma: coefficient(gamma) for gamma in families_with_size(k, n)}
    vector = ClassSumVector(k, terms, n=n)
    _check_group_mass(vector, left, right, n)
    return vector


def _pair_count(rep, inverses, match, swap):
    if swap:
        # count y with z y^-1 in the left class
        return sum(1 for inv in inverses if (rep * inv).type_of() == match)
    # count x with x^-1 z in the right class
    return sum(1 for inv in inverses if (inv * rep).type_of() == match)


def _check_group_mass(vector, left, right, n):
    total = sum(c * class_size(fam, n) for fam, c in vector.terms.items())
    expected = class_size(left, n) * class_size(right, n)
    if total != expected:
        raise InvariantViolation(
            f"group product mass {total} != |C_left|*|C_right| = {expected}"
        )


def multiply_universal(
    left: PartitionFamily,
    right: PartitionFamily,
    budget: int = DEFAULT_BUDGET,
    verify_representative: bool = False,
) -> ClassSumVector:
    """Product of two orbit sums in the universal algebra.

    Computed at stage N = |left| + |right|: all pairs from the two partial
    classes are multiplied and the coefficient of a target label is the
    number of pairs hitting a fixed representative of it.  A mass check
    guarantees no product escaped the candidate labels.
    """
    if left.k != right.k:
        raise SizeMismatch("families must share the same k")
    k = left.k
    n_stage = left.size + right.size

    left_size = kp.partial_class_size(left, n_stage)
    right_size = kp.partial_class_size(right, n_stage)
    if left_size * right_size > budget:
        raise BudgetExceeded(left_size * right_size, budget, "universal pair enumeration")

    lefts = list(kp.universal_class_members(left, n_stage, budget=budget))
    rights = list(kp.universal_class_members(right, n_stage, budget=budget))

    counter: dict = {}
    for x in lefts:
        for y in rights:
            key = kp.product(x, y)
            counter[key] = counter.get(key, 0) + 1

    terms = {}
    mass = 0
    for s in range(n_stage + 1):
        for gamma in families_with_size(k, s):
            rep = kp.partial_class_representative(gamma, n_stage)
            c = counter.get(rep, 0)
            if verify_representative:
                for member in kp.universal_class_members(gamma, n_stage, budget=budget):
                    if counter.get(member, 0) != c:
                        raise InvariantViolation(
                            f"coefficient at {format_family(gamma)} depends on the representative"
                        )
            if c:
                terms[gamma] = c
                mass += c * kp.partial_class_size(gamma, n_stage)

    if mass != len(lefts) * len(rights):
        raise InvariantViolation(
            f"universal product mass {mass} != {len(lefts) * len(rights)}"
        )
    return ClassSumVector(k, terms, n=None)


def project(vector: ClassSumVector, n: int) -> ClassSumVector:
    """Push a universal vector into the group algebra over [kn].

    Labels too large to fit vanish; every other label is padded to size n
    and scaled by the number of partial permutations extending to the same
    group element.  Distinct labels may pad to the same class, so like
    terms are merged.
    """
    if vector.n is not None:
        raise SizeMismatch("project expects a universal vector")
    terms: dict = {}
    for fam, coeff in vector.terms.items():
        if fam.size > n:
            continue
        target = pad_family(fam, n)
        terms[target] = terms.get(target, 0) + coeff * binomial_pad_factor(fam, n)
    return ClassSumVector(vector.k, terms, n=n)


class PolynomialStructure:
    """Binomial-basis coefficients of one product of two proper class sums.

    rows maps (proper target family, r) to the universal coefficient of the
    target with r extra 1-parts; evaluating at n sums rows against
    C(n - |target|, r), giving the group-level coefficient for every n.
    """

    __slots__ = ("k", "left", "right", "rows")

    def __init__(self, k, left, right, rows):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "rows", dict(rows))

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialStructure is immutable")

    def targets(self):
        return sorted({gamma for gamma, _ in self.rows}, key=PartitionFamily.sort_key)

    def rows_sorted(self):
        return sorted(self.rows.items(), key=lambda item: (item[0][0].sort_key(), item[0][1]))

    def evaluate(self, gamma: PartitionFamily, n: int) -> int:
        """Coefficient of the padded target in the group product over [kn]."""
        if n < gamma.size:
            raise SizeMismatch(f"evaluation needs n >= {gamma.size}")
        return sum(
            coeff * comb(n - gamma.size, r)
            for (g, r), coeff in self.rows.items()
            if g == gamma
        )

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialStructure)
            and (self.k, self.left, self.right, self.rows)
            == (other.k, other.left, other.right, other.rows)
        )

    def __repr__(self):
        return (
            f"PolynomialStructure(k={self.k}, left={format_family(self.left)}, "
            f"right={format_family(self.right)}, rows={len(self.rows)})"
        )


def polynomial_structure(
    left: PartitionFamily,
    right: PartitionFamily,
    budget: int = DEFAULT_BUDGET,
) -> PolynomialStructure:
    """Decompose the universal product into proper targets and 1-part counts.

    Every universal label splits uniquely as a proper family plus r extra
    1-parts in the all-ones component; the label's coefficient becomes the
    row at (proper family, r).  The row sum over r weighted by binomials in
    n reproduces the group coefficient for every n, including the constant
    r = 0 term.
    """
    if not left.is_proper() or not right.is_proper():
        raise NotProper("polynomial structure requires proper input families")
    universal = multiply_universal(left, right, budget=budget)
    rows = {}
    ones = (1,) * left.k
    for fam, coeff in universal.terms.items():
        r = fam.m1
        stripped = fam.replace(ones, tuple(p for p in fam.ones_component if p != 1))
        rows[(stripped, r)] = rows.get((stripped, r), 0) + coeff
    return PolynomialStructure(left.k, left, right, rows)
