"""The answer types of a product, and the checks that need no counting route.

`ClassSumVector` holds a product, `PolynomialStructure` reads a universal
one as binomial-basis rows, `check_mass` checks the mass identity that
every answer passes (a group product by Frobenius passes it inside
`characters.group_terms`, a universal one by characters at its stage
checks, and both are wrapped by `_checked_vector`), and
`project` pushes a universal vector into a group.  They live apart from the
routes in `center`, which imports them from here, so a process that reads
every product from a cache loads this module and not `center`.

Projecting the universal product down to a group recovers the group
product (for proper inputs on the nose; in general up to the binomial
multiplicities picked up by the extension map).  Every universal label
splits uniquely into a proper family and r extra 1-parts, so the universal
vector, re-keyed by (proper family, r) on read, gives the binomial-basis
coefficients that make every group-level structure constant a polynomial in n.

What cannot change between products is kept for the process: per
(label, n), the padded form, pad factor and orbit size at stage n (`_at`,
read by check_mass, project and `center`'s route choice and levels); per
label, its proper part (`_proper_family`, which keys the rows).
"""

from functools import cache
from operator import index

from .errors import InvariantViolation, NotProper, SizeMismatch
from .families import (
    Immutable,
    PartitionFamily,
    binomial_pad_factor,
    check_group,
    format_family,
    pad_family,
    partial_class_size,
)
from .partitions import proper_part

__all__ = ["ClassSumVector", "PolynomialStructure", "check_mass", "project"]


class ClassSumVector(Immutable):
    """A sparse integer combination of class labels.

    `n` is None for universal vectors; otherwise it is read through
    `operator.index` (a float raises TypeError, a bool is 0 or 1), k >= 1,
    n >= 0 and every key must be a family of size n.  A key that is not a
    family raises TypeError, one of another k or size SizeMismatch.  A coefficient is an integer
    (`operator.index`: a float or a string raises TypeError, a bool is taken
    as 0 or 1), and zero coefficients are dropped.  The terms are kept as
    one flat tuple (label, coefficient, label, coefficient, ...) in
    the order given, so a kept vector is small and cannot be changed;
    `items` iterates them, and `terms` is a new dict of them.
    """

    __slots__ = ("k", "n", "_flat")

    def __init__(self, k: int, terms: dict, n: int | None = None):
        if n is not None:
            n = index(n)
        check_group(k, 0 if n is None else n)
        flat = []
        for fam, coeff in terms.items():
            if not isinstance(fam, PartitionFamily):
                raise TypeError(f"a key {fam!r} that is not a family")
            if fam.k != k:
                raise SizeMismatch("all keys must share the same k")
            if n is not None and fam.size != n:
                raise SizeMismatch(f"key of size {fam.size} in a vector over size {n}")
            coeff = index(coeff)
            if coeff:
                flat += fam, coeff
        _set_k(self, k)
        _set_n(self, n)
        _set_flat(self, tuple(flat))

    @property
    def context(self) -> str:
        return "universal" if self.n is None else f"group({self.n})"

    @property
    def terms(self) -> dict:
        """A new dict {label: coefficient}; changing it leaves the vector as it is."""
        return dict(self.items())

    def items(self):
        """The (label, coefficient) pairs, in the order the vector was built with."""
        pairs = iter(self._flat)
        return zip(pairs, pairs)

    def items_sorted(self):
        return sorted(self.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, fam: PartitionFamily) -> int:
        return next((c for gamma, c in self.items() if gamma == fam), 0)

    def __eq__(self, other):
        return (
            isinstance(other, ClassSumVector)
            and (self.k, self.n, self.terms) == (other.k, other.n, other.terms)
        )

    def __hash__(self):
        return hash((self.k, self.n, frozenset(self.items())))

    def __repr__(self):
        body = " + ".join(f"{c}*C{format_family(f)}" for f, c in self.items_sorted())
        return f"<{self.context}: {body or '0'}>"


# the slots' own setters, bound once: Immutable.__setattr__ refuses every write
_set_k, _set_n, _set_flat = ClassSumVector._setters


def _checked_vector(k: int, n: int | None, flat: tuple) -> ClassSumVector:
    """A vector of terms its route has checked, built unchecked: `flat` is (label, coefficient, ...).

    The labels must be distinct families of k, classes at (k, n) for a
    group vector (n None for a universal one), the coefficients positive,
    and the route must have checked the mass identity, as
    `characters.group_terms` does for a group product and the stage checks
    of `center._universal_by_characters` do for a universal one.
    """
    vector = object.__new__(ClassSumVector)
    _set_k(vector, k)
    _set_n(vector, n)
    _set_flat(vector, flat)
    return vector


def check_mass(vector: ClassSumVector, left: PartitionFamily, right: PartitionFamily):
    """Raise InvariantViolation unless each c_gamma > 0 with |C_gamma| > 0, and the masses agree.

    Masses: sum of c_gamma * |C_gamma| = |C_left| * |C_right|, each by
    `families.partial_class_size` (read through `_at`) at stage n (SizeMismatch unless
    |left| = |right| = n) or, for universal vectors, at stage |left| + |right|.  A
    vector and inputs of different k raise SizeMismatch first.  Every
    answer passes the identity: an enumerated or projected one here, a
    universal one by characters as its last stage, and a group one by
    Frobenius in `characters.group_terms`, in the loop that reads its
    coefficients.
    """
    if not vector.k == left.k == right.k:
        raise SizeMismatch("the vector and families must share the same k")
    stage = left.size + right.size if vector.n is None else vector.n
    if vector.n is not None and not left.size == right.size == stage:
        raise SizeMismatch("group products need both families of size exactly n")
    mass = 0
    for fam, c in vector.items():
        # a label too large for the stage has no members there
        members = _at(fam, stage)[2] if fam.size <= stage else 0
        if c < 0 or not members:
            where = format_family(fam)
            raise InvariantViolation(f"{vector.context} product cannot have c = {c} at {where}")
        mass += c * members
    expected = _at(left, stage)[2] * _at(right, stage)[2]
    if mass != expected:
        raise InvariantViolation(
            f"{vector.context} product mass {mass} != |C_left|*|C_right| = {expected}"
        )


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
    for fam, coeff in vector.items():
        if fam.size > n:
            continue
        target, factor, _ = _at(fam, n)
        terms[target] = terms.get(target, 0) + coeff * factor
    return ClassSumVector(vector.k, terms, n=n)


@cache
def _at(fam: PartitionFamily, n: int) -> tuple:
    """(pad_family(fam, n), binomial_pad_factor(fam, n), partial_class_size(fam, n)), n >= |fam|.

    Computed once per (label, n), the orbit size by `families.partial_class_size`; a label
    is a shared object, so it hashes by identity.
    """
    return pad_family(fam, n), binomial_pad_factor(fam, n), partial_class_size(fam, n)


class PolynomialStructure(Immutable):
    """Binomial-basis coefficients of one product of two proper class sums.

    A structure holds only its inputs `left` and `right` and `vector`, the
    universal product; `k` is `left.k`.  Each label of the vector is a
    proper gamma plus r extra 1-parts, and `rows` re-keys it on every read,
    as a new dict {(gamma, r): coefficient}; evaluating at n weighs gamma's
    labels by their binomial pad factors to n, C(n - |gamma|, r), as `project`
    does, which gives the group-level coefficient for every n.  The CLI cache also writes a
    product of inputs with 1-parts as such rows, which are then only a
    record of its vector: `evaluate` needs proper inputs.  A structure
    pickles and copies through `_of(left, right, vector)`, so the rows are
    not checked again.

    Built from rows, the inputs and targets are families of k (SizeMismatch;
    TypeError for a target that is not a family), each target is proper
    (NotProper), each r and coefficient an integer (TypeError), r >= 0
    (ValueError); the row (gamma, r) is the term at pad(gamma, |gamma| + r),
    so a zero row is dropped.
    """

    __slots__ = ("left", "right", "vector")

    def __new__(cls, k, left, right, rows):
        if left.k != k or right.k != k:
            raise SizeMismatch(f"k={left.k} and k={right.k} inputs in a k={k} structure")
        terms = {}
        for (gamma, r), coeff in dict(rows).items():
            if not isinstance(gamma, PartitionFamily):
                raise TypeError(f"a target {gamma!r} that is not a family")
            if gamma.k != k:
                raise SizeMismatch(f"a k={gamma.k} target in a k={k} structure")
            if not gamma.is_proper():
                raise NotProper(f"the target {format_family(gamma)} is not proper")
            r = index(r)
            if r < 0:
                raise ValueError(f"a row with r = {r} < 0")
            terms[pad_family(gamma, gamma.size + r)] = coeff
        return cls._of(left, right, ClassSumVector(k, terms))

    @property
    def k(self) -> int:
        return self.left.k

    @property
    def rows(self) -> dict:
        """A new dict {(proper target, r): coefficient}, read off the vector."""
        return {(_proper_family(fam), fam.m1): c for fam, c in self.vector.items()}

    def targets(self):
        return sorted({gamma for gamma, _ in self.rows}, key=PartitionFamily.sort_key)

    def rows_sorted(self):
        return sorted(self.rows.items(), key=lambda item: (item[0][0].sort_key(), item[0][1]))

    def evaluate(self, gamma: PartitionFamily, n: int) -> int:
        """Coefficient of the class pad(gamma, n) over [kn]."""
        if gamma.k != self.k:
            raise SizeMismatch(f"a k={gamma.k} class in a k={self.k} structure")
        if n < gamma.size:
            raise SizeMismatch(f"evaluation needs n >= {gamma.size}")
        # the pad rule read per label, as project would, without padding each label to n
        gamma = _proper_family(gamma)
        return sum(
            c * binomial_pad_factor(fam, n) for fam, c in self.vector.items() if _proper_family(fam) is gamma
        )

    def __repr__(self):
        return (
            f"PolynomialStructure(k={self.k}, left={format_family(self.left)}, "
            f"right={format_family(self.right)}, rows={len(self.vector.terms)})"
        )


@cache
def _proper_family(fam: PartitionFamily) -> PartitionFamily:
    """The shared family with the 1-parts of its all-ones component removed, once per label."""
    return PartitionFamily._of(fam.k, (proper_part(fam.ones_component),) + fam.components[1:])
