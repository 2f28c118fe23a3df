"""Products of conjugacy-class sums, exactly.

One function, `_by_enumeration`, enumerates products.  Conjugation
permutes each input orbit and preserves products, so for a fixed x in the
larger orbit A,

    c_gamma * |C_gamma| = |A| * #{y in B : type(x y) = gamma}.

It enumerates the smaller orbit B once against a fixed representative of
A and tallies the product types, on one of two layers:

  * multiply_group uses block permutations of [kn] (blockperm), stage n;
  * multiply_universal uses k-partial permutations (kpartial) at the
    smallest faithful stage |left| + |right|, as a product moves at most
    that many blocks.  `kp.partial_class_size` sizes every orbit at the
    stage N: C(N, |gamma|) |C_gamma|, which is |C_gamma| at |gamma| = N.

Either product may instead be counted by characters, for every k.  The
Frobenius formula

    c_gamma = |C_A| |C_B| / |G| * sum_chi chi(A) chi(B) chi(gamma) / chi(1)

reads every coefficient of a group product off the character table at
(k, n).  It is summed once for all classes: each irreducible's row is
kept packed into one integer, one slot per class (`characters.packed_rows`),
and the rows of the characters nonzero at both A and B, weighted, add up
to one integer whose slot at gamma is c_gamma * big_z(A) * big_z(B), in
[0, |G| ** 2], so it is read exactly.  Only the classes gamma whose values
at the degree-1 characters are the products of A's and B's are read: a
degree-1 character is multiplicative, so every other class has c_gamma =
0.  So #classes ** 2 bounds the terms of the sum.  A universal
product is fixed by its projections, the group products of the padded
inputs at every n from max(|left|, |right|) to N, and is recovered from
them one size at a time, at each size only at the labels the second
filtration allows.  Its one label of size N, the union of the inputs
(the top-degree term of Ivanov-Kerov's product), has a coefficient in
closed form, a product of binomials, so only the tables below N are
read.  The two character routes stay apart: with group
products run as the one-level case of the universal loop, the group
benchmark did 7-10% fewer products per second (CPython 3.11.7, Intel
Xeon).  `_product` weighs enumeration against characters by one rule and
takes the cheaper route.

Projecting the universal product down to a group recovers the group
product (for proper inputs on the nose; in general up to the binomial
multiplicities picked up by the extension map).  The universal
coefficients, re-indexed by a proper family and a count of extra 1-parts,
are the binomial-basis coefficients that make every group-level structure
constant a polynomial in n.
"""

from collections import Counter
from functools import cache
from math import comb
from operator import index, mul

from . import blockperm as bp
from . import characters as ch
from . import kpartial as kp
from .blockperm import DEFAULT_BUDGET
from .errors import BudgetExceeded, InvariantViolation, NotProper, SizeMismatch, exact_quotient
from .families import (
    PartitionFamily,
    big_z,
    binomial_pad_factor,
    class_size,
    families_with_size,
    format_family,
    pad_family,
)
from .partitions import proper_part

__all__ = [
    "ClassSumVector",
    "PolynomialStructure",
    "multiply_group",
    "multiply_universal",
    "check_mass",
    "project",
    "polynomial_structure",
    "deg",
    "deg1",
]


class ClassSumVector:
    """A sparse integer combination of class labels.

    `n` is None for universal vectors; otherwise n >= 0 and every key must
    be a family of size n.  A coefficient is an integer (`operator.index`:
    a float or a string raises TypeError, a bool is taken as 0 or 1), and
    zero coefficients are dropped.  The terms are
    kept as one flat tuple (label, coefficient, label, coefficient, ...) in
    the order given, so a kept vector is small and cannot be changed;
    `items` iterates them, and `terms` is a new dict of them.
    """

    __slots__ = ("k", "n", "_flat")

    def __init__(self, k: int, terms: dict, n: int | None = None):
        if n is not None and n < 0:
            raise SizeMismatch(f"a vector over size {n}")
        flat = []
        for fam, coeff in terms.items():
            if fam.k != k:
                raise SizeMismatch("all keys must share the same k")
            if n is not None and fam.size != n:
                raise SizeMismatch(f"key of size {fam.size} in a vector over size {n}")
            coeff = index(coeff)
            if coeff:
                flat += fam, coeff
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_flat", tuple(flat))

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

    def __setattr__(self, name, value):
        raise AttributeError("ClassSumVector is immutable")

    def __reduce__(self):
        return ClassSumVector, (self.k, self.terms, self.n)

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

    `_product` counts it; `budget` and `verify_representative` act as there.
    """
    if left.size != n or right.size != n:
        raise SizeMismatch("group products need both families of size exactly n")
    return _product(left, right, n, budget, verify_representative)


def multiply_universal(
    left: PartitionFamily,
    right: PartitionFamily,
    budget: int = DEFAULT_BUDGET,
    verify_representative: bool = False,
) -> ClassSumVector:
    """Product of two orbit sums in the universal algebra, at stage |left| + |right|.

    `_product` counts it; `budget` and `verify_representative` act as there.
    """
    return _product(left, right, None, budget, verify_representative)


# Route costs in Frobenius terms: a term is 1 / #classes ** 2 of a Frobenius
# sum, which reads only the entries that can contribute.  Measured with the
# tables built, on CPython 3.11.7 on one core of an Intel Xeon.  Over the 150
# products of the group benchmark's op lists for seeds 1-3 (best of five per
# route and product) an enumerated element took a median 45 us and a term of
# the packed sum 0.017 us (0.028 us summed class by class, measured alongside):
# 1440 keeps 99.96% of what taking each product's faster route saves, and
# every element cost from 5,000 up keeps all of it.  The weights were left:
# the six products between, each with a one-member factor (the identity or,
# at k = 2, the central class), enumerate, which gives up 0.04% of the saving
# and keeps block permutations in the group benchmark.  Over the products with
# two nonempty inputs among the universal-sweep and poly-rows op lists of
# seeds 1-2 (760 and 122, best of three) an element took 33 and 27 us and a
# term read below the top stage 0.091 and 0.079 us, and every element cost
# from 360 up keeps all of it.  One element cost serves both products.  A
# table entry took 1.3-10 us to build once the smaller tables were built, at
# (1, 6..10), (2, 4..6) and (3, 3..5), three fresh processes each: 45 to 350
# terms of the class-by-class sum, 76 to 590 of the packed one.
_ELEMENT_COST = 1440
_BUILD_COST = 152

# the cost in Frobenius terms of the elements enumerated at each (k, n) in
# this process, by group products at (k, n) and by universal products whose
# character route reads that table; it pays down the cost of building it
_enumerated: Counter = Counter()


def _product(left, right, n, budget, verify_representative):
    """The product of two class sums at size n, or in the universal algebra when n is None.

    Two routes count the same coefficients, for every k: `_by_enumeration`
    over the smaller orbit B at stage N (n, or |left| + |right|), and
    characters, from the table at (k, n) for a group product
    (`_group_by_characters`) and the tables at every size from
    max(|left|, |right|) to N - 1 for a universal one
    (`_universal_by_characters`), whose one label of size N is in closed
    form.  So a universal product with an empty input reads no table.

    The cheaper route is taken, in Frobenius terms: enumeration costs
    |B| * _ELEMENT_COST; characters cost #classes ** 2 per table, plus
    _BUILD_COST per entry while it is not built, less what enumeration at
    that size has already cost in this process (`_enumerated`).  So a one-off
    product never pays for a build that outweighs it, and a long-lived
    process builds each table it keeps needing once.  `_frobenius` reads only
    the entries that can contribute, so #classes ** 2 bounds what it reads.

    `budget` bounds the count of the route taken: |B| elements, or the table
    entries summed over the sizes.  When only one route fits, it is taken;
    when neither fits, BudgetExceeded reports the smaller count.  With
    verify_representative the smaller orbit is always enumerated, since only
    enumeration has a second member of the larger orbit to recount at.
    """
    if left.k != right.k:
        raise SizeMismatch("families must share the same k")
    k = left.k
    if n is None:
        stage = left.size + right.size
        sizes = range(max(left.size, right.size), stage)
    else:
        stage, sizes = n, (n,)
    smaller = min(kp.partial_class_size(left, stage), kp.partial_class_size(right, stage))
    if not verify_representative:
        entries = sum(_class_count(k, m) ** 2 for m in sizes)
        if (entries <= budget) != (smaller <= budget):
            characters = entries <= budget
        elif entries > budget:
            characters = entries < smaller
        else:
            characters = sum(_characters_cost(k, m) for m in sizes) < smaller * _ELEMENT_COST
        if characters:
            if entries > budget:
                raise BudgetExceeded(entries, budget, "character table")
            if n is None:
                return _universal_by_characters(left, right)
            return _group_by_characters(left, right, n)
    if smaller > budget:
        what = "partial class enumeration" if n is None else "class enumeration"
        raise BudgetExceeded(smaller, budget, what)
    if not verify_representative:
        for m in sizes:
            _enumerated[k, m] += smaller * _ELEMENT_COST
    return _by_enumeration(left, right, n, budget, verify_representative)


def _characters_cost(k, n):
    entries = _class_count(k, n) ** 2
    if ch.has_character_table(k, n):
        return entries
    return entries + max(entries * _BUILD_COST - _enumerated[k, n], 0)


@cache
def _class_count(k: int, n: int) -> int:
    return len(families_with_size(k, n))


def _by_enumeration(left, right, n, budget, verify_representative):
    """The product at size n, or in the universal algebra when n is None, by enumeration.

    With x fixed in the larger orbit A and y running over the smaller B (so
    `budget` bounds |B|), c_gamma = |A| * T_gamma / |C_gamma|: T_gamma counts
    the x y of type gamma (y x is conjugate to it).  verify_representative
    tallies again at a second member of A.  The one fork picks the layer: the
    block permutations of [kn], or the k-partial permutations at stage
    |left| + |right|; `kp.partial_class_size` sizes every orbit at the stage.
    """
    if n is None:
        stage = left.size + right.size
        members = lambda fam, limit: kp.universal_class_members(fam, stage, limit)
        fixed_member, type_of = kp.partial_class_representative, kp.kp_type
    else:
        stage = n
        members = lambda fam, limit: bp.enumerate_class(fam, n, budget=limit)
        fixed_member, type_of = bp.class_representative, bp.BlockPermutation.type_of
    fixed, varied = sorted((left, right), key=lambda fam: -kp.partial_class_size(fam, stage))
    fixed_size = kp.partial_class_size(fixed, stage)

    def tally(x):
        counts = {}
        for y in members(varied, budget):
            gamma = type_of(x * y)
            counts[gamma] = counts.get(gamma, 0) + 1
        return counts

    rep = fixed_member(fixed, stage)
    counts = tally(rep)
    if verify_representative:
        # the larger orbit is walked only up to its second member
        other = next((x for x in members(fixed, fixed_size) if x != rep), None)
        if other is not None and tally(other) != counts:
            raise InvariantViolation("product types depend on the representative")

    terms = {
        gamma: exact_quotient(fixed_size * count, kp.partial_class_size(gamma, stage), gamma)
        for gamma, count in counts.items()
    }
    vector = ClassSumVector(left.k, terms, n=n)
    check_mass(vector, left, right)
    return vector


def _group_by_characters(left, right, n):
    """The group product by the Frobenius formula, mass-checked."""
    vector = ClassSumVector(left.k, _frobenius(left, right, n), n=n)
    check_mass(vector, left, right)
    return vector


def _frobenius(left, right, n):
    """The size-n coefficients of a product, by the Frobenius formula, in integers.

    These are the coefficients of the group product of pad(left, n) and
    pad(right, n) at the classes gamma of size n that the second filtration
    leaves to a label of that size in the universal product of left and
    right: those with m1(gamma) <= `_most_ones(left, right, n)`.  At
    |left| = |right| = n that is every class, so this is the group product.

    c_gamma = S_gamma / (big_z(left) big_z(right)) for the padded inputs,
    where S_gamma sums chi(left) chi(right) chi(gamma) |G| / chi(1) over the
    irreducible characters chi; a remainder raises InvariantViolation.  The
    S_gamma of every class are summed at once, as one integer: the sum over
    the chi with chi(left) chi(right) != 0 of chi(left) chi(right) |G| /
    chi(1) times chi's packed row (`characters.packed_rows`).  Each S_gamma
    is c_gamma big_z(left) big_z(right) with 0 <= c_gamma |C_gamma| <=
    |C_left| |C_right|, so 0 <= S_gamma <= |G| z_gamma <= |G| ** 2, which the
    slot width holds: no slot borrows from or carries into the next, and
    S_gamma is read off its slot exactly.  Only the classes gamma whose
    values at the degree-1 characters are the products of left's and
    right's are read (the slots of `characters.linear_classes`), since every
    other class has c_gamma = 0.
    """
    most = _most_ones(left, right, n)
    if left.size + right.size < 2 * n:
        # not a group product, whose inputs are already of size n
        left, right = pad_family(left, n), pad_family(right, n)
    k = left.k
    _, weights, columns = ch.character_table(k, n)
    values = ch.linear_classes(k, n)[0]
    width, rows, slots = ch.packed_rows(k, n)
    total = 0
    for a, b, weight, row in zip(columns[left], columns[right], weights, rows):
        if a and b:
            total += a * b * weight * row
    target = tuple(map(mul, values[left], values[right]))
    z = big_z(left) * big_z(right)
    mask = (1 << width) - 1
    terms = {}
    for gamma, shift in slots.get(target, ()):
        if gamma.m1 <= most:
            slot = total >> shift & mask
            if slot:
                terms[gamma] = exact_quotient(slot, z, gamma)
    return terms


def _most_ones(left, right, n):
    """The most 1-parts in the all-ones component of a size-n label of left * right.

    The second filtration: a label gamma of the universal product has
    deg1(gamma) <= deg1(left) + deg1(right), and deg1(gamma) = n + m1(gamma)
    at size n.  When |left| = |right| = n the bound is at least n, so it
    leaves out no class of size n.
    """
    return deg1(left) + deg1(right) - n


def _universal_by_characters(left, right):
    """The universal product from the group products of the padded inputs.

    Projection to size n is a homomorphism, so with G_n the group product
    of pad(left, n) and pad(right, n),

        bpf(left, n) bpf(right, n) G_n = sum over |gamma| <= n of c_gamma bpf(gamma, n) C_pad(gamma, n),

    where bpf is binomial_pad_factor.  A label of size n pads to itself
    with factor 1, so going up from n = max(|left|, |right|), where no
    smaller label occurs, to n = |left| + |right| - 1, c_delta for each
    delta of size n is what remains of the left side at delta once the
    labels already found that pad to delta are subtracted.  The top size
    |left| + |right| has one label, in closed form (`_top_label`), so no
    table is read there; with an empty input the product is the other one.

    Counting elements is multiplicative at every stage n, so each level is
    checked on the coefficients found so far: the sum over |gamma| <= n of
    c_gamma times the orbit size of gamma at stage n equals the product of
    the input orbit sizes there.  This check on the answer stands in for
    checking each group product, and also covers the subtraction.  The orbit
    of gamma at stage n has C(n, |gamma|) |C_gamma| members, so the sum is
    taken as sum over s of C(n, s) M_s, where M_s, the sum over |gamma| = s
    of c_gamma |C_gamma|, is stored once when the labels of size s are found.

    By the second filtration a new label delta of size n has at most
    `_most_ones(left, right, n)` 1-parts in its all-ones component, so the
    Frobenius sum and the subtraction visit only those.  The stage checks
    guard the skip: every c_gamma is >= 0, so a label skipped by mistake
    lowers the mass of its stage.  A negative coefficient is refused at the
    level that finds it, and the top stage's check, which covers the whole
    answer, stands in for check_mass.
    """
    terms = {}
    masses = {}
    top = left.size + right.size
    for n in range(max(left.size, right.size), top + 1):
        if n == top:
            label, c = _top_label(left, right)
            level = {label: c}
        else:
            most = _most_ones(left, right, n)
            scale = binomial_pad_factor(left, n) * binomial_pad_factor(right, n)
            level = {delta: scale * c for delta, c in _frobenius(left, right, n).items()}
            for gamma, c in terms.items():
                # pad(gamma, n) has m1(gamma) + n - |gamma| 1-parts
                if gamma.m1 + n - gamma.size <= most:
                    delta = pad_family(gamma, n)
                    level[delta] = level.get(delta, 0) - c * binomial_pad_factor(gamma, n)
        masses[n] = 0
        for delta, c in level.items():
            if c < 0:
                where = format_family(delta)
                raise InvariantViolation(f"universal product cannot have c = {c} at {where}")
            if c:
                terms[delta] = c
                masses[n] += c * class_size(delta, n)
        mass = sum(comb(n, s) * m for s, m in masses.items())
        if mass != kp.partial_class_size(left, n) * kp.partial_class_size(right, n):
            raise InvariantViolation(f"universal product mass at stage {n} is {mass}")
    return ClassSumVector(left.k, terms)


def _top_label(left, right):
    """The one label of size |left| + |right| in left * right, and its coefficient.

    Only factors on disjoint domains reach that size, and their product is
    their union: each component's parts merged.  A member of the union is
    that product once for each way to give its cycles to the two factors,
    C(m_i(left) + m_i(right), m_i(left)) ways for each part i of each
    component, which is big_z(union) / (big_z(left) big_z(right)).  The
    coefficient is counted from the inputs alone, so the stage check, which
    weighs it by the class size of the label, also checks the label.
    """
    components, coefficient = [], 1
    for a, b in zip(left.components, right.components):
        # partitions.union would check parts that are already checked, at 3x the cost
        components.append(tuple(sorted(a + b, reverse=True)))
        for part in set(a):
            coefficient *= comb(a.count(part) + b.count(part), a.count(part))
    return PartitionFamily._of(left.k, tuple(components)), coefficient


def check_mass(vector: ClassSumVector, left: PartitionFamily, right: PartitionFamily):
    """Raise InvariantViolation unless each c_gamma > 0 with |C_gamma| > 0, and the masses agree.

    Masses: sum of c_gamma * |C_gamma| = |C_left| * |C_right|, each by `kp.partial_class_size`
    at stage n (SizeMismatch unless |left| = |right| = n) or, for universal vectors, at stage
    |left| + |right|.  Every answer passes it (by characters, a universal one as its last stage).
    """
    stage = left.size + right.size if vector.n is None else vector.n
    if vector.n is not None and not left.size == right.size == stage:
        raise SizeMismatch("group products need both families of size exactly n")
    mass = 0
    for fam, c in vector.items():
        members = kp.partial_class_size(fam, stage)
        if c < 0 or not members:
            where = format_family(fam)
            raise InvariantViolation(f"{vector.context} product cannot have c = {c} at {where}")
        mass += c * members
    expected = kp.partial_class_size(left, stage) * kp.partial_class_size(right, stage)
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
        target = pad_family(fam, n)
        terms[target] = terms.get(target, 0) + coeff * binomial_pad_factor(fam, n)
    return ClassSumVector(vector.k, terms, n=n)


class PolynomialStructure:
    """Binomial-basis coefficients of one product of two proper class sums.

    rows maps (proper target family, r) to the universal coefficient of the
    target with r extra 1-parts; evaluating at n sums rows against
    C(n - |target|, r), giving the group-level coefficient for every n.

    The inputs and every target are families of k (SizeMismatch otherwise,
    TypeError for a target that is not a family), every target is proper
    (NotProper), and each r and coefficient is an integer (TypeError), with
    r >= 0 (ValueError).
    """

    __slots__ = ("k", "left", "right", "rows")

    def __init__(self, k, left, right, rows):
        if left.k != k or right.k != k:
            raise SizeMismatch(f"k={left.k} and k={right.k} inputs in a k={k} structure")
        checked = {}
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
            checked[gamma, r] = index(coeff)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "rows", checked)

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialStructure is immutable")

    def __reduce__(self):
        return PolynomialStructure, (self.k, self.left, self.right, self.rows)

    def targets(self):
        return sorted({gamma for gamma, _ in self.rows}, key=PartitionFamily.sort_key)

    def rows_sorted(self):
        return sorted(self.rows.items(), key=lambda item: (item[0][0].sort_key(), item[0][1]))

    def evaluate(self, gamma: PartitionFamily, n: int) -> int:
        """Coefficient of the class pad(gamma, n) over [kn], read at gamma's proper part."""
        if gamma.k != self.k:
            raise SizeMismatch(f"a k={gamma.k} class in a k={self.k} structure")
        if n < gamma.size:
            raise SizeMismatch(f"evaluation needs n >= {gamma.size}")
        gamma = _proper_family(gamma)
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
    verify_representative: bool = False,
) -> PolynomialStructure:
    """Decompose the universal product into proper targets and 1-part counts.

    Every universal label splits uniquely as a proper family plus r extra
    1-parts in the all-ones component; the label's coefficient becomes the
    row at (proper family, r).  The row sum over r weighted by binomials in
    n reproduces the group coefficient for every n, including the constant
    r = 0 term.  The universal product is multiply_universal's, so it is
    enumerated or read off the character tables by the same rule, and
    `budget` and `verify_representative` act on it as there.
    """
    if not left.is_proper() or not right.is_proper():
        raise NotProper("polynomial structure requires proper input families")
    universal = multiply_universal(
        left, right, budget=budget, verify_representative=verify_representative
    )
    rows = {}
    for fam, coeff in universal.items():
        key = (_proper_family(fam), fam.m1)
        rows[key] = rows.get(key, 0) + coeff
    return PolynomialStructure(left.k, left, right, rows)


def _proper_family(fam: PartitionFamily) -> PartitionFamily:
    """The shared family with the 1-parts of its all-ones component removed."""
    return PartitionFamily._of(fam.k, (proper_part(fam.ones_component),) + fam.components[1:])
