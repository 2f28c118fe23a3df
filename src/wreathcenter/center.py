"""Products of conjugacy-class sums, exactly.

Every product has two routes to the same coefficients.  `_by_enumeration`
fixes a member x of the larger orbit A and tallies the types of x y over
the smaller orbit B, so c_gamma * |C_gamma| = |A| * #{y in B : type(x y) =
gamma}: over the block permutations of [kn] (blockperm) for multiply_group,
over the k-partial permutations (kpartial) at stage |left| + |right| for
multiply_universal.  The character routes read the Frobenius formula off
the tables, each level by one `characters.level_terms`: a group product
is one level at (k, n), mass-checked here, and a universal product one
level of its padded inputs at each size from max(|left|, |right|) to
|left| + |right| - 1, with its one label of top size in closed form
(`_top_label`).  A group product has a third route, the paper's
projection: the universal algebra maps onto the centre of every group
algebra, so the product of L and R at n is project(P * Q, n) for their
proper parts P and Q.  `_product` picks the route by the rule in its
docstring, from the structure of the product alone, and counts only what
the clause it takes reads.  README "How a product is counted" has the
derivations.

`_by_enumeration` imports the one enumeration layer it walks on first
use: `blockperm` for a group product, `kpartial` for a universal one, so
a process that counts every product by characters loads neither.  Kept
for the process: per (label, n) the padded form, pad factor and orbit
size (`_at`), per label the proper part (`families._proper_family`), and the
counts `_entries` and `_class_count`.  The class count at (k, n) is read by
clause 4 and by the Frobenius route's budget count (clauses 1 and 5, and
the route `verify_representative` may stand in), so a product that clause
2 or 3 routes counts no classes at (k, n) unless it is verified.

The answer types `ClassSumVector` and `PolynomialStructure`, `check_mass`,
`project` and the memo `_at` live in `answers`, so a cache hit reads its
product without loading the routes; they are imported here, and read from
here, as before.  Patching `check_mass`, `project` or `_at` on this module
changes what the routes here call, not what `answers`' own functions call.
"""

from functools import cache
from math import comb
from operator import index

from . import characters as ch
from .answers import (
    ClassSumVector,
    PolynomialStructure,
    _at,
    _checked_vector,
    check_mass,
    project,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    InvariantViolation,
    NotProper,
    SizeMismatch,
    exact_quotient,
)
from .families import (
    PartitionFamily,
    _orbit_size,
    _proper_family,
    index_partitions,
    partial_class_size,
)

__all__ = [
    "ClassSumVector",
    "PolynomialStructure",
    "multiply_group",
    "multiply_universal",
    "check_mass",
    "project",
    "polynomial_structure",
]


def multiply_group(
    left: PartitionFamily,
    right: PartitionFamily,
    n: int,
    budget: int = DEFAULT_BUDGET,
    verify_representative: bool = False,
) -> ClassSumVector:
    """Product of two class sums in the group of k-block permutations of [kn].

    `_product` counts it by one route, or by both with `verify_representative`.
    `n` is read through `operator.index`: a bool is 0 or 1, a float raises TypeError.
    """
    n = index(n)
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

    `_product` counts it by one route, or by both with `verify_representative`.
    """
    return _product(left, right, None, budget, verify_representative)


def _product(left, right, n, budget, verify_representative):
    """The product of two class sums at size n, or in the universal algebra when n is None.

    A universal product takes its character route.  A group product at n,
    with P and Q the proper parts of its factors, takes the first that applies:
    1. Frobenius, when the (k, n) table is built;
    2. enumeration, when the smaller orbit has one member;
    3. project(P * Q, n), when |P| + |Q| <= n, with P * Q routed by this rule;
    4. enumeration, when the smaller orbit has at most #classes(k, n) members;
    5. Frobenius.
    A built table whose count fits is read before any route is built.  Each
    clause counts only what it reads: clauses 2 and 3 count no classes at
    (k, n), which takes O(p(k) n^2) steps over integers that grow like p(n).
    A route whose budget count does not fit `budget` gives way to
    enumeration if that fits; when neither fits, BudgetExceeded reports the
    smaller count, enumeration's on a tie.

    With verify_representative, enumeration and the rule's first other route
    (clause 1, 3 or 5) both count it, and a difference raises
    InvariantViolation.  A group product's other route that does not fit
    gives way to the other of Frobenius and the projection, or to the
    smaller count.  Both counts must fit, else BudgetExceeded reports the
    larger, enumeration's on a tie.
    """
    if left.k != right.k:
        raise SizeMismatch("families must share the same k")
    k = left.k
    # the built-table path, inline: it builds no route
    if not verify_representative:
        if n is None:
            if _entries(k, max(left.size, right.size), left.size + right.size) <= budget:
                return _universal_by_characters(left, right)
        elif ch.has_character_table(k, n) and _entries(k, n, n + 1) <= budget:
            return _group_by_characters(left, right, n)
    # a route is (name, budget count, run), and a run takes (left, right, n,
    # budget); `other` is the rule's first route that is not enumeration, None
    # while it is Frobenius and not counted
    enumeration = _enumeration(left, right, n)
    smaller = enumeration[1]
    other = None
    if n is None or ch.has_character_table(k, n):
        route = other = _characters(left, right, n)
    elif _proper_family(left).size + _proper_family(right).size <= n:
        other = _projection(left, right, budget)
        route = enumeration if smaller == 1 else other
    elif smaller == 1 or smaller <= _class_count(k, n):
        route = enumeration
    else:
        route = other = _characters(left, right, n)
    if verify_representative:
        other = other or _characters(left, right, n)
        if n is not None and other[1] > budget:
            alternative = _characters(left, right, n) if other[2] is _by_projection else _projection(left, right, budget)
            other = _fit(other, alternative, budget)
        larger = other if other[1] > enumeration[1] else enumeration
        if larger[1] > budget:
            raise BudgetExceeded(larger[1], budget, larger[0])
        vector = _by_enumeration(left, right, n, budget)
        if vector != other[2](left, right, n, budget):
            raise InvariantViolation(f"{vector.context} product differs between the two routes")
        return vector
    name, count, run = _fit(route, enumeration, budget)
    if count > budget:
        raise BudgetExceeded(count, budget, name)
    return run(left, right, n, budget)


def _fit(route, fallback, budget):
    """`route` if it fits `budget`, else `fallback` if it fits, else the smaller count, `fallback` on a tie."""
    if route[1] <= budget or fallback[1] > budget and route[1] < fallback[1]:
        return route
    return fallback


def _enumeration(left, right, n):
    """Enumeration, counting the members of the smaller orbit at the stage."""
    if n is None:
        stage, name = left.size + right.size, "partial class enumeration"
    else:
        stage, name = n, "class enumeration"
    return name, min(_at(left, stage)[2], _at(right, stage)[2]), _by_enumeration


def _characters(left, right, n):
    """The character route at size n, or the universal one when n is None, counting #classes ** 2 read."""
    if n is None:
        entries = _entries(left.k, max(left.size, right.size), left.size + right.size)
        return "character table", entries, _universal_by_characters
    return "character table", _entries(left.k, n, n + 1), _group_by_characters


def _projection(left, right, budget):
    """The projection route of a group product, named and counted as P * Q's route."""
    proper_left, proper_right = _proper_family(left), _proper_family(right)
    characters = _characters(proper_left, proper_right, None)
    name, count, _ = _fit(characters, _enumeration(proper_left, proper_right, None), budget)
    return name, count, _by_projection


def _by_projection(left, right, n, budget):
    """The group product at n as project(P * Q, n), with P * Q routed by `_product`; mass-checked.

    The projection is divided by the binomial pad factors of P and Q to n,
    which are 1 for proper families.
    """
    proper = _product(_proper_family(left), _proper_family(right), None, budget, False)
    vector = project(proper, n)
    check_mass(vector, left, right)
    return vector


@cache
def _entries(k: int, lo: int, hi: int) -> int:
    """The sum of #classes ** 2 over the sizes lo..hi - 1; it holds counts only, never built-ness."""
    return sum(_class_count(k, m) ** 2 for m in range(lo, hi))


@cache
def _class_count(k: int, n: int) -> int:
    """#classes at (k, n), counted without listing them.

    A class is a partition of n whose parts each take one of the p(k)
    classes of S_k, as `families_with_size` lists them.
    """
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for _ in index_partitions(k):
            for m in range(part, n + 1):
                counts[m] += counts[m - part]
    return counts[n]


def _by_enumeration(left, right, n, budget):
    """The product at size n, or in the universal algebra when n is None, by enumeration.

    With x fixed in the larger orbit A and y running over the smaller B (so
    `budget` bounds |B|), c_gamma = |A| * T_gamma / |C_gamma|: T_gamma counts
    the x y of type gamma (y x is conjugate to it).  The one fork picks the
    layer: the block permutations of [kn], or the k-partial permutations at
    stage |left| + |right|; `families.partial_class_size` sizes every orbit
    at the stage.  An orbit of one member (the identity or another central
    class, or the empty family in the universal algebra) is its cached
    representative, so no walk builds it again.
    """
    # absolute: a relative import in a function body costs about 1.5 us more per call
    if n is None:
        import wreathcenter.kpartial as kp

        stage = left.size + right.size
        members = lambda fam: kp.universal_class_members(fam, stage, budget)
        representative, type_of = kp.partial_class_representative, kp.kp_type
    else:
        import wreathcenter.blockperm as bp

        stage = n
        members = lambda fam: bp.enumerate_class(fam, n, budget=budget)
        representative, type_of = bp.class_representative, bp.BlockPermutation.type_of
    (fixed_size, fixed), (varied_size, varied) = sorted(
        ((partial_class_size(fam, stage), fam) for fam in (left, right)),
        key=lambda sized: -sized[0],
    )
    x = representative(fixed, stage)
    counts = {}
    for y in (representative(varied, stage),) if varied_size == 1 else members(varied):
        gamma = type_of(x * y)
        counts[gamma] = counts.get(gamma, 0) + 1

    terms = {
        gamma: exact_quotient(fixed_size * count, partial_class_size(gamma, stage), gamma)
        for gamma, count in counts.items()
    }
    vector = ClassSumVector(left.k, terms, n=n)
    check_mass(vector, left, right)
    return vector


def _group_by_characters(left, right, n, *_):
    """The group product by the Frobenius formula, mass-checked.

    `ch.level_terms` reads each coefficient off the packed sum as an exact
    quotient, with the mass of its terms, which must be |C_left| * |C_right|;
    its terms are the table's own classes, so they are wrapped unchecked.
    The budget a route's run also passes is not read: the count was checked
    before.
    """
    flat, mass = ch.level_terms(left, right)
    expected = _orbit_size(left) * _orbit_size(right)
    if mass != expected:
        raise InvariantViolation(f"group({n}) product mass {mass} != |C_left|*|C_right| = {expected}")
    return _checked_vector(left.k, n, flat)


def _universal_by_characters(left, right, *_):
    """The universal product from the group products of the padded inputs.

    Going up from n = max(|left|, |right|) to |left| + |right| - 1, the
    labels of size n are what the group product of the inputs padded to n,
    times their pad factors, leaves once the labels already found, padded
    to n (the `lower` dict), are subtracted: one `ch.level_terms` reads
    them as flat terms with their mass.  The one label of size
    |left| + |right| is `_top_label`, read off no table.  Each stage n is
    checked: sum over s of C(n, s) M_s, with M_s the mass of the labels of
    size s, must equal the product of the input orbit sizes; the top
    stage's check stands in for check_mass, so the terms are wrapped
    unchecked.  README "How a product is counted" has the derivation.  The
    n (None) and budget a route's run also passes are not read.
    """
    flat = []
    masses = []
    lo, top = max(left.size, right.size), left.size + right.size
    for n in range(lo, top):
        padded_left, left_factor, left_orbit = _at(left, n)
        padded_right, right_factor, right_orbit = _at(right, n)
        lower = {}
        pairs = iter(flat)
        for gamma, c in zip(pairs, pairs):
            delta, factor, _ = _at(gamma, n)
            # distinct labels of different sizes may pad to one label
            lower[delta] = lower.get(delta, 0) + c * factor
        scale = left_factor * right_factor
        level, level_mass = ch.level_terms(padded_left, padded_right, scale, lower)
        flat += level
        masses.append(level_mass)
        mass = 0
        for s, m in enumerate(masses, lo):
            mass += comb(n, s) * m
        if mass != left_orbit * right_orbit:
            raise InvariantViolation(f"universal product mass at stage {n} is {mass}")
    label, c = _top_label(left, right)
    flat += label, c
    mass = c * _orbit_size(label)
    for s, m in enumerate(masses, lo):
        mass += comb(top, s) * m
    if mass != _at(left, top)[2] * _at(right, top)[2]:
        raise InvariantViolation(f"universal product mass at stage {top} is {mass}")
    return _checked_vector(left.k, None, tuple(flat))


def _top_label(left, right):
    """The one label of size |left| + |right| in left * right, and its coefficient.

    Only factors on disjoint domains reach that size, and their product is
    their union: each component's parts merged.  A member of the union is
    that product once for each way to give its cycles to the two factors,
    C(m_i(left) + m_i(right), m_i(left)) ways for each part i of each
    component, which is big_z(union) / (big_z(left) big_z(right)).  The
    coefficient is counted from the inputs alone, so the stage check, which
    weighs it by the class size of the label, also checks the label.  Only
    the parts both sides share give a binomial other than 1.
    """
    components, coefficient = [], 1
    for a, b in zip(left.components, right.components):
        if not (a and b):
            components.append(a or b)
            continue
        # partitions.union would check parts that are already checked, at 3x the cost
        components.append(tuple(sorted(a + b, reverse=True)))
        for part in set(a).intersection(b):
            coefficient *= comb(a.count(part) + b.count(part), a.count(part))
    return PartitionFamily._of(left.k, tuple(components)), coefficient


def polynomial_structure(
    left: PartitionFamily,
    right: PartitionFamily,
    budget: int = DEFAULT_BUDGET,
    verify_representative: bool = False,
) -> PolynomialStructure:
    """The universal product of two proper families, read as binomial-basis rows.

    The structure holds multiply_universal's vector as it is and re-keys it
    on read: the row sum over r weighted by binomials in n reproduces the
    group coefficient for every n, including the constant r = 0 term.
    `budget` and `verify_representative` (count by both routes) act as in multiply_universal.
    The checked product is wrapped in the unchecked `PolynomialStructure._of`;
    only a structure built from rows checks them.
    """
    if not left.is_proper() or not right.is_proper():
        raise NotProper("polynomial structure requires proper input families")
    universal = multiply_universal(
        left, right, budget=budget, verify_representative=verify_representative
    )
    return PolynomialStructure._of(left, right, universal)


