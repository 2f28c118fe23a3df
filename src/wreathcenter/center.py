"""Products of conjugacy-class sums, exactly.

One function, `_by_enumeration`, enumerates products.  Conjugation
permutes each input orbit and preserves products, so for a fixed x in the
larger orbit A,

    c_gamma * |C_gamma| = |A| * #{y in B : type(x y) = gamma}.

It enumerates the smaller orbit B once against a fixed representative of
A and tallies the product types; an orbit of one member is its cached
representative, not walked.  It runs on one of two layers:

  * multiply_group uses block permutations of [kn] (blockperm), stage n;
  * multiply_universal uses k-partial permutations (kpartial) at the
    smallest faithful stage |left| + |right|, as a product moves at most
    that many blocks.  `families.partial_class_size` sizes every orbit at
    the stage N: C(N, |gamma|) |C_gamma|, which is |C_gamma| at |gamma| = N.

Each route imports its layer on first use: `_by_enumeration` the two
enumeration layers, and the character route `characters`, which binds the
`ch` global.  So a process that counts every product by characters never
loads the enumeration layers, and one that reads every product from a
cache does not load this module at all, only `answers`.  Until `characters` is loaded no table is built, so
pricing charges every table its build; a table built through `characters`
before the first product is priced counts as built.

Either product may instead be counted by characters, for every k.  The
Frobenius formula

    c_gamma = |C_A| |C_B| / |G| * sum_chi chi(A) chi(B) chi(gamma) / chi(1)

reads every coefficient of a group product off the character table at
(k, n): `characters.class_product`, which reads at most #classes ** 2
entries, is the group route.  A universal product is fixed by its
projections, the group products of the padded inputs at every n from
max(|left|, |right|) to N, and is recovered from them one size at a time:
each size below N is one class_product, whose own new dict is scaled in
place when a pad factor is above 1, less the labels of smaller sizes found
so far, padded to that size.  Its one label of size N, the union of the
inputs (the top-degree term of Ivanov-Kerov's product), has a coefficient
in closed form, a product of binomials, and is added after the loop over
the smaller sizes, so only the tables below N are read and a product with
an empty input runs no level.  The group route is one class_product, not
the one-level case of the universal loop, which costs more per product.
`_product` weighs enumeration against characters by one rule and takes
the cheaper route, or both with verify_representative, which must agree.

What cannot change between products is kept for the process: per
(label, n), the padded form, pad factor and orbit size at stage n (`_at`,
read by the route choice, the levels, check_mass and project); per label,
the class size (`families._orbit_size`); per (k, sizes), the #classes ** 2
sum that prices the character route (`_entries`).  Every product still
asks which tables are built, runs its Frobenius sums, subtraction and top
label, and passes every check.

The answer types `ClassSumVector` and `PolynomialStructure`, `check_mass`,
`project` and the memos `_at` and `_proper_family` live in `answers`, so a
cache hit reads its product without loading the routes; they are imported
here, and read from here, as before.  Patching `check_mass` or `_at` on
this module changes what the routes here call, not what `answers`' own
functions call.

`polynomial_structure` wraps a product already checked in the unchecked
`PolynomialStructure._of(left, right, vector)`; only a structure built from
rows checks them.
"""

import sys
from collections import Counter
from functools import cache
from math import comb

# _proper_family is not read here; it is kept importable from this module
from .answers import (
    ClassSumVector,
    PolynomialStructure,
    _at,
    _proper_family,
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
    families_with_size,
    format_family,
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

    `_product` counts it by one route, or by both with `verify_representative`.
    """
    return _product(left, right, None, budget, verify_representative)


# Route costs in Frobenius terms: a term is 1 / #classes ** 2 of a Frobenius
# sum, which reads only the entries that can contribute.  _ELEMENT_COST is the
# time of an enumerated element and _BUILD_COST that of building a table entry
# once the smaller tables are built, each in terms (measured in CHANGES.md);
# one element cost serves group and universal products.
_ELEMENT_COST = 1440
_BUILD_COST = 152

# the cost in Frobenius terms of the elements enumerated at each (k, n) in
# this process, by group products at (k, n) and by universal products whose
# character route reads that table; it pays down the cost of building it
_enumerated: Counter = Counter()

# the characters module once a product is priced after it is loaded, or takes
# the character route; None until then, when no table can be built
ch = None


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
    process builds each table it keeps needing once.  `ch.class_product` reads
    only the entries that can contribute, so #classes ** 2 bounds what it reads.
    |B| is read from `_at`, kept per (label, stage), and the #classes ** 2 sum
    from `_entries`, kept per (k, sizes); whether each table is built, and so
    its build charge, is asked on every product, so no price outlives
    `character_table.cache_clear()`.

    `budget` bounds the count of the route taken: |B| elements, or the table
    entries summed over the sizes.  When only one route fits, it is taken;
    when neither fits, BudgetExceeded reports the smaller count.

    With verify_representative both routes count it and a difference raises
    InvariantViolation.  Both counts must fit `budget` (else BudgetExceeded
    reports the larger, first), and nothing is charged to `_enumerated`.
    """
    if left.k != right.k:
        raise SizeMismatch("families must share the same k")
    k = left.k
    if n is None:
        stage = left.size + right.size
        sizes = range(max(left.size, right.size), stage)
        by_characters = _universal_by_characters
    else:
        stage, sizes = n, range(n, n + 1)
        by_characters = lambda a, b: _group_by_characters(a, b, n)
    smaller = min(_at(left, stage)[2], _at(right, stage)[2])
    entries = _entries(k, sizes.start, sizes.stop)
    what = "partial class enumeration" if n is None else "class enumeration"
    if verify_representative:
        if max(entries, smaller) > budget:
            needed, what = (entries, "character table") if entries > smaller else (smaller, what)
            raise BudgetExceeded(needed, budget, what)
        vector = _by_enumeration(left, right, n, budget)
        if vector != by_characters(left, right):
            raise InvariantViolation(f"{vector.context} product differs between the two routes")
        return vector
    characters = (
        _characters_cost(k, sizes, entries) < smaller * _ELEMENT_COST
        if max(entries, smaller) <= budget
        else entries < smaller
    )
    if characters:
        if entries > budget:
            raise BudgetExceeded(entries, budget, "character table")
        return by_characters(left, right)
    if smaller > budget:
        raise BudgetExceeded(smaller, budget, what)
    for m in sizes:
        _enumerated[k, m] += smaller * _ELEMENT_COST
    return _by_enumeration(left, right, n, budget)


def _characters_cost(k, sizes, entries):
    """`entries` plus the build charge of each table at sizes that is not built yet.

    Before `characters` is loaded no table is built, so each is charged; once
    it is, by this module or another, `ch` is bound to it.
    """
    global ch
    if ch is None:
        ch = sys.modules.get(f"{__package__}.characters")
    for m in sizes:
        if ch is None or not ch.has_character_table(k, m):
            entries += max(_class_count(k, m) ** 2 * _BUILD_COST - _enumerated[k, m], 0)
    return entries


def _import_characters():
    """Bind `ch` to the characters module, importing it: the character route's first use."""
    global ch
    from . import characters as ch


@cache
def _entries(k: int, lo: int, hi: int) -> int:
    """The sum of #classes ** 2 over the sizes lo..hi - 1; it holds counts only, never built-ness."""
    return sum(_class_count(k, m) ** 2 for m in range(lo, hi))


@cache
def _class_count(k: int, n: int) -> int:
    return len(families_with_size(k, n))


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
    import wreathcenter.blockperm as bp
    import wreathcenter.kpartial as kp

    if n is None:
        stage = left.size + right.size
        members = lambda fam: kp.universal_class_members(fam, stage, budget)
        representative, type_of = kp.partial_class_representative, kp.kp_type
    else:
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


def _group_by_characters(left, right, n):
    """The group product by the Frobenius formula, mass-checked."""
    if ch is None:
        _import_characters()
    vector = ClassSumVector(left.k, ch.class_product(left, right), n=n)
    check_mass(vector, left, right)
    return vector


def _universal_by_characters(left, right):
    """The universal product from the group products of the padded inputs.

    Going up from n = max(|left|, |right|) to |left| + |right| - 1, the
    labels of size n are what `ch.class_product` of the inputs padded to n,
    times their binomial pad factors, leaves once the labels already found,
    padded to n, are subtracted; each level is class_product's own new dict,
    changed in place.  The one label of size |left| + |right| is
    `_top_label`, read off no table, so a product with an empty input runs
    no level and does not import `characters`.  Each stage n is checked: the
    masses of the labels found so far, sum over s of C(n, s) M_s with M_s
    the mass of the labels of size s, must equal the product of the input
    orbit sizes; the top stage's check stands in for check_mass.  A negative
    coefficient at a level, or a stage whose masses differ, raises
    InvariantViolation.  Pad forms, pad factors and orbit sizes are read
    from `_at`.  README "How a product is counted" has the derivation.
    """
    terms = {}
    masses = []
    lo, top = max(left.size, right.size), left.size + right.size
    if lo < top and ch is None:
        _import_characters()
    for n in range(lo, top):
        padded_left, left_factor, left_orbit = _at(left, n)
        padded_right, right_factor, right_orbit = _at(right, n)
        # class_product's own new dict: a pad factor above 1 scales it in place
        level = ch.class_product(padded_left, padded_right)
        scale = left_factor * right_factor
        if scale != 1:
            for delta in level:
                level[delta] *= scale
        for gamma, c in terms.items():
            delta, factor, _ = _at(gamma, n)
            level[delta] = level.get(delta, 0) - c * factor
        level_mass = 0
        for delta, c in level.items():
            if c < 0:
                where = format_family(delta)
                raise InvariantViolation(f"universal product cannot have c = {c} at {where}")
            if c:
                terms[delta] = c
                # delta has size n, so its orbit at stage n is its class
                level_mass += c * _orbit_size(delta)
        masses.append(level_mass)
        mass = 0
        for s, m in enumerate(masses, lo):
            mass += comb(n, s) * m
        if mass != left_orbit * right_orbit:
            raise InvariantViolation(f"universal product mass at stage {n} is {mass}")
    label, c = _top_label(left, right)
    terms[label] = c
    mass = c * _orbit_size(label)
    for s, m in enumerate(masses, lo):
        mass += comb(top, s) * m
    if mass != _at(left, top)[2] * _at(right, top)[2]:
        raise InvariantViolation(f"universal product mass at stage {top} is {mass}")
    return ClassSumVector(left.k, terms)


def _top_label(left, right):
    """The one label of size |left| + |right| in left * right, and its coefficient.

    Only factors on disjoint domains reach that size, and their product is
    their union: each component's parts merged.  A member of the union is
    that product once for each way to give its cycles to the two factors,
    C(m_i(left) + m_i(right), m_i(left)) ways for each part i of each
    component, which is big_z(union) / (big_z(left) big_z(right)).  The
    coefficient is counted from the inputs alone, so the stage check, which
    weighs it by the class size of the label, also checks the label.  A
    component empty on one side is the other side's as it is, and only the
    parts both sides share give a binomial other than 1: C(a + 0, a) = 1.
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
    """
    if not left.is_proper() or not right.is_proper():
        raise NotProper("polynomial structure requires proper input families")
    universal = multiply_universal(
        left, right, budget=budget, verify_representative=verify_representative
    )
    return PolynomialStructure._of(left, right, universal)


