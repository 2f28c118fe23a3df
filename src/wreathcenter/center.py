"""Products of conjugacy-class sums, exactly.

Every product has two routes to the same coefficients.  `_by_enumeration`
fixes a member x of the larger orbit A and tallies the types of x y over
the smaller orbit B, so c_gamma * |C_gamma| = |A| * #{y in B : type(x y) =
gamma}; an orbit of one member is its cached representative, not walked.
multiply_group runs it over the block permutations of [kn] (blockperm),
multiply_universal over the k-partial permutations (kpartial) at stage
|left| + |right|.  The character routes read the Frobenius formula off the
tables: a group product is one `characters.class_product` at (k, n), and a
universal product is recovered from the group products of its padded
inputs at each size max(|left|, |right|) .. |left| + |right| - 1, its one
label of top size in closed form (`_top_label`).  A group product has a
third route, the paper's projection: the universal algebra maps onto the
centre of every group algebra, so the product of L and R at n is
project(P * Q, n) for their proper parts P and Q.  README "How a product
is counted" has the derivations.

`_product` chooses the route.  A product whose tables are all built, and
whose count of table entries fits the budget and lies below enumeration's
floor, runs its character route unpriced; every other product takes the
cheapest route of one priced candidate list that fits the budget.  With
verify_representative it is counted by enumeration and by the cheapest
other route, which must agree.

Each route imports its layer on first use: `_by_enumeration` the two
enumeration layers, and the character route `characters`, which binds the
`ch` global.  So a process that counts every product by characters never
loads the enumeration layers, and one that reads every product from a
cache does not load this module at all, only `answers`.  Until
`characters` is loaded no table is built, so pricing charges every table
its build; a table built through `characters` before the first product
counts as built.

What cannot change between products is kept for the process: per
(label, n), the padded form, pad factor and orbit size at stage n (`_at`);
per label, the class size (`families._orbit_size`) and the proper part
(`_proper_family`); per (k, sizes), the #classes ** 2 sum (`_entries`),
from the class count (`_class_count`).  Every product still asks which
tables are built, runs its Frobenius sums, subtraction and top label, and
passes every check.

The answer types `ClassSumVector` and `PolynomialStructure`, `check_mass`,
`project` and the memos `_at` and `_proper_family` live in `answers`, so a
cache hit reads its product without loading the routes; they are imported
here, and read from here, as before.  Patching `check_mass`, `project` or
`_at` on this module changes what the routes here call, not what
`answers`' own functions call.
"""

import sys
from collections import Counter
from functools import cache
from math import comb
from operator import itemgetter

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
    format_family,
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
# once the smaller tables are built, each in terms; one element cost serves
# group and universal products.  _ENUMERATION_COST is enumeration's fixed cost
# per product, and _LEVEL_COST a projected product's per stage it reads, the
# projection included; README "How a product is counted" has the measurements
_ELEMENT_COST = 1440
_BUILD_COST = 152
_ENUMERATION_COST = 2 * _ELEMENT_COST
_LEVEL_COST = 3 * _ELEMENT_COST

# the cost in Frobenius terms of the elements enumerated at each (k, n) in
# this process, by group products at (k, n) and by universal products whose
# character route reads that table; it pays down the cost of building it
_enumerated: Counter = Counter()

# the characters module once a product is routed or priced after it is loaded,
# or takes the character route; None until then, when no table can be built
ch = None


def _product(left, right, n, budget, verify_representative):
    """The product of two class sums at size n, or in the universal algebra when n is None.

    A product whose character tables are all built, and whose #classes ** 2
    count fits `budget` and lies below enumeration's floor (_ENUMERATION_COST
    + _ELEMENT_COST) and, for a group product, below _LEVEL_COST, runs its
    character route unpriced: the list below would pick it too.  Any other
    product takes the cheapest (name, budget count, cost, run) of
    `_candidates` whose count fits `budget`, the first on a tie; a group
    product adds `_projection` when that cheapest costs more than
    _LEVEL_COST or fits no budget.  When none fits, BudgetExceeded reports
    the smallest count.  README "How a product is counted" has the costs.

    With verify_representative, enumeration and the cheapest other
    candidate both count it, and a difference raises InvariantViolation.
    Both counts must fit `budget` (else BudgetExceeded reports the larger,
    enumeration's on a tie), and this enumeration charges nothing to
    `_enumerated`.
    """
    if left.k != right.k:
        raise SizeMismatch("families must share the same k")
    if not verify_representative:
        _, lo, hi = _stages(left, right, n)
        entries = _entries(left.k, lo, hi)
        # the floors are read per product, so patching a cost moves them
        floor = _ENUMERATION_COST + _ELEMENT_COST
        if n is not None and _LEVEL_COST < floor:
            floor = _LEVEL_COST
        if entries <= budget and entries < floor and _built(left.k, lo, hi):
            if n is None:
                return _universal_by_characters(left, right, n, budget)
            return _group_by_characters(left, right, n, budget)
    candidates = _candidates(left, right, n, budget)
    route = _cheapest(candidates, budget)
    if n is not None and (route[1] > budget or route[2] > _LEVEL_COST):
        candidates.append(_projection(left, right, n, budget))
        route = _cheapest(candidates, budget)
    if verify_representative:
        enumeration, characters = candidates[0], _cheapest(candidates[1:], budget)
        larger = characters if characters[1] > enumeration[1] else enumeration
        if larger[1] > budget:
            raise BudgetExceeded(larger[1], budget, larger[0])
        vector = _by_enumeration(left, right, n, budget)
        if vector != characters[3](left, right, n, budget):
            raise InvariantViolation(f"{vector.context} product differs between the two routes")
        return vector
    name, count, _, run = route
    if count > budget:
        raise BudgetExceeded(count, budget, name)
    return run(left, right, n, budget)


def _candidates(left, right, n, budget):
    """Enumeration and the character route of one product, as (name, budget count, cost, run).

    Each run takes (left, right, n, budget).  A cost is worked out only for
    a count that fits `budget`; a candidate whose count does not fit is
    never taken, so its cost is None.
    """
    k = left.k
    stage, lo, hi = _stages(left, right, n)
    if n is None:
        name, by_characters = "partial class enumeration", _universal_by_characters
    else:
        name, by_characters = "class enumeration", _group_by_characters
    smaller = min(_at(left, stage)[2], _at(right, stage)[2])
    entries = _entries(k, lo, hi)
    characters_cost = _characters_cost(k, lo, hi, entries) if entries <= budget else None
    return [
        (name, smaller, smaller * _ELEMENT_COST + _ENUMERATION_COST, _enumerate),
        ("character table", entries, characters_cost, by_characters),
    ]


def _stages(left, right, n):
    """(N, lo, hi): enumeration's stage, and the sizes lo..hi - 1 of the tables the character route reads."""
    if n is None:
        stage = left.size + right.size
        return stage, max(left.size, right.size), stage
    return n, n, n + 1


def _enumerate(left, right, n, budget):
    """`_by_enumeration`, charging its elements to `_enumerated` at each size the character route reads."""
    stage, lo, hi = _stages(left, right, n)
    elements = min(_at(left, stage)[2], _at(right, stage)[2]) * _ELEMENT_COST
    for m in range(lo, hi):
        _enumerated[left.k, m] += elements
    return _by_enumeration(left, right, n, budget)


def _cheapest(candidates, budget):
    """The cheapest candidate whose count fits `budget`, the first on a tie; else the smallest count."""
    best = None
    for candidate in candidates:
        if candidate[1] <= budget and (best is None or candidate[2] < best[2]):
            best = candidate
    return best or min(candidates, key=itemgetter(1))


def _projection(left, right, n, budget):
    """The group product at n as the projection of the universal product of the proper parts.

    The paper's universal algebra maps onto the centre of the group algebra
    at every n, and the group product of L and R, padded from their proper
    parts P and Q, is project(P * Q, n) divided by the binomial pad factors
    of P and Q to n, which are 1 for proper families.  P * Q is counted by
    its own cheapest candidate, whose name and count this candidate takes;
    it reads the stages max(|P|, |Q|) to |P| + |Q|, so its cost is that
    candidate's plus _LEVEL_COST for each of those min(|P|, |Q|) + 1 stages.
    The projected answer passes check_mass.
    """
    proper_left, proper_right = _proper_family(left), _proper_family(right)
    name, count, cost, run = _cheapest(_candidates(proper_left, proper_right, None, budget), budget)
    if count <= budget:
        cost += _LEVEL_COST * (min(proper_left.size, proper_right.size) + 1)

    def projected(*_):
        vector = project(run(proper_left, proper_right, None, budget), n)
        check_mass(vector, left, right)
        return vector

    return name, count, cost, projected


def _characters_cost(k, lo, hi, entries):
    """`entries` plus the build charge of each table at sizes lo..hi - 1 that is not built yet."""
    _bind_characters()
    for m in range(lo, hi):
        if ch is None or not ch.has_character_table(k, m):
            entries += max(_class_count(k, m) ** 2 * _BUILD_COST - _enumerated[k, m], 0)
    return entries


def _built(k, lo, hi):
    """True when every table at sizes lo..hi - 1 is built."""
    _bind_characters()
    if ch is None:
        return False
    for m in range(lo, hi):
        if not ch.has_character_table(k, m):
            return False
    return True


def _bind_characters():
    """Bind `ch` to the characters module once it is loaded, by this module or another.

    Until then `ch` is None, and no table is built.
    """
    global ch
    if ch is None:
        ch = sys.modules.get(f"{__package__}.characters")


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


def _group_by_characters(left, right, n, *_):
    """The group product by the Frobenius formula, mass-checked.

    A candidate's run also passes its budget, which a character route does
    not read: its count was checked before it runs.
    """
    if ch is None:
        _import_characters()
    vector = ClassSumVector(left.k, ch.class_product(left, right), n=n)
    check_mass(vector, left, right)
    return vector


def _universal_by_characters(left, right, *_):
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
    A candidate's run also passes n (None) and its budget, which it does not
    read.
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
    The checked product is wrapped in the unchecked `PolynomialStructure._of`;
    only a structure built from rows checks them.
    """
    if not left.is_proper() or not right.is_proper():
        raise NotProper("polynomial structure requires proper input families")
    universal = multiply_universal(
        left, right, budget=budget, verify_representative=verify_representative
    )
    return PolynomialStructure._of(left, right, universal)


