"""Every counting route against another on drawn products, each route's function called directly.

The route rule in `center._product` picks one route per product, so a
route it never picks for some inputs would go unchecked there; these
tests call the routes themselves, each character route in both orders.
One seeded test checks the rule itself: `_product` runs the clause that the
rule names, whichever tables are built and whatever the budget.
On the smallest draws two slow oracles join them: the transport map's
multiplicativity (`verify_iso`) on universal products, and a tally over
the class scanned out of the whole group (`enumerate_group` filtered by
`type_of`) on group products.  Every answer the tests compute must also
keep the second filtration, the reflection-length bound and the signed
masses (`assert_filtrations_and_signed_masses`).  Draws are derandomized
so that tier-1 is reproducible, and capped in size at each k <= 3 so that
the module stays cheap.
"""

import random
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from wreathcenter import blockperm as bp
from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter.errors import DEFAULT_BUDGET, BudgetExceeded, InvariantViolation, exact_quotient
from wreathcenter.families import (
    PartitionFamily,
    binomial_pad_factor,
    class_size,
    families_with_size,
    pad_family,
    parse_family,
    partial_class_size,
)

# the largest |L| + |R| of a drawn universal product, and the largest n of a
# drawn group product, at each k
UNIVERSAL_MOST = {1: 6, 2: 5, 3: 4}
GROUP_MOST = {1: 6, 2: 4, 3: 3}
# the draws the slow oracles also check: verify_iso evaluates at every point
# of size up to |L| + |R|, and the filter scans the whole group, which
# has at most 120 elements at these n (S_5, S_2 wr S_3, S_3 wr S_2)
VERIFY_MOST = {1: 5, 2: 4, 3: 3}
FILTER_MOST = {1: 5, 2: 3, 3: 2}

ROUTES = settings(max_examples=150, deadline=None, derandomize=True)


def label(draw, k, size):
    return draw(st.sampled_from(families_with_size(k, size)))


@st.composite
def universal_pairs(draw):
    k = draw(st.integers(1, 3))
    total = draw(st.integers(0, UNIVERSAL_MOST[k]))
    size = draw(st.integers(0, total))
    return label(draw, k, size), label(draw, k, total - size)


@st.composite
def group_pairs(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, GROUP_MOST[k]))
    return label(draw, k, n), label(draw, k, n), n


@st.composite
def projected_pairs(draw):
    # n >= max(|L|, |R|) in the group caps, |L| + |R| in the universal ones
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, GROUP_MOST[k]))
    size = draw(st.integers(0, n))
    other = draw(st.integers(0, min(n, UNIVERSAL_MOST[k] - size)))
    return label(draw, k, size), label(draw, k, other), n


def _sign(mu):
    return (-1) ** (sum(mu) - len(mu))


def _degree_one_values(fam):
    """The four degree-1 characters at fam: trivial, base sign, top sign and their product."""
    base = prod(_sign(rho) ** len(lam) for rho, lam in fam.items())
    top = prod(_sign(lam) for _, lam in fam.items())
    return 1, base, top, base * top


def _reflection_length(fam):
    # k|fam| less the cycles on [k|fam|] of a member: a cycle of the label
    # with S_k class rho splits into l(rho) cycles there
    return fam.k * fam.size - sum(len(rho) * len(lam) for rho, lam in fam.items())


def assert_filtrations_and_signed_masses(vector, left, right, stage):
    """Check what every product of left and right at `stage` keeps, without the tables.

    Each label gamma has deg1(gamma) <= deg1(left) + deg1(right), where
    deg1 is the size plus the 1-parts of the all-ones component, and
    l_T(gamma) <= l_T(left) + l_T(right) with the same parity.  For each
    degree-1 character eps, taken in closed form (padding changes none of
    them), the sum of c_gamma * partial_class_size(gamma, stage) * eps(gamma)
    is the same sum for left times that for right.
    """
    bound = left.size + left.m1 + right.size + right.m1
    length = _reflection_length(left) + _reflection_length(right)
    masses = [0] * 4
    for gamma, c in vector.items():
        assert gamma.size + gamma.m1 <= bound
        shorter = length - _reflection_length(gamma)
        assert shorter >= 0 and shorter % 2 == 0
        members = c * partial_class_size(gamma, stage)
        masses = [m + members * eps for m, eps in zip(masses, _degree_one_values(gamma))]
    left_members, right_members = partial_class_size(left, stage), partial_class_size(right, stage)
    assert masses == [
        left_members * a * right_members * b
        for a, b in zip(_degree_one_values(left), _degree_one_values(right))
    ]


@ROUTES
@given(universal_pairs())
def test_universal_characters_match_enumeration(pair):
    left, right = pair
    stage = left.size + right.size
    enumerated = ct._by_enumeration(left, right, None, DEFAULT_BUDGET)
    forward = ct._universal_by_characters(left, right)
    # the centre is commutative: the other order gives the same product
    backward = ct._universal_by_characters(right, left)
    assert forward == backward == enumerated
    for answer, a, b in [(enumerated, left, right), (forward, left, right), (backward, right, left)]:
        assert_filtrations_and_signed_masses(answer, a, b, stage)
    if stage <= VERIFY_MOST[left.k]:
        assert ch.verify_iso(left.k, left, right)


def projected(left, right, n):
    """The group product by the projection route's own run, whatever route the rule names."""
    return ct._by_projection(left, right, n, DEFAULT_BUDGET)


@ROUTES
@given(group_pairs())
def test_group_characters_match_enumeration(drawn):
    left, right, n = drawn
    enumerated = ct._by_enumeration(left, right, n, DEFAULT_BUDGET)
    forward = ct._group_by_characters(left, right, n)
    backward = ct._group_by_characters(right, left, n)
    # the projection of the proper parts' universal product, in both orders
    assert forward == backward == projected(left, right, n) == projected(right, left, n) == enumerated
    for answer, a, b in [(enumerated, left, right), (forward, left, right), (backward, right, left)]:
        assert_filtrations_and_signed_masses(answer, a, b, n)
    if n <= FILTER_MOST[left.k]:
        # x y over the class of R scanned out of the group, at one x in C_L,
        # lands in C_gamma c_gamma |C_gamma| / |C_L| times
        x = bp.class_representative(left, n)
        ys = (y for y in bp.enumerate_group(left.k, n) if y.type_of() == right)
        counts = Counter(bp.BlockPermutation.type_of(x * y) for y in ys)
        assert enumerated.terms == {
            gamma: exact_quotient(class_size(left, n) * count, class_size(gamma, n), gamma)
            for gamma, count in counts.items()
        }


@ROUTES
@given(projected_pairs())
def test_projection_is_the_group_product_of_the_padded_inputs(drawn):
    # bpf(L, n) bpf(R, n) C_pad(L, n) C_pad(R, n) = project(C_L C_R, n)
    left, right, n = drawn
    scale = binomial_pad_factor(left, n) * binomial_pad_factor(right, n)
    padded_left, padded_right = pad_family(left, n), pad_family(right, n)
    group = ct.multiply_group(padded_left, padded_right, n)
    universal = ct.multiply_universal(left, right)
    assert_filtrations_and_signed_masses(group, padded_left, padded_right, n)
    assert_filtrations_and_signed_masses(universal, left, right, left.size + right.size)
    scaled = ct.ClassSumVector(left.k, {g: scale * c for g, c in group.items()}, n=n)
    assert ct.project(universal, n) == scaled


# group products at large n with small proper parts: (k, n, L, R), each padded to n
LARGE_N_ROWS = [
    (1, 12, "{[1]:[3]}", "{[1]:[3]}"),
    (2, 14, "{[2]:[2]}", "{[2]:[3]}"),
    (3, 9, "{[3]:[2]}", "{[3]:[2]}"),
]


@pytest.mark.parametrize("k, n, left, right", LARGE_N_ROWS)
def test_projection_matches_the_group_routes_at_large_n(k, n, left, right):
    # the (2, 14) and (3, 9) tables hold 7.1 M and 2.2 M entries (the second
    # builds in about 5 s), so there the oracle is enumeration, 20-30 ms each
    left, right = pad_family(parse_family(left, k), n), pad_family(parse_family(right, k), n)
    answer = projected(left, right, n)
    oracle = ct._group_by_characters if k == 1 else lambda a, b, m: ct._by_enumeration(a, b, m, DEFAULT_BUDGET)
    assert answer == oracle(left, right, n)
    assert_filtrations_and_signed_masses(answer, left, right, n)


def test_a_cold_product_at_large_n_projects_from_the_small_tables():
    # transposition squared at n = 40: enumeration walks 780 members, the
    # Frobenius sum would read the (1, 40) table of 37,338 ** 2 entries, and
    # the universal product of (2) * (2) reads the tables at n = 2, 3 only:
    # its proper parts fit in n, so the rule projects (clause 3)
    ch.character_table.cache_clear()
    transposition = pad_family(parse_family("{[1]:[2]}", 1), 40)
    assert class_size(transposition, 40) == 780
    answer = ct.multiply_group(transposition, transposition, 40)
    assert ch.has_character_table(1, 3)
    assert not any(ch.has_character_table(1, m) for m in range(4, 41))
    assert answer == ct._by_enumeration(transposition, transposition, 40, DEFAULT_BUDGET)
    assert answer.terms[PartitionFamily.identity(1, 40)] == 780


def test_a_projected_coefficient_moved_by_one_unit_is_refused(monkeypatch):
    transposition = pad_family(parse_family("{[1]:[2]}", 1), 40)
    true_project = ct.project

    def project(vector, n):
        answer = true_project(vector, n)
        gamma, c = next(iter(answer.items()))
        return ct.ClassSumVector(answer.k, {**answer.terms, gamma: c + 1}, n=n)

    monkeypatch.setattr(ct, "project", project)
    with pytest.raises(InvariantViolation):
        ct.multiply_group(transposition, transposition, 40)
    with pytest.raises(InvariantViolation):
        projected(transposition, transposition, 40)


# the largest n of a group product, and |L| + |R| of a universal one, that the
# rule test draws at each k; the tables up to each are built once, and each
# case keeps a drawn subset of them.  A draw whose smaller orbit has more
# members than RULE_MOST_MEMBERS is drawn again, so that no route and no
# oracle walks more than that
RULE_GROUP_MOST = {1: 8, 2: 5, 3: 4}
RULE_UNIVERSAL_MOST = {1: 8, 2: 6, 3: 5}
RULE_MOST_MEMBERS = 800
RULE_CASES = 3000


def fit(route, fallback, budget):
    """`route` if it fits, else `fallback` if it fits, else the smaller count, `fallback` on a tie."""
    if route[2] <= budget:
        return route
    if fallback[2] <= budget or fallback[2] <= route[2]:
        return fallback
    return route


def universal_rule(left, right, budget):
    """(run, name, count) of the universal rule: the character route, or enumeration when only it fits."""
    stage = left.size + right.size
    entries = sum(len(families_with_size(left.k, m)) ** 2 for m in range(max(left.size, right.size), stage))
    smaller = min(partial_class_size(left, stage), partial_class_size(right, stage))
    return fit(("universal characters", "character table", entries),
               ("enumeration", "partial class enumeration", smaller), budget)


def group_rule(left, right, n, budget):
    """(clause, (run, name, count)) of the group rule at n, the budget's fallback as clause "fallback"."""
    k, smaller = left.k, min(class_size(left, n), class_size(right, n))
    classes = len(families_with_size(k, n))
    enumeration = ("enumeration", "class enumeration", smaller)
    frobenius = ("frobenius", "character table", classes**2)
    proper_left, proper_right = ct._proper_family(left), ct._proper_family(right)
    if ch.has_character_table(k, n):
        clause, route = 1, frobenius
    elif smaller == 1:
        clause, route = 2, enumeration
    elif proper_left.size + proper_right.size <= n:
        clause, route = 3, ("projection", *universal_rule(proper_left, proper_right, budget)[1:])
    elif smaller <= classes:
        clause, route = 4, enumeration
    else:
        clause, route = 5, frobenius
    taken = fit(route, enumeration, budget)
    return (clause if taken is route else "fallback"), taken


def test_product_runs_the_clause_the_rule_names(monkeypatch):
    # on drawn products, subsets of built tables and budgets, _product runs
    # the route that the rule, restated here, names: a universal product its
    # character route; a group product Frobenius when its table is built (1),
    # enumeration when its smaller orbit has one member (2), the projection
    # of its proper parts' product when they fit in n (3), enumeration when
    # the smaller orbit has at most #classes members (4), else Frobenius (5).
    # A route that does not fit gives way to enumeration if that fits, and
    # else the smaller count is refused.  The runs are spies around the true
    # routes, and every answer equals enumeration's
    rng = random.Random(2019)
    calls = []
    true_enumeration = ct._by_enumeration

    def spy(name, route):
        def run(left, right, n=None, *rest):
            calls.append((name, left, right, n))
            return route(left, right, n, *rest)

        return run

    true_project = ct.project
    monkeypatch.setattr(ct, "_by_enumeration", spy("enumeration", true_enumeration))
    monkeypatch.setattr(ct, "_group_by_characters", spy("frobenius", ct._group_by_characters))
    monkeypatch.setattr(ct, "_universal_by_characters", spy("universal characters", ct._universal_by_characters))
    monkeypatch.setattr(ct, "project", lambda vector, n: calls.append(("project", n)) or true_project(vector, n))
    oracle = {}
    kept = dict(ch._tables)
    ch.character_table.cache_clear()
    for k in (1, 2, 3):
        ch.character_table(k, max(RULE_GROUP_MOST[k], RULE_UNIVERSAL_MOST[k] - 1))
    built = dict(ch._tables)
    seen = Counter()
    try:
        while sum(seen.values()) < RULE_CASES:
            k = rng.randint(1, 3)
            if rng.random() < 0.6:
                n = rng.randint(0, RULE_GROUP_MOST[k])
                left, right = (rng.choice(families_with_size(k, n)) for _ in "LR")
                stage = n
            else:
                n, stage = None, rng.randint(0, RULE_UNIVERSAL_MOST[k])
                size = rng.randint(0, stage)
                left = rng.choice(families_with_size(k, size))
                right = rng.choice(families_with_size(k, stage - size))
            smaller = min(partial_class_size(left, stage), partial_class_size(right, stage))
            if smaller > RULE_MOST_MEMBERS:
                continue
            share = rng.random()
            ch.character_table.cache_clear()
            ch._tables.update((key, entry) for key, entry in built.items() if rng.random() < share)
            if n is None:
                taken = universal_rule(left, right, DEFAULT_BUDGET)
            else:
                taken = group_rule(left, right, n, DEFAULT_BUDGET)[1]
            budget = rng.choice([DEFAULT_BUDGET, int(10 ** rng.uniform(0, 3)), smaller, smaller - 1,
                                 taken[2], taken[2] - 1])
            if n is None:
                taken = universal_rule(left, right, budget)
                clause = "characters" if taken[0] != "enumeration" else "fallback"
            else:
                clause, taken = group_rule(left, right, n, budget)
            run, name, count = taken
            calls.clear()
            if count > budget:
                with pytest.raises(BudgetExceeded) as info:
                    ct._product(left, right, n, budget, False)
                assert (info.value.needed, info.value.budget, info.value.what) == (count, budget, name)
                assert calls == []
                seen["refused", n is None] += 1
                continue
            answer = ct._product(left, right, n, budget, False)
            if (left, right, n) not in oracle:
                oracle[left, right, n] = true_enumeration(left, right, n, DEFAULT_BUDGET)
            assert answer == oracle[left, right, n]
            if run == "projection":
                proper_left, proper_right = ct._proper_family(left), ct._proper_family(right)
                inner = universal_rule(proper_left, proper_right, budget)[0]
                assert calls == [(inner, proper_left, proper_right, None), ("project", n)]
            else:
                assert calls == [(run, left, right, n)], (left, right, n, budget)
            seen[clause, n is None] += 1
    finally:
        ch.character_table.cache_clear()
        ch._tables.update(kept)
    # every clause is met, and the budget's fallback and refusal on both kinds
    for clause in (1, 2, 3, 4, 5, "fallback", "refused"):
        assert seen[clause, False] >= 20, (clause, seen)
    for clause in ("characters", "fallback", "refused"):
        assert seen[clause, True] >= 20, (clause, seen)
