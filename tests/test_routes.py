"""Every counting route against another on drawn products, each route's function called directly.

The route rule in `center._product` picks one route per product, so a
route it never picks for some inputs would go unchecked there; these
tests call the routes themselves, each character route in both orders.
On the smallest draws two slow oracles join them: the transport map's
multiplicativity (`verify_iso`) on universal products, and a tally over
the class scanned out of the whole group (`enumerate_group` filtered by
`type_of`) on group products.  Every answer the tests compute must also
keep the second filtration, the reflection-length bound and the signed
masses (`assert_filtrations_and_signed_masses`).  Draws are derandomized
so that tier-1 is reproducible, and capped in size at each k <= 3 so that
the module stays cheap.
"""

from collections import Counter
from math import prod

from hypothesis import given, settings, strategies as st

from wreathcenter import blockperm as bp
from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter.errors import DEFAULT_BUDGET, exact_quotient
from wreathcenter.families import (
    binomial_pad_factor,
    class_size,
    families_with_size,
    pad_family,
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


@ROUTES
@given(group_pairs())
def test_group_characters_match_enumeration(drawn):
    left, right, n = drawn
    enumerated = ct._by_enumeration(left, right, n, DEFAULT_BUDGET)
    forward = ct._group_by_characters(left, right, n)
    backward = ct._group_by_characters(right, left, n)
    assert forward == backward == enumerated
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
