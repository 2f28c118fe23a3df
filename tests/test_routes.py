"""Every counting route against another on drawn products, each route's function called directly.

The route rule in `center._product` picks one route per product, so a
route it never picks for some inputs would go unchecked there; these
tests call the routes themselves, each character route in both orders.
On the smallest draws two slow oracles join them: the transport map's
multiplicativity (`verify_iso`) on universal products, and a tally over
the class scanned out of the whole group (`strategy="filter"`) on group
products.  Draws are derandomized so that tier-1 is reproducible, and
capped in size at each k <= 3 so that the module stays cheap.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from wreathcenter import blockperm as bp
from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter.blockperm import DEFAULT_BUDGET
from wreathcenter.errors import exact_quotient
from wreathcenter.families import binomial_pad_factor, class_size, families_with_size, pad_family

# the largest |L| + |R| of a drawn universal product, and the largest n of a
# drawn group product, at each k
UNIVERSAL_MOST = {1: 6, 2: 5, 3: 4}
GROUP_MOST = {1: 6, 2: 4, 3: 3}
# the draws the slow oracles also check: verify_iso evaluates at every point
# of size up to |L| + |R| + 2, and the filter scans the whole group, which
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


@ROUTES
@given(universal_pairs())
def test_universal_characters_match_enumeration(pair):
    left, right = pair
    enumerated = ct._by_enumeration(left, right, None, DEFAULT_BUDGET, False)
    assert ct._universal_by_characters(left, right) == enumerated
    # the centre is commutative: the other order gives the same product
    assert ct._universal_by_characters(right, left) == enumerated
    if left.size + right.size <= VERIFY_MOST[left.k]:
        assert ch.verify_iso(left.k, left, right)


@ROUTES
@given(group_pairs())
def test_group_characters_match_enumeration(drawn):
    left, right, n = drawn
    enumerated = ct._by_enumeration(left, right, n, DEFAULT_BUDGET, False)
    assert ct._group_by_characters(left, right, n) == enumerated
    assert ct._group_by_characters(right, left, n) == enumerated
    if n <= FILTER_MOST[left.k]:
        # x y over the class of R scanned out of the group, at one x in C_L,
        # lands in C_gamma c_gamma |C_gamma| / |C_L| times
        x = bp.class_representative(left, n)
        ys = bp.enumerate_class(right, n, strategy="filter")
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
    group = ct.multiply_group(pad_family(left, n), pad_family(right, n), n)
    scaled = ct.ClassSumVector(left.k, {g: scale * c for g, c in group.items()}, n=n)
    assert ct.project(ct.multiply_universal(left, right), n) == scaled
