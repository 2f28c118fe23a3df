"""Every small answer, pinned as one sha256 per stratum of products.

The corpus is every ordered group pair at (1, n <= 7), (2, n <= 5) and
(3, n <= 4), n = 0 included, and every ordered pair of proper universal
labels with |L| + |R| <= 8, 6 and 5 at k = 1, 2 and 3: 6,437 products,
computed through the public functions.  Each answer is written as
canonical text, labels by `format_family` and terms in `items_sorted`
order, and a universal pair also by its `polynomial_structure` rows in
`rows_sorted` order; not `repr`, so that a change of repr does not read as
a change of answer.  Each (layer, k, size) stratum is hashed on its own,
size being n or |L| + |R|, so that a failure names its strata.  A change
that moves an answer on purpose changes DIGESTS, and says why.  The 34
smaller strata, group pairs at (1, n <= 6), (2, n <= 4) and (3, n <= 3)
and universal pairs with |L| + |R| <= 7, 5 and 4, are also counted with
`verify_representative=True`, so by enumeration and by a second route.

Run as a script (`PYTHONPATH=src python tests/test_corpus.py`), it computes
the corpus a second time with every product counted by
`center._by_enumeration`, and exits 1 unless both agree with DIGESTS in
every stratum.
"""

import hashlib
import sys

from wreathcenter import center as ct
from wreathcenter.errors import DEFAULT_BUDGET
from wreathcenter.families import families_with_size, format_family

# the largest n of a group pair, and the largest |L| + |R| of a universal pair, at each k
GROUP_MOST = {1: 7, 2: 5, 3: 4}
UNIVERSAL_MOST = {1: 8, 2: 6, 3: 5}

DIGESTS = {
    ("group", 1, 0): "f9b6e3283ec6bb2f85811782fd15d84ec0e63be41212f729931ec128858e5e1d",
    ("group", 1, 1): "3326610e22bcb6d216488ffbdc2cbf7e8dda0122c2730b2264f0bbc162477006",
    ("group", 1, 2): "49b1fa4b25bad8da40c29e18fdb4504f0aaa02a5b219d7d4253e4b8839cbdde6",
    ("group", 1, 3): "6fc30207ca58ecc6f32dc70fabccb80187fc1466f637668e9a2dd3e3b534bbd0",
    ("group", 1, 4): "85d54c3e2318254466d6cfdb08b95774c88e879a28b0453b9f1e95f7ef790020",
    ("group", 1, 5): "4078edb3cb183ab809b2aff3cf63bc6032cb513632b0912a417ef82cc65906e2",
    ("group", 1, 6): "23dabdbf1a844a833affcce5aeef016861ccdf776b4f70fe56190660a98a8d08",
    ("group", 1, 7): "2eae42c0ac723b01d760a1f92743c6e6c909a8fdbe6039e8fa887e92bce266c1",
    ("group", 2, 0): "f9b6e3283ec6bb2f85811782fd15d84ec0e63be41212f729931ec128858e5e1d",
    ("group", 2, 1): "c88a1b5ed0d4793d91ad9b78e9a304149e77635f6ab7c53b6898221e269b3902",
    ("group", 2, 2): "15eab1f029efe997cba3f2faff21dbdb7e4689e7f1bfcdc016598520cb7d8928",
    ("group", 2, 3): "063d2c8f184ca942f2dae7bfa219e2d3391fefbf194ce2e355941fe491ea31e7",
    ("group", 2, 4): "643d0d9a4de30e9fd7da5b0c124ef6061f9cf341b00cf12e224ce62a451a0503",
    ("group", 2, 5): "a35b5a40a4856ba9989708c50195bf045d009a47c6a67e278598b2090591ed03",
    ("group", 3, 0): "f9b6e3283ec6bb2f85811782fd15d84ec0e63be41212f729931ec128858e5e1d",
    ("group", 3, 1): "997b76d845a44be03bdac49cbcb5066ab0ca9026939bcdb6e293be3cb882aa61",
    ("group", 3, 2): "39e8b2a7ed07a0c2d9c666b569b192e59006bce67e3bfe8f4f7434c8c3ac86b2",
    ("group", 3, 3): "945844ab1ddb41abb00d28c1361e030bd46f0fc1864a1b3d890ddb7ad5968f31",
    ("group", 3, 4): "e5b5663238090129f9e57f405c8f3e30b8ac5d7c31187616405eb91908599ba8",
    ("universal", 1, 0): "d45690514e0b95516aff170cd7eb02b2bf5b299b32179d7766fe16f8a28f0436",
    ("universal", 1, 2): "60671723dbac2fdd3b9a619e96fed561967abcb803bf96504daafbfdf9f6c265",
    ("universal", 1, 3): "f1b5ed08cbc54c2455e08f0299381206828de751ca5180a54c886aad1ff1006b",
    ("universal", 1, 4): "b631e5726ee625a73d525849a9cb6252273e96c9592da29d954949dede55f6cc",
    ("universal", 1, 5): "9bcf4f08ecee3eda7e1160c8343aea80ee5c5cd212e2722d492a4a43dac6b412",
    ("universal", 1, 6): "e98af14a75b5dcc0eea3b8f371c8b3c6b96da4744c0321b28ed746d4e5b7632a",
    ("universal", 1, 7): "1b91182552e2598b2cf216c099a2012a49edf5e81f26ebfd7c87e2d4da2cfce0",
    ("universal", 1, 8): "da689bf04dbd3aa73477ccf6daca18790f132130b6a808187702a318acd05547",
    ("universal", 2, 0): "d45690514e0b95516aff170cd7eb02b2bf5b299b32179d7766fe16f8a28f0436",
    ("universal", 2, 1): "248b57fa64543ba4c6a7b7c19f56759cd7ebb7ef201a7ec18605e55cb92361dc",
    ("universal", 2, 2): "1ad124e5aed1ebecb8289bbdba7b4429c8a687e9aec1dca0798feb8df108eaa4",
    ("universal", 2, 3): "64ee09a3cb1a18e08b7b129208e174313c7c81f582d0e768ce278c77941b1d80",
    ("universal", 2, 4): "8cc748c7f0b4c9567f183f7fd8d9b6030d05ac4229cf1777fe51a54df156fbde",
    ("universal", 2, 5): "e3c30676b95ad2fa07273c20d9e7465ae982a5150151a1f6acd39be53519ee9b",
    ("universal", 2, 6): "f5ce4ed4ec8e8e596049acfe938cbd36d427a2259a77bd8280b9628fa58f4a17",
    ("universal", 3, 0): "d45690514e0b95516aff170cd7eb02b2bf5b299b32179d7766fe16f8a28f0436",
    ("universal", 3, 1): "668e1602761693f00a64a77cd7d62065b428386c19c9875656ad457b836d48b7",
    ("universal", 3, 2): "0415d0116a5434c3d327d6016c274a28c032d332c566325ee796a86a030e84ef",
    ("universal", 3, 3): "58d0c0b395096b0908b1ce10dbf58264d13e2d56b7d978237f82aa847382d92e",
    ("universal", 3, 4): "6866d2616bcbf0f32f889c56409178783c8afd1182168199a0b0e1a43b801b39",
    ("universal", 3, 5): "4d72e7eb384850bb7d357064562c5c2bec43cd34334339f84aa485c7abfe5d53",
}


def corpus(group, universal, group_most=GROUP_MOST, universal_most=UNIVERSAL_MOST):
    """{(layer, k, size): sha256 hex digest}, with group(L, R, n) a vector and universal(L, R) a structure.

    `group_most` and `universal_most` map each k to the largest n of a group
    pair and the largest |L| + |R| of a universal pair; a smaller limit
    leaves out whole strata, and each stratum kept has the digest it has in
    the whole corpus.
    """
    texts = {}
    for k, most in group_most.items():
        for n in range(most + 1):
            labels = families_with_size(k, n)
            texts["group", k, n] = [_line(left, right, group(left, right, n)) for left in labels for right in labels]
    for k, most in universal_most.items():
        labels = [label for size in range(most + 1) for label in families_with_size(k, size, proper_only=True)]
        for left in labels:
            for right in labels:
                if left.size + right.size <= most:
                    structure = universal(left, right)
                    rows = ", ".join(f"{format_family(gamma)} r={r}: {c}" for (gamma, r), c in structure.rows_sorted())
                    line = f"{_line(left, right, structure.vector)}; rows {rows}"
                    texts.setdefault(("universal", k, left.size + right.size), []).append(line)
    return {stratum: hashlib.sha256("\n".join(lines).encode()).hexdigest() for stratum, lines in texts.items()}


def _line(left, right, vector):
    terms = " + ".join(f"{c}*{format_family(gamma)}" for gamma, c in vector.items_sorted())
    return f"{format_family(left)} * {format_family(right)} = {terms}"


def _differing(digests):
    return sorted(s for s in set(digests) | set(DIGESTS) if digests.get(s) != DIGESTS.get(s))


def test_every_small_answer_matches_its_stratum_digest():
    assert _differing(corpus(ct.multiply_group, ct.polynomial_structure)) == []


def test_the_smaller_strata_match_their_digests_counted_by_both_routes():
    # with verify_representative every product is counted by enumeration and
    # by its rule's other route, which must agree, on a slice whose
    # enumeration takes well under a second: 34 of the 40 strata
    digests = corpus(
        lambda left, right, n: ct.multiply_group(left, right, n, verify_representative=True),
        lambda left, right: ct.polynomial_structure(left, right, verify_representative=True),
        {1: 6, 2: 4, 3: 3},
        {1: 7, 2: 5, 3: 4},
    )
    assert len(digests) == 34
    assert {stratum: DIGESTS[stratum] for stratum in digests} == digests


if __name__ == "__main__":
    by_routes = corpus(ct.multiply_group, ct.polynomial_structure)
    by_enumeration = corpus(
        lambda left, right, n: ct._by_enumeration(left, right, n, DEFAULT_BUDGET),
        lambda left, right: ct.PolynomialStructure._of(left, right, ct._by_enumeration(left, right, None, DEFAULT_BUDGET)),
    )
    differing = {"default routes": _differing(by_routes), "enumeration": _differing(by_enumeration)}
    print(f"{len(DIGESTS)} strata; differing from DIGESTS: {differing}")
    sys.exit(any(differing.values()))
