from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, perm, prod
from operator import mul

import pytest

from wreathcenter import blockperm as bp
from wreathcenter import center as ct
from wreathcenter import characters as ch
from wreathcenter import kpartial as kp
from wreathcenter import partitions as pt
from wreathcenter.errors import DEFAULT_BUDGET, BudgetExceeded, InvariantViolation, SizeMismatch
from wreathcenter.families import (
    PartitionFamily,
    big_z,
    families_with_size,
    group_order,
    parse_family,
    partial_class_size,
)


def fam(k, *components):
    return PartitionFamily.from_components(k, components)


def all_partitions_upto(bound):
    return [lam for m in range(bound + 1) for lam in pt.partitions_of(m)]


def test_character_at_identity_is_dimension():
    for n in range(1, 7):
        for rho in pt.partitions_of(n):
            assert ch.sym_character(rho, (1,) * n) == ch.dim_irrep(rho)


def test_trivial_representation_row():
    for n in range(1, 7):
        for delta in pt.partitions_of(n):
            assert ch.sym_character((n,), delta) == 1


def test_known_s4_values():
    assert ch.sym_character((2, 1), (3,)) == -1
    assert ch.sym_character((2, 2), (2, 1, 1)) == 0
    assert ch.sym_character((2, 2), (2, 2)) == 2
    assert ch.sym_character((1, 1, 1, 1), (2, 2)) == 1
    assert ch.sym_character((3, 1), (4,)) == -1


def test_character_size_mismatch():
    with pytest.raises(SizeMismatch):
        ch.sym_character((2,), (3,))


def test_shapes_that_are_not_partitions_are_refused():
    # unsorted or zero parts: unchecked, the first two read as wrong values
    # (the sorted ones give chi^(2,1)(3) = -1 and chi^(3,1)(1^4) = 3), and
    # dim_irrep fails on an index
    calls = [
        (ch.sym_character, (2, 1), (3, 0)),
        (ch.sym_character, (1, 3), (1, 1, 1, 1)),
        (ch.dim_irrep, (1, 2)),
    ]
    for function, *args in calls:
        with pytest.raises(ValueError, match="not a partition"):
            function(*args)


def test_row_orthogonality():
    # sum over classes of chi(rho) chi(sigma) / z equals [rho == sigma]
    for n in range(1, 7):
        for rho in pt.partitions_of(n):
            for sigma in pt.partitions_of(n):
                total = sum(
                    Fraction(
                        ch.sym_character(rho, delta) * ch.sym_character(sigma, delta),
                        pt.z_of(delta),
                    )
                    for delta in pt.partitions_of(n)
                )
                assert total == (1 if rho == sigma else 0)


def test_dim_irrep():
    for n in range(1, 7):
        assert ch.dim_irrep((n,)) == 1
        assert ch.dim_irrep((1,) * n) == 1
    assert ch.dim_irrep((2, 1)) == 2
    assert ch.dim_irrep((3, 2)) == 5
    assert sum(ch.dim_irrep(r) ** 2 for r in pt.partitions_of(5)) == 120


@cache
def skew_syt_count(outer, inner):
    """Number of standard fillings of the skew shape outer/inner; 0 if not contained.

    An oracle at k = 1 for the branching and shifted Frobenius tests below:
    the largest entry sits in a removable corner of the outer shape that
    stays outside the inner shape.
    """
    if len(inner) > len(outer) or any(i > o for i, o in zip(inner, outer)):
        return 0
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, row in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if row > below and (i >= len(inner) or row - 1 >= inner[i]):
            smaller = list(outer)
            smaller[i] -= 1
            total += skew_syt_count(pt.as_partition(smaller), inner)
    return total


def shifted_schur_eval(rho, lam):
    """Value of the shifted Schur function indexed by rho at the point lam."""
    return Fraction(perm(sum(lam), sum(rho)) * skew_syt_count(lam, rho), ch.dim_irrep(lam))


def test_skew_syt_count():
    for lam in [(3, 1), (2, 2, 1), ()]:
        assert skew_syt_count(lam, lam) == 1
        assert skew_syt_count(lam, ()) == ch.dim_irrep(lam)
    assert skew_syt_count((2, 2), (3,)) == 0
    assert skew_syt_count((2, 1), (1,)) == 2


def test_branching_rule():
    for n in range(1, 7):
        for lam in pt.partitions_of(n):
            for m in range(n + 1):
                for rho in pt.partitions_of(m):
                    lhs = ch.sym_character(lam, pt.union(rho, (1,) * (n - m)))
                    rhs = sum(
                        skew_syt_count(lam, nu) * ch.sym_character(nu, rho)
                        for nu in pt.partitions_of(m)
                    )
                    assert lhs == rhs


def test_shifted_schur_values():
    for rho in [(2,), (2, 1), (3,)]:
        expected = Fraction(factorial(sum(rho)), ch.dim_irrep(rho))
        assert shifted_schur_eval(rho, rho) == expected
    assert shifted_schur_eval((3,), (2, 2)) == 0
    for lam in all_partitions_upto(5):
        assert shifted_schur_eval((1,), lam) == sum(lam)


def test_shifted_power_sum_values():
    for lam in all_partitions_upto(5):
        assert ch.shifted_power_sum_eval((1,), lam) == sum(lam)
    assert ch.shifted_power_sum_eval((3, 2), (2, 1)) == 0


def test_shifted_frobenius_consistency():
    for dsize in range(5):
        for delta in pt.partitions_of(dsize):
            for lam in all_partitions_upto(6):
                lhs = ch.shifted_power_sum_eval(delta, lam)
                rhs = sum(
                    (
                        ch.sym_character(rho, delta) * shifted_schur_eval(rho, lam)
                        for rho in pt.partitions_of(dsize)
                    ),
                    Fraction(0),
                )
                assert lhs == rhs


def test_signed_character_example_values():
    point = ((1,), (1,))
    assert ch.hyperoct_character(((2,), ()), point) == 1
    assert ch.hyperoct_character(((1,), (1,)), point) == 0
    assert ch.hyperoct_character(((), (2,)), point) == -1
    assert ch.hyperoct_character(((1, 1), ()), point) == 1
    assert ch.hyperoct_character(((), (1, 1)), point) == -1


def test_signed_character_identity_column_and_orthogonality():
    for n in range(1, 4):
        identity = ((1,) * n, ())
        for rho in ch.bipartitions_of(n):
            assert ch.hyperoct_character(rho, identity) == ch.wreath_dim(fam(2, *rho))
        # column orthogonality against the centralizer order of each class
        for delta in ch.bipartitions_of(n):
            for eps in ch.bipartitions_of(n):
                total = sum(
                    ch.hyperoct_character(rho, delta) * ch.hyperoct_character(rho, eps)
                    for rho in ch.bipartitions_of(n)
                )
                expected = big_z(fam(2, *delta)) if delta == eps else 0
                assert total == expected


def sign_vector_character(rho, delta):
    """The signed-pair character as a sum over sign vectors on the cycles.

    Positive cycles feed the first symmetric group character, negative ones
    the second, and each negative cycle of the second class component flips
    the sign of the summand.
    """
    (rho1, rho2), (delta1, delta2) = rho, delta
    total = 0
    for u in product((1, -1), repeat=len(delta1)):
        for v in product((1, -1), repeat=len(delta2)):
            alpha = [p for p, s in zip(delta1 + delta2, u + v) if s == 1]
            beta = [p for p, s in zip(delta1 + delta2, u + v) if s == -1]
            if sum(alpha) != sum(rho1) or sum(beta) != sum(rho2):
                continue
            total += (
                (-1) ** v.count(-1)
                * ch.sym_character(rho1, pt.as_partition(alpha))
                * ch.sym_character(rho2, pt.as_partition(beta))
            )
    return total


def test_signed_character_matches_sign_vector_sum():
    for n in range(7):
        labels = ch.bipartitions_of(n)
        for rho in labels:
            for delta in labels:
                assert ch.hyperoct_character(rho, delta) == sign_vector_character(rho, delta)


def test_character_table_layout():
    for k, n in [(1, 4), (2, 3), (3, 2)]:
        order, weights, columns = ch.character_table(k, n)
        assert order == factorial(k) ** n * factorial(n)
        identity = PartitionFamily.identity(k, n)
        # the identity column holds the degrees, and order / degree is the weight
        assert [order // d for d in columns[identity]] == list(weights)
        # column orthogonality: sum of chi(delta)^2 is the centralizer order
        for delta, column in columns.items():
            assert sum(v * v for v in column) == big_z(delta)


def _sign(mu):
    return (-1) ** (sum(mu) - len(mu))


def test_linear_classes():
    # the degree-1 characters: 1 of S_1, 2 of S_k at n = 1 or k = 1, and 4
    # once k, n >= 2; the grouping holds every column once, in table order
    for k, n, linear in [(1, 1, 1), (1, 5, 2), (2, 1, 2), (2, 3, 4), (3, 3, 4)]:
        order, weights, columns = ch.character_table(k, n)
        _, values, _, _, groups = ch._table_entry(k, n)[1]
        assert values[PartitionFamily.identity(k, n)] == (1,) * linear
        assert all(len(v) == linear and set(v) <= {1, -1} for v in values.values())
        # the values are the columns at the irreducibles of degree 1
        degree_one = [i for i, weight in enumerate(weights) if weight == order]
        assert all(values[fam] == tuple(column[i] for i in degree_one) for fam, column in columns.items())
        grouped = [fam for group, _ in groups.values() for fam in group]
        assert sorted(grouped, key=list(columns).index) == list(columns)
        assert all(values[fam] == key for key, (group, _) in groups.items() for fam in group)
    # dropped with the table, and built with it
    ch.character_table.cache_clear()
    assert not ch.has_character_table(3, 3)
    assert ch._table_entry(3, 3)[1][1] == values and ch.has_character_table(3, 3)


def test_degree_one_values_are_the_closed_form_signs():
    # with sgn(mu) = (-1) ** (|mu| - l(mu)), the class {rho: lam_rho} has base
    # sign prod sgn(rho) ** l(lam_rho) and top sign prod sgn(lam_rho); those,
    # their product and 1, as rows over the classes, are the table's degree-1
    # rows, which group the classes and fold the Frobenius sum
    for k, top in [(1, 8), (2, 5), (3, 4)]:
        for n in range(top + 1):
            _, values, _, _, _ = ch._table_entry(k, n)[1]
            classes = list(ch.character_table(k, n)[2])
            base = [prod(_sign(rho) ** len(lam) for rho, lam in c.items()) for c in classes]
            top_sign = [prod(_sign(lam) for _, lam in c.items()) for c in classes]
            closed = {(1,) * len(classes), tuple(base), tuple(top_sign), tuple(map(mul, base, top_sign))}
            linear = len(values[classes[0]])
            table = {tuple(values[c][i] for c in classes) for i in range(linear)}
            assert len(closed) == linear and table == closed, (k, n)


def _twist_orbits(k, n):
    """Each irreducible's position to the positions of its twists by the degree-1 characters."""
    order, weights, columns = ch.character_table(k, n)
    chars = list(zip(*columns.values()))
    linear = [chars[i] for i, weight in enumerate(weights) if weight == order]
    return {i: frozenset(chars.index(tuple(map(mul, chi, eps))) for eps in linear) for i, chi in enumerate(chars)}


def test_one_representative_per_twist_orbit():
    # the representative is the first of its orbit in table order, its
    # weight is |orbit| |G| / chi(1), and the orbits split the irreducibles;
    # at n >= 2 some orbit has fewer members than there are degree-1
    # characters, since some irreducible is its own twist
    for k, n in [(1, 0), (1, 6), (1, 8), (2, 3), (2, 5), (3, 4), (4, 2)]:
        order, weights, columns = ch.character_table(k, n)
        _, _, folded_weights, folded, _ = ch._table_entry(k, n)[1]
        orbits = _twist_orbits(k, n)
        assert all(orbits[j] == orbit for orbit in orbits.values() for j in orbit)
        reps = sorted(min(orbit) for orbit in set(orbits.values()))
        assert sum(len(orbits[i]) for i in reps) == len(weights)
        assert all(folded[fam] == tuple(column[i] for i in reps) for fam, column in columns.items())
        dims = columns[PartitionFamily.identity(k, n)]
        assert folded_weights == tuple(len(orbits[i]) * order // dims[i] for i in reps)
        assert len(reps) < len(weights) or n < 2
        linear = sum(1 for weight in weights if weight == order)
        assert min(map(len, orbits.values())) < linear or n < 2


def test_wrong_value_of_a_twist_is_refused_at_build():
    # a value changed in one irreducible that is no representative: the twist
    # of its representative onto it is no longer a row
    for k, n in [(1, 6), (2, 3), (3, 3), (4, 2)]:
        order, weights, columns = ch.character_table(k, n)
        dims = columns[PartitionFamily.identity(k, n)]
        ch._entry(order, dict(columns), dims)
        orbits = _twist_orbits(k, n)
        others = [i for i, orbit in orbits.items() if i != min(orbit)]
        assert others
        for i in others:
            for cls, column in columns.items():
                wrong = list(column)
                wrong[i] += 1
                with pytest.raises(InvariantViolation):
                    ch._entry(order, {**columns, cls: tuple(wrong)}, dims)


def test_packed_rows():
    # each representative's row is packed over each group of classes with
    # the same degree-1 values, one slot of bitlen(|G| ** 2) + 1 bits per
    # class in the group's order
    for k, n in [(1, 0), (1, 6), (2, 3), (3, 3)]:
        order, _, columns = ch.character_table(k, n)
        width, values, weights, folded, groups = ch._table_entry(k, n)[1]
        assert width == (order * order).bit_length() + 1
        half, mask = 1 << (width - 1), (1 << width) - 1
        assert groups.keys() == set(values.values())
        for key, (group, rows) in groups.items():
            assert group == tuple(fam for fam in columns if values[fam] == key)
            assert len(rows) == len(weights)
            for row, expected in zip(rows, zip(*(folded[g] for g in group))):
                unpacked = []
                for _ in group:
                    value = (row & mask) - ((row & half) << 1)
                    unpacked.append(value)
                    row = (row - value) >> width
                assert row == 0 and tuple(unpacked) == expected
    # dropped with the table, and built again with it
    ch.character_table.cache_clear()
    assert not ch.has_character_table(3, 3)
    rebuilt = ch._table_entry(3, 3)[1]
    assert ch.has_character_table(3, 3)
    assert rebuilt == (width, values, weights, folded, groups) and rebuilt[4] is not groups


def test_general_character_table():
    for k, sizes in [(3, range(5)), (4, range(4))]:
        for n in sizes:
            order, weights, columns = ch.character_table(k, n)
            assert order == factorial(k) ** n * factorial(n)
            irreps = families_with_size(k, n)
            degrees = [ch.wreath_dim(irrep) for irrep in irreps]
            assert sum(d * d for d in degrees) == order
            assert list(columns[PartitionFamily.identity(k, n)]) == degrees
            assert [order // d for d in degrees] == list(weights)
            # column orthogonality: sum over chi of chi(gamma) chi(delta) is
            # the centralizer order at gamma = delta, and 0 off it
            for gamma, left in columns.items():
                for delta, right in columns.items():
                    expected = big_z(delta) if gamma == delta else 0
                    assert sum(map(mul, left, right)) == expected
            # row orthogonality: sum over classes of |C| chi(delta) psi(delta)
            # is |G| at chi = psi, and 0 off it
            sizes = [order // big_z(delta) for delta in columns]
            rows = list(zip(*columns.values()))
            for i, chi in enumerate(rows):
                for j, psi in enumerate(rows):
                    assert sum(map(mul, sizes, map(mul, chi, psi))) == (order if i == j else 0)


def test_general_character_table_labels():
    # the linear characters pin the labels: key (1^k) carries the trivial
    # character of S_k and key (k) its sign
    for k, n in [(2, 3), (3, 3), (4, 2)]:
        ones, top = (1,) * k, (k,)
        for delta in families_with_size(k, n):
            parts = [(rho, m) for rho, comp in delta.items() for m in comp]
            block_sign = prod((-1) ** (m - 1) for _, m in parts)
            base_sign = prod((-1) ** (k - len(rho)) for rho, _ in parts)
            assert ch.wreath_character(PartitionFamily(k, {ones: (n,)}), delta) == 1
            assert ch.wreath_character(PartitionFamily(k, {ones: (1,) * n}), delta) == block_sign
            assert ch.wreath_character(PartitionFamily(k, {top: (n,)}), delta) == base_sign
            assert ch.wreath_character(PartitionFamily(k, {top: (1,) * n}), delta) == (
                block_sign * base_sign
            )
    # at k = 1 every value is the symmetric group character
    for n in range(9):
        for delta in families_with_size(1, n):
            for lam in families_with_size(1, n):
                assert ch.wreath_character(lam, delta) == ch.sym_character(
                    lam.components[0], delta.components[0]
                )
    with pytest.raises(SizeMismatch):
        ch.wreath_character(fam(3, (1,), (), ()), fam(3, (1, 1), (), ()))


def test_k1_character_table_is_the_symmetric_group_table():
    # wreath_character at k = 1 is sym_character, so the table built by the
    # wreath rule is checked against it column by column
    for n in range(9):
        irreps = families_with_size(1, n)
        for delta, column in ch.character_table(1, n)[2].items():
            assert column == tuple(
                ch.sym_character(lam.components[0], delta.components[0]) for lam in irreps
            )


def test_single_k1_value_builds_no_table():
    built = {n for n in range(21) if ch.has_character_table(1, n)}
    assert ch.shifted_power_sum_eval((3, 2), (8, 5, 4, 2, 1)) == -2304
    assert not ch.has_character_table(1, 20)
    assert {n for n in range(21) if ch.has_character_table(1, n)} == built


def test_hyperoct_dim():
    assert ch.wreath_dim(fam(2, (3,), ())) == 1
    assert ch.wreath_dim(fam(2, (1,), (1,))) == 2
    for n in range(5):
        total = sum(ch.wreath_dim(fam(2, *rho)) ** 2 for rho in ch.bipartitions_of(n))
        assert total == 2 ** n * factorial(n)


def shifted_power_sum_eval2_branching(delta, rho):
    """shifted_power_sum_eval at the k = 2 families of the pairs delta and rho, by branching.

    An independent route for the test below: the padded character is
    expanded over all pairs of total size |delta| with binomial and
    skew-count weights.
    """
    r = sum(delta[0]) + sum(delta[1])
    n = sum(rho[0]) + sum(rho[1])
    if r > n:
        return Fraction(0)
    rho1, rho2 = rho
    char_sum = 0
    for nu in ch.bipartitions_of(r):
        gap = sum(rho1) - sum(nu[0])
        weight = comb(n - r, gap) if 0 <= gap <= n - r else 0
        if weight == 0:
            continue
        char_sum += (
            ch.hyperoct_character(nu, delta)
            * weight
            * skew_syt_count(rho1, nu[0])
            * skew_syt_count(rho2, nu[1])
        )
    return Fraction(perm(n, r) * char_sum, ch.wreath_dim(fam(2, *rho)))


def test_two_alphabet_power_sum():
    assert ch.shifted_power_sum_eval(fam(2, (2,), (1,)), fam(2, (1,), (1,))) == 0
    for rho in ch.bipartitions_of(3):
        n = sum(rho[0]) + sum(rho[1])
        assert ch.shifted_power_sum_eval(fam(2, (1,), ()), fam(2, *rho)) == n
    for dsize in range(3):
        for delta in ch.bipartitions_of(dsize):
            for nsize in range(5):
                for rho in ch.bipartitions_of(nsize):
                    direct = ch.shifted_power_sum_eval(fam(2, *delta), fam(2, *rho))
                    branched = shifted_power_sum_eval2_branching(delta, rho)
                    assert direct == branched


def test_transport_scale():
    # the k=1 scale is 1/z, the k=2 scale is 2^size/big_z
    lam = fam(1, (2,))
    point = (3, 1)
    assert ch.transport_value(lam, point) == Fraction(1, 2) * ch.shifted_power_sum_eval(
        (2,), point
    )
    two = fam(2, (), (2,))
    bipoint = ((2,), (1,))
    assert ch.transport_value(two, bipoint) == Fraction(4, big_z(two)) * (
        ch.shifted_power_sum_eval(fam(2, (), (2,)), fam(2, *bipoint))
    )


def padded(delta, n):
    """A partition, or the first partition of a pair, grown to total size n by 1-parts."""
    if delta and isinstance(delta[0], tuple):
        return (padded(delta[0], n - sum(delta[1])), delta[1])
    return delta + (1,) * (n - sum(delta))


def test_transport_matches_closed_forms():
    # the k = 1 and k = 2 closed forms, written out independently of the
    # family formula: 1/z * n_(r) * chi(pad) / dim, and 2^r / big_z times
    # the same ratio over the sign-vector character
    for delta in all_partitions_upto(4):
        r = sum(delta)
        for lam in all_partitions_upto(6):
            n = sum(lam)
            expected = 0
            if r <= n:
                expected = Fraction(
                    perm(n, r) * ch.sym_character(lam, padded(delta, n)),
                    pt.z_of(delta) * ch.dim_irrep(lam),
                )
            assert ch.transport_value(fam(1, delta), lam) == expected
    points = [rho for m in range(7) for rho in ch.bipartitions_of(m)]
    for delta in (pair for m in range(5) for pair in ch.bipartitions_of(m)):
        label, r = fam(2, *delta), sum(map(sum, delta))
        for rho in points:
            n = sum(map(sum, rho))
            expected = 0
            if r <= n:
                expected = Fraction(
                    2**r * perm(n, r) * sign_vector_character(rho, padded(delta, n)),
                    big_z(label) * ch.wreath_dim(fam(2, *rho)),
                )
            assert ch.transport_value(label, rho) == expected


def rank(rows):
    """Rank of a matrix over the rationals, by Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for i in range(done + 1, len(rows)):
            factor = rows[i][col] / rows[done][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[done])]
        done += 1
    return done


def test_transport_is_injective():
    # labels of size <= N against points of size <= N: labels larger than a
    # point vanish there, and labels of a point's size give its character
    # values up to nonzero scales, so the matrix has full rank
    for k, bound in ((1, 5), (2, 3), (3, 2)):
        fams = ch.default_eval_points(k, bound)
        matrix = [[ch.transport_value(label, point) for point in fams] for label in fams]
        assert all(type(value) is int for row in matrix for value in row)
        assert rank(matrix) == len(fams)


def test_transport_remainder_is_caught(monkeypatch):
    # one wrong character value leaves (k!)^r n_(r) chi / (big_z dim) fractional
    real = ch.wreath_character
    monkeypatch.setattr(ch, "wreath_character", lambda irrep, cls: real(irrep, cls) + 1)
    with pytest.raises(InvariantViolation):
        ch.transport_value(fam(1, (2,)), (2, 1))


def test_verify_iso_budget_bounds_transport_evaluations(monkeypatch):
    left = right = fam(3, (), (1,), ())
    points = ch.default_eval_points(3, 2)
    terms = ct.multiply_universal(left, right).terms
    needed = len(points) * (len(terms) + 2)
    evaluated = Counter()
    real = ch.transport_value

    def counting(label, point):
        evaluated[label] += 1
        return real(label, point)

    monkeypatch.setattr(ch, "transport_value", counting)
    with pytest.raises(BudgetExceeded) as info:
        ch.verify_iso(3, left, right, budget=needed - 1)
    assert (info.value.needed, info.value.what) == (needed, "transport evaluations")
    assert not evaluated
    assert ch.verify_iso(3, left, right, budget=needed)
    assert sum(evaluated.values()) == needed


def test_verify_iso_refuses_a_unit_moved_onto_any_label_of_size_at_most_n(monkeypatch):
    # the default points, of size <= N = |L| + |R|, decide the identity: for
    # every pair of nonempty inputs, an expansion with one unit moved from its
    # first label in sorted order onto any other label of size <= N is
    # refused.  Some first labels have size N, so points of size < N, at
    # which every label of size N vanishes, would pass some of these moves
    enumerate_product, moved = ct._by_enumeration, {}
    monkeypatch.setattr(ct, "_by_enumeration", lambda left, right, n, budget: moved["vector"])
    for k, total in ((1, 5), (2, 3), (3, 3)):
        labels = ch.default_eval_points(k, total)
        for size in range(1, total):
            for left in families_with_size(k, size):
                for right in families_with_size(k, total - size):
                    expansion = enumerate_product(left, right, None, DEFAULT_BUDGET)
                    terms, first = expansion.terms, expansion.items_sorted()[0][0]
                    for other in labels:
                        if other is first:
                            continue
                        wrong = dict(terms)
                        wrong[first] -= 1
                        wrong[other] = wrong.get(other, 0) + 1
                        moved["vector"] = ct.ClassSumVector(k, wrong)
                        assert not ch.verify_iso(k, left, right), (left, right, other)


def test_verify_iso_basic():
    assert ch.verify_iso(1, fam(1, (2,)), fam(1, (2,)))
    assert ch.verify_iso(2, fam(2, (1,), ()), fam(2, (1,), (1,)))
    assert ch.verify_iso(3, fam(3, (), (), (1,)), fam(3, (), (), (1,)))


def test_verify_iso_computes_each_big_z_once(monkeypatch):
    transported = Counter()
    real = ch.transport_value

    def counting(fam, point):
        transported[fam] += 1
        return real(fam, point)

    monkeypatch.setattr(ch, "transport_value", counting)
    left = parse_family("{[1,1]:[1]; [2]:[1]}", 2)
    right = parse_family("{[2]:[1]}", 2)
    big_z.cache_clear()
    assert ch.verify_iso(2, left, right)
    info = big_z.cache_info()
    # the product touches only the labels it transports, and every label's
    # big_z is computed on its first use and read from the memo afterwards
    assert len(transported) == 5
    assert info.misses == info.currsize == len(transported)
    assert info.hits >= sum(transported.values()) - len(transported)


def test_verify_iso_expands_by_enumeration(monkeypatch):
    # an expansion read off the characters would agree with the transport
    # map by construction, so verify_iso must not take that route
    lam = fam(1, (2,))
    for n in (2, 3, 4):
        ch.character_table(1, n)

    def refuse(*args):
        raise AssertionError("character route taken")

    monkeypatch.setattr(ct, "_universal_by_characters", refuse)
    with pytest.raises(AssertionError):
        ct.multiply_universal(lam, lam)
    assert ch.verify_iso(1, lam, lam)


def test_verify_iso_all_proper_pairs():
    from wreathcenter.families import families_with_size

    for k, bound in ((1, 4), (2, 4), (3, 3)):
        fams = [
            f for s in range(bound + 1) for f in families_with_size(k, s, proper_only=True)
        ]
        for left in fams:
            for right in fams:
                if left.size + right.size <= bound:
                    assert ch.verify_iso(k, left, right)


def test_transported_power_sum_identities_k1():
    # coefficient vectors obtained by transporting the verified universal
    # products through the 1/z scaling
    p = ch.shifted_power_sum_eval
    for lam in all_partitions_upto(6):
        assert p((2,), lam) ** 2 == 2 * p((1, 1), lam) + 4 * p((3,), lam) + p((2, 2), lam)
        assert p((2,), lam) * p((3,), lam) == 6 * p((2, 1), lam) + 6 * p((4,), lam) + p(
            (3, 2), lam
        )


def test_transported_power_sum_identities_k2():
    def p(delta, rho):
        return ch.shifted_power_sum_eval(fam(2, *delta), fam(2, *rho))

    points = [b for m in range(6) for b in ch.bipartitions_of(m)]
    for rho in points:
        lhs = p(((), (2,)), rho) ** 2
        rhs = (
            p(((1, 1), ()), rho)
            + p(((), (1, 1)), rho)
            + p(((), (2, 2)), rho)
            + 4 * p(((3,), ()), rho)
        )
        assert lhs == rhs
        lhs2 = p(((1,), ()), rho) * p(((1,), (1,)), rho)
        rhs2 = 2 * p(((1,), (1,)), rho) + p(((1, 1), (1,)), rho)
        assert lhs2 == rhs2


def test_points_of_another_k_are_refused():
    # a smaller point of another k used to fall into the r > n branch and give 0
    two = fam(1, (2,))
    with pytest.raises(SizeMismatch):
        ch.transport_value(two, fam(2, (), (1,)))
    with pytest.raises(SizeMismatch):
        ch.verify_iso(1, two, two, eval_points=[fam(2, (), (1,)), fam(2, (1,), ())])
    with pytest.raises(SizeMismatch):
        ch.shifted_power_sum_eval(fam(2, (2,), (1,)), (1,))


def test_negative_sizes_are_refused():
    universal = ct.multiply_universal(fam(1, (2,)), fam(1, (2,)))
    with pytest.raises(SizeMismatch):
        ct.project(universal, -2)
    with pytest.raises(SizeMismatch):
        ct.ClassSumVector(1, {}, n=-1)
    with pytest.raises(SizeMismatch):
        ch.character_table(3, -1)
    assert not ch.has_character_table(3, -1)
    assert not ch.has_character_table(1, -3)
    # every function handed a group's (k, n) refuses a negative size the same way
    refused = [
        lambda: families_with_size(1, -1),
        lambda: group_order(1, -1),
        lambda: list(bp.enumerate_group(1, -1)),
        lambda: kp.count_all(1, -2),
        lambda: list(kp.enumerate_kpartial(1, -1)),
        lambda: bp.BlockPermutation.identity(1, -1),
        lambda: partial_class_size(PartitionFamily.empty(1), -1),
    ]
    for call in refused:
        with pytest.raises(SizeMismatch):
            call()
    # and a block size below 1 with ValueError
    with pytest.raises(ValueError, match="k must be a positive integer"):
        group_order(0, 2)
    with pytest.raises(ValueError, match="k must be a positive integer"):
        ct.ClassSumVector(0, {}, n=1)
    # a universal vector too, which has no size to check
    with pytest.raises(ValueError, match="k must be a positive integer"):
        ct.ClassSumVector(0, {})


def test_wrong_degree_fails_the_identity_column_check(monkeypatch):
    # one degree too many at one irreducible of size 2: the identity column,
    # built by the Murnaghan-Nakayama rule, no longer equals the degrees
    real = ch.wreath_dim
    wrong = fam(2, (1,), (1,))
    monkeypatch.setattr(ch, "wreath_dim", lambda irrep: real(irrep) + (irrep == wrong))
    ch.character_table.cache_clear()
    try:
        with pytest.raises(InvariantViolation):
            ch.character_table(2, 2)
        assert not ch.has_character_table(2, 2)
    finally:
        ch.character_table.cache_clear()


def test_swapped_degrees_fail_the_identity_column_check(monkeypatch):
    # the degrees 3 and 2 of (3,1) and (2,2) at (1, 4) swapped: every
    # |G| / chi(1) is still exact and the degree-1 characters are still the
    # same rows, so only the identity column, built by the Murnaghan-Nakayama
    # rule, tells the degrees wrong
    real = ch.wreath_dim
    swap = {fam(1, (3, 1)): fam(1, (2, 2)), fam(1, (2, 2)): fam(1, (3, 1))}
    monkeypatch.setattr(ch, "wreath_dim", lambda irrep: real(swap.get(irrep, irrep)))
    ch.character_table.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="is not the degrees"):
            ch.character_table(1, 4)
        assert not ch.has_character_table(1, 4)
    finally:
        ch.character_table.cache_clear()
