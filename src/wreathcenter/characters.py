"""Characters of the k-block groups, and the shifted symmetric functions they evaluate.

Symmetric group characters follow the Murnaghan-Nakayama rule: border
strips are removed over first-column hook lengths.  The irreducibles of
the k-block group on [kn] are labelled by families of partitions, one
partition per irreducible of S_k, and their values follow the wreath
Murnaghan-Nakayama rule: a cycle of length t and S_k class rho is removed
as a border strip of length t from one partition of the label, weighted by
the strip's sign and the value at rho of that partition's S_k irreducible
(Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., Ch. I
App. B).  The rule runs only in `character_table(k, n)`, which reads what
remains from the tables at (k, m < n), building them first; a single value
at k >= 2 (`wreath_character`, `hyperoct_character` at k = 2) is read from
its table, so it costs that table; at k = 1 it is `sym_character`'s and
builds no table.  Shifted Schur and power-sum values are exact rationals.
The shifted power sum of a class label, on one alphabet per
irreducible of S_k, is a normalized wreath character at a family; sending
each label to its scaled power sum gives an integer at every family, and
is verified to be multiplicative pointwise, for every k.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial, perm
from types import MappingProxyType

from . import center
from . import partitions as pt
from .blockperm import DEFAULT_BUDGET, group_order
from .errors import BudgetExceeded, InvariantViolation, SizeMismatch, exact_quotient
from .families import PartitionFamily, big_z, families_with_size, index_partitions, pad_family
from .partitions import Partition

__all__ = [
    "sym_character",
    "dim_irrep",
    "skew_syt_count",
    "shifted_schur_eval",
    "shifted_power_sum_eval",
    "hyperoct_character",
    "wreath_character",
    "wreath_dim",
    "character_table",
    "has_character_table",
    "linear_classes",
    "packed_rows",
    "verify_iso",
    "bipartitions_of",
    "transport_value",
]

Bipartition = tuple[Partition, Partition]


def contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment, row by row."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def _beta_set(shape: Partition) -> tuple[int, ...]:
    """First-column hook lengths: shape[i] + (rows - 1 - i), all distinct."""
    rows = len(shape)
    return tuple(shape[i] + rows - 1 - i for i in range(rows))


def _shape_from_beta(beta) -> Partition:
    beta = sorted(beta, reverse=True)
    return pt.as_partition(b - (len(beta) - 1 - i) for i, b in enumerate(beta))


@cache
def _border_strips(shape: Partition, t: int) -> tuple[tuple[int, Partition], ...]:
    """Every border strip of length t in `shape`, as (sign, what remains).

    A strip is a beta-number b with b - t free; its height is the number of
    occupied slots jumped over, and its sign is (-1) ** height.
    """
    beta = set(_beta_set(shape))
    strips = []
    for b in _beta_set(shape):
        if b - t < 0 or b - t in beta:
            continue
        height = sum(1 for c in beta if b - t < c < b)
        strips.append(((-1) ** height, _shape_from_beta((beta - {b}) | {b - t})))
    return tuple(strips)


def _require_partitions(*shapes) -> None:
    """Raise ValueError unless every shape is a weakly decreasing tuple of positive parts."""
    if not all(map(pt.is_partition, shapes)):
        raise ValueError(f"not a partition among {shapes}")


@cache
def sym_character(rho: Partition, delta: Partition) -> int:
    """Irreducible character of the symmetric group at a cycle type.

    Both arguments are partitions of the same integer: `rho` labels the
    representation, `delta` the class.  Strips of length delta[0] are
    removed in all possible ways (the Murnaghan-Nakayama rule).  A shape
    or class that is not a partition raises ValueError.
    """
    _require_partitions(rho, delta)
    if sum(rho) != sum(delta):
        raise SizeMismatch(f"|{rho}| != |{delta}|")
    if not delta:
        return 1
    t, rest = delta[0], delta[1:]
    return sum(sign * sym_character(smaller, rest) for sign, smaller in _border_strips(rho, t))


@cache
def dim_irrep(rho: Partition) -> int:
    """Dimension of the irreducible module, by the hook length formula."""
    _require_partitions(rho)
    if not rho:
        return 1
    hooks = 1
    col_heights = [sum(1 for r in rho if r > j) for j in range(rho[0])]
    for i, row in enumerate(rho):
        for j in range(row):
            hooks *= (row - j) + (col_heights[j] - i) - 1
    return exact_quotient(factorial(sum(rho)), hooks, "hook length formula")


@cache
def skew_syt_count(outer: Partition, inner: Partition) -> int:
    """Number of standard fillings of the skew shape outer/inner; 0 if not contained.

    Recursion on where the largest entry sits: it must occupy a removable
    corner of the outer shape that stays outside the inner shape.  A shape
    that is not a partition raises ValueError.
    """
    _require_partitions(outer, inner)
    if not contains(outer, inner):
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


def shifted_schur_eval(rho: Partition, lam: Partition) -> Fraction:
    """Value of the shifted Schur function indexed by rho at the point lam.

    A shape that is not a partition raises ValueError, from skew_syt_count.
    """
    count = skew_syt_count(lam, rho)
    if not count:
        return Fraction(0)
    return Fraction(perm(sum(lam), sum(rho)) * count, dim_irrep(lam))


def shifted_power_sum_eval(delta, lam) -> Fraction:
    """The shifted power sum indexed by delta at lam: two partitions, or two families of one k."""
    label = _as_point(1, delta)
    value = big_z(label) * transport_value(label, _as_point(1, lam))
    return Fraction(value, factorial(label.k) ** label.size)


def bipartitions_of(n: int) -> tuple[Bipartition, ...]:
    """All ordered pairs of partitions with total size n, deterministic order."""
    out = []
    for a in range(n + 1):
        for first in pt.partitions_of(a):
            for second in pt.partitions_of(n - a):
                out.append((first, second))
    return tuple(out)


@cache
def wreath_dim(irrep: PartitionFamily) -> int:
    """Degree of the irreducible character labelled by a family of size n.

    n! * prod over keys tau of dim(tau) ** |irrep(tau)| * dim irrep(tau) / |irrep(tau)|!
    """
    num, den = factorial(irrep.size), 1
    for tau, comp in irrep.items():
        num *= dim_irrep(tau) ** sum(comp) * dim_irrep(comp)
        den *= factorial(sum(comp))
    return exact_quotient(num, den, "induced dimension")


@cache
def _sk_chi(k: int) -> list[list[int]]:
    """sk_chi[s][r]: the S_k irreducible of slot s at the S_k class of slot r.

    The irreducible of the slot at key tau is chi^tau times the sign.
    """
    keys = index_partitions(k)
    return [[(-1) ** (k - len(rho)) * sym_character(tau, rho) for rho in keys] for tau in keys]


def _build_table(k: int, n: int):
    """The table at (k, n) and its linear_classes, by the wreath Murnaghan-Nakayama rule.

    A class less its longest cycle (length t, S_k class of slot r) is a class
    `rest` of size n - t.  chi^lam sums sign * sk_chi[s][r] * chi^lam'(rest)
    over the border strips of length t in each lam[s], lam' being lam less
    the strip, read from the (k, n - t) table, which is built first if needed.
    """
    sk_chi = _sk_chi(k)
    fams = families_with_size(k, n)
    irreps = [irrep.components for irrep in fams]
    columns = {}
    for cls in fams:
        comps = cls.components
        if not n:
            columns[cls] = (1,)
            continue
        t, r = max((comp[0], slot) for slot, comp in enumerate(comps) if comp)
        rest = PartitionFamily._of(k, comps[:r] + (comps[r][1:],) + comps[r + 1 :])
        smaller, where = character_table(k, n - t)[2][rest], _positions(k, n - t)
        chi = [row[r] for row in sk_chi]
        column = []
        for lam in irreps:
            value = 0
            for s, part in enumerate(lam):
                if part and chi[s]:
                    for sign, strip in _border_strips(part, t):
                        value += sign * chi[s] * smaller[where[lam[:s] + (strip,) + lam[s + 1 :]]]
            column.append(value)
        columns[cls] = tuple(column)
    dims = tuple(wreath_dim(irrep) for irrep in fams)
    if columns[PartitionFamily.identity(k, n)] != dims:
        raise InvariantViolation(f"the identity column of the ({k}, {n}) table is not the degrees")
    return _entry(group_order(k, n), columns, dims)


@cache
def _positions(k: int, n: int) -> dict:
    """The components of each irreducible at (k, n), to its position in a table column."""
    return {irrep.components: i for i, irrep in enumerate(families_with_size(k, n))}


def _entry(order, columns, dims):
    """The `_tables` entry of a table: its character_table, linear_classes and packed_rows values.

    `columns` maps each class to its column, in table order, and `dims` are
    the degrees.
    """
    weights = tuple(exact_quotient(order, dim, "|G| / chi(1)") for dim in dims)
    linear = [i for i, dim in enumerate(dims) if dim == 1]
    values, classes = {}, {}
    for fam, column in columns.items():
        key = values[fam] = tuple(column[i] for i in linear)
        classes.setdefault(key, []).append((fam, column))
    classes = {key: tuple(group) for key, group in classes.items()}
    return (
        (order, weights, MappingProxyType(columns)),
        (MappingProxyType(values), MappingProxyType(classes)),
        _packed(order, columns, classes),
    )


def _packed(order, columns, classes):
    """The value of packed_rows, from the columns of a table and its linear_classes groups.

    Each row is written as one string of base-2 digits, most significant
    slot first, with every value raised by half the slot range so that no
    digit string is negative, then read by int(..., 2), which takes time
    linear in its length; the raise is taken off again in one subtraction.
    """
    width = (order * order).bit_length() + 1
    raised = 1 << (width - 1)  # > |G| >= |chi(gamma)|
    ones = int(f"{1:0{width}b}" * len(columns), 2)  # 1 in every slot
    rows = tuple(
        int("".join(f"{value + raised:0{width}b}" for value in reversed(row)), 2) - raised * ones
        for row in zip(*columns.values())
    )
    shift = {fam: width * i for i, fam in enumerate(columns)}
    slots = {key: tuple((fam, shift[fam]) for fam, _ in group) for key, group in classes.items()}
    return width, rows, MappingProxyType(slots)


# (k, n) -> (the character_table value, the linear_classes value, the packed_rows
# value).  The packed rows hold the table's values again: a quarter to a third
# more memory at (1, 7..8), (2, 5..6) and (3, 4), more as the slots widen (47%
# at (3, 5), 62% at (1, 13)).
_tables: dict = {}


def character_table(k: int, n: int):
    """The character table of the k-block group on [kn], for any k.

    Returns (order, weights, columns): the group order; |G| / chi(1) for
    each irreducible character chi; and a read-only mapping from each class
    family of size n, in `families_with_size` order, to the tuple of chi
    values at that class.  Irreducibles are labelled by the families of
    size n too, in the same order: the component at key tau belongs to the
    S_k irreducible chi^tau times the sign, so the key (1^k) carries the
    trivial character (at k = 2, `hyperoct_character`'s first partition).

    A table is built on first use from the smaller tables at k, which are
    built first if needed, and every table is kept for the life of the
    process; `character_table.cache_clear()` drops every kept table, and its
    `linear_classes` and `packed_rows` with it.
    """
    return _table_entry(k, n)[0]


def linear_classes(k: int, n: int):
    """The classes at (k, n) grouped by their values at the degree-1 characters.

    Returns (values, classes): `values` maps each class family to the tuple
    of its values at the irreducibles of degree 1 (2 of them at k = 1 and
    4 at k >= 2, once n >= 2), and `classes` maps each such tuple to the
    (class, column of character_table) pairs that have it, in table
    order.  A degree-1 character lambda has lambda(xy) = lambda(x)
    lambda(y), so a product of classes with values a and b lies wholly in
    the classes with values a * b.  Built from the table's own rows, with it.
    """
    return _table_entry(k, n)[1]


def packed_rows(k: int, n: int):
    """The rows of character_table(k, n), each packed into one integer.

    Returns (width, rows, slots).  rows[i] is the sum over the classes gamma,
    at position p in table order, of chi_i(gamma) * 2 ** (width * p), chi_i
    being the irreducible of position i; width = bitlen(|G| ** 2) + 1.
    `slots` maps each tuple of values at the degree-1 characters, as in
    linear_classes, to the (class, width * p) pairs that have it, in table
    order.  So an integer combination of rows holds the same combination of
    the columns, one class to a slot: exactly, as long as every one of them
    lies in [0, 2 ** width), and then the one at gamma is
    (total >> width * p) & (2 ** width - 1).  Built with the table, in time
    linear in each row, and dropped with it.
    """
    return _table_entry(k, n)[2]


def _table_entry(k, n):
    entry = _tables.get((k, n))
    if entry is None:
        if n < 0:
            raise SizeMismatch(f"no character table at size {n}")
        entry = _tables[k, n] = _build_table(k, n)
    return entry


character_table.cache_clear = _tables.clear


def has_character_table(k: int, n: int) -> bool:
    """True when character_table(k, n) is built, so reading it costs no build."""
    return (k, n) in _tables


def wreath_character(irrep: PartitionFamily, cls: PartitionFamily) -> int:
    """Value of the irreducible labelled `irrep` at the class `cls`.

    Both are families of the same k and size n, labelled as in
    character_table.  At k = 1 the value is `sym_character`'s, a recursion
    kept per value.  Otherwise it is read from character_table(k, n), so
    the first value at (k, n) builds that table and every smaller one at k.
    """
    if (irrep.k, irrep.size) != (cls.k, cls.size):
        raise SizeMismatch("character label and class label must have the same k and size")
    if cls.k == 1:
        return sym_character(irrep.components[0], cls.components[0])
    return character_table(cls.k, cls.size)[2][cls][_positions(cls.k, cls.size)[irrep.components]]


@cache
def hyperoct_character(rho: Bipartition, delta: Bipartition) -> int:
    """Irreducible character of the signed-pair group at a two-part class label.

    The k = 2 case of wreath_character with both labels given as pairs of
    partitions: rho is (trivial-character partition, sign-character
    partition), and delta is (positive cycles, negative cycles).
    """
    return wreath_character(_as_point(2, rho), _as_point(2, delta))


def shifted_power_sum_eval2_branching(delta: Bipartition, rho: Bipartition) -> Fraction:
    """shifted_power_sum_eval at the k = 2 families of delta and rho, by branching.

    Kept as an independent route: the padded character is expanded over
    all pairs of total size |delta| with binomial and skew-count weights.
    """
    r = sum(delta[0]) + sum(delta[1])
    n = sum(rho[0]) + sum(rho[1])
    if r > n:
        return Fraction(0)
    rho1, rho2 = rho
    char_sum = 0
    for nu in bipartitions_of(r):
        gap = sum(rho1) - sum(nu[0])
        weight = comb(n - r, gap) if 0 <= gap <= n - r else 0
        if weight == 0:
            continue
        char_sum += (
            hyperoct_character(nu, delta)
            * weight
            * skew_syt_count(rho1, nu[0])
            * skew_syt_count(rho2, nu[1])
        )
    return Fraction(perm(n, r) * char_sum, wreath_dim(_as_point(2, rho)))


def _as_point(k: int, point) -> PartitionFamily:
    """A family, from itself, its components in index order, or a bare partition at k = 1."""
    if isinstance(point, PartitionFamily):
        return point
    if all(isinstance(part, int) for part in point):
        point = (point,)
    return PartitionFamily.from_components(k, point)


def transport_value(fam: PartitionFamily, point) -> int:
    """Image of a class label under the transport map at a point: an integer.

    The label goes to (k!)^r / big_z(fam) times its shifted power sum, which at a point
    of size n is n_(r) chi^point(pad(fam, n)) / dim point, or 0 if r > n (r = |fam|).
    The value is the scalar by which the orbit sum of the label acts on the irreducible
    `point`, so a remainder raises InvariantViolation.  The point is a family of the
    label's k (another k raises SizeMismatch), or its components: a pair of partitions
    at k = 2, a bare partition at k = 1.
    """
    point = _as_point(fam.k, point)
    if point.k != fam.k:
        raise SizeMismatch(f"a k={point.k} point for a k={fam.k} label")
    z, n, r = big_z(fam), point.size, fam.size
    if r > n:
        return 0
    return exact_quotient(
        factorial(fam.k) ** r * perm(n, r) * wreath_character(point, pad_family(fam, n)),
        z * wreath_dim(point),
        fam,
    )


def default_eval_points(k: int, bound: int) -> list[PartitionFamily]:
    """Every family of size at most bound: the irreducibles of the groups up to [k * bound]."""
    return [point for m in range(bound + 1) for point in families_with_size(k, m)]


def verify_iso(
    k: int,
    left: PartitionFamily,
    right: PartitionFamily,
    eval_points=None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Check multiplicativity of the transport map on one product, pointwise.

    The product of the two labels is expanded by enumeration, never by the
    character route of multiply_universal, which would make the check hold
    by construction at every point of size up to |left| + |right|; at every
    evaluation point the product of the transported inputs must equal the
    transported expansion.  All arithmetic is exact.  The budget bounds
    the product and, before any is made, the transport evaluations: one per
    expansion term and one per input at every point.
    """
    if left.k != k or right.k != k:
        raise SizeMismatch("family k does not match the requested k")
    if eval_points is None:
        eval_points = default_eval_points(k, left.size + right.size + 2)
    points = [_as_point(k, point) for point in eval_points]
    expansion = center._by_enumeration(left, right, None, budget, False)
    needed = len(points) * (len(expansion.terms) + 2)
    if needed > budget:
        raise BudgetExceeded(needed, budget, "transport evaluations")
    for point in points:
        lhs = transport_value(left, point) * transport_value(right, point)
        rhs = sum(coeff * transport_value(fam, point) for fam, coeff in expansion.items())
        if lhs != rhs:
            return False
    return True
