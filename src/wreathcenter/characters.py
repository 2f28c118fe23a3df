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
builds no table.  The packed rows kept with each table are read by two
readers of one Frobenius sum (`_frobenius_sum`), which give a group's
class-multiplication coefficients as flat terms in one loop over the
slots: `level_terms` for a universal level, scaled by its pad factor and
less the labels already found, and `group_terms` for a group product,
mass-checked in the loop that reads them; `class_product` is the first
reader's dict, with no scale and nothing subtracted.  Twisting an
irreducible by a degree-1 character leaves its term in that sum
unchanged, so the rows are kept, and summed, for one irreducible per
orbit of twists; a table whose twists are not among its rows is refused
when it is built.  Shifted power-sum values are exact
rationals; only `shifted_power_sum_eval` imports `fractions`, so a process
that does not call it does not load it.  Only `verify_iso` imports
`center`, for its product, so a process that builds tables and reads
characters loads no product code.  The shifted power sum of a class label,
on one alphabet per irreducible of S_k, is a normalized wreath character at
a family; sending each label to its scaled power sum gives an integer at
every family, and is verified to be multiplicative pointwise, for every k.
"""

from functools import cache
from math import factorial, perm
from operator import mul
from types import MappingProxyType

from . import partitions as pt
from .errors import DEFAULT_BUDGET, BudgetExceeded, InvariantViolation, SizeMismatch, exact_quotient
from .families import (
    PartitionFamily,
    _orbit_size,
    big_z,
    check_group,
    families_with_size,
    format_family,
    group_order,
    index_partitions,
    pad_family,
)
from .partitions import Partition

__all__ = [
    "sym_character",
    "dim_irrep",
    "shifted_power_sum_eval",
    "hyperoct_character",
    "wreath_character",
    "wreath_dim",
    "character_table",
    "has_character_table",
    "class_product",
    "level_terms",
    "group_terms",
    "verify_iso",
    "bipartitions_of",
    "transport_value",
]

Bipartition = tuple[Partition, Partition]


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


def shifted_power_sum_eval(delta, lam) -> "Fraction":
    """The shifted power sum indexed by delta at lam: two partitions, or two families of one k."""
    from fractions import Fraction

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
    """The `_tables` entry at (k, n), by the wreath Murnaghan-Nakayama rule.

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
    """A table's `_tables` entry: character_table's value, and (width, values, weights, folded, groups).

    `columns` maps each class to its column, in table order, and `dims` are
    the degrees.  `values` maps each class to its tuple of values at the
    degree-1 characters (2 of them at k = 1 and 4 at k >= 2, once n >= 2).
    Twisting chi by a degree-1 character eps gives the irreducible chi eps of
    the same degree; each irreducible's twists are looked up among the rows,
    and a table whose twists are not rows, or do not split the irreducibles
    into orbits, raises InvariantViolation.  One representative is kept per
    orbit, the first in table order: `weights` holds |orbit| |G| / chi(1) for
    each, `folded` maps each class to the tuple of the representatives'
    values there, and `groups` maps each degree-1 value tuple to (classes,
    rows): the classes that have it, in table order, and for the
    representative chi_i of position i, rows[i] = the sum of
    chi_i(gamma) << width * j over those classes gamma, gamma at position j,
    with width = bitlen(|G| ** 2) + 1.
    """
    chars = list(zip(*columns.values()))  # chars[i]: chi_i at each class, in table order
    linear = [i for i, dim in enumerate(dims) if dim == 1]
    where = {chi: i for i, chi in enumerate(chars)}
    orbits = [{where.get(tuple(map(mul, chi, chars[e]))) for e in linear} for chi in chars]
    for i, orbit in enumerate(orbits):
        if None in orbit or i not in orbit or any(orbits[j] != orbit for j in orbit):
            raise InvariantViolation(f"the twists of irreducible {i} by the degree-1 characters are no orbit")
    reps = [i for i, orbit in enumerate(orbits) if i == min(orbit)]
    weights = tuple(exact_quotient(order, dim, "|G| / chi(1)") for dim in dims)
    values, folded, groups = {}, {}, {}
    for fam, column in columns.items():
        key = values[fam] = tuple(column[i] for i in linear)
        folded[fam] = tuple(column[i] for i in reps)
        groups.setdefault(key, []).append(fam)
    width = (order * order).bit_length() + 1
    packed = {}
    for key, group in groups.items():
        rows = tuple(
            sum(v << width * j for j, v in enumerate(row))
            for row in zip(*(folded[fam] for fam in group))
        )
        packed[key] = (tuple(group), rows)
    table = (order, weights, MappingProxyType(columns))
    weights = tuple(len(orbits[i]) * weights[i] for i in reps)  # the representatives'
    folded, values, packed = map(MappingProxyType, (folded, values, packed))
    return table, (width, values, weights, folded, packed)


# (k, n) -> the `_entry` of the table at (k, n)
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
    process; `character_table.cache_clear()` drops every kept table.
    """
    return _table_entry(k, n)[0]


def class_product(left: PartitionFamily, right: PartitionFamily) -> dict:
    """C_left C_right as {gamma: c_gamma}, in the group of size n = |left| = |right|.

    The Frobenius formula over character_table(k, n), which is built if
    needed, summed over one irreducible per twist orbit, and only at the
    classes whose degree-1 values are the products of left's and right's, as
    one integer of packed slots (`_frobenius_sum`); README "How a product is
    counted" has the derivation and the slot bound.  A remainder raises
    InvariantViolation, and inputs of different k or size raise
    SizeMismatch.  Each call returns a new dict, so the caller may change
    it; it holds `level_terms`' terms with no scale and nothing subtracted.
    """
    flat, _ = level_terms(left, right)
    pairs = iter(flat)
    return dict(zip(pairs, pairs))


def level_terms(left: PartitionFamily, right: PartitionFamily, scale: int = 1, lower=None) -> tuple:
    """(flat, mass): one level of a universal product, read off the packed sum of left and right.

    Each slot of the sum, in table order, is an exact quotient c_gamma (a
    remainder raises InvariantViolation), times `scale`, less what `lower`
    holds at gamma: `lower` maps the labels already found, padded to this
    size, to their contributions, and is consumed as it is read.  The
    nonzero results are `flat`, (gamma, c, gamma, c, ...), and `mass` is
    the sum of c * |C_gamma|.  A negative result, or an entry of `lower`
    that no slot consumed, raises InvariantViolation.
    """
    width, classes, total = _frobenius_sum(left, right)
    z = big_z(left) * big_z(right)
    mask = (1 << width) - 1
    flat = []
    mass = 0
    for gamma in classes:
        slot = total & mask
        total >>= width
        # divide first: a slot scaled or lowered before the division could hide a remainder
        c = exact_quotient(slot, z, gamma) * scale if slot else 0
        if lower:
            c -= lower.pop(gamma, 0)
        if c > 0:
            flat += gamma, c
            mass += c * _orbit_size(gamma)
        elif c:
            _refuse(gamma, c)
    if lower:
        gamma, c = next(iter(lower.items()))
        _refuse(gamma, -c)
    return tuple(flat), mass


def _refuse(gamma, c):
    raise InvariantViolation(f"universal product cannot have c = {c} at {format_family(gamma)}")


def group_terms(left: PartitionFamily, right: PartitionFamily) -> tuple:
    """C_left C_right as a flat tuple (gamma, c_gamma, gamma, c_gamma, ...), mass-checked.

    The same sum as class_product, read in one loop over its slots, in
    table order: each nonzero slot is an exact quotient, so positive, and
    sum of c_gamma * |C_gamma| must equal |C_left| * |C_right|, else
    InvariantViolation, as `answers.check_mass` raises it.  The group
    route wraps the tuple as its vector without checking its terms again.
    """
    width, classes, total = _frobenius_sum(left, right)
    z = big_z(left) * big_z(right)
    mask = (1 << width) - 1
    flat = []
    mass = 0
    for gamma in classes:
        slot = total & mask
        if slot:
            c = exact_quotient(slot, z, gamma)
            flat += gamma, c
            mass += c * _orbit_size(gamma)
        total >>= width
    expected = _orbit_size(left) * _orbit_size(right)
    if mass != expected:
        raise InvariantViolation(
            f"group({left.size}) product mass {mass} != |C_left|*|C_right| = {expected}"
        )
    return tuple(flat)


def _frobenius_sum(left, right):
    """(width, classes, total): the packed Frobenius sum of left and right, and how to read it.

    `classes` are those whose degree-1 values are the products of left's
    and right's, in table order, and `total` holds c_gamma * z(left) *
    z(right) for the j-th of them in its slot j of `width` bits.  A table
    that gives no class those values gives no classes, and the empty product.
    """
    if left.k != right.k or left.size != right.size:
        raise SizeMismatch("a class product needs two families of the same k and size")
    key = left.k, left.size
    # a built table is read without a call: this runs once per product or level
    _, (width, values, weights, folded, groups) = _tables.get(key) or _table_entry(*key)
    group = groups.get(tuple(map(mul, values[left], values[right])))
    if group is None:
        # only a wrong table lacks them; the empty answer fails its mass check
        return width, (), 0
    classes, rows = group
    total = 0
    for a, b, weight, row in zip(folded[left], folded[right], weights, rows):
        if a and b:
            total += a * b * weight * row
    return width, classes, total


def _table_entry(k, n):
    entry = _tables.get((k, n))
    if entry is None:
        check_group(k, n)
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

    The default points, the families of size at most N = |left| + |right|,
    decide the identity: both sides are shifted symmetric functions of degree
    at most N, and the images of the labels of size at most N have full rank
    against these points (`test_transport_is_injective`).
    """
    from . import center

    if left.k != k or right.k != k:
        raise SizeMismatch("family k does not match the requested k")
    if eval_points is None:
        eval_points = default_eval_points(k, left.size + right.size)
    points = [_as_point(k, point) for point in eval_points]
    expansion = center._by_enumeration(left, right, None, budget)
    needed = len(points) * (len(expansion.terms) + 2)
    if needed > budget:
        raise BudgetExceeded(needed, budget, "transport evaluations")
    for point in points:
        lhs = transport_value(left, point) * transport_value(right, point)
        rhs = sum(coeff * transport_value(fam, point) for fam, coeff in expansion.items())
        if lhs != rhs:
            return False
    return True
